"""Environment stamp and the ``polyval_batch`` kernel probe.

The probe times ``blochmap.series.polyval_batch`` with one coefficient vector
at degrees 8 and 60, on an array that stays in the per-core cache and on one
that does not.  It reports points/s and the bytes the Horner loop computes
with: each of the K-1 steps runs ``out *= z`` (read out and z, write out) and
``out += c`` (read and write out), 5 x 16 bytes per point, plus 2 x 16 for the
initial copy.  A memory-bandwidth figure is given only when the large array
is at least 4x the last-level cache, since otherwise the cache serves it.
"""

from __future__ import annotations

import ctypes
import glob
import hashlib
import os
import platform
import subprocess
import sys
import time

import numpy as np

from blochmap.series import polyval_batch

SMALL_POINTS = 4096           # 64 KiB of complex128: L1/L2 resident
LARGE_POINTS = 1 << 21        # 32 MiB of complex128
MIN_TIMED_S = 0.05
REPEATS = 5
STEP_BYTES = 5 * 16
INIT_BYTES = 2 * 16


def _cache_sizes():
    """{level: bytes} of the data/unified caches of cpu0, from sysfs."""
    sizes = {}
    for d in glob.glob("/sys/devices/system/cpu/cpu0/cache/index*"):
        try:
            with open(os.path.join(d, "type")) as fh:
                if fh.read().strip() == "Instruction":
                    continue
            with open(os.path.join(d, "level")) as fh:
                level = int(fh.read())
            with open(os.path.join(d, "size")) as fh:
                text = fh.read().strip()
        except (OSError, ValueError):
            continue
        scale = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}.get(text[-1:], 1)
        sizes[level] = int(text.rstrip("KMG")) * scale
    return sizes


def _blas_threads():
    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*.so*")):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit(root):
    if not os.path.isdir(os.path.join(root, ".git")):
        return None
    try:
        out = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10, check=True)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def _source_digest(root):
    """sha256 over the package sources; identifies the code where git cannot."""
    h = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(root, "src", "blochmap", "*.py"))):
        h.update(os.path.basename(path).encode())
        with open(path, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def environment(root):
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError):
        blas = {}
    caches = _cache_sizes()
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "llc_bytes": caches[max(caches)] if caches else None,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "git_commit": _git_commit(root),
        "src_sha256": _source_digest(root),
    }


def _time_kernel(c, z):
    per_call = []
    for _ in range(REPEATS):
        n = 0
        t0 = time.perf_counter()
        while True:
            polyval_batch(c, z)
            n += 1
            elapsed = time.perf_counter() - t0
            if elapsed >= MIN_TIMED_S:
                break
        per_call.append(elapsed / n)
    return float(np.median(per_call))


def polyval_probe():
    caches = _cache_sizes()
    llc = caches[max(caches)] if caches else None
    rng = np.random.default_rng(0)
    out = {"llc_bytes": llc}
    for label, npts in (("cache", SMALL_POINTS), ("large", LARGE_POINTS)):
        z = 0.9 * np.exp(2j * np.pi * rng.uniform(size=npts))
        for degree in (8, 60):
            c = rng.standard_normal(degree + 1) + 1j * rng.standard_normal(degree + 1)
            sec = _time_kernel(c, z)
            bytes_per_call = npts * (STEP_BYTES * degree + INIT_BYTES)
            key = f"deg{degree}_{label}"
            out[key] = {
                "points": npts,
                "array_bytes": int(z.nbytes),
                "points_per_s": npts / sec,
                "terms_per_s": npts * degree / sec,
                "computed_bytes_per_s": bytes_per_call / sec,
                "terms_per_byte": npts * degree / bytes_per_call,
            }
            if llc is not None and z.nbytes >= 4 * llc:
                out[key]["bandwidth_bytes_per_s"] = bytes_per_call / sec
    return out
