"""Command line front end: every analysis as a subcommand emitting JSON (or
CSV for grid dumps) with reproducible seeds and script-friendly exit codes."""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys

import numpy as np

from .mapping import (
    _read_json,
    _tail_allowance,
    bloch_norm,
    estimate_bloch_constant,
    lambda_set,
    load_mapping,
    mapping_to_dict,
    mu_grid_rows,
)
from .extremal import (
    MAX_EXPONENT,
    counterexample_family,
    extreme_necessity,
    membership,
    midpoint_check,
    sharpening_exponent,
)
from .support import (
    FalsifierStatus,
    LinearFunctional,
    bonk_constants,
    decompose_support_point,
    dilation_bound,
    functional_eval,
    lift_to_derivative,
    perturbation_falsifier,
    support_certificate,
    verify_bonk_constants,
)
from .series import differentiate

class _ArgumentError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _ArgumentError(message)


# rows the CSV renderer lays out in numpy at a time; a block's temporaries
# peak near 0.75 KB per row of three values, and 1024-row blocks leave the
# process's peak resident memory where the row-wise renderer left it
CSV_BLOCK_ROWS = 1024

# 10**k is an exact double for 0 <= k <= 22
_POW10 = 10.0 ** np.arange(23)
# the text of each value before its digits: "0." and the zeros of an
# exponent E = 0, -1, ..., -4, NUL-padded to 6 slots
_PREFIX = np.array([[0] * 6] + [list(b"0." + b"0" * k) + [0] * (4 - k) for k in range(4)],
                   dtype=np.uint8)
# the two characters of 0, ..., 99
_PAIRS = np.array([divmod(i, 10) for i in range(100)], dtype=np.uint8) + ord("0")
# row k keeps the first k + 1 of 17 digits
_KEEP = np.tri(17, dtype=np.uint8) * 255


def _two_product(a, b):
    # Dekker's product: p + e == a*b exactly; Veltkamp splits in separate
    # ufuncs, so no step is fused into an fma
    p = a * b
    c = 134217729.0 * a
    ah = c - (c - a)
    al = a - ah
    c = 134217729.0 * b
    bh = c - (c - b)
    bl = b - bh
    return p, ((ah * bh - p) + ah * bl + al * bh) + al * bl


def _digit_chars(D: np.ndarray) -> np.ndarray:
    # the 17 decimal digits of each D in [1e16, 1e17) as ASCII, split by
    # scalar divisions down to pairs that one table lookup writes
    n = len(D)
    lead, rest = np.divmod(D, 10 ** 16)
    halves = np.stack(np.divmod(rest, 10 ** 8), axis=1)
    quarters = np.stack(np.divmod(halves, 10 ** 4), axis=2).reshape(n, 4)
    pairs = np.stack(np.divmod(quarters, 100), axis=2).reshape(n, 8)
    chars = np.empty((n, 17), dtype=np.uint8)
    chars[:, 0] = lead + ord("0")
    chars[:, 1:] = np.take(_PAIRS, pairs, axis=0).reshape(n, 16)
    return chars


def _format_block(values: np.ndarray) -> bytes:
    """The rows of ``values`` as CSV lines, each one preceded by its newline,
    with every float written exactly as ``format(x, ".17g")`` writes it.

    Every value gets 41 slots: its separator, sign, the "0." prefix of a
    value below one, then 17 digit slots with a point slot after each digit
    but the last.  Unused slots hold NUL, which is dropped at the end."""
    n_rows, n_cols = values.shape
    x = values.ravel()
    ax = np.abs(x)
    # 1e-4 <= |x| < 1e16 is written in fixed notation with at most 17
    # significant digits; NaN fails both tests
    fast = (ax >= 1e-4) & (ax < 1e16)
    a = np.where(fast, ax, 1.0)
    # the decimal exponent E of a, so that 1e16 <= a * 10**(16 - E) < 1e17;
    # log10 may miss by one next to a power of ten, which the exact product
    # shows and corrects
    E = np.floor(np.log10(a)).astype(np.int64)
    p, e = _two_product(a, np.take(_POW10, 16 - E))
    high = (p > 1e17) | ((p == 1e17) & (e >= 0))
    low = (p < 1e16) | ((p == 1e16) & (e < 0))
    miss = np.flatnonzero(high | low)
    if miss.size:
        E[miss] += np.where(high[miss], 1, -1)
        p[miss], e[miss] = _two_product(a[miss], np.take(_POW10, 16 - E[miss]))
    # p >= 1e16 > 2**53 is an even integer, so adding rint(e) rounds the
    # exact product half to even, as the conversion does.  No rounding
    # carries to 1e17: the largest double below each 10**k, -3 <= k <= 16,
    # lies at least 8 units of its 17th digit below it
    chars = _digit_chars(p.astype(np.int64) + np.rint(e).astype(np.int64))
    # the last digit written: the last nonzero one, or the units digit
    last = np.maximum(16 - np.argmax(chars[:, ::-1] != ord("0"), axis=1), E)
    slots = np.zeros((len(x), 41), dtype=np.uint8)
    slots[:, 1] = np.where(np.signbit(x), ord("-"), 0)
    slots[:, 2:8] = np.take(_PREFIX, np.clip(-E, 0, 4), axis=0)
    slots[:, 8::2] = chars & np.take(_KEEP, last, axis=0)
    # the point after the units digit, when digits follow it; below one the
    # prefix holds it
    frac = np.flatnonzero((E >= 0) & (last > E))
    slots.reshape(-1)[frac * 41 + 9 + 2 * E[frac]] = ord(".")
    # a zero keeps its sign and writes "0" over the "1" of its stand-in
    # a = 1; every other value outside the fast range takes the conversion
    slots[x == 0, 8] = ord("0")
    for i in np.flatnonzero(~fast & (x != 0)):
        text = b"%.17g" % x[i]
        slots[i, 1:] = 0
        slots[i, 1:1 + len(text)] = np.frombuffer(text, dtype=np.uint8)
    # each row starts with its newline, each later value with a comma
    slots.reshape(n_rows, n_cols, 41)[:, :, 0] = [ord("\n")] + [ord(",")] * (n_cols - 1)
    return slots.tobytes().translate(None, b"\0")


def _render_csv(rows: np.ndarray) -> str:
    # each block's lines start with their newline, so the header and the
    # blocks join without a trailing newline to cut off
    parts = ["re,im,mu"]
    for start in range(0, len(rows), CSV_BLOCK_ROWS):
        parts.append(_format_block(rows[start:start + CSV_BLOCK_ROWS]).decode("ascii"))
    return "".join(parts)


def _render(payload: dict) -> str:
    try:
        return json.dumps(payload, indent=2, allow_nan=False)
    except ValueError as exc:
        raise ValueError("payload contains a non-finite number") from exc


def _parse_complex(text: str) -> complex:
    try:
        values = [float(p) for p in text.split(",")]
    except ValueError:
        values = []
    if len(values) in (1, 2) and all(math.isfinite(v) for v in values):
        return complex(*values)
    raise argparse.ArgumentTypeError(
        f"complex values are written 're' or 're,im' with finite parts, got {text!r}")


def _parse_grid(text: str) -> dict:
    # the grid keywords of mu_grid_rows; without --grid they keep their defaults
    parts = text.lower().split("x")
    if len(parts) == 2 and parts[0].isdecimal() and parts[1].isdecimal():
        r, t = int(parts[0]), int(parts[1])
        if r > 0 and t > 0:
            return {"n_radii": r, "n_angles": t}
    raise argparse.ArgumentTypeError(f"grid sizes are written RxT, e.g. 64x128, got {text!r}")


def _parse_seed(text: str) -> int:
    # numpy would refuse a negative seed only once the analysis reaches its sampler
    if text.isdecimal():
        return int(text)
    raise argparse.ArgumentTypeError(f"seeds are nonnegative integers, got {text!r}")


def _input_mapping(args):
    # the parser requires exactly one of the two
    if args.mapping is None:
        return counterexample_family(args.family_a)
    f = load_mapping(args.mapping)
    if not math.isfinite(_tail_allowance(f)):  # refused before any search
        raise ValueError(f"mapping file {args.mapping} declares an unbounded tail")
    return f


def _load_functional(path: str) -> LinearFunctional:
    return LinearFunctional.from_dict(_read_json(path, "functional"))


# each handler returns (output, flag): a JSON payload dict or CSV text, and
# None or the one-line diagnostic of a FLAGGED result
def _cmd_beta(args):
    f = _input_mapping(args)
    est = estimate_bloch_constant(f)
    return {
        "beta": est.value,
        "accuracy": est.accuracy,
        "argmax": [est.argmax.real, est.argmax.imag],
        "norm": bloch_norm(f),
    }, None


def _cmd_mu_grid(args):
    rows = mu_grid_rows(_input_mapping(args), **args.grid)
    # refused as _render refuses a JSON payload; _render_csv would write it
    if not np.isfinite(rows).all():
        raise ValueError("payload contains a non-finite number")
    return _render_csv(rows), None


def _cmd_lambda(args):
    rep = lambda_set(_input_mapping(args))
    flag = ("Bloch norm over one beyond its accuracy (outside the unit ball), or on the"
            " level with tails over LEVEL_TOL; level-set points are unreliable")
    return rep.to_dict(), flag if rep.flagged else None


def _cmd_membership(args):
    rep = membership(_input_mapping(args))
    flag = "norm sits on the unit sphere within optimizer accuracy"
    return rep.to_dict(), flag if rep.marginal else None


def _cmd_counterexample(args):
    return mapping_to_dict(counterexample_family(args.family_a)), None


def _cmd_midpoint(args):
    return {"a": args.a, "is_midpoint": midpoint_check(_input_mapping(args), args.a)}, None


def _cmd_extreme_check(args):
    return extreme_necessity(_input_mapping(args)).to_dict(), None


def _cmd_sharpen(args):
    result = sharpening_exponent(_input_mapping(args), args.z0, args.delta0)
    if result is None:
        diag = f"no exponent up to {MAX_EXPONENT} closed the bound; input flagged for review"
        return {"status": "NOT_FOUND"}, diag
    # sharpening_exponent returns only witnesses whose dense-grid margin
    # exceeds MARGIN_FLOOR, so a found witness is never flagged
    return {"status": "FOUND", **result.to_dict()}, None


def _cmd_functional(args):
    L = _load_functional(args.functional)
    f = _input_mapping(args)
    value = functional_eval(L, f)
    payload = {"value": [value.real, value.imag]}
    if args.lift:
        lifted = lift_to_derivative(L)
        lifted_value = functional_eval(lifted, (differentiate(f.h), differentiate(f.g)))
        payload["lift"] = {
            **lifted.to_dict(),
            "value_on_derivatives": [lifted_value.real, lifted_value.imag],
        }
    if args.eps is not None:
        K, actual = dilation_bound(L, f, args.eps)
        payload["dilation"] = {"eps": args.eps, "K": K, "actual": actual}
    return payload, None


def _cmd_certify_support(args):
    cert = support_certificate(_input_mapping(args), args.samples, args.seed)
    if cert is None:
        return {"status": "NONE"}, None
    return {"status": "CERTIFIED", **cert.to_dict()}, None


def _cmd_bonk(args):
    bc = bonk_constants(args.m)
    slack = verify_bonk_constants(bc, n_samples=args.samples, seed=args.seed)
    return {**bc.to_dict(), "verified_min_slack": slack,
            "verification_samples": args.samples}, None


def _cmd_falsify(args):
    outcome = perturbation_falsifier(_load_functional(args.functional), _input_mapping(args))
    failed = outcome.status is FalsifierStatus.CONSTRUCTION_FAILED
    return outcome.to_dict(), outcome.message if failed else None


def _cmd_decompose(args):
    d = decompose_support_point(_input_mapping(args))
    if d is None:
        return {"status": "NONE"}, None
    return {"status": "DECOMPOSED", **d.to_dict()}, None


# add_argument settings of every option a subcommand can read; a required
# option is required by every subcommand that reads it
_OPTIONS = {
    "--mapping": {"metavar": "FILE", "help": "mapping spec JSON with h/g coefficient lists"},
    "--family-a": {"type": float, "metavar": "A",
                   "help": "build the quadratic counterexample family member f_A"},
    "--samples": {"type": int},
    "--seed": {"type": _parse_seed, "default": 0},
    "--grid": {"type": _parse_grid, "default": {}, "metavar": "RxT",
               "help": "polar grid sizes, radii x angles (default 64x128)"},
    "--a": {"type": float, "required": True, "help": "family parameter to test against"},
    "--z0": {"type": _parse_complex, "required": True, "metavar": "RE[,IM]"},
    "--delta0": {"type": float, "required": True},
    "--functional": {"metavar": "FILE", "required": True,
                     "help": "functional spec JSON with A/B weight lists"},
    "--lift": {"action": "store_true",
               "help": "also report the derivative-side lift and its value"},
    "--eps": {"type": float, "help": "also report the dilation bound at this eps"},
    "--m": {"type": float, "required": True, "help": "nonnegative level M"},
    "--out": {"metavar": "FILE", "help": "write output here instead of stdout"},
}

_MAPPING = ("--mapping", "--family-a")

# subcommand -> (handler, help, the options it reads besides --out); an
# option nothing reads is an "unrecognized arguments" error
_COMMANDS = {
    "beta": (_cmd_beta, "Bloch constant, accuracy and norm", _MAPPING),
    "mu-grid": (_cmd_mu_grid, "CSV dump re,im,mu over a polar grid", (*_MAPPING, "--grid")),
    "lambda": (_cmd_lambda, "locate and classify the unit level set of mu", _MAPPING),
    "membership": (_cmd_membership, "Bloch-type ball membership report", _MAPPING),
    "counterexample": (_cmd_counterexample, "emit the family member f_A as mapping JSON",
                       ("--family-a",)),
    "midpoint": (_cmd_midpoint, "check f against the family midpoint identity at --a",
                 (*_MAPPING, "--a")),
    "extreme-check": (_cmd_extreme_check, "necessary-condition screen for extreme points",
                      _MAPPING),
    "sharpen": (_cmd_sharpen, "search the sharpened weighted-derivative bound exponent",
                (*_MAPPING, "--z0", "--delta0")),
    "functional": (_cmd_functional, "evaluate a coefficient functional on a mapping",
                   (*_MAPPING, "--functional", "--lift", "--eps")),
    "certify-support": (_cmd_certify_support,
                        "support-point certificate over sampled ball members",
                        (*_MAPPING, "--samples", "--seed")),
    "bonk": (_cmd_bonk, "boundary annulus constants for level --m",
             ("--m", "--samples", "--seed")),
    "falsify": (_cmd_falsify, "dilation-plus-bump improvement against a functional",
                (*_MAPPING, "--functional")),
    "decompose": (_cmd_decompose, "peel the unimodular constant off a support-point candidate",
                  _MAPPING),
}

# --samples has a default per subcommand
_SAMPLES = {"certify-support": 10000, "bonk": 10 ** 5}


@functools.cache
def _build_parser() -> _Parser:
    # built once per process: parse_args reads the parser and never changes it
    parser = _Parser(prog="blochmap",
                     description="Bloch constants, unit level sets and support "
                                 "certificates for planar harmonic mappings")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (handler, text, options) in _COMMANDS.items():
        p = sub.add_parser(name, help=text)
        # exactly one mapping source: argparse reports a missing or a second one
        source = p.add_mutually_exclusive_group(required=True) \
            if set(options) & set(_MAPPING) else None
        for flag in (*options, "--out"):
            (source if flag in _MAPPING else p).add_argument(flag, **_OPTIONS[flag])
        p.set_defaults(handler=handler)
        if name in _SAMPLES:
            p.set_defaults(samples=_SAMPLES[name])
    return parser


def main(argv=None) -> int:
    """Run one subcommand; return 0, 2 when FLAGGED, or 1 on an error, which
    prints one line to stderr and no payload.  ``--out`` is opened only once
    the payload has rendered."""
    try:
        args = _build_parser().parse_args(argv)
        output, flag = args.handler(args)
        text = output if isinstance(output, str) else _render(output)
        if args.out is not None:
            with open(args.out, "w", encoding="utf-8") as fh:
                # two writes: text + "\n" would copy a multi-megabyte CSV
                fh.write(text)
                fh.write("\n")
    except (_ArgumentError, ValueError, RuntimeError, OSError, MemoryError) as exc:
        print(str(exc) or "unspecified error", file=sys.stderr)
        return 1
    if flag is not None:
        print(flag, file=sys.stderr)
    if args.out is None:
        try:
            print(text)
        except BrokenPipeError:
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return 0 if flag is None else 2


if __name__ == "__main__":
    sys.exit(main())
