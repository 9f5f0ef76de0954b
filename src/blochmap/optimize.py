"""Grid-seeded derivative-free maximization on the unit disk.

The objectives here (weighted derivative or modulus sums) are cheap on arrays
but not smooth where an analytic derivative vanishes, so refinement uses a
compass pattern search with step halving instead of a gradient method.  All
searches are deterministic: fixed polar grids seed the ascents and results
combine by max-reduction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["polar_grid", "compass_maximize", "maximize_on_disk", "MaximizationResult"]

# searches never leave |z| <= 1 - 1e-9
DISK_RADIUS_CAP = 1.0 - 1e-9


def polar_grid(n_radii=64, n_angles=128, r_max=DISK_RADIUS_CAP) -> np.ndarray:
    """The origin plus n_radii rings of n_angles points each."""
    radii = np.linspace(0.0, r_max, n_radii + 1)[1:]
    angles = np.linspace(0.0, 2.0 * np.pi, n_angles, endpoint=False)
    rings = radii[:, None] * np.exp(1j * angles)[None, :]
    return np.concatenate(([0.0 + 0.0j], rings.ravel()))


def compass_maximize(evaluate, starts, initial_step, *, step_tol=1e-10,
                     r_max=DISK_RADIUS_CAP, max_iter=3000, walkers=None):
    """Lockstep compass ascent from every start; returns (points, values).

    ``evaluate(z, walkers)`` takes a complex array and, when ``walkers`` is
    given, an equally shaped integer array routing each entry to its own
    objective (used to refine many mappings in one sweep).  A walker whose
    step has shrunk below ``step_tol`` is frozen.
    """
    z = np.array(starts, dtype=complex)
    walkers = None if walkers is None else np.asarray(walkers)
    v = evaluate(z, walkers)
    step = np.full(z.size, float(initial_step))
    offsets = np.array([1.0, -1.0, 1j, -1j])
    for _ in range(max_iter):
        act = np.flatnonzero(step > step_tol)
        if act.size == 0:
            break
        zc = z[act][None, :] + offsets[:, None] * step[act][None, :]
        wk = None if walkers is None else np.tile(walkers[act], offsets.size)
        vc = evaluate(zc.ravel(), wk).reshape(offsets.size, act.size)
        vc[np.abs(zc) > r_max] = -np.inf
        pick = vc.argmax(axis=0)
        cols = np.arange(act.size)
        best = vc[pick, cols]
        improved = best > v[act]
        moved = act[improved]
        z[moved] = zc[pick[improved], cols[improved]]
        v[moved] = best[improved]
        step[act[~improved]] *= 0.5
    return z, v


@dataclass(frozen=True)
class MaximizationResult:
    value: float
    accuracy: float
    argmax: complex


def _spread_top_indices(points, values, count, min_sep):
    # greedy pick of high-value grid points kept pairwise min_sep apart
    order = np.argsort(values)[::-1]
    chosen = []
    for i in order:
        p = points[i]
        if all(abs(p - points[j]) >= min_sep for j in chosen):
            chosen.append(int(i))
            if len(chosen) == count:
                break
    return np.asarray(chosen, dtype=int)


def maximize_on_disk(values, n_radii=64, n_angles=128, n_starts=20,
                     step_tol=1e-10, r_max=DISK_RADIUS_CAP) -> MaximizationResult:
    """Maximize a vectorized objective ``values(z_array)`` over the disk."""
    grid = polar_grid(n_radii, n_angles, r_max)
    gv = values(grid)
    spacing = max(r_max / n_radii, np.pi / n_angles)
    seeds = _spread_top_indices(grid, gv, n_starts, 2.0 * spacing)

    def ev(z, _walkers):
        return values(z)

    pts, vals = compass_maximize(ev, grid[seeds], 2.0 * spacing,
                                 step_tol=step_tol, r_max=r_max)
    k = int(np.argmax(vals))
    best_z = complex(pts[k])
    best_v = float(vals[k])
    probes = best_z + 1e-6 * np.array([1.0, -1.0, 1j, -1j])
    probes = probes[np.abs(probes) <= r_max]
    drop = 0.0
    if probes.size:
        pv = values(probes)
        j = int(np.argmax(pv))
        drop = best_v - float(pv[j])
        if drop < 0.0:
            best_v = float(pv[j])
            best_z = complex(probes[j])
    accuracy = max(1e-12, abs(drop))
    return MaximizationResult(best_v, accuracy, best_z)
