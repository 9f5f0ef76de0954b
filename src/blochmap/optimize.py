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

# radii x angles of the polar grid seeding maximize_on_disk and lambda_set
DISK_GRID = (64, 128)
# their first compass step: twice the grid's angular spacing, its wider one
GRID_STEP = 2.0 * np.pi / DISK_GRID[1]

# maximize_on_disk refines this many well-spread grid maxima
N_STARTS = 20


# While at most this many walkers are active, one objective call carries two
# compass iterations; the beta searches run about 20 walkers, level-set and
# certificate sweeps hundreds to thousands, where a call costs more than its
# overhead and the sixfold lookahead would not pay.
LOOKAHEAD_WALKERS = 64

_OFFSETS = np.array([1.0, -1.0, 1j, -1j])
_BLOCK_STARTS = 4 * np.arange(6)[:, None]


def polar_grid(n_radii, n_angles, r_max=DISK_RADIUS_CAP) -> np.ndarray:
    """The origin plus n_radii rings of n_angles points each, as a fresh array."""
    radii = np.linspace(0.0, r_max, n_radii + 1)[1:]
    angles = np.linspace(0.0, 2.0 * np.pi, n_angles, endpoint=False)
    rings = radii[:, None] * np.exp(1j * angles)[None, :]
    return np.concatenate(([0.0 + 0.0j], rings.ravel()))


# the DISK_GRID points, shared by every search and so read-only
_DISK_POINTS = polar_grid(*DISK_GRID)
_DISK_POINTS.setflags(write=False)


def compass_maximize(evaluate, starts, initial_step, *, step_tol=1e-10,
                     max_iter=3000, walkers=None):
    """Lockstep compass ascent from every start; returns (points, values).

    ``evaluate(z, walkers)`` takes a complex array and, when ``walkers`` is
    given, an equally shaped integer array routing each entry to its own
    objective (used to refine many mappings in one sweep).  Each iteration
    moves a walker to the best of its four compass candidates when that
    beats its value and halves its step otherwise.  A walker whose step has
    shrunk below ``step_tol`` is frozen; every walker stops after
    ``max_iter`` iterations.

    Only comparisons of values decide, so while at most
    ``LOOKAHEAD_WALKERS`` walkers are active one call evaluates every point
    the next two iterations can visit (the four candidates, the four that
    follow a halving and the sixteen that follow each possible move) and
    applies both.  Each point is built by the expression a single iteration
    would use, so the walks are the same to the last bit.  This relies on
    ``evaluate`` being pure and pointwise: a point's value may not depend on
    the other points of the same call, and ``evaluate`` may be called on
    speculative points the walk never visits, inside or outside
    ``DISK_RADIUS_CAP``.
    The in-tree objectives meet this; each is an elementwise Horner
    evaluation: ``mapping._weighted_abs_sum``, which ``maximize_on_disk``
    (with its level walkers, for ``lambda_set`` and ``sup_modulus``), the
    level walkers alone of ``_level_walks`` and the touching-point
    refinement of ``support_certificate`` maximize, and the routed
    ``mu_rows`` of ``support._batch_ratio_max``.

    With more walkers active, one call carries one iteration.  A walker
    moves when the largest value among its candidates beats its own; a NaN
    candidate makes that maximum NaN and so keeps the walker in place, as it
    would if argmax picked the NaN.  Only the walkers that move look up
    which candidate won.  Candidates beyond ``DISK_RADIUS_CAP`` count as
    ``-inf``; that mask is applied only to walkers whose ``|z| + step`` comes
    within 1e-9 of the cap, since from further in rounding cannot carry a
    candidate past it.
    """
    z = np.array(starts, dtype=complex)
    walkers = None if walkers is None else np.asarray(walkers)
    v = evaluate(z, walkers)
    step = np.full(z.size, float(initial_step))
    # the active walkers, compacted; each is written back before it is dropped
    idx = np.flatnonzero(step > step_tol)
    za, va, sa = z[idx], v[idx], step[idx]
    wa = None if walkers is None else walkers[idx]
    columns = np.arange(idx.size)
    every = columns
    # the walkers run in lockstep, so this counts each active walker's iterations
    done = 0
    while done < max_iter and idx.size:
        n = idx.size
        moves = _OFFSETS[:, None] * sa[None, :]
        two = n <= LOOKAHEAD_WALKERS and done + 1 < max_iter
        if two:
            # block 0 (rows 0-3) holds the candidates, block 1 those that
            # follow a halving and block 2+k those that follow a move to
            # candidate k
            pts = np.empty((24, n), dtype=complex)
            np.add(za[None, :], moves, out=pts[:4])
            np.add(za[None, :], _OFFSETS[:, None] * (sa * 0.5)[None, :], out=pts[4:8])
            np.add(pts[:4, None, :], moves[None, :, :], out=pts[8:].reshape(4, 4, n))
        else:
            pts = za[None, :] + moves
        wk = None if wa is None else np.tile(wa, pts.shape[0])
        vals = evaluate(pts.ravel(), wk).reshape(pts.shape)
        if two:
            vals[np.abs(pts) > DISK_RADIUS_CAP] = -np.inf
            # each block's best row and value
            pick = vals.reshape(-1, 4, n).argmax(axis=1)
            rows = _BLOCK_STARTS + pick
            best = vals[rows, every]
            moved = best[0] > va
            np.copyto(za, pts[pick[0], every], where=moved)
            np.copyto(va, best[0], where=moved)
            np.multiply(sa, 0.5, out=sa, where=~moved)
            block = np.where(moved, pick[0] + 2, 1)
            second = best[block, every]
            # a walker frozen by the first iteration stays where it is
            moved = (second > va) & (sa > step_tol)
            np.copyto(za, pts[rows[block, every], every], where=moved)
            np.copyto(va, second, where=moved)
            np.multiply(sa, 0.5, out=sa, where=~moved)
            done += 2
        else:
            # only walkers at the rim can have a candidate past the cap
            rim = np.flatnonzero(np.abs(za) + sa > DISK_RADIUS_CAP - 1e-9)
            if rim.size:
                vals[:, rim] = np.where(np.abs(pts[:, rim]) > DISK_RADIUS_CAP, -np.inf,
                                        vals[:, rim])
            # a NaN candidate makes its column max NaN, which moves nothing
            moved = vals.max(axis=0) > va
            cols = np.flatnonzero(moved)
            pick = vals[:, cols].argmax(axis=0)
            za[cols] = pts[pick, cols]
            va[cols] = vals[pick, cols]
            np.multiply(sa, 0.5, out=sa, where=~moved)
            done += 1
        live = sa > step_tol
        if np.count_nonzero(live) < n:
            z[idx], v[idx] = za, va
            idx, za, va, sa = idx[live], za[live], va[live], sa[live]
            wa = None if wa is None else wa[live]
            every = columns[:idx.size]
    z[idx], v[idx] = za, va
    return z, v


@dataclass(frozen=True)
class MaximizationResult:
    value: float
    accuracy: float
    argmax: complex


# points of the value order tested per vectorized pass of _spread_top_indices
SPREAD_WINDOW = 128


def _far_from(cand, p, min_sep):
    # |cand - p| >= min_sep; np.hypot rounds as abs() of one numpy complex
    # does, where np.abs of a complex array may take a SIMD path that differs
    # in the last bit
    d = cand - p
    return np.hypot(d.real, d.imag) >= min_sep


def _spread_top_indices(points, order, count, min_sep):
    """Greedy pick of high-value grid points kept pairwise min_sep apart.

    Walks the points in ``order``, their indices by descending value as
    ``argsort(values)[::-1]`` gives them, and accepts one
    unless it lies within ``min_sep`` of an earlier pick.  The order is read
    in windows of ``SPREAD_WINDOW`` points: each window is first tested
    against the picks already made, then every pick made inside it excludes
    its later neighbours in one vectorized pass.  A distance is computed from
    the same difference ``candidate - pick`` as a pairwise loop would, so the
    picks are the loop's to the last bit; a NaN distance excludes, as it
    does there.
    """
    cand = points[order]
    chosen = []
    for start in range(0, order.size, SPREAD_WINDOW):
        win = cand[start:start + SPREAD_WINDOW]
        picks = cand[chosen]
        alive = _far_from(win[None, :], picks[:, None], min_sep).all(axis=0)
        i = 0
        while i < win.size:
            i += int(alive[i:].argmax())
            if not alive[i]:
                break
            chosen.append(start + i)
            if len(chosen) == count:
                return order[chosen]
            i += 1
            alive[i:] &= _far_from(win[i:], win[i - 1], min_sep)
    return order[chosen]


def _level_seeds(gv, order, level):
    """Grid indices seeding a level-set search: the grid points within 0.02
    of ``level`` and the 8 best, capped at the 4096 best, given the grid
    values ``gv`` and their descending ``order``."""
    seeds = np.union1d(np.flatnonzero(np.abs(gv - level) <= 0.02), order[:8])
    if seeds.size > 4096:
        seeds = seeds[np.argsort(gv[seeds])[::-1][:4096]]
    return seeds


def _level_walks(values, level):
    """The level walkers of ``maximize_on_disk(values, level)`` without its
    maximum search, for an objective whose maximum is already known; returns
    their converged (points, values)."""
    gv = values(_DISK_POINTS)
    starts = _DISK_POINTS[_level_seeds(gv, np.argsort(gv)[::-1], level)]
    return compass_maximize(lambda z, _w: values(z), starts, GRID_STEP)


def maximize_on_disk(values, level=None):
    """Maximize a vectorized objective ``values(z_array)`` over the disk.

    The ``DISK_GRID`` polar grid is evaluated and sorted once, and
    ``N_STARTS`` well-spread grid maxima seed compass ascents; the best
    converged value, checked by four probes 1e-6 away, is the result.

    With ``level``, the same compass run also starts a walker from each
    seed of ``_level_seeds``, and ``(result, points, values)`` is returned
    with those walkers' converged points and values.  A walk depends only on
    its start and on pointwise values, so both results are those of two
    separate runs, bit for bit, from one grid evaluation and one sort.
    """
    gv = values(_DISK_POINTS)
    order = np.argsort(gv)[::-1]
    seeds = _spread_top_indices(_DISK_POINTS, order, N_STARTS, GRID_STEP)
    starts = _DISK_POINTS[seeds]
    if level is not None:
        starts = np.concatenate((starts, _DISK_POINTS[_level_seeds(gv, order, level)]))

    def ev(z, _walkers):
        return values(z)

    pts, vals = compass_maximize(ev, starts, GRID_STEP)
    k = int(np.argmax(vals[:seeds.size]))
    best_z = complex(pts[k])
    best_v = float(vals[k])
    probes = best_z + 1e-6 * _OFFSETS
    # the compass keeps best_z within the cap, so the probe stepped toward
    # the origin always survives this filter
    probes = probes[np.abs(probes) <= DISK_RADIUS_CAP]
    pv = values(probes)
    j = int(np.argmax(pv))
    drop = best_v - float(pv[j])
    if drop < 0.0:
        best_v = float(pv[j])
        best_z = complex(probes[j])
    result = MaximizationResult(best_v, max(1e-12, abs(drop)), best_z)
    if level is None:
        return result
    return result, pts[seeds.size:], vals[seeds.size:]
