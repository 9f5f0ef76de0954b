"""Planar harmonic mappings f = h + conj(g) and their Bloch-type functionals.

Everything is driven by the weighted derivative modulus

    mu_f(z) = (1 - |z|^2) (|h'(z)| + |g'(z)|),

whose supremum over the disk is the Bloch constant of f.  The module also
locates and classifies the level set where mu_f equals one, which is the
evidence the extremal and support-point analyses consume.
"""

from __future__ import annotations

import enum
import functools
import json
from dataclasses import dataclass

import numpy as np

from .series import AnalyticSeries, differentiate, eval_series, linear_combination, polyval_batch
from .optimize import (DISK_GRID, DISK_RADIUS_CAP, MaximizationResult, _level_walks,
                       maximize_on_disk, polar_grid)

__all__ = [
    "Ternary",
    "LevelSetShape",
    "HarmonicMapping",
    "LambdaReport",
    "mu",
    "bloch_constant",
    "estimate_bloch_constant",
    "bloch_norm",
    "metric_beta_estimate",
    "little_bloch_status",
    "sup_modulus",
    "lambda_set",
    "add_mappings",
    "scale_mapping",
    "mapping_to_dict",
    "mapping_from_dict",
    "save_mapping",
    "load_mapping",
    "mu_grid_rows",
]


class Ternary(str, enum.Enum):
    TRUE = "TRUE"
    FALSE = "FALSE"
    UNDECIDED = "UNDECIDED"


class LevelSetShape(str, enum.Enum):
    EMPTY = "EMPTY"
    ISOLATED = "ISOLATED"
    CURVE_LIKE = "CURVE_LIKE"


@dataclass(frozen=True, eq=False)
class HarmonicMapping:
    """f = h + conj(g) in canonical form: the co-analytic part vanishes at 0."""

    h: AnalyticSeries
    g: AnalyticSeries

    def __post_init__(self):
        if self.g.coefficients[0] != 0:
            raise ValueError("canonical form requires g(0) = 0")

    def __call__(self, z) -> complex:
        return eval_series(self.h, z) + eval_series(self.g, z).conjugate()

    @property
    def value_at_origin(self) -> complex:
        return complex(self.h.coefficients[0])

    @functools.cached_property
    def _estimate(self) -> MaximizationResult:
        # the memo of estimate_bloch_constant, held in the instance dict;
        # lambda_set or _peel_constant may fill it first
        return _with_tail_accuracy(self, maximize_on_disk(_mu_values(self)))


def add_mappings(f1: HarmonicMapping, f2: HarmonicMapping) -> HarmonicMapping:
    return HarmonicMapping(
        linear_combination(1.0, f1.h, 1.0, f2.h),
        linear_combination(1.0, f1.g, 1.0, f2.g),
    )


def _scale_parts(f: HarmonicMapping, ch, cg) -> HarmonicMapping:
    zero = AnalyticSeries([0.0])
    return HarmonicMapping(linear_combination(ch, f.h, 0.0, zero),
                           linear_combination(cg, f.g, 0.0, zero))


def scale_mapping(f: HarmonicMapping, factor) -> HarmonicMapping:
    """Scale both parts; a real factor scales mu_f by |factor|."""
    return _scale_parts(f, complex(factor), complex(factor))


def _abs_sum(a: np.ndarray, b: np.ndarray, z: np.ndarray) -> np.ndarray:
    """|P_a(z)| + |P_b(z)| for coefficient vectors a and b: on (h', g') the
    unweighted mu_f, on (h, g) the unweighted modulus."""
    return np.abs(polyval_batch(a, z)) + np.abs(polyval_batch(b, z))


def _disk_weight(z: np.ndarray) -> np.ndarray:
    return 1.0 - (z.real ** 2 + z.imag ** 2)


def _weighted_abs_sum(a: np.ndarray, b: np.ndarray):
    """The vectorized objective z -> (1 - |z|^2)(|P_a(z)| + |P_b(z)|)."""
    def values(z):
        z = np.asarray(z, dtype=complex)
        return _disk_weight(z) * _abs_sum(a, b, z)

    return values


def _derivative_coefficients(f: HarmonicMapping):
    """The coefficient vectors of h' and g'."""
    return differentiate(f.h).coefficients, differentiate(f.g).coefficients


def _mu_values(f: HarmonicMapping):
    """mu_f as a vectorized objective."""
    return _weighted_abs_sum(*_derivative_coefficients(f))


def _evaluate_many(f: HarmonicMapping, z: np.ndarray) -> np.ndarray:
    return polyval_batch(f.h.coefficients, z) + np.conj(polyval_batch(f.g.coefficients, z))


def mu(f: HarmonicMapping, z) -> float:
    """Weighted derivative modulus (1-|z|^2)(|h'(z)| + |g'(z)|)."""
    z = complex(z)
    if not abs(z) < 1.0:
        raise ValueError("mu is defined on the open disk")
    return float(_mu_values(f)(np.array([z]))[0])


def _tail_allowance(f: HarmonicMapping) -> float:
    return f.h.tail_bound + f.g.tail_bound


def _with_tail_accuracy(f: HarmonicMapping, res: MaximizationResult) -> MaximizationResult:
    """A search result over mu_f with the declared tails added to its accuracy."""
    return MaximizationResult(res.value, res.accuracy + _tail_allowance(f), res.argmax)


def estimate_bloch_constant(f: HarmonicMapping) -> MaximizationResult:
    """Bloch constant sup mu_f with an estimated absolute accuracy.

    A fixed polar grid seeds deterministic compass ascents and the best value
    wins.  Declared coefficient tail bounds are folded into the reported
    accuracy as-is (they are declared bounds, not derivative bounds; exact
    polynomials contribute nothing).

    The result is memoized on the mapping, so every analysis of one mapping
    object reads one β.  The coefficient arrays are read-only and the search
    deterministic, so a hit returns what a search would (a ``_peel_constant``
    residual holds its parent's estimate, scaled), and two threads racing on
    a first call store equal values.  The memo lives and dies with its mapping.
    """
    return f._estimate


def _peel_constant(f: HarmonicMapping, lam1: float) -> HarmonicMapping:
    """(f - f(0)) / (1 - lam1) for lam1 < 1, carrying f's Bloch estimate.

    mu of the result is mu_f times 1/(1 - lam1) exactly, so f's estimate
    with value and accuracy scaled by that factor fills the result's memo:
    its level set then walks its level seeds without a search of its own.
    """
    factor = 1.0 / (1.0 - lam1)
    out = HarmonicMapping(*(AnalyticSeries(np.r_[0.0, s.coefficients[1:]] * factor,
                                           s.tail_bound * factor) for s in (f.h, f.g)))
    est = f._estimate
    vars(out)["_estimate"] = MaximizationResult(est.value * factor, est.accuracy * factor,
                                                est.argmax)
    return out


def bloch_constant(f: HarmonicMapping) -> float:
    return estimate_bloch_constant(f).value


def bloch_norm(f: HarmonicMapping) -> float:
    """|f(0)| plus the Bloch constant."""
    return abs(f.value_at_origin) + bloch_constant(f)


def little_bloch_status(f: HarmonicMapping) -> Ternary:
    """Whether mu_f(z) -> 0 as |z| -> 1.

    Polynomial parts always satisfy this, so exact mappings return TRUE.  A
    declared nonzero coefficient tail bound controls the function but not its
    derivative, which leaves the radial limit of mu_f undecided; no input of
    this form can be certified FALSE either.
    """
    if f.h.is_exact and f.g.is_exact:
        return Ternary.TRUE
    return Ternary.UNDECIDED


def _unit_level_side(s: float, a: float) -> int:
    """Where an estimated supremum ``s`` with reported accuracy ``a`` sits
    against one: 1 over it (outside the unit ball, also for a NaN), -1 short
    of it (``s + a < 1``), 0 on it within the accuracy.

    The one unit-ball boundary: ``membership``, the level-set report and
    ``decompose_support_point`` all read it.
    """
    if not s <= 1.0 + a:
        return 1
    return -1 if 1.0 - s > a else 0


def _pseudo_distance(z, w) -> np.ndarray:
    """|(z - w) / (1 - conj(z) w)|; swapping z and w may move the last bit."""
    return np.abs((z - w) / (1.0 - np.conj(z) * w))


# the grid whose mu maxima anchor metric_beta_estimate's sample pairs
_ANCHOR_GRID = polar_grid(48, 96, 1.0 - 1e-6)
_ANCHOR_GRID.setflags(write=False)


def metric_beta_estimate(f: HarmonicMapping, samples: int, seed: int = 0) -> float:
    """Sampled supremum of |f(z) - f(w)| / rho(z, w); a lower bound for the
    Bloch constant.

    Half the budget goes to short directional probes anchored at the most
    promising grid points (the quotient approaches mu_f there), the rest to
    independent random pairs.  Deterministic for a fixed seed.  Not tight:
    on random polynomial mappings it reached 0.9 beta or more up to degree
    30, but at degree 60 about 7% stayed below 0.9 beta at any budget from
    2*10^3 to 10^5 samples (worst 0.853 beta).
    """
    samples = int(samples)
    if samples < 2:
        raise ValueError("at least two sample pairs are required")
    rng = np.random.default_rng(seed)
    best = 0.0

    def quotient_max(z, w):
        rho = np.arctanh(_pseudo_distance(z, w))
        return float((np.abs(_evaluate_many(f, z) - _evaluate_many(f, w)) / rho).max())

    n_dirs = 16
    n_anchor = max(1, samples // 2 // n_dirs)
    anchors = _ANCHOR_GRID[np.argsort(_mu_values(f)(_ANCHOR_GRID))[::-1][:n_anchor]]
    # directions modulo sign; the quotient is symmetric in the pair
    phis = np.pi * np.arange(n_dirs) / n_dirs
    z = np.repeat(anchors, n_dirs)
    u = np.exp(1j * np.tile(phis, anchors.size))
    delta = 1e-3
    w = z + delta * _disk_weight(z) * u
    ok = np.abs(w) < DISK_RADIUS_CAP
    if ok.any():
        best = max(best, quotient_max(z[ok], w[ok]))

    n_rand = max(0, samples - int(ok.sum()))
    if n_rand:
        r1 = np.sqrt(rng.random(n_rand)) * (1.0 - 1e-6)
        r2 = np.sqrt(rng.random(n_rand)) * (1.0 - 1e-6)
        z1 = r1 * np.exp(2j * np.pi * rng.random(n_rand))
        z2 = r2 * np.exp(2j * np.pi * rng.random(n_rand))
        sep = np.abs(z1 - z2) > 1e-8
        if sep.any():
            best = max(best, quotient_max(z1[sep], z2[sep]))
    return best


# located maxima within this of one lie on the unit level set; declared tails
# beyond it flag a report that reaches the level.  It draws no ball boundary
LEVEL_TOL = 1e-6
# level-set points at most this far apart join one cluster
MERGE_RADIUS = 0.05
# a cluster of this many distinct maxima is a curve: walkers that reach an
# isolated maximum collapse to 1-2 points after the 1e-6 dedupe, and a count,
# unlike a length, does not change under disk automorphisms
CURVE_MIN_POINTS = 8


@dataclass(frozen=True, eq=False)
class LambdaReport:
    """Located points of a unit level set with geometric classification.

    ``points`` hold converged local maxima whose value sits within
    ``LEVEL_TOL`` of one; ``residuals`` are those gaps.  Clusters
    join points ``MERGE_RADIUS`` apart, and one of ``CURVE_MIN_POINTS``
    points makes the set CURVE_LIKE.  The set is EMPTY, whatever the walkers
    reached, when the supremum plus its reported accuracy stays below one.
    A report is ``flagged`` when the norm lies over one beyond that accuracy
    (``membership`` then puts the mapping outside the ball), or when it
    reaches the level and the declared tails sum beyond ``LEVEL_TOL``:
    located maxima then describe no level set.  A report short of the level
    is never flagged for its tails, which its accuracy already counts.
    Every analysis refuses exactly a flagged report.
    """

    points: np.ndarray
    residuals: np.ndarray
    classification: LevelSetShape
    witness_radius: float
    flagged: bool = False
    clusters: tuple = ()

    @property
    def cluster_count(self) -> int:
        return len(self.clusters)

    def to_dict(self) -> dict:
        return {
            "classification": self.classification.value,
            "points": _to_json_pairs(self.points),
            "residuals": [float(r) for r in self.residuals],
            "witness_radius": float(self.witness_radius),
            "flagged": bool(self.flagged),
            "merge_radius": MERGE_RADIUS,
            "cluster_count": self.cluster_count,
        }


def _dedupe_best(pts: np.ndarray, vals: np.ndarray, radius: float):
    # keep the best-valued representative of each radius-sized cell; ties in
    # value go to the point argsort puts last, and cells round half to even
    order = np.argsort(vals)[::-1]
    re = np.round(pts.real / radius).astype(np.int64)
    im = np.round(pts.imag / radius).astype(np.int64)
    # one key per cell; |z| <= 1 and the radii in use keep each index below
    # 2**30 in size, and np.unique with return_index sorts stably, so each
    # cell keeps its first point in value order
    keys = (re + 2 ** 30) * 2 ** 31 + (im + 2 ** 30)
    _, first = np.unique(keys[order], return_index=True)
    idx = np.sort(order[first])
    return pts[idx], vals[idx]


def _single_linkage(pts: np.ndarray, radius: float):
    # components of the graph joining points at most radius apart, each a
    # sorted index array, ordered by their smallest index
    n = pts.size
    if n == 0:
        return []
    # the ends of an edge differ by at most radius in real part, so in order
    # of real part each point's later partners lie in a window after it; the
    # window is widened so that rounding in its bound drops no edge.  Int32
    # indices halve the edge memory on dense level sets.
    order = np.argsort(pts.real, kind="stable").astype(np.int32)
    p = pts[order]
    ends = np.searchsorted(p.real, p.real + 1.001 * radius, side="right")
    counts = np.maximum(ends - np.arange(1, n + 1), 0)
    total = np.cumsum(counts)
    ii, jj = [], []
    a = 0
    while a < n:
        # rows with at most 128 n candidate pairs: at about 64 bytes of
        # temporaries per pair, less than a 512 x n block of distances
        before = total[a - 1] if a else 0
        b = int(np.searchsorted(total, before + 128 * n, side="right"))
        c = counts[a:b]
        rows = np.repeat(np.arange(a, b), c)
        cols = np.arange(rows.size) - np.repeat(total[a:b] - c - before, c) + rows + 1
        hit = np.abs(p[rows] - p[cols]) <= radius
        ii.append(order[rows[hit]])
        jj.append(order[cols[hit]])
        a = b
    ii, jj = np.concatenate(ii), np.concatenate(jj)
    # min-label propagation with pointer jumping: converges to the smallest
    # index of each component
    labels = np.arange(n)
    while True:
        prev = labels.copy()
        np.minimum.at(labels, jj, labels[ii])
        np.minimum.at(labels, ii, labels[jj])
        while True:
            jumped = labels[labels]
            if np.array_equal(jumped, labels):
                break
            labels = jumped
        if np.array_equal(labels, prev):
            break
    order = np.argsort(labels, kind="stable")
    return np.split(order, np.flatnonzero(np.diff(labels[order])) + 1)


def _unit_level_report(pts, vals, res: MaximizationResult, norm: float,
                       f: HarmonicMapping) -> LambdaReport:
    # the level walkers' converged points and values, kept within LEVEL_TOL
    # of one, deduplicated and clustered.  res is the supremum search of the
    # walked function (its accuracy counting the tails) and norm the ball's
    # norm built on it; both meet one through _unit_level_side alone
    short = _unit_level_side(max(res.value, vals.max()), res.accuracy) < 0
    # a short report's accuracy already counts the tails, so they flag only
    # a report that reaches the level
    flagged = (_unit_level_side(norm, res.accuracy) > 0
               or (_tail_allowance(f) > LEVEL_TOL and not short))
    keep = np.abs(vals - 1.0) <= LEVEL_TOL
    if short:
        keep[:] = False  # short of the level: mu <= sup < 1 leaves no level point
    pts, vals = pts[keep], vals[keep]
    if pts.size == 0:
        return LambdaReport(pts, np.abs(vals - 1.0), LevelSetShape.EMPTY, 0.0, flagged)
    pts, vals = _dedupe_best(pts, vals, 1e-6)
    clusters = _single_linkage(pts, MERGE_RADIUS)
    curve = any(idx.size >= CURVE_MIN_POINTS for idx in clusters)
    shape = LevelSetShape.CURVE_LIKE if curve else LevelSetShape.ISOLATED
    return LambdaReport(pts, np.abs(vals - 1.0), shape,
                        float(np.abs(pts).max()), flagged, tuple(clusters))


def lambda_set(f: HarmonicMapping) -> LambdaReport:
    """Locate and classify the level set where mu_f = 1.

    Seeds local maximizations of mu_f from the ``DISK_GRID`` polar grid,
    keeps converged maxima within ``LEVEL_TOL`` of one, merges them into
    clusters, and reports EMPTY, ISOLATED, or CURVE_LIKE (a cluster of
    ``CURVE_MIN_POINTS`` distinct points, whatever its size) with a witness
    radius bounding all points away from the boundary.

    The Bloch estimate decides where f sits against the unit ball, by the
    rule ``membership`` uses: the report is EMPTY when beta (or a better
    level walker) plus the estimate's accuracy stays below one, and
    flagged when ``membership`` puts f outside the ball, or when beta
    reaches the level within that accuracy and the declared tails sum
    beyond ``LEVEL_TOL``.  When f's Bloch constant is not memoized yet, its
    search rides the same compass run as the level walkers
    (``maximize_on_disk`` with ``level=1``) and is memoized, so a later
    ``estimate_bloch_constant`` or ``membership`` runs no search; otherwise
    the level walkers run alone.
    """
    values = _mu_values(f)
    if "_estimate" in vars(f):
        pts, vals = _level_walks(values, 1.0)
    else:
        res, pts, vals = maximize_on_disk(values, level=1.0)
        # fill the cached_property's slot with what its search would return
        vars(f)["_estimate"] = _with_tail_accuracy(f, res)
    return _unit_level_report(pts, vals, f._estimate, bloch_norm(f), f)


def sup_modulus(f: HarmonicMapping):
    """sup (|h| + |g|)(1 - |z|^2) together with a report on its unit level set.

    One ``maximize_on_disk`` call with ``level=1`` finds both: its level
    walkers share the compass run of the supremum search.  The report reads
    the supremum against one as ``lambda_set`` reads the Bloch norm, with the
    search's accuracy plus the declared tails; the returned value carries
    neither.  So the report is flagged exactly when f lies outside the
    modulus ball sup (|h| + |g|)(1 - |z|^2) <= 1, or reaches its level with
    tails beyond ``LEVEL_TOL``.
    """
    values = _weighted_abs_sum(f.h.coefficients, f.g.coefficients)
    res, pts, vals = maximize_on_disk(values, level=1.0)
    return res.value, _unit_level_report(pts, vals, _with_tail_accuracy(f, res), res.value, f)


def mu_grid_rows(f: HarmonicMapping, n_radii=DISK_GRID[0], n_angles=DISK_GRID[1]) -> np.ndarray:
    """Rows (re, im, mu) over the standard polar grid, for CSV dumps."""
    grid = polar_grid(n_radii, n_angles)
    vals = _mu_values(f)(grid)
    return np.column_stack([grid.real, grid.imag, vals])


def mapping_to_dict(f: HarmonicMapping) -> dict:
    return {
        "h": _to_json_pairs(f.h.coefficients),
        "g": _to_json_pairs(f.g.coefficients),
        "tail_bound_h": None if f.h.is_exact else f.h.tail_bound,
        "tail_bound_g": None if f.g.is_exact else f.g.tail_bound,
    }


def _json_float(x, message: str) -> float:
    # a JSON number parses to int or float; bool is an int subclass and
    # float() would read a str, so both are refused
    if isinstance(x, (int, float)) and not isinstance(x, bool):
        try:
            return float(x)
        except OverflowError:  # an integer literal beyond the float range
            pass
    raise ValueError(message)


def _to_json_pairs(values) -> list:
    """Complex values as a JSON list of [re, im] pairs; read by _json_pairs."""
    return [[float(c.real), float(c.imag)] for c in values]


def _json_pairs(pairs, key: str) -> np.ndarray:
    """A parsed JSON list of [re, im] number pairs as a complex array."""
    if not isinstance(pairs, list):
        raise ValueError(f"'{key}' must be a list of [re, im] pairs")
    message = f"'{key}' entries must be [re, im] number pairs"
    out = np.empty(len(pairs), dtype=complex)
    for i, p in enumerate(pairs):
        if not (isinstance(p, list) and len(p) == 2):
            raise ValueError(message)
        out[i] = complex(_json_float(p[0], message), _json_float(p[1], message))
    return out


def mapping_from_dict(data: dict) -> HarmonicMapping:
    if not isinstance(data, dict) or "h" not in data or "g" not in data:
        raise ValueError("mapping spec must be an object with 'h' and 'g' coefficient lists")

    def series(key, tail_key):
        pairs = data[key]
        if not isinstance(pairs, list) or not pairs:
            raise ValueError(f"'{key}' must be a non-empty list of [re, im] pairs")
        tail = data.get(tail_key)
        if tail is not None:
            tail = _json_float(tail, f"'{tail_key}' must be a number or null")
        return AnalyticSeries(_json_pairs(pairs, key), tail)

    return HarmonicMapping(series("h", "tail_bound_h"), series("g", "tail_bound_g"))


def save_mapping(f: HarmonicMapping, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(mapping_to_dict(f), fh, indent=2)


def _read_json(path, what: str):
    """The parsed content of a UTF-8 JSON input file; ``what`` names the
    kind of file in the error for malformed JSON."""
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"malformed {what} file {path}: {exc}") from exc


def load_mapping(path) -> HarmonicMapping:
    return mapping_from_dict(_read_json(path, "mapping"))
