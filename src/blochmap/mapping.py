"""Planar harmonic mappings f = h + conj(g) and their Bloch-type functionals.

Everything is driven by the weighted derivative modulus

    mu_f(z) = (1 - |z|^2) (|h'(z)| + |g'(z)|),

whose supremum over the disk is the Bloch constant of f.  The module also
locates and classifies the level set where mu_f equals one, which is the
evidence the extremal and support-point analyses consume.
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass, field

import numpy as np

from .series import AnalyticSeries, differentiate, eval_series, linear_combination, polyval_batch
from .optimize import DISK_RADIUS_CAP, MaximizationResult, compass_maximize, maximize_on_disk, polar_grid

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
    # Bloch estimates of this mapping keyed by search settings; see
    # estimate_bloch_constant
    _estimates: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        if self.g.coefficients[0] != 0:
            raise ValueError("canonical form requires g(0) = 0")

    def __call__(self, z) -> complex:
        return eval_series(self.h, z) + eval_series(self.g, z).conjugate()

    @property
    def value_at_origin(self) -> complex:
        return complex(self.h.coefficients[0])


def add_mappings(f1: HarmonicMapping, f2: HarmonicMapping) -> HarmonicMapping:
    return HarmonicMapping(
        linear_combination(1.0, f1.h, 1.0, f2.h),
        linear_combination(1.0, f1.g, 1.0, f2.g),
    )


def scale_mapping(f: HarmonicMapping, factor) -> HarmonicMapping:
    """Scale both parts; a real factor scales mu_f by |factor|."""
    c = complex(factor)
    zero = AnalyticSeries([0.0])
    return HarmonicMapping(
        linear_combination(c, f.h, 0.0, zero),
        linear_combination(c, f.g, 0.0, zero),
    )


def _derivative_values(f: HarmonicMapping):
    hp = differentiate(f.h).coefficients
    gp = differentiate(f.g).coefficients

    def values(z):
        z = np.asarray(z, dtype=complex)
        w = 1.0 - (z.real ** 2 + z.imag ** 2)
        return w * (np.abs(polyval_batch(hp, z)) + np.abs(polyval_batch(gp, z)))

    return values


def _modulus_values(f: HarmonicMapping):
    hc = f.h.coefficients
    gc = f.g.coefficients

    def values(z):
        z = np.asarray(z, dtype=complex)
        w = 1.0 - (z.real ** 2 + z.imag ** 2)
        return w * (np.abs(polyval_batch(hc, z)) + np.abs(polyval_batch(gc, z)))

    return values


def _evaluate_many(f: HarmonicMapping, z: np.ndarray) -> np.ndarray:
    return polyval_batch(f.h.coefficients, z) + np.conj(polyval_batch(f.g.coefficients, z))


def mu(f: HarmonicMapping, z) -> float:
    """Weighted derivative modulus (1-|z|^2)(|h'(z)| + |g'(z)|)."""
    z = complex(z)
    if not abs(z) < 1.0:
        raise ValueError("mu is defined on the open disk")
    return float(_derivative_values(f)(np.array([z]))[0])


def _tail_allowance(f: HarmonicMapping) -> float:
    return (f.h.tail_bound or 0.0) + (f.g.tail_bound or 0.0)


def estimate_bloch_constant(f: HarmonicMapping, n_radii=64, n_angles=128,
                            n_starts=20, step_tol=1e-10) -> MaximizationResult:
    """Bloch constant sup mu_f with an estimated absolute accuracy.

    A fixed polar grid seeds deterministic compass ascents and the best value
    wins.  Declared coefficient tail bounds are folded into the reported
    accuracy as-is (they are declared bounds, not derivative bounds; exact
    polynomials contribute nothing).

    The result is memoized on the mapping, keyed by the search settings, so
    every analysis of one mapping object reads one β.  This is safe because
    the coefficient arrays are read-only and the search is deterministic: a
    memo hit returns exactly what a recomputation would, and two threads
    racing on a first call store equal values.  The memo lives and dies with
    its mapping.
    """
    key = (n_radii, n_angles, n_starts, step_tol)
    est = f._estimates.get(key)
    if est is None:
        res = maximize_on_disk(_derivative_values(f), n_radii=n_radii,
                               n_angles=n_angles, n_starts=n_starts, step_tol=step_tol)
        est = MaximizationResult(res.value, res.accuracy + _tail_allowance(f), res.argmax)
        f._estimates[key] = est
    return est


def bloch_constant(f: HarmonicMapping, **kwargs) -> float:
    return estimate_bloch_constant(f, **kwargs).value


def bloch_norm(f: HarmonicMapping, **kwargs) -> float:
    """|f(0)| plus the Bloch constant."""
    return abs(f.value_at_origin) + bloch_constant(f, **kwargs)


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


def _rho_many(z: np.ndarray, w: np.ndarray) -> np.ndarray:
    m = np.abs((z - w) / (1.0 - np.conj(z) * w))
    return np.arctanh(m)


def metric_beta_estimate(f: HarmonicMapping, samples: int, seed: int = 0) -> float:
    """Sampled supremum of |f(z) - f(w)| / rho(z, w); a lower bound for the
    Bloch constant.

    Half the budget goes to short directional probes anchored at the most
    promising grid points (the quotient approaches mu_f there), the rest to
    independent random pairs.  Deterministic for a fixed seed.
    """
    samples = int(samples)
    if samples < 2:
        raise ValueError("at least two sample pairs are required")
    rng = np.random.default_rng(seed)
    best = 0.0

    n_dirs = 16
    n_anchor = max(1, samples // 2 // n_dirs)
    grid = polar_grid(48, 96, 1.0 - 1e-6)
    anchors = grid[np.argsort(_derivative_values(f)(grid))[::-1][:n_anchor]]
    # directions modulo sign; the quotient is symmetric in the pair
    phis = np.pi * np.arange(n_dirs) / n_dirs
    z = np.repeat(anchors, n_dirs)
    u = np.exp(1j * np.tile(phis, anchors.size))
    delta = 1e-3
    w = z + delta * (1.0 - np.abs(z) ** 2) * u
    ok = np.abs(w) < 1.0 - 1e-9
    if ok.any():
        q = np.abs(_evaluate_many(f, z[ok]) - _evaluate_many(f, w[ok])) / _rho_many(z[ok], w[ok])
        best = max(best, float(q.max()))

    n_rand = max(0, samples - int(ok.sum()))
    if n_rand:
        r1 = np.sqrt(rng.random(n_rand)) * (1.0 - 1e-6)
        r2 = np.sqrt(rng.random(n_rand)) * (1.0 - 1e-6)
        z1 = r1 * np.exp(2j * np.pi * rng.random(n_rand))
        z2 = r2 * np.exp(2j * np.pi * rng.random(n_rand))
        sep = np.abs(z1 - z2) > 1e-8
        if sep.any():
            q = np.abs(_evaluate_many(f, z1[sep]) - _evaluate_many(f, z2[sep])) / _rho_many(z1[sep], z2[sep])
            best = max(best, float(q.max()))
    return best


@dataclass(frozen=True, eq=False)
class LambdaReport:
    """Located points of a unit level set with geometric classification.

    ``points`` hold converged local maxima whose value sits within the
    construction tolerance of one; ``residuals`` are those gaps.  A report is
    ``flagged`` when the mapping's Bloch norm exceeds one beyond tolerance, in
    which case located maxima no longer describe the unit level set.
    """

    points: np.ndarray
    residuals: np.ndarray
    classification: LevelSetShape
    witness_radius: float
    flagged: bool = False
    merge_radius: float = 0.05
    clusters: tuple = ()

    @property
    def cluster_count(self) -> int:
        return len(self.clusters)

    def to_dict(self) -> dict:
        return {
            "classification": self.classification.value,
            "points": [[float(p.real), float(p.imag)] for p in self.points],
            "residuals": [float(r) for r in self.residuals],
            "witness_radius": float(self.witness_radius),
            "flagged": bool(self.flagged),
            "merge_radius": float(self.merge_radius),
            "cluster_count": self.cluster_count,
        }


def _dedupe_best(pts: np.ndarray, vals: np.ndarray, radius: float):
    # keep the best-valued representative of each radius-sized cell; ties in
    # value go to the point argsort puts last, and cells round half to even
    order = np.argsort(vals)[::-1]
    cells = np.column_stack([np.round(pts.real / radius),
                             np.round(pts.imag / radius)]).astype(np.int64)
    _, first = np.unique(cells[order], axis=0, return_index=True)
    idx = np.sort(order[first])
    return pts[idx], vals[idx]


def _single_linkage(pts: np.ndarray, radius: float):
    # components of the graph joining points at most radius apart, each a
    # sorted index array, ordered by their smallest index
    n = pts.size
    if n == 0:
        return []
    # edges i < j, as int32 to halve their memory on dense level sets
    ii, jj = [], []
    block = 512
    for s in range(0, n, block):
        a, b = np.nonzero(np.abs(pts[s:s + block, None] - pts[None, s:]) <= radius)
        keep = b > a
        ii.append((a[keep] + s).astype(np.int32))
        jj.append((b[keep] + s).astype(np.int32))
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


def _diameter(p: np.ndarray) -> float:
    if p.size < 2:
        return 0.0
    best = 0.0
    block = 512
    for s in range(0, p.size, block):
        d = np.abs(p[s:s + block, None] - p[None, :])
        best = max(best, float(d.max()))
    return best


def _turning_ok(path: np.ndarray) -> bool:
    seg = np.diff(path)
    seg = seg[np.abs(seg) > 0]
    if seg.size < 3:
        return True
    turns = np.abs(np.angle(seg[1:] / seg[:-1]))
    return float(turns.max()) <= 2.1 and float(np.median(turns)) <= 0.6


def _cluster_is_curve(p: np.ndarray, merge_radius: float) -> bool:
    if p.size < 8:
        return False
    if _diameter(p) <= 20.0 * merge_radius:
        return False
    c = p.mean()
    if _turning_ok(p[np.argsort(np.angle(p - c))]):
        return True
    # open arcs/segments: order along the dominant axis instead
    xy = np.column_stack([(p - c).real, (p - c).imag])
    _, _, vt = np.linalg.svd(xy, full_matrices=False)
    axis = complex(vt[0, 0], vt[0, 1])
    t = ((p - c) * np.conj(axis)).real
    return _turning_ok(p[np.argsort(t)])


def _unit_level_report(values, tol: float, flagged: bool, n_radii: int,
                       n_angles: int, merge_radius: float, step_tol=1e-10) -> LambdaReport:
    grid = polar_grid(n_radii, n_angles)
    gv = values(grid)
    band = max(0.02, 10.0 * tol)
    cand = np.flatnonzero(np.abs(gv - 1.0) <= band)
    top = np.argsort(gv)[::-1][:8]
    seeds = np.union1d(cand, top)
    if seeds.size > 4096:
        seeds = seeds[np.argsort(gv[seeds])[::-1][:4096]]
    spacing = max(1.0 / n_radii, np.pi / n_angles)
    pts, vals = compass_maximize(lambda z, _w: values(z), grid[seeds],
                                 2.0 * spacing, step_tol=step_tol)
    keep = np.abs(vals - 1.0) <= tol
    pts, vals = pts[keep], vals[keep]
    if pts.size == 0:
        return LambdaReport(pts, np.abs(vals - 1.0), LevelSetShape.EMPTY, 0.0,
                            flagged, merge_radius, ())
    pts, vals = _dedupe_best(pts, vals, 1e-6)
    clusters = _single_linkage(pts, merge_radius)
    curve = any(_cluster_is_curve(pts[idx], merge_radius) for idx in clusters)
    shape = LevelSetShape.CURVE_LIKE if curve else LevelSetShape.ISOLATED
    return LambdaReport(pts, np.abs(vals - 1.0), shape,
                        float(np.abs(pts).max()), flagged, merge_radius,
                        tuple(clusters))


def lambda_set(f: HarmonicMapping, tol: float = 1e-6, n_radii: int = 64,
               n_angles: int = 128, merge_radius: float = 0.05) -> LambdaReport:
    """Locate and classify the level set where mu_f = 1.

    Seeds local maximizations of mu_f from a polar grid, keeps converged
    maxima within ``tol`` of one, merges them into clusters, and reports the
    cluster geometry (EMPTY / ISOLATED / CURVE_LIKE) with a witness radius
    bounding all points away from the boundary.
    """
    tol = float(tol)
    if tol <= 0.0:
        raise ValueError("tolerance must be positive")
    est = estimate_bloch_constant(f, n_radii=n_radii, n_angles=n_angles)
    norm = abs(f.value_at_origin) + est.value
    return _unit_level_report(_derivative_values(f), tol, norm > 1.0 + tol,
                              n_radii, n_angles, merge_radius)


def sup_modulus(f: HarmonicMapping, tol: float = 1e-6, n_radii: int = 64,
                n_angles: int = 128, merge_radius: float = 0.05):
    """sup (|h| + |g|)(1 - |z|^2) together with a report on its unit level set."""
    values = _modulus_values(f)
    res = maximize_on_disk(values, n_radii=n_radii, n_angles=n_angles)
    report = _unit_level_report(values, tol, res.value > 1.0 + tol,
                                n_radii, n_angles, merge_radius)
    return res.value, report


def mu_grid_rows(f: HarmonicMapping, n_radii: int = 64, n_angles: int = 128) -> np.ndarray:
    """Rows (re, im, mu) over the standard polar grid, for CSV dumps."""
    grid = polar_grid(n_radii, n_angles)
    vals = _derivative_values(f)(grid)
    return np.column_stack([grid.real, grid.imag, vals])


def mapping_to_dict(f: HarmonicMapping) -> dict:
    def pairs(s):
        return [[float(c.real), float(c.imag)] for c in s.coefficients]

    return {
        "h": pairs(f.h),
        "g": pairs(f.g),
        "tail_bound_h": None if f.h.tail_bound is None else float(f.h.tail_bound),
        "tail_bound_g": None if f.g.tail_bound is None else float(f.g.tail_bound),
    }


def mapping_from_dict(data: dict) -> HarmonicMapping:
    if not isinstance(data, dict) or "h" not in data or "g" not in data:
        raise ValueError("mapping spec must be an object with 'h' and 'g' coefficient lists")

    def series(key, tail_key):
        pairs = data[key]
        if not isinstance(pairs, list) or not pairs:
            raise ValueError(f"'{key}' must be a non-empty list of [re, im] pairs")
        try:
            coeffs = np.array([complex(float(p[0]), float(p[1])) for p in pairs])
        except (TypeError, ValueError, IndexError) as exc:
            raise ValueError(f"'{key}' entries must be [re, im] number pairs") from exc
        return AnalyticSeries(coeffs, data.get(tail_key))

    return HarmonicMapping(series("h", "tail_bound_h"), series("g", "tail_bound_g"))


def save_mapping(f: HarmonicMapping, path) -> None:
    with open(path, "w") as fh:
        json.dump(mapping_to_dict(f), fh, indent=2)


def load_mapping(path) -> HarmonicMapping:
    with open(path) as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"malformed mapping file {path}: {exc}") from exc
    return mapping_from_dict(data)
