"""Finitely supported linear functionals on harmonic mappings, dilation
bounds, boundary constants for the dilation-plus-bump estimate, a
perturbation falsifier for support points of the modulus ball, and
support-point certificates for the normalized Bloch ball."""

from __future__ import annotations

import cmath
import enum
import math
from dataclasses import dataclass, field

import numpy as np

from .series import AnalyticSeries, differentiate, dilate, eval_series, linear_combination, polyval_batch
from .disk import _automorphism_series, _disk_weight
from .optimize import DISK_RADIUS_CAP, compass_maximize, maximize_on_disk, polar_grid
from .mapping import (
    HarmonicMapping,
    LambdaReport,
    LevelSetShape,
    _abs_sum,
    _json_pairs,
    _mu_values,
    _peel_constant,
    _tail_allowance,
    _to_json_pairs,
    _weighted_abs_sum,
    estimate_bloch_constant,
    lambda_set,
    mapping_to_dict,
    scale_mapping,
    sup_modulus,
)
from .extremal import BLOCK_POINTS, membership

__all__ = [
    "LinearFunctional",
    "functional_eval",
    "lift_to_derivative",
    "dilation_bound",
    "BonkConstants",
    "bonk_constants",
    "verify_bonk_constants",
    "PointDerivativeFunctional",
    "SupportCertificate",
    "support_certificate",
    "sample_unit_ball",
    "FalsifierStatus",
    "FalsifierOutcome",
    "perturbation_falsifier",
    "SupportDecomposition",
    "decompose_support_point",
]


@dataclass(frozen=True, eq=False)
class LinearFunctional:
    """Functional q = s + conj(t) -> sum_k A_k s_k + sum_k conj(B_k t_k) on
    coefficient sequences; finite weight support keeps it continuous on the
    whole Bloch-type scale."""

    A: np.ndarray
    B: np.ndarray

    def __post_init__(self):
        for name in ("A", "B"):
            arr = np.atleast_1d(np.asarray(getattr(self, name), dtype=complex))
            if arr.ndim != 1:
                raise ValueError("functional weights must be one dimensional")
            if not np.all(np.isfinite(arr.view(float))):
                raise ValueError("functional weights must be finite")
            arr = arr.copy()
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def effectively_zero(self) -> bool:
        """True when the functional kills every mapping with g(0) = 0; the
        weight B_0 only ever multiplies the vanishing coefficient."""
        return not (np.any(self.A != 0) or np.any(self.B[1:] != 0))

    def to_dict(self) -> dict:
        return {
            "A": _to_json_pairs(self.A),
            "B": _to_json_pairs(self.B),
        }

    @staticmethod
    def from_dict(data: dict) -> "LinearFunctional":
        if not isinstance(data, dict) or "A" not in data or "B" not in data:
            raise ValueError("functional spec must be an object with 'A' and 'B' weight lists")

        def weights(key):
            w = _json_pairs(data[key], key)
            return w if w.size else np.zeros(1, dtype=complex)

        return LinearFunctional(weights("A"), weights("B"))


def _parts(target):
    if isinstance(target, HarmonicMapping):
        return target.h, target.g
    s, t = target
    return s, t


def _dot(weights: np.ndarray, s: AnalyticSeries) -> complex:
    n = min(weights.size, s.coefficients.size)
    if not s.is_exact and np.any(weights[n:] != 0):
        raise ValueError("functional weights reach beyond the stored coefficients "
                         "of a series with a declared tail")
    return complex(np.dot(weights[:n], s.coefficients[:n]))


def functional_eval(L: LinearFunctional, target) -> complex:
    """Apply the functional to a mapping or an (analytic, co-analytic) pair
    of series.  Weights beyond the stored coefficients of an exact series
    read those as zero; on a series with a declared tail those coefficients
    are unknown, so a nonzero weight there raises ValueError."""
    s, t = _parts(target)
    return _dot(L.A, s) + np.conj(_dot(L.B, t))


def lift_to_derivative(L: LinearFunctional) -> LinearFunctional:
    """Weights that act on the derivative pair: C_k = A_{k+1}/(k+1) and
    D_k = B_{k+1}/(k+1), so applying the lift to (h', g') reproduces the
    original value on mappings with vanishing constant terms."""
    def lowered(w):
        if w.size <= 1:
            return np.zeros(1, dtype=complex)
        return w[1:] / np.arange(1, w.size)

    return LinearFunctional(lowered(L.A), lowered(L.B))


def dilation_bound(L: LinearFunctional, f: HarmonicMapping, eps: float):
    """(K, actual) where |L(f((1-eps)z)) - L(f)| <= eps*K is guaranteed by
    K = sum_k k(|A_k||a_k| + |B_k||b_k|), since |(1-eps)^k - 1| <= k*eps;
    ``dilate`` rejects an eps outside (0, 1]."""
    K = _dilation_constant(L, f)
    shrunk = (dilate(f.h, eps), dilate(f.g, eps))
    actual = abs(functional_eval(L, shrunk) - functional_eval(L, f))
    return K, actual


def _dilation_constant(L: LinearFunctional, f: HarmonicMapping) -> float:
    def side(weights, coeffs):
        n = min(weights.size, coeffs.size)
        if n <= 1:
            return 0.0
        k = np.arange(n)
        return float(np.sum(k * np.abs(weights[:n]) * np.abs(coeffs[:n])))

    return side(L.A, f.h.coefficients) + side(L.B, f.g.coefficients)


@dataclass(frozen=True)
class BonkConstants:
    """Pair (epsilon1, R) making (1-|z|^2)/(1-(1-eps)^2|z|^2) + eps*M <= 1
    for every eps in (0, epsilon1] and R <= |z| < 1."""

    M: float
    epsilon1: float
    R: float

    def to_dict(self) -> dict:
        return {"M": self.M, "epsilon1": self.epsilon1, "R": self.R}


def bonk_constants(M: float) -> BonkConstants:
    """Closed-form constants for the boundary annulus estimate at level M >= 0.

    The inequality rearranges to F(eps, r) = r^2 (2-eps) / (1-(1-eps)^2 r^2)
    >= M, and F decreases in eps and increases in r, so it holds on all of
    (0, epsilon1] x [R, 1) iff F(epsilon1, R) >= M.  epsilon1 = min(1/2, 1/(2M))
    puts the corner at R* = sqrt(M / ((2-epsilon1) + M(1-epsilon1)^2)); R adds
    min(1e-3, (1-R*)/2) so rounding cannot undo the inequality.  1 - R is about
    1/(4M), so R passes the 1 - 1e-9 cap beyond M of about 2.5e8 and raises
    RuntimeError.  M = 0 needs no annulus at all.
    """
    M = float(M)
    if M < 0.0 or not math.isfinite(M):
        raise ValueError("M must be a finite nonnegative number")
    if M == 0.0:
        return BonkConstants(0.0, 1.0, 0.01)
    eps1 = min(0.5, 1.0 / (2.0 * M))
    corner = math.sqrt(M / ((2.0 - eps1) + M * (1.0 - eps1) ** 2))
    R = min(corner + 1e-3, 0.5 * (corner + 1.0))
    if R >= DISK_RADIUS_CAP:
        raise RuntimeError(f"M = {M!r} needs R = {R!r}, not below the cap 1 - 1e-9")
    return BonkConstants(M, eps1, R)


def verify_bonk_constants(constants: BonkConstants, n_samples: int = 10 ** 6,
                          seed: int = 0) -> float:
    """Worst slack of the annulus inequality over random (eps, r) samples
    with r in [R, 1 - 1e-9); nonnegative means no violation was found.

    The stream of ``default_rng(seed)`` holds all n_samples eps draws, then
    all r draws.  Each uniform double takes one PCG64 output, so a second
    generator advanced by n_samples draws the r values block by block beside
    the eps values: memory stays O(BLOCK_POINTS) for any n_samples."""
    if n_samples < 1:
        raise ValueError("at least one sample is required")
    if not 0.0 <= constants.R < DISK_RADIUS_CAP:
        raise ValueError(f"R = {constants.R!r} must lie in [0, 1 - 1e-9)")
    eps_rng = np.random.default_rng(seed)
    r_rng = np.random.Generator(np.random.PCG64(seed).advance(n_samples))
    minima = []
    for start in range(0, n_samples, BLOCK_POINTS):
        size = min(BLOCK_POINTS, n_samples - start)
        eps = eps_rng.uniform(0.0, constants.epsilon1, size)
        eps = np.maximum(eps, 1e-12)
        r = r_rng.uniform(constants.R, DISK_RADIUS_CAP, size)
        ratio = (1.0 - r * r) / (1.0 - (1.0 - eps) ** 2 * r * r)
        minima.append((1.0 - eps * constants.M - ratio).min())
    return float(np.min(minima))


@dataclass(frozen=True)
class PointDerivativeFunctional:
    """Weighted derivative evaluation q -> weight*(s'(z0) + e^{i theta0}
    conj(t'(z0))); the certificate functional."""

    z0: complex
    theta0: float
    weight: complex

    def evaluate(self, target) -> complex:
        s, t = _parts(target)
        sp = eval_series(differentiate(s), self.z0)
        tp = eval_series(differentiate(t), self.z0)
        return self.weight * (sp + cmath.exp(1j * self.theta0) * np.conj(tp))

    def to_dict(self) -> dict:
        return {
            "z0": [self.z0.real, self.z0.imag],
            "theta0": self.theta0,
            "weight": [self.weight.real, self.weight.imag],
        }


@dataclass(frozen=True, eq=False)
class SupportCertificate:
    """Numerical witness that a mapping supports a linear functional over the
    normalized unit ball: the functional's value at the mapping dominates its
    value over every sampled member.

    ``closed_form_bound`` is S0/(1-|z0|^2) with S0 = |h'(z0)| + |g'(z0)|.  The
    functional's weight has modulus S0, so |L(q)| <= S0 (|s'(z0)| + |t'(z0)|)
    = S0 mu_q(z0)/(1-|z0|^2) for every member q, and no ratio |L(q)|/beta_q
    can pass it; nor can a sampled one, whose beta is seeded at z0.
    ``attained_value`` is S0^2, so the two differ by the factor mu_f(z0)."""

    z0: complex
    theta0: float
    functional: PointDerivativeFunctional
    attained_value: float
    sample_max_other: float
    closed_form_bound: float
    samples: int
    seed: int
    lambda_classification: str = ""
    strata: dict = field(default_factory=dict)

    @property
    def margin(self) -> float:
        return self.attained_value - self.sample_max_other

    def to_dict(self) -> dict:
        return {
            "z0": [self.z0.real, self.z0.imag],
            "theta0": self.theta0,
            "functional": self.functional.to_dict(),
            "attained_value": self.attained_value,
            "sample_max_other": self.sample_max_other,
            "margin": self.margin,
            "closed_form_bound": self.closed_form_bound,
            "samples": self.samples,
            "seed": self.seed,
            "lambda_classification": self.lambda_classification,
            "strata": dict(self.strata),
        }


# the sampler's Mobius identities (z - w)/(1 - conj(w) z) are cut after this
# degree, so they are only approximate automorphisms: the dropped derivative
# tail reaches |w|^60, 5.8e-5 at |w| = 0.85.  Certificates stay sound, since
# each row's beta is computed from its own coefficients, never assumed to be one
MOBIUS_SAMPLE_DEGREE = 60


# rows x columns of one complex matrix-vector product kept below OpenBLAS's
# threading size: threaded calls leave a worker spinning after they return
_BLAS_SERIAL_SIZE = 4096


def _serial_matvec(rows: np.ndarray, vec: np.ndarray) -> np.ndarray:
    """rows @ vec computed on row blocks small enough to stay single-threaded.

    Each output is the same gemv dot product, so the values are unchanged.
    Blocks are split evenly so none has a single row unless the input does:
    numpy sends a one-row product to BLAS dot, which rounds differently.
    """
    block = max(1, (_BLAS_SERIAL_SIZE - 1) // rows.shape[1])
    parts = -(-rows.shape[0] // block)
    return np.concatenate([part @ vec for part in np.array_split(rows, parts)])


def _trimmed_side(d: np.ndarray):
    """Evaluator of |d[rows](z)| pointwise whose Horner starts at each row's
    last nonzero coefficient; all-zero rows read 0."""
    nz = d != 0
    degrees = np.where(nz.any(axis=1), d.shape[1] - 1 - np.argmax(nz[:, ::-1], axis=1), -1)
    tops = np.unique(degrees[degrees >= 0])

    def values(z, rows):
        out = np.zeros(z.shape)
        rdeg = degrees[rows]
        for top in tops:
            sel = np.flatnonzero(rdeg == top)
            if sel.size:
                out[sel] = np.abs(polyval_batch(d[rows[sel], : top + 1], z[sel]))
        return out

    return values


# the coarse grid whose mu argmax seeds one walk per row of _batch_ratio_max
_COARSE_GRID = polar_grid(12, 24)
_COARSE_GRID.setflags(write=False)


def _batch_ratio_max(h_rows: np.ndarray, g_rows: np.ndarray, z0: complex,
                     rng: np.random.Generator, lvals: np.ndarray, n_aligned: int) -> float:
    """Largest functional-to-Bloch-constant ratio ``lvals / beta`` over the
    coefficient rows of one sample chunk, computed by an exact branch and
    bound.

    Each row's beta is the best of three lockstep compass walks, seeded at
    z0, at a coarse polar-grid argmax and at one random point.  Seeding at z0
    makes every beta at least the row's mu there, which is what the
    certificate's sample bound leans on.

    The compass accepts only strict increases, so a walk's start value v is
    a lower bound on its row's beta, and float division is monotone, so
    fl(L/beta) <= fl(L/v).  The first ``n_aligned`` rows (the aligned
    stratum, which reaches the maximum) run in full and their largest ratio
    is the cut.  Every other row is bounded by its z0 and random starts, then
    by its grid start, and runs the compass only while its bound exceeds the
    cut.  A NaN bound never compares at most the cut, so such a row always
    runs.  The aligned rows have finite L and beta at least mu(z0) > 0, so
    the cut is finite, and the result is the maximum the full sweep returns,
    to the last bit.

    Rows equal byte for byte walk the same paths from z0 and from their
    grid start, so such rows share one walk from each; every row still walks
    from its own random start.  In each chunk the aligned rows hold four
    copies of f, of its Mobius identity row and of its co-identity row, so
    the aligned sweep of a full chunk runs at most 30 walkers, not 48.

    Each side of a row runs Horner only from its last nonzero derivative
    coefficient down.  The full-width Horner keeps its accumulator at exactly
    zero through leading zero coefficients, so the trimmed one returns the
    same bits, and the compass walks follow the same paths.

    Nothing here may reach a threaded BLAS call: OpenBLAS keeps a worker
    spinning for about 0.1 s after each one, which at this call rate costs a
    second core.  The grid pass uses einsum, which never calls BLAS; only its
    argmax is used.  The caller's functional values go through
    ``_serial_matvec`` for the same reason.
    """
    n, k = h_rows.shape
    ks = np.arange(1, k)
    dh = h_rows[:, 1:] * ks
    dg = g_rows[:, 1:] * ks
    abs_h = _trimmed_side(dh)
    abs_g = _trimmed_side(dg)

    def mu_rows(z, rows):
        return _disk_weight(z) * (abs_h(z, rows) + abs_g(z, rows))

    vander = _COARSE_GRID[:, None] ** np.arange(k - 1)[None, :]

    def grid_argmax(rows):
        # not _disk_weight: its rounding moved sample_max_other on 3 of 111
        # certify reference records
        mu_grid = (1.0 - np.abs(_COARSE_GRID) ** 2)[None, :] * (
            np.abs(np.einsum("nk,gk->ng", dh[rows], vander))
            + np.abs(np.einsum("nk,gk->ng", dg[rows], vander)))
        return _COARSE_GRID[np.argmax(mu_grid, axis=1)]

    def ratios(rows, best):
        # twin[i]: the first position in rows holding the bytes of rows[i]
        first = {}
        twin = [first.setdefault((h_rows[r].tobytes(), g_rows[r].tobytes()), i)
                for i, r in enumerate(rows)]
        lead, at = np.unique(np.asarray(twin, dtype=int), return_inverse=True)
        m = lead.size
        starts = np.concatenate([np.full(m, complex(z0)), best[lead], extra[rows]])
        walkers = np.concatenate([rows[lead], rows[lead], rows])
        _, vals = compass_maximize(mu_rows, starts, 0.1, step_tol=1e-9,
                                   max_iter=400, walkers=walkers)
        return lvals[rows] / np.max([vals[:m][at], vals[m:2 * m][at], vals[2 * m:]], axis=0)

    # drawn for every row, so the stream does not depend on what is skipped
    extra = rng.uniform(0.05, 0.9, n) * np.exp(2j * np.pi * rng.uniform(0.0, 1.0, n))
    head = np.arange(n_aligned)
    found = ratios(head, grid_argmax(head))
    cut = found.max(initial=-np.inf)
    rest = np.arange(n_aligned, n)
    start = np.maximum(mu_rows(np.full(rest.size, complex(z0)), rest),
                       mu_rows(extra[rest], rest))
    # a zero start bounds its row by inf or NaN, which keeps it
    with np.errstate(divide="ignore", invalid="ignore"):
        rest = rest[~(lvals[rest] / start <= cut)]
        best = grid_argmax(rest)
        keep = ~(lvals[rest] / mu_rows(best, rest) <= cut)
    if keep.any():
        found = np.concatenate([found, ratios(rest[keep], best[keep])])
    return float(found.max())


def _draw_sample_rows(f: HarmonicMapping, z0: complex, count: int, columns: int,
                      rng: np.random.Generator):
    """Stratified members of the normalized unit ball, as coefficient rows
    before normalization; returns (h_rows, g_rows, sizes), where ``sizes``
    maps each nonempty stratum, in row order, to its number of rows."""
    h_rows = np.zeros((count, columns), dtype=complex)
    g_rows = np.zeros((count, columns), dtype=complex)

    fh = np.zeros(columns, dtype=complex)
    fg = np.zeros(columns, dtype=complex)
    fh[: f.h.coefficients.size] = f.h.coefficients
    fg[: f.g.coefficients.size] = f.g.coefficients

    n_aligned = min(16, count)
    n_poly = (count - n_aligned) * 2 // 5
    n_mob = (count - n_aligned - n_poly) // 2
    n_mix = count - n_aligned - n_poly - n_mob

    # the mapping itself, its rotations, and exact-center identities, in
    # rows j = 0, 1, 2, 3 mod 4
    top = min(columns - 1, MOBIUS_SAMPLE_DEGREE)
    rot = np.exp(2j * np.pi * rng.uniform(size=len(range(1, n_aligned, 4))))[:, None]
    h_rows[0:n_aligned:4], g_rows[0:n_aligned:4] = fh, fg
    h_rows[1:n_aligned:4], g_rows[1:n_aligned:4] = rot * fh, np.conj(rot) * fg
    identity = _automorphism_series(z0, top)[1:]
    h_rows[2:n_aligned:4, 1:top + 1] = identity
    g_rows[3:n_aligned:4, 1:top + 1] = identity
    i = n_aligned

    def gaussian_rows(m, degree):
        rows = rng.standard_normal((m, degree + 1)) + 1j * rng.standard_normal((m, degree + 1))
        rows[:, 0] = 0.0
        return rows

    deg = 8
    hp = gaussian_rows(n_poly, deg)
    gp = gaussian_rows(n_poly, deg)
    drop = rng.uniform(size=n_poly)
    hp[drop < 0.2] = 0.0
    gp[(drop >= 0.2) & (drop < 0.4)] = 0.0
    h_rows[i: i + n_poly, : deg + 1] = hp
    g_rows[i: i + n_poly, : deg + 1] = gp
    i += n_poly

    # identities at random centres, each on h or on g by a fair coin
    radii = rng.uniform(0.0, 0.85, n_mob)
    angles = np.exp(2j * np.pi * rng.uniform(0.0, 1.0, n_mob))
    rows = _automorphism_series(radii * angles, top)[:, 1:]
    on_h = rng.uniform(size=n_mob) < 0.5
    h_rows[i: i + n_mob, 1:top + 1][on_h] = rows[on_h]
    g_rows[i: i + n_mob, 1:top + 1][~on_h] = rows[~on_h]
    i += n_mob

    t = rng.uniform(0.05, 0.95, n_mix)[:, None]
    hp = gaussian_rows(n_mix, deg)
    gp = gaussian_rows(n_mix, deg)
    h_rows[i: i + n_mix] = t * fh[None, :]
    g_rows[i: i + n_mix] = t * fg[None, :]
    h_rows[i: i + n_mix, : deg + 1] += (1.0 - t) * hp
    g_rows[i: i + n_mix, : deg + 1] += (1.0 - t) * gp

    sizes = {"aligned": n_aligned, "random_poly": n_poly, "mobius": n_mob, "mixture": n_mix}
    return h_rows, g_rows, {name: size for name, size in sizes.items() if size}


def _member_level_set(f: HarmonicMapping) -> LambdaReport | None:
    """Λ_f of f in the normalized unit ball, or None when it is EMPTY: f
    supports that ball exactly when Λ_f is not empty.  It is located before
    membership is checked, so its compass run also finds β unless memoized;
    the errors keep their order: membership, then a flagged level set.
    """
    lam = lambda_set(f)
    if not membership(f).in_normalized_unit_ball:
        raise ValueError("support certificates require membership in the normalized unit ball")
    if lam.flagged:
        raise ValueError("a flagged unit level set decides no support point (see lambda)")
    return None if lam.classification is LevelSetShape.EMPTY else lam


def support_certificate(f: HarmonicMapping, samples: int = 10000, seed: int = 0):
    """Certify f as a support point of the normalized unit ball, or return
    None when its unit level set is empty; a flagged one raises ValueError.

    Picks the point z0 of ``lambda_set`` closest to the unit level (within
    ``LEVEL_TOL``), refines it by local ascent, builds the weighted
    derivative functional aligned there, and compares its value at f
    against `samples` stratified random members of the ball.  Every sampled
    member is rotated to align its functional value (rotation preserves
    membership), so the recorded maximum is conservative.  A candidate z0
    that cannot be pushed within 1e-9 of the unit level raises ValueError:
    the unflagged, nonempty report says Λ_f is not empty, so None would
    contradict it.  A sample count below one raises before anything runs.
    """
    if samples < 1:
        raise ValueError("at least one sample is required")
    lam = _member_level_set(f)
    if lam is None:
        return None
    z0 = complex(lam.points[int(np.argmin(lam.residuals))])

    values = _mu_values(f)
    pts, vals = compass_maximize(lambda z, _w: values(z), np.array([z0]),
                                 1e-3, step_tol=1e-12)
    z0 = complex(pts[0])
    mu0 = float(vals[0])
    if mu0 < 1.0 - 1e-9:
        # the report is unflagged and nonempty: None would say Λ_f is empty
        raise ValueError(f"the nearest level point refines to mu = {mu0!r}, short of one, "
                         f"on a nonempty level set (declared tails {_tail_allowance(f)!r})")

    hp0 = eval_series(differentiate(f.h), z0)
    gp0 = eval_series(differentiate(f.g), z0)
    theta0 = cmath.phase(hp0) + cmath.phase(gp0) if gp0 != 0 else 0.0
    weight = np.conj(hp0) + cmath.exp(-1j * theta0) * gp0
    functional = PointDerivativeFunctional(z0, theta0, complex(weight))

    attained = float(functional.evaluate(f).real)
    expected = 1.0 / _disk_weight(z0) ** 2
    if abs(attained - expected) > 1e-6 * max(1.0, expected):
        raise RuntimeError("attained functional value drifted from the level-set identity")

    rng = np.random.default_rng(seed)
    columns = max(MOBIUS_SAMPLE_DEGREE + 1,
                  f.h.coefficients.size, f.g.coefficients.size)
    dvec = np.zeros(columns, dtype=complex)
    k = np.arange(1, columns)
    dvec[1:] = k * z0 ** (k - 1)
    phase = cmath.exp(1j * theta0)

    sample_max = -np.inf
    strata: dict = {}
    done = 0
    while done < samples:
        chunk = min(512, samples - done)
        h_rows, g_rows, sizes = _draw_sample_rows(f, z0, chunk, columns, rng)
        lvals = np.abs(weight * (_serial_matvec(h_rows, dvec)
                                  + phase * np.conj(_serial_matvec(g_rows, dvec))))
        sample_max = max(sample_max, _batch_ratio_max(h_rows, g_rows, z0, rng, lvals,
                                                      sizes["aligned"]))
        for name, size in sizes.items():
            strata[name] = strata.get(name, 0) + size
        done += chunk

    if sample_max > attained + 1e-8:
        raise RuntimeError("a sampled ball member exceeded the certified value")
    bound = (abs(hp0) + abs(gp0)) / _disk_weight(z0)
    return SupportCertificate(z0, float(theta0), functional, attained,
                              float(sample_max), bound, samples, seed,
                              lam.classification.value, strata)


def sample_unit_ball(seed: int, degree: int = 5) -> HarmonicMapping:
    """Random polynomial mapping with h(0) = g(0) = 0 rescaled to Bloch norm
    one (up to optimizer accuracy); deterministic per seed.  The result holds
    the rescaling search's β, scaled, so analysing it runs no second search."""
    if degree < 1:
        raise ValueError("degree must be at least 1")
    rng = np.random.default_rng(seed)
    while True:
        hc = rng.standard_normal(degree + 1) + 1j * rng.standard_normal(degree + 1)
        gc = rng.standard_normal(degree + 1) + 1j * rng.standard_normal(degree + 1)
        hc[0] = gc[0] = 0.0
        if max(np.abs(hc).max(), np.abs(gc).max()) > 1e-9:
            break
    f = HarmonicMapping(AnalyticSeries(hc), AnalyticSeries(gc))
    return scale_mapping(f, 1.0 / estimate_bloch_constant(f).value)


class FalsifierStatus(str, enum.Enum):
    IMPROVED = "IMPROVED"
    NOT_APPLICABLE = "NOT_APPLICABLE"
    CONSTRUCTION_FAILED = "CONSTRUCTION_FAILED"


@dataclass(frozen=True, eq=False)
class FalsifierOutcome:
    status: FalsifierStatus
    message: str
    modulus_before: float
    f_tilde: HarmonicMapping | None = None
    eps: float = 0.0
    k0: int = -1
    side: str = ""
    K: float = 0.0
    improvement: float = 0.0
    modulus_after: float = 0.0

    def to_dict(self) -> dict:
        out = {
            "status": self.status.value,
            "message": self.message,
            "modulus_before": self.modulus_before,
        }
        if self.status is FalsifierStatus.IMPROVED:
            out.update({
                "eps": self.eps,
                "k0": self.k0,
                "side": self.side,
                "K": self.K,
                "improvement": self.improvement,
                "modulus_after": self.modulus_after,
                "f_tilde": mapping_to_dict(self.f_tilde),
            })
        return out


def _monomial_modulus_peak(k0: int) -> float:
    # max over [0,1) of r^k (1 - r^2), attained at r^2 = k/(k+2)
    if k0 == 0:
        return 1.0
    return (k0 / (k0 + 2.0)) ** (k0 / 2.0) * (2.0 / (k0 + 2.0))


def _inner_disk_gap(f: HarmonicMapping, radius: float) -> float:
    """Half the smallest gap of 1/(1-|z|^2) - (|h|+|g|) on the disk |z| <= radius,
    floored at zero; the declared tails count against the gap."""
    grid = polar_grid(48, 96, r_max=radius)
    inv = 1.0 / _disk_weight(grid)
    moduli = _abs_sum(f.h.coefficients, f.g.coefficients, grid) + _tail_allowance(f)
    return max(0.5 * float((inv - moduli).min()), 0.0)


def perturbation_falsifier(L: LinearFunctional, f: HarmonicMapping) -> FalsifierOutcome:
    """Try to beat f against L inside the modulus ball.

    When the unit level set of (|h| + |g|)(1 - |z|^2) is empty, dilating f
    and adding a small aligned monomial bump strictly increases Re L while
    keeping the modulus below one, so f supports no functional there.  A
    nonempty level set is exactly the obstruction: NOT_APPLICABLE.  A
    flagged ``sup_modulus`` report raises ValueError: f lies outside the
    modulus ball, or reaches its level with tails beyond ``LEVEL_TOL``.
    """
    if L.effectively_zero:
        raise ValueError("functional vanishes on every mapping with g(0) = 0")
    base_value = functional_eval(L, f).real
    modulus, report = sup_modulus(f)
    modulus += _tail_allowance(f)
    if report.flagged:
        raise ValueError("falsifier requires f in the modulus ball sup (|h|+|g|)(1-|z|^2) <= 1 "
                         "with an unflagged level set (see sup_modulus)")
    if report.classification is not LevelSetShape.EMPTY:
        return FalsifierOutcome(FalsifierStatus.NOT_APPLICABLE,
                                "unit level set of the modulus is nonempty", modulus)

    weights = [("h", k, L.A[k]) for k in range(L.A.size) if L.A[k] != 0]
    weights += [("g", k, L.B[k]) for k in range(1, L.B.size) if L.B[k] != 0]
    side, k0, wk = max(weights, key=lambda item: abs(item[2]))

    K_raw = _dilation_constant(L, f)
    K = K_raw if K_raw > 1e-12 else 1.0
    c = 2.0 * K / wk
    coeffs = np.zeros(k0 + 1, dtype=complex)
    coeffs[k0] = c
    bump = AnalyticSeries(coeffs)
    zero = AnalyticSeries([0.0])
    H = (bump, zero) if side == "h" else (zero, bump)

    M_H = abs(c) * _monomial_modulus_peak(k0)
    bc = bonk_constants(M_H)
    # the bump may eat one half of the inner-disk gap and the dilation keeps the other
    delta = _inner_disk_gap(f, bc.R)

    caps = [bc.epsilon1, 0.25, delta / max(abs(c) * bc.R ** k0, 1e-300)]
    if k0 >= 1:
        # keeps Re L of the dilated bump at (3/2)K or more, and the dilation
        # loss of the bump itself under K/2
        caps.append(1.0 - 0.75 ** (1.0 / k0))
        caps.append(1.0 / (4.0 * k0))
    eps = 0.5 * min(caps)

    for _ in range(40):
        if eps <= 0.0:
            break
        qh = linear_combination(1.0, f.h, eps, H[0])
        qg = linear_combination(1.0, f.g, eps, H[1])
        f_tilde = HarmonicMapping(dilate(qh, eps), dilate(qg, eps))
        improvement = functional_eval(L, f_tilde).real - base_value
        values = _weighted_abs_sum(f_tilde.h.coefficients, f_tilde.g.coefficients)
        new_modulus = maximize_on_disk(values).value + _tail_allowance(f_tilde)
        if improvement > 0.0 and new_modulus <= 1.0 + 1e-12:
            return FalsifierOutcome(FalsifierStatus.IMPROVED, "perturbation verified",
                                    modulus, f_tilde, eps, k0, side, K,
                                    improvement, new_modulus)
        eps *= 0.5
    return FalsifierOutcome(FalsifierStatus.CONSTRUCTION_FAILED,
                            "no verified eps after repeated shrinking", modulus)


@dataclass(frozen=True, eq=False)
class SupportDecomposition:
    """Split f0 = lambda1*u + (1-lambda1)*f into a unimodular constant and a
    normalized support-point candidate."""

    lambda1: float
    u: complex
    f: HarmonicMapping

    def to_dict(self) -> dict:
        return {
            "lambda1": self.lambda1,
            "u": [self.u.real, self.u.imag],
            "f": mapping_to_dict(self.f),
        }


def decompose_support_point(f0: HarmonicMapping):
    """Peel the constant part off a candidate support point of the unit ball.

    Writes f0 as lambda1*u + (1-lambda1)*f with lambda1 = |f0(0)| and
    u = f0(0)/lambda1, or u = 1 for a constant-free f0, and tests f as
    ``support_certificate`` does: DECOMPOSED when Λ_f is not empty, None when
    it is EMPTY, and ValueError when f lies outside the normalized unit ball
    or its level set is flagged.  ``membership`` draws the ball's boundary:
    an f0 outside the unit ball raises ValueError, and one inside it but not
    marginal returns None, since interior points support nothing.

    f's Bloch estimate is f0's scaled by 1/(1-lambda1), so one search serves
    both.  When lambda1 >= 1, or f0's Bloch constant lies within its reported
    accuracy of zero, f0 is a unimodular constant up to that accuracy and
    splits as lambda1*u with f = 0.
    """
    rep = membership(f0)
    if not rep.in_unit_ball:
        raise ValueError("decomposition requires Bloch norm at most one")
    if not rep.marginal:
        return None
    c0 = f0.value_at_origin
    lam1 = abs(c0)
    u = c0 / lam1 if lam1 else 1.0 + 0.0j
    est = estimate_bloch_constant(f0)
    if lam1 >= 1.0 or est.value <= est.accuracy:
        zero = AnalyticSeries([0.0])
        return SupportDecomposition(lam1, u, HarmonicMapping(zero, zero))
    f = _peel_constant(f0, lam1)
    return None if _member_level_set(f) is None else SupportDecomposition(lam1, u, f)
