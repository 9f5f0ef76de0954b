"""Membership screens, coefficient conditions, the quadratic counterexample
family, and sharpened weighted-derivative bounds near a unit-level point."""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .series import AnalyticSeries, differentiate, linear_combination
from .optimize import DISK_RADIUS_CAP
from .mapping import (
    HarmonicMapping,
    LambdaReport,
    LevelSetShape,
    Ternary,
    _abs_sum,
    _disk_weight,
    _mu_values,
    estimate_bloch_constant,
    lambda_set,
    little_bloch_status,
    mu,
)

__all__ = [
    "MembershipReport",
    "membership",
    "rotation_normalize",
    "CoefficientConditions",
    "coefficient_conditions",
    "counterexample_family",
    "midpoint_check",
    "ExtremeVerdict",
    "ExtremeNecessityReport",
    "extreme_necessity",
    "SharpeningResult",
    "sharpening_exponent",
    "verify_sharpening",
]

# quadratic family scale: both parts of f_a carry 3*sqrt(3)/8 times a slot weight
FAMILY_SCALE = 3.0 * math.sqrt(3.0) / 8.0


@dataclass(frozen=True)
class MembershipReport:
    """Computed membership in the four Bloch-type balls.

    Boundary policy: the norm may sit on 1 up to the optimizer's reported
    accuracy, in which case membership holds and ``marginal`` is set.  The
    little-Bloch classes inherit the tri-state of the radial-limit test.
    """

    in_unit_ball: bool
    in_normalized_unit_ball: bool
    in_little_ball: Ternary
    in_normalized_little_ball: Ternary
    norm_value: float
    norm_accuracy: float
    marginal: bool

    def to_dict(self) -> dict:
        return {
            "in_unit_ball": self.in_unit_ball,
            "in_normalized_unit_ball": self.in_normalized_unit_ball,
            "in_little_ball": self.in_little_ball.value,
            "in_normalized_little_ball": self.in_normalized_little_ball.value,
            "norm_value": self.norm_value,
            "norm_accuracy": self.norm_accuracy,
            "marginal": self.marginal,
        }


def membership(f: HarmonicMapping) -> MembershipReport:
    """Classify f against the unit ball, its normalized (h(0)=g(0)=0) variant,
    and the little-Bloch versions of both."""
    est = estimate_bloch_constant(f)
    norm = abs(f.value_at_origin) + est.value
    acc = est.accuracy
    in_ball = norm <= 1.0 + acc
    marginal = in_ball and abs(norm - 1.0) <= acc
    normalized = bool(f.h.coefficients[0] == 0)  # g(0) = 0 already holds
    little = little_bloch_status(f)

    def tri(base_ok):
        return little if base_ok else Ternary.FALSE

    return MembershipReport(
        in_unit_ball=in_ball,
        in_normalized_unit_ball=in_ball and normalized,
        in_little_ball=tri(in_ball),
        in_normalized_little_ball=tri(in_ball and normalized),
        norm_value=norm,
        norm_accuracy=acc,
        marginal=marginal,
    )


def rotation_normalize(f: HarmonicMapping) -> HarmonicMapping:
    """Rotate each part so h'(0) and g'(0) become nonnegative reals."""
    zero = AnalyticSeries([0.0])

    def unimodular(s):
        d = complex(differentiate(s).coefficients[0])
        return d.conjugate() / abs(d) if d != 0 else 1.0

    return HarmonicMapping(
        linear_combination(unimodular(f.h), f.h, 0.0, zero),
        linear_combination(unimodular(f.g), f.g, 0.0, zero),
    )


@dataclass(frozen=True)
class CoefficientConditions:
    """Necessary coefficient conditions at a norm-one normalized mapping.

    ``a1``, ``b0``, ``b1`` are the measured derivative coefficients that must
    vanish; ``pair_sum`` is |a2| + |b2|, which must not exceed one.  Any
    failure certifies that the mapping cannot lie on the unit sphere of the
    normalized ball.
    """

    a1: complex
    b0: complex
    b1: complex
    pair_sum: float
    passed: dict
    all_passed: bool

    @property
    def certifies_exclusion(self) -> bool:
        return not self.all_passed


# coefficientwise comparisons treat differences up to this size as zero
COEFFICIENT_TOL = 1e-12


def coefficient_conditions(f: HarmonicMapping) -> CoefficientConditions:
    """Check the vanishing/size conditions on the derivative coefficients.

    Requires the normalization h'(0) = 1 (use ``rotation_normalize`` and a
    scaling first if needed); coefficients index the power series of h' and
    g'.
    """
    hp = differentiate(f.h).coefficients
    gp = differentiate(f.g).coefficients
    if abs(hp[0] - 1.0) > 1e-12:
        raise ValueError("coefficient conditions require the normalization h'(0) = 1")

    def coef(c, k):
        return complex(c[k]) if k < c.size else 0.0

    a1, a2 = coef(hp, 1), coef(hp, 2)
    b0, b1, b2 = coef(gp, 0), coef(gp, 1), coef(gp, 2)
    pair = abs(a2) + abs(b2)
    passed = {
        "a1_zero": abs(a1) <= COEFFICIENT_TOL,
        "b0_zero": abs(b0) <= COEFFICIENT_TOL,
        "b1_zero": abs(b1) <= COEFFICIENT_TOL,
        "pair_sum_at_most_one": pair <= 1.0 + COEFFICIENT_TOL,
    }
    return CoefficientConditions(a1, b0, b1, pair, passed, all(passed.values()))


def counterexample_family(a: float) -> HarmonicMapping:
    """Quadratic family f_a = h_a + conj(g_a), 0 < a < 2, with
    h_a(z) = (3 sqrt(3)/8) a z^2 and g_a = -h_{2-a}.

    Every member has |h'| + |g'| = (3 sqrt(3)/2)|z| independently of a, hence
    Bloch constant one attained on the circle |z| = 1/sqrt(3).
    """
    a = float(a)
    if not 0.0 < a < 2.0:
        raise ValueError("family parameter must satisfy 0 < a < 2")
    h = AnalyticSeries([0.0, 0.0, FAMILY_SCALE * a])
    g = AnalyticSeries([0.0, 0.0, -FAMILY_SCALE * (2.0 - a)])
    return HarmonicMapping(h, g)


def midpoint_check(f: HarmonicMapping, a: float) -> bool:
    """Whether f = (f_a + f_{2-a}) / 2 coefficientwise; a = 1 is degenerate
    (the two members coincide) and is rejected."""
    a = float(a)
    if a == 1.0:
        raise ValueError("a = 1 gives a degenerate midpoint; pick a != 1")
    fa = counterexample_family(a)
    fb = counterexample_family(2.0 - a)

    def matches(s, sa, sb):
        mid = linear_combination(0.5, sa, 0.5, sb).coefficients
        n = max(s.coefficients.size, mid.size)
        left = np.zeros(n, dtype=complex)
        right = np.zeros(n, dtype=complex)
        left[: s.coefficients.size] = s.coefficients
        right[: mid.size] = mid
        return bool(np.max(np.abs(left - right), initial=0.0) <= COEFFICIENT_TOL)

    return matches(f.h, fa.h, fb.h) and matches(f.g, fa.g, fb.g)


class ExtremeVerdict(str, enum.Enum):
    NOT_EXTREME = "NOT_EXTREME"
    NECESSARY_CONDITION_MET = "NECESSARY_CONDITION_MET"
    UNRESOLVED = "UNRESOLVED"


@dataclass(frozen=True, eq=False)
class ExtremeNecessityReport:
    verdict: ExtremeVerdict
    part: int
    lambda_report: LambdaReport
    membership_report: MembershipReport

    def to_dict(self) -> dict:
        return {
            "verdict": self.verdict.value,
            "part": self.part,
            "lambda": self.lambda_report.to_dict(),
            "membership": self.membership_report.to_dict(),
        }


# at most this many isolated clusters counts as evidence of a finite level set
FINITE_CLUSTER_LIMIT = 8


def extreme_necessity(f: HarmonicMapping, tol: float = 1e-6) -> ExtremeNecessityReport:
    """Contrapositive extreme-point screen through the unit level set.

    An extreme point of the normalized little ball must have an infinite unit
    level set, and one of the normalized ball must have infinitely many
    unit-level points inside some disk of radius R < 1.  A level set that is
    empty or a handful of isolated points therefore certifies NOT_EXTREME; a
    curve-like set only means the necessary condition holds.
    """
    rep = membership(f)
    if rep.in_normalized_little_ball is Ternary.TRUE:
        part = 1
    elif rep.in_normalized_unit_ball:
        part = 2
    else:
        raise ValueError("extreme-point screen requires membership in a normalized ball")
    lam = lambda_set(f, tol)
    if lam.classification is LevelSetShape.EMPTY:
        verdict = ExtremeVerdict.NOT_EXTREME
    elif (lam.classification is LevelSetShape.ISOLATED
          and lam.cluster_count <= FINITE_CLUSTER_LIMIT):
        verdict = ExtremeVerdict.NOT_EXTREME
    elif lam.classification is LevelSetShape.CURVE_LIKE and lam.witness_radius < 1.0:
        verdict = ExtremeVerdict.NECESSARY_CONDITION_MET
    else:
        verdict = ExtremeVerdict.UNRESOLVED
    return ExtremeNecessityReport(verdict, part, lam, rep)


@dataclass(frozen=True)
class SharpeningResult:
    """Witness (n, delta) for the sharpened bound
    (|h'| + |g'| + |m(z)|^n)(1 - |z|^2) < 1 on a punctured disk around the
    center, where m is the Mobius factor (z - z0)/(1 - conj(z0) z).

    ``verified_margin`` is the minimal margin on the dense offset grid of
    ``verify_sharpening`` that accepted the witness; it is NaN on a witness
    that has not been through that check."""

    exponent_n: int
    delta: float
    worst_margin: float
    center: complex
    verified_margin: float = math.nan

    def to_dict(self) -> dict:
        return {
            "n": self.exponent_n,
            "delta": self.delta,
            "worst_margin": self.worst_margin,
            "center": [self.center.real, self.center.imag],
            "verified_margin": self.verified_margin,
        }


def _punctured_blocks(z0: complex, delta: float, n_radii: int, n_angles: int,
                      angle_offset: float, rows: int):
    """The punctured polar grid around z0, ``rows`` radius rows at a time,
    with the points outside the disk cap dropped (a block may come out empty)."""
    radii = np.geomspace(delta * 1e-2, delta * (1.0 - 1e-9), n_radii)
    angles = 2.0 * np.pi * np.arange(n_angles) / n_angles + angle_offset
    ring = np.exp(1j * angles)[None, :]
    # |pt| <= |z0| + |delta|, so when that sum clears the cap by 1e-9 (far
    # above rounding) the mask cannot drop a point; NaN input takes the mask
    masked = not abs(z0) + abs(delta) <= 1.0 - 2e-9
    for start in range(0, n_radii, rows):
        pts = (z0 + radii[start:start + rows, None] * ring).ravel()
        if masked:
            pts = pts[np.abs(pts) <= DISK_RADIUS_CAP]
        yield pts


def _punctured_samples(z0: complex, delta: float, n_radii: int, n_angles: int,
                       angle_offset: float = 0.0) -> np.ndarray:
    for pts in _punctured_blocks(z0, delta, n_radii, n_angles, angle_offset, max(n_radii, 1)):
        if pts.size:
            return pts
    raise ValueError("punctured neighborhood does not meet the open disk")


def _sharpening_margins(f: HarmonicMapping, pts: np.ndarray, z0: complex, n: int) -> np.ndarray:
    # the weight multiplies the whole sum; distributing it would round differently
    deriv = _abs_sum(differentiate(f.h).coefficients, differentiate(f.g).coefficients, pts)
    mob = np.abs((pts - z0) / (1.0 - np.conj(z0) * pts))
    return 1.0 - (deriv + mob ** n) * _disk_weight(pts)


# accepted margins must clear float noise; smaller positives are treated as zero
MARGIN_FLOOR = 1e-10
# radii x angles of the search grid of sharpening_exponent, and how often
# the search may halve delta0
SEARCH_GRID = (48, 96)
MAX_HALVINGS = 20


def sharpening_exponent(f: HarmonicMapping, z0, delta0: float, n_max: int = 8):
    """Search for the smallest exponent making the sharpened bound hold.

    Requires mu_f(z0) = 1 (within 1e-8) and mu_f < 1 on the sampled punctured
    disk of radius delta0.  The exponent is raised before the radius is
    halved, so the returned delta is the largest one in the halving schedule
    that works for some n <= n_max.  A candidate found on the coarse grid is
    only accepted after a dense offset grid confirms its margin above the
    noise floor; this rejects spurious witnesses at centers where the unit
    level set is a curve through the neighborhood.  The accepted witness
    carries that confirmed margin as ``verified_margin``.  Returns None when
    the sweep of ``n_max`` exponents over ``MAX_HALVINGS + 1`` radii is
    exhausted.
    """
    z0 = complex(z0)
    delta0 = float(delta0)
    if not 0.0 < delta0 < math.inf:
        raise ValueError("delta0 must be a positive finite number")
    if n_max < 1:
        raise ValueError("n_max must be at least 1")
    if abs(mu(f, z0) - 1.0) > 1e-8:
        raise ValueError("sharpening requires a unit-level center point")
    base = _punctured_samples(z0, delta0, *SEARCH_GRID)
    if not bool((_mu_values(f)(base) < 1.0 - 1e-12).all()):
        raise ValueError("mu must stay below one on the punctured neighborhood")
    delta = delta0
    for _ in range(MAX_HALVINGS + 1):
        pts = base if delta == delta0 else _punctured_samples(z0, delta, *SEARCH_GRID)
        for n in range(1, n_max + 1):
            margins = _sharpening_margins(f, pts, z0, n)
            worst = float(margins.min())
            if worst <= MARGIN_FLOOR:
                continue
            candidate = SharpeningResult(n, delta, worst, z0)
            confirmed = verify_sharpening(f, candidate)
            if confirmed > MARGIN_FLOOR:
                return SharpeningResult(n, delta, min(worst, confirmed), z0, confirmed)
        delta *= 0.5
    return None


# points (or samples) per block of the dense checks here and in
# support.verify_bonk_constants: a block's temporaries stay within L2
BLOCK_POINTS = 1 << 14


def verify_sharpening(f: HarmonicMapping, result: SharpeningResult,
                      n_radii: int = 1000, n_angles: int = 1000) -> float:
    """Re-check a sharpening witness on an independent, denser, offset grid;
    returns the minimal margin found there.  The grid is built and reduced a
    block of radius rows at a time, so memory stays O(BLOCK_POINTS + n_angles)."""
    z0, n = result.center, result.exponent_n
    blocks = _punctured_blocks(z0, result.delta, n_radii, n_angles,
                               np.pi / (2.0 * n_angles), max(BLOCK_POINTS // n_angles, 1))
    # np.min, unlike min, lets a NaN margin through
    minima = [_sharpening_margins(f, pts, z0, n).min() for pts in blocks if pts.size]
    if not minima:
        raise ValueError("punctured neighborhood does not meet the open disk")
    return float(np.min(minima))
