"""Membership screens, the quadratic counterexample family and its midpoint
check, the extreme-point screen through the unit level set, and sharpened
weighted-derivative bounds near a unit-level point, on the one mu kernel."""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .series import AnalyticSeries, linear_combination
from .disk import _disk_weight, _pseudo_distance
from .optimize import DISK_RADIUS_CAP
from .mapping import (
    BLOCK_POINTS,
    HarmonicMapping,
    LambdaReport,
    LevelSetShape,
    Ternary,
    _mu_values,
    _tail_allowance,
    _unit_level_side,
    bloch_norm,
    estimate_bloch_constant,
    lambda_set,
    little_bloch_status,
    mu,
)

__all__ = [
    "MembershipReport",
    "membership",
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
    level-set report and ``decompose_support_point`` read the same rule.  The
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
    norm = bloch_norm(f)
    acc = estimate_bloch_constant(f).accuracy
    side = _unit_level_side(norm, acc)
    in_ball = side <= 0
    marginal = side == 0
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


# coefficientwise comparisons treat differences up to this size as zero
COEFFICIENT_TOL = 1e-12


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
        diff = np.zeros(max(s.coefficients.size, mid.size), dtype=complex)
        diff[: s.coefficients.size] = s.coefficients
        diff[: mid.size] -= mid
        return bool(np.max(np.abs(diff), initial=0.0) <= COEFFICIENT_TOL)

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


def extreme_necessity(f: HarmonicMapping) -> ExtremeNecessityReport:
    """Contrapositive extreme-point screen through the unit level set.

    An extreme point of the normalized little ball must have an infinite unit
    level set, and one of the normalized ball must have infinitely many
    unit-level points inside some disk of radius R < 1.  A level set that is
    empty or a handful of isolated points therefore certifies NOT_EXTREME; a
    curve-like set only means the necessary condition holds; a flagged
    report leaves the screen UNRESOLVED.

    The level set is located before membership is checked, so on a mapping
    without a memoized β one compass run finds both; a mapping outside the
    normalized balls still raises the membership error.
    """
    lam = lambda_set(f)
    rep = membership(f)
    if rep.in_normalized_little_ball is Ternary.TRUE:
        part = 1
    elif rep.in_normalized_unit_ball:
        part = 2
    else:
        raise ValueError("extreme-point screen requires membership in a normalized ball")
    if lam.flagged:
        verdict = ExtremeVerdict.UNRESOLVED
    elif lam.classification is LevelSetShape.EMPTY:
        verdict = ExtremeVerdict.NOT_EXTREME
    elif (lam.classification is LevelSetShape.ISOLATED
          and lam.cluster_count <= FINITE_CLUSTER_LIMIT):
        verdict = ExtremeVerdict.NOT_EXTREME
    elif lam.classification is LevelSetShape.CURVE_LIKE:
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


def _sharpening_margins(mu_vals: np.ndarray, pts: np.ndarray, z0: complex, n: int) -> np.ndarray:
    # 1 - mu_f - |m|^n (1 - |z|^2) for mu_vals = mu_f on pts; in place, same bits
    out = _pseudo_distance(z0, pts)
    out **= n
    out *= _disk_weight(pts)
    return np.subtract(1.0 - mu_vals, out, out=out)


# accepted margins must clear float noise; smaller positives are treated as zero
MARGIN_FLOOR = 1e-10
# radii x angles of the search grid of sharpening_exponent, how often the
# search may halve delta0, and the largest exponent it tries at each radius
SEARCH_GRID = (48, 96)
MAX_HALVINGS = 20
MAX_EXPONENT = 8


def sharpening_exponent(f: HarmonicMapping, z0, delta0: float):
    """Search for the smallest exponent making the sharpened bound hold.

    Requires mu_f(z0) = 1 (within 1e-8) and mu_f < 1 on the sampled punctured
    disk of radius delta0.  The exponent is raised before the radius is
    halved, so the returned delta is the largest one in the halving schedule
    that works for some n <= MAX_EXPONENT.  A candidate found on the coarse
    grid is only accepted after a dense offset grid confirms its margin above
    the noise floor; this rejects spurious witnesses at centers where the
    unit level set is a curve through the neighborhood.  The accepted witness
    carries that confirmed margin as ``verified_margin``.  Returns None when
    the sweep of ``MAX_EXPONENT`` exponents over ``MAX_HALVINGS + 1`` radii
    is exhausted.

    Every margin, here and in ``verify_sharpening``, is lowered by the
    declared tails: by Schwarz-Pick a tail with coefficient sum at most T
    adds at most T to (1 - |z|^2)(|h'| + |g'|), the same allowance the
    accuracy of the Bloch constant carries.  mu_f comes from the Bloch
    constant's kernel: a composition's margins read its exact mu, yet still
    subtract its series' declared tails.
    """
    z0 = complex(z0)
    delta0 = float(delta0)
    if not 0.0 < delta0 < math.inf:
        raise ValueError("delta0 must be a positive finite number")
    if abs(mu(f, z0) - 1.0) > 1e-8:
        raise ValueError("sharpening requires a unit-level center point")
    values = _mu_values(f)
    pts = _punctured_samples(z0, delta0, *SEARCH_GRID)
    mu_vals = values(pts)
    if not bool((mu_vals < 1.0 - 1e-12).all()):
        raise ValueError("mu must stay below one on the punctured neighborhood")
    tail = _tail_allowance(f)
    delta = delta0
    for _ in range(MAX_HALVINGS + 1):
        if delta != delta0:
            pts = _punctured_samples(z0, delta, *SEARCH_GRID)
            mu_vals = values(pts)
        for n in range(1, MAX_EXPONENT + 1):
            margins = _sharpening_margins(mu_vals, pts, z0, n)
            worst = float(margins.min()) - tail
            if worst <= MARGIN_FLOOR:
                continue
            candidate = SharpeningResult(n, delta, worst, z0)
            confirmed = verify_sharpening(f, candidate)
            if confirmed > MARGIN_FLOOR:
                return SharpeningResult(n, delta, min(worst, confirmed), z0, confirmed)
        delta *= 0.5
    return None


def verify_sharpening(f: HarmonicMapping, result: SharpeningResult,
                      n_radii: int = 1000, n_angles: int = 1000) -> float:
    """Re-check a sharpening witness on an independent, denser, offset grid;
    returns the minimal margin found there, less the declared tails.  The
    grid is built and reduced a block of radius rows at a time, so memory
    stays O(BLOCK_POINTS + n_angles)."""
    z0, n = result.center, result.exponent_n
    blocks = _punctured_blocks(z0, result.delta, n_radii, n_angles,
                               np.pi / (2.0 * n_angles), max(BLOCK_POINTS // n_angles, 1))
    values = _mu_values(f)
    # np.min, unlike min, lets a NaN margin through
    minima = [_sharpening_margins(values(pts), pts, z0, n).min() for pts in blocks if pts.size]
    if not minima:
        raise ValueError("punctured neighborhood does not meet the open disk")
    return float(np.min(minima)) - _tail_allowance(f)
