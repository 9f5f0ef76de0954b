import numpy as np
import pytest

from blochmap import (
    AnalyticSeries,
    ExtremeVerdict,
    HarmonicMapping,
    LevelSetShape,
    MobiusAutomorphism,
    Ternary,
    bloch_constant,
    counterexample_family,
    estimate_bloch_constant,
    extreme_necessity,
    membership,
    midpoint_check,
    mu,
    precompose,
    scale_mapping,
    sharpening_exponent,
    verify_sharpening,
)
from blochmap.extremal import FINITE_CLUSTER_LIMIT

IDENTITY = HarmonicMapping(AnalyticSeries([0.0, 1.0]), AnalyticSeries([0.0]))
INV_SQRT3 = 0.5773502691896258


def test_membership_identity():
    rep = membership(IDENTITY)
    assert rep.in_unit_ball
    assert rep.in_normalized_unit_ball
    assert rep.in_little_ball is Ternary.TRUE
    assert rep.norm_value == pytest.approx(1.0, abs=1e-8)
    assert rep.marginal


def test_membership_interior_point():
    rep = membership(scale_mapping(IDENTITY, 0.5))
    assert rep.in_unit_ball
    assert not rep.marginal
    assert rep.norm_value == pytest.approx(0.5, abs=1e-8)


def test_membership_outside():
    rep = membership(scale_mapping(IDENTITY, 1.2))
    assert not rep.in_unit_ball
    assert rep.in_little_ball is Ternary.FALSE


def test_membership_constant_offset_is_not_normalized():
    f = HarmonicMapping(AnalyticSeries([0.3, 0.5]), AnalyticSeries([0.0]))
    rep = membership(f)
    assert rep.in_unit_ball
    assert not rep.in_normalized_unit_ball
    assert rep.in_normalized_little_ball is Ternary.FALSE


def test_membership_tail_bound_is_undecided_for_little():
    f = HarmonicMapping(
        AnalyticSeries([0.0, 0.5], tail_bound=0.1), AnalyticSeries([0.0])
    )
    rep = membership(f)
    assert rep.in_little_ball is Ternary.UNDECIDED


def test_membership_composition_takes_its_parents_little_bloch_status():
    # mu_{f o phi} = mu_f o phi and phi maps the circle onto itself, so a
    # composition is little-Bloch exactly when its parent is, although its
    # truncated series declares a tail
    phi = MobiusAutomorphism(0.4 - 0.2j, 0.7)
    exact = precompose(scale_mapping(IDENTITY, 0.5), phi, 20)
    assert exact.h.tail_bound > 0.0
    assert membership(exact).in_little_ball is Ternary.TRUE
    assert membership(precompose(exact, MobiusAutomorphism(-0.3), 20)).in_little_ball is Ternary.TRUE
    tailed = HarmonicMapping(AnalyticSeries([0.0, 0.5], tail_bound=0.1), AnalyticSeries([0.0]))
    assert membership(precompose(tailed, phi, 20)).in_little_ball is Ternary.UNDECIDED


def test_family_parameter_domain():
    for bad in (0.0, 2.0, -1.0, 2.5):
        with pytest.raises(ValueError):
            counterexample_family(bad)


def test_family_coefficients():
    f = counterexample_family(0.5)
    scale = 3.0 * np.sqrt(3.0) / 8.0
    assert f.h.coefficients[2] == pytest.approx(scale * 0.5)
    assert f.g.coefficients[2] == pytest.approx(-scale * 1.5)


def test_midpoint_check_accepts_true_midpoint():
    f1 = counterexample_family(1.0)
    for a in (0.25, 0.5, 1.5, 1.9):
        assert midpoint_check(f1, a)


def test_midpoint_check_rejects_other_mappings():
    assert not midpoint_check(IDENTITY, 0.5)
    assert not midpoint_check(counterexample_family(0.5), 0.5)


def test_midpoint_check_rejects_degenerate_parameter():
    with pytest.raises(ValueError):
        midpoint_check(counterexample_family(1.0), 1.0)


def test_extreme_necessity_identity_not_extreme():
    rep = extreme_necessity(IDENTITY)
    assert rep.verdict is ExtremeVerdict.NOT_EXTREME
    assert rep.part == 1
    assert rep.lambda_report.classification is LevelSetShape.ISOLATED
    assert rep.lambda_report.cluster_count == 1
    assert np.abs(rep.lambda_report.points).max() < 1e-8


def test_extreme_necessity_family_condition_met():
    rep = extreme_necessity(counterexample_family(1.0))
    assert rep.verdict is ExtremeVerdict.NECESSARY_CONDITION_MET
    assert rep.lambda_report.classification is LevelSetShape.CURVE_LIKE
    assert rep.lambda_report.witness_radius == pytest.approx(INV_SQRT3, abs=1e-4)


def test_extreme_necessity_interior_point_not_extreme():
    rep = extreme_necessity(scale_mapping(IDENTITY, 0.5))
    assert rep.verdict is ExtremeVerdict.NOT_EXTREME
    assert rep.lambda_report.classification is LevelSetShape.EMPTY


def normalized_composition(f, center):
    # f o phi_center through an order-200 truncation, with h(0) moved to 0
    # and scaled back to Bloch constant one
    fc = precompose(f, MobiusAutomorphism(center, 0.0), 200)
    h = fc.h.coefficients.copy()
    h[0] = 0.0
    fc = HarmonicMapping(AnalyticSeries(h), AnalyticSeries(fc.g.coefficients))
    return scale_mapping(fc, 1.0 / estimate_bloch_constant(fc).value)


@pytest.mark.parametrize("center", [0.45, 0.6, 0.8])
@pytest.mark.parametrize("a", [0.3, 0.75])
def test_extreme_necessity_invariant_under_automorphisms(a, center):
    # composing with a disk automorphism shrinks the family's level circle,
    # but it stays a curve, and the verdict must not change with its size
    rep = extreme_necessity(normalized_composition(counterexample_family(a), center))
    assert rep.lambda_report.classification is LevelSetShape.CURVE_LIKE
    assert rep.verdict is ExtremeVerdict.NECESSARY_CONDITION_MET


@pytest.mark.parametrize("center", [0.3, 0.6])
def test_extreme_necessity_composed_identity_stays_isolated(center):
    rep = extreme_necessity(normalized_composition(IDENTITY, center))
    assert rep.lambda_report.classification is LevelSetShape.ISOLATED
    assert rep.lambda_report.points.size == 1
    assert rep.verdict is ExtremeVerdict.NOT_EXTREME


# h = b z + z^(n+1)/(n+1), g = 0, scaled to beta = 1: mu peaks at the n points
# near |z| = 0.89 where z^n > 0.  The screen calls at most FINITE_CLUSTER_LIMIT
# isolated clusters a finite level set; for the paper, 9 isolated points are
# still a finite level set, so the UNRESOLVED case pins the code's rule, not
# the theorem
@pytest.mark.parametrize("n, b, verdict", [(8, 0.02, ExtremeVerdict.NOT_EXTREME),
                                           (9, 0.03, ExtremeVerdict.UNRESOLVED)])
def test_extreme_necessity_finite_cluster_limit(n, b, verdict):
    h = np.zeros(n + 2)
    h[1], h[n + 1] = b, 1.0 / (n + 1)
    f = HarmonicMapping(AnalyticSeries(h), AnalyticSeries([0.0]))
    rep = extreme_necessity(scale_mapping(f, 1.0 / bloch_constant(f)))
    lam = rep.lambda_report
    assert lam.classification is LevelSetShape.ISOLATED
    assert lam.cluster_count == lam.points.size == n
    assert np.abs(np.abs(lam.points) - 0.89).max() < 0.01
    assert (n <= FINITE_CLUSTER_LIMIT) is (verdict is ExtremeVerdict.NOT_EXTREME)
    assert rep.verdict is verdict


def test_extreme_necessity_is_unresolved_on_a_flagged_level_set():
    # a declared tail of 1e-3 could lift mu of 0.9995 z onto the level
    f = HarmonicMapping(AnalyticSeries([0.0, 0.9995], 1e-3), AnalyticSeries([0.0]))
    rep = extreme_necessity(f)
    assert rep.lambda_report.flagged
    assert rep.lambda_report.classification is LevelSetShape.EMPTY
    assert rep.verdict is ExtremeVerdict.UNRESOLVED


def test_extreme_necessity_keeps_a_declared_tail_below_the_level_tolerance():
    # f_0.3 o phi_0.8 normalized with the declared tail of its order-200
    # truncation, about 7e-14
    fc = precompose(counterexample_family(0.3), MobiusAutomorphism(0.8, 0.0), 200)
    h = fc.h.coefficients.copy()
    h[0] = 0.0
    fc = HarmonicMapping(AnalyticSeries(h, fc.h.tail_bound), fc.g)
    f = scale_mapping(fc, 1.0 / estimate_bloch_constant(fc).value)
    assert 0.0 < f.h.tail_bound + f.g.tail_bound < 1e-13
    rep = extreme_necessity(f)
    assert not rep.lambda_report.flagged
    assert rep.lambda_report.classification is LevelSetShape.CURVE_LIKE
    assert rep.verdict is ExtremeVerdict.NECESSARY_CONDITION_MET


def test_extreme_necessity_requires_normalized_membership():
    with pytest.raises(ValueError):
        extreme_necessity(scale_mapping(IDENTITY, 1.5))
    with pytest.raises(ValueError):
        extreme_necessity(HarmonicMapping(AnalyticSeries([0.6, 0.2]), AnalyticSeries([0.0])))


def test_extreme_necessity_membership_error_comes_before_the_flag():
    # mu of 2z tops 1 + LEVEL_TOL, so its level set is flagged as well
    double = HarmonicMapping(AnalyticSeries([0.0, 2.0]), AnalyticSeries([0.0]))
    with pytest.raises(ValueError, match="membership"):
        extreme_necessity(double)


def test_sharpening_identity_needs_square():
    res = sharpening_exponent(IDENTITY, 0.0, 0.9)
    assert res is not None
    # mu(z) + |z|^n weighted: 1 - (1 + r^n)(1 - r^2) = r^2 - r^n + r^(n+2);
    # n = 1 fails near 0, n = 2 works with margin r^4
    assert res.exponent_n == 2
    assert res.delta == pytest.approx(0.9)
    assert res.worst_margin > 0.0
    assert res.worst_margin == pytest.approx((0.9 * 1e-2) ** 4, rel=1e-6)


def test_sharpening_no_witness_on_level_curve():
    # the family's unit level set is a circle through the center, so the
    # sharpened bound fails on every punctured neighborhood and the search
    # must come back empty instead of reporting a grid artifact
    f = counterexample_family(1.0)
    assert sharpening_exponent(f, INV_SQRT3, 0.5) is None


def test_sharpening_verify_matches_search():
    res = sharpening_exponent(IDENTITY, 0.0, 0.9)
    margin = verify_sharpening(IDENTITY, res)
    assert margin > 0.0
    assert margin == pytest.approx(res.worst_margin, rel=1e-2)


def with_tail(f, tail):
    return HarmonicMapping(AnalyticSeries(f.h.coefficients, tail), f.g)


def test_sharpening_margins_include_the_declared_tails():
    # by Schwarz-Pick a tail with coefficient sum T adds up to T to mu, so
    # every margin is lowered by T; the identity's margin at 0 is 6.6e-9
    exact = sharpening_exponent(IDENTITY, 0.0, 0.9)
    assert sharpening_exponent(with_tail(IDENTITY, 1e-3), 0.0, 0.9) is None
    res = sharpening_exponent(with_tail(IDENTITY, 1e-12), 0.0, 0.9)
    assert (res.exponent_n, res.delta) == (exact.exponent_n, exact.delta)
    assert res.verified_margin == exact.verified_margin - 1e-12
    for tail in (1e-12, 1e-3):
        assert verify_sharpening(with_tail(IDENTITY, tail), exact) == exact.verified_margin - tail
    # z + z^3/10: the search grid meets the worst angle that the offset dense
    # grid misses, so the reported worst margin is the search grid's own
    cubic = HarmonicMapping(AnalyticSeries([0.0, 1.0, 0.0, 0.1]), AnalyticSeries([0.0]))
    exact = sharpening_exponent(cubic, 0.0, 0.5)
    assert exact.worst_margin < exact.verified_margin
    res = sharpening_exponent(with_tail(cubic, 1e-12), 0.0, 0.5)
    assert res.worst_margin == exact.worst_margin - 1e-12
    assert res.verified_margin == exact.verified_margin - 1e-12


def test_sharpening_requires_unit_center():
    with pytest.raises(ValueError):
        sharpening_exponent(scale_mapping(IDENTITY, 0.5), 0.0, 0.5)


def test_sharpening_rejects_when_mu_exceeds_one_nearby():
    # mu(0) = 1 but mu(r) = (1 - r^2)(1 + 3 r^2) > 1 for small real r
    f = HarmonicMapping(AnalyticSeries([0.0, 1.0, 0.0, 1.0]), AnalyticSeries([0.0]))
    with pytest.raises(ValueError, match="below one"):
        sharpening_exponent(f, 0.0, 0.5)


def test_membership_report_round_trip():
    d = membership(IDENTITY).to_dict()
    assert d["in_little_ball"] == "TRUE"
    assert isinstance(d["norm_value"], float)


@pytest.mark.parametrize("delta0", [float("nan"), float("inf"), 0.0, -0.5],
                         ids=["nan", "inf", "zero", "negative"])
def test_sharpening_radius_must_be_positive_and_finite(delta0):
    with pytest.raises(ValueError, match="delta0"):
        sharpening_exponent(IDENTITY, 0.0, delta0)
