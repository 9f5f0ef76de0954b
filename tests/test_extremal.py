import numpy as np
import pytest

from blochmap import (
    AnalyticSeries,
    ExtremeVerdict,
    HarmonicMapping,
    LevelSetShape,
    Ternary,
    bloch_norm,
    coefficient_conditions,
    counterexample_family,
    estimate_bloch_constant,
    extreme_necessity,
    membership,
    midpoint_check,
    mu,
    rotation_normalize,
    scale_mapping,
    sharpening_exponent,
    verify_sharpening,
)

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


def test_rotation_normalize_makes_derivatives_real():
    f = HarmonicMapping(
        AnalyticSeries([0.0, 1j, 0.5]),
        AnalyticSeries([0.0, -1.0, 0.25j]),
    )
    r = rotation_normalize(f)
    assert r.h.coefficients[1].imag == pytest.approx(0.0, abs=1e-15)
    assert r.h.coefficients[1].real > 0
    assert r.g.coefficients[1].imag == pytest.approx(0.0, abs=1e-15)
    assert r.g.coefficients[1].real > 0


def test_rotation_normalize_keeps_tailed_coefficients():
    f = HarmonicMapping(
        AnalyticSeries([0.0, 1j, 0.5], 1e-3),
        AnalyticSeries([0.0, -1.0, 0.25j], 2e-3),
    )
    r = rotation_normalize(f)
    assert r.h.coefficients.size == r.g.coefficients.size == 3
    assert r.h.coefficients[1] == pytest.approx(1.0, abs=1e-15)
    assert r.g.coefficients[1] == pytest.approx(1.0, abs=1e-15)
    assert np.allclose(np.abs(r.h.coefficients), np.abs(f.h.coefficients), rtol=0, atol=1e-15)
    assert np.allclose(np.abs(r.g.coefficients), np.abs(f.g.coefficients), rtol=0, atol=1e-15)
    assert (r.h.tail_bound, r.g.tail_bound) == pytest.approx((1e-3, 2e-3))
    assert estimate_bloch_constant(r).value == pytest.approx(
        estimate_bloch_constant(f).value, rel=1e-12)


def test_coefficient_conditions_family_passes():
    conds = coefficient_conditions(
        HarmonicMapping(AnalyticSeries([0.0, 1.0, 0.0, 0.1]), AnalyticSeries([0.0, 0.0, 0.0, 0.2]))
    )
    assert conds.all_passed
    assert conds.pair_sum == pytest.approx(0.3 + 0.6)


def test_coefficient_conditions_requires_normalization():
    with pytest.raises(ValueError):
        coefficient_conditions(counterexample_family(1.0))


def test_coefficient_conditions_failure_matches_norm_excess():
    # a nonzero a1 fails the screen, and the same mapping has norm above one
    f = HarmonicMapping(AnalyticSeries([0.0, 1.0, 0.4]), AnalyticSeries([0.0]))
    conds = coefficient_conditions(f)
    assert not conds.passed["a1_zero"]
    assert conds.certifies_exclusion
    assert bloch_norm(f) > 1.0 + 1e-6


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


def test_extreme_necessity_requires_normalized_membership():
    with pytest.raises(ValueError):
        extreme_necessity(scale_mapping(IDENTITY, 1.5))
    with pytest.raises(ValueError):
        extreme_necessity(HarmonicMapping(AnalyticSeries([0.6, 0.2]), AnalyticSeries([0.0])))


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
    assert sharpening_exponent(f, INV_SQRT3, 0.5, max_halvings=6) is None


def test_sharpening_verify_matches_search():
    res = sharpening_exponent(IDENTITY, 0.0, 0.9)
    margin = verify_sharpening(IDENTITY, res)
    assert margin > 0.0
    assert margin == pytest.approx(res.worst_margin, rel=1e-2)


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
