import numpy as np
import pytest

from blochmap import (
    AnalyticSeries,
    ExtremeVerdict,
    FalsifierStatus,
    HarmonicMapping,
    LevelSetShape,
    LinearFunctional,
    PointDerivativeFunctional,
    add_mappings,
    bloch_norm,
    bonk_constants,
    counterexample_family,
    decompose_support_point,
    dilation_bound,
    extreme_necessity,
    functional_eval,
    lambda_set,
    lift_to_derivative,
    membership,
    perturbation_falsifier,
    sample_unit_ball,
    scale_mapping,
    support_certificate,
    verify_bonk_constants,
)
from blochmap import support
from blochmap.optimize import MaximizationResult
from blochmap.series import differentiate, eval_series

IDENTITY = HarmonicMapping(AnalyticSeries([0.0, 1.0]), AnalyticSeries([0.0]))
FAMILY_SCALE = 3.0 * np.sqrt(3.0) / 8.0


def random_mapping(rng, degree=5, constant=False):
    hc = rng.standard_normal(degree + 1) + 1j * rng.standard_normal(degree + 1)
    gc = rng.standard_normal(degree + 1) + 1j * rng.standard_normal(degree + 1)
    gc[0] = 0.0
    if not constant:
        hc[0] = 0.0
    return HarmonicMapping(AnalyticSeries(hc), AnalyticSeries(gc))


def random_functional(rng, degree=5):
    A = rng.standard_normal(degree + 1) + 1j * rng.standard_normal(degree + 1)
    B = rng.standard_normal(degree + 1) + 1j * rng.standard_normal(degree + 1)
    return LinearFunctional(A, B)


def test_functional_eval_picks_coefficients():
    f = HarmonicMapping(
        AnalyticSeries([0.0, 2.0 + 1.0j, 0.0]),
        AnalyticSeries([0.0, 0.0, 1.0j]),
    )
    L = LinearFunctional([0.0, 1.0], [0.0, 0.0, 3.0])
    # picks a1 and conj(3 * b2)
    assert functional_eval(L, f) == pytest.approx(2.0 + 1.0j - 3.0j)


def test_functional_eval_constant_weight():
    f = HarmonicMapping(AnalyticSeries([5.0]), AnalyticSeries([0.0]))
    assert functional_eval(L := LinearFunctional([1.0], [0.0]), f) == pytest.approx(5.0)
    assert not L.effectively_zero


def test_functional_eval_missing_coefficients_read_zero():
    f = HarmonicMapping(AnalyticSeries([0.0, 1.0]), AnalyticSeries([0.0]))
    L = LinearFunctional([0.0, 0.0, 0.0, 7.0], [0.0, 0.0, 2.0])
    assert functional_eval(L, f) == 0.0


# h = 0.9 z plus an unknown tail of coefficient sum at most 0.05
TAILED = HarmonicMapping(AnalyticSeries([0.0, 0.9], 0.05), AnalyticSeries([0.0]))


def test_functional_eval_rejects_weights_beyond_a_declared_tail():
    # a_3 may be anything up to 0.05 in modulus, so L(f) = a_3 is unknown
    with pytest.raises(ValueError, match="declared tail"):
        functional_eval(LinearFunctional([0.0, 0.0, 0.0, 1.0], [0.0]), TAILED)
    tailed_g = HarmonicMapping(IDENTITY.h, AnalyticSeries([0.0, 0.5], 1e-3))
    with pytest.raises(ValueError, match="declared tail"):
        functional_eval(LinearFunctional([0.0], [0.0, 0.0, 1.0]), tailed_g)
    # weights within the stored coefficients, or zero beyond them, are fine
    L = LinearFunctional([0.0, 2.0, 0.0, 0.0], [0.0, 0.0, 0.0])
    assert functional_eval(L, TAILED) == 1.8
    assert functional_eval(LinearFunctional([0.0], [0.0, 1.0]), tailed_g) == 0.5


def test_analyses_of_functionals_inherit_the_tail_check():
    L = LinearFunctional([0.0, 0.0, 0.0, 1.0], [0.0])
    with pytest.raises(ValueError, match="declared tail"):
        dilation_bound(L, TAILED, 0.25)
    with pytest.raises(ValueError, match="declared tail"):
        perturbation_falsifier(L, TAILED)


def test_functional_with_no_weights_is_zero():
    L = LinearFunctional([], [])
    assert L.effectively_zero
    rng = np.random.default_rng(3)
    for f in (IDENTITY, counterexample_family(0.75), random_mapping(rng, constant=True)):
        assert functional_eval(L, f) == 0j


def test_functional_additive_and_real_homogeneous():
    rng = np.random.default_rng(0)
    for _ in range(10):
        L = random_functional(rng)
        f1 = random_mapping(rng, constant=True)
        f2 = random_mapping(rng, constant=True)
        s = float(rng.standard_normal())
        lhs = functional_eval(L, add_mappings(f1, f2))
        rhs = functional_eval(L, f1) + functional_eval(L, f2)
        assert abs(lhs - rhs) < 1e-12
        lhs = functional_eval(L, scale_mapping(f1, s))
        assert abs(lhs - s * functional_eval(L, f1)) < 1e-12


def test_effectively_zero_flags_b0_only():
    assert LinearFunctional([0.0], [3.0]).effectively_zero
    assert LinearFunctional([0.0], [0.0]).effectively_zero
    assert not LinearFunctional([0.0], [0.0, 1.0]).effectively_zero


def test_functional_round_trip():
    L = LinearFunctional([1.0 + 2.0j, 0.0], [0.0, -1.0j])
    back = LinearFunctional.from_dict(L.to_dict())
    assert np.array_equal(back.A, L.A)
    assert np.array_equal(back.B, L.B)
    with pytest.raises(ValueError):
        LinearFunctional.from_dict({"A": [[0, 0]]})
    with pytest.raises(ValueError):
        LinearFunctional.from_dict({"A": "x", "B": []})


def test_lift_halves_quadratic_weight():
    L = LinearFunctional([0.0, 0.0, 6.0], [0.0])
    lifted = lift_to_derivative(L)
    assert np.allclose(lifted.A, [0.0, 3.0])


def test_lift_reproduces_value_on_normalized_mappings():
    rng = np.random.default_rng(1)
    for _ in range(25):
        L = random_functional(rng, degree=6)
        f = random_mapping(rng, degree=6)
        lifted = lift_to_derivative(L)
        direct = functional_eval(L, f)
        via = functional_eval(lifted, (differentiate(f.h), differentiate(f.g)))
        assert abs(direct - via) < 1e-13 * max(1.0, abs(direct))


def test_dilation_bound_identity_example():
    L = LinearFunctional([0.0, 1.0], [0.0])
    K, actual = dilation_bound(L, IDENTITY, 0.25)
    assert K == pytest.approx(1.0)
    assert actual == pytest.approx(0.25)


def test_dilation_bound_constant_mapping():
    f = HarmonicMapping(AnalyticSeries([0.7]), AnalyticSeries([0.0]))
    K, actual = dilation_bound(LinearFunctional([1.0], [0.0]), f, 0.5)
    assert K == 0.0
    assert actual == 0.0


def test_dilation_bound_random_guarantee():
    rng = np.random.default_rng(2)
    for _ in range(25):
        L = random_functional(rng)
        f = random_mapping(rng, constant=True)
        eps = float(rng.uniform(1e-4, 1.0))
        K, actual = dilation_bound(L, f, eps)
        assert actual <= eps * K + 1e-12


def test_dilation_bound_domain():
    L = LinearFunctional([0.0, 1.0], [0.0])
    for bad in (0.0, -0.1, 1.5):
        with pytest.raises(ValueError):
            dilation_bound(L, IDENTITY, bad)


def test_bonk_constants_zero_level():
    bc = bonk_constants(0.0)
    assert bc.epsilon1 == 1.0
    assert bc.R == pytest.approx(0.01)


def test_bonk_constants_level_two():
    bc = bonk_constants(2.0)
    # R can never undercut the eps -> 0 limit sqrt(M / (M + 2))
    assert bc.R >= np.sqrt(2.0 / 4.0)
    assert bc.R < 1.0
    assert 0.0 < bc.epsilon1 <= 0.25
    assert verify_bonk_constants(bc, n_samples=10 ** 5, seed=7) >= 0.0


def bonk_floor(eps, r):
    # the annulus inequality holds at (eps, r) iff this reaches M
    return r * r * (2.0 - eps) / (1.0 - (1.0 - eps) ** 2 * r * r)


@pytest.mark.parametrize("M", [0.5, 1.0, 5.0, 2.0, 4.0, 5e5, 9e5, 1e6, 1e7]
                         + [float(M) for M in np.geomspace(1e-6, 2e8, 25)])
def test_bonk_constants_verified_sweep(M):
    bc = bonk_constants(M)
    assert bc.epsilon1 == min(0.5, 1.0 / (2.0 * M))
    assert bonk_floor(bc.epsilon1, bc.R) >= M
    assert bc.R < 1.0 - 1e-9
    assert bc.R >= np.sqrt(M / (M + 2.0)) - 1e-12
    assert verify_bonk_constants(bc, n_samples=10 ** 5, seed=11) >= 0.0


@pytest.mark.parametrize("M", [3e8, 1e12, 1e300])
def test_bonk_constants_past_the_radius_cap(M):
    # 1 - R is about 1/(4M), which reaches the 1e-9 cap near M = 2.5e8
    with pytest.raises(RuntimeError, match="cap"):
        bonk_constants(M)


def test_bonk_constants_domain():
    with pytest.raises(ValueError):
        bonk_constants(-1.0)
    with pytest.raises(ValueError):
        bonk_constants(float("inf"))


def test_point_derivative_functional_reads_the_derivatives_at_z0():
    # weight * (s'(z0) + e^{i theta0} conj(t'(z0))) against central differences
    pdf = PointDerivativeFunctional(0.3 + 0.1j, 0.7, 1.5 - 0.5j)
    rng = np.random.default_rng(3)
    step = 1e-5
    for _ in range(10):
        f = random_mapping(rng, degree=6, constant=True)

        def slope(s):
            return (eval_series(s, pdf.z0 + step) - eval_series(s, pdf.z0 - step)) / (2 * step)

        expected = pdf.weight * (slope(f.h) + np.exp(1j * pdf.theta0) * np.conj(slope(f.g)))
        assert abs(pdf.evaluate(f) - expected) < 1e-8


def test_support_certificate_identity():
    cert = support_certificate(IDENTITY, samples=600, seed=5)
    assert cert is not None
    assert abs(cert.z0) < 1e-6
    assert cert.theta0 == 0.0
    assert cert.attained_value == pytest.approx(1.0, abs=1e-6)
    assert cert.sample_max_other <= cert.attained_value + 1e-8
    assert cert.lambda_classification == "ISOLATED"
    assert sum(cert.strata.values()) == 600


def test_support_certificate_family():
    cert = support_certificate(counterexample_family(1.0), samples=600, seed=5)
    assert cert is not None
    assert abs(abs(cert.z0) - 1.0 / np.sqrt(3.0)) < 1e-6
    # attained value equals 1 / (1 - |z0|^2)^2 = 9/4 on the level circle
    assert cert.attained_value == pytest.approx(2.25, abs=1e-6)
    assert cert.sample_max_other <= cert.attained_value + 1e-8
    assert cert.lambda_classification == "CURVE_LIKE"


def test_support_certificate_margin_bound(monkeypatch):
    # the bound the README states: attained_value and the aligned sample row
    # round differently, so the margin may read a few ulps below zero (it is
    # -4.4e-16 on these seeds), but never below -1e-8
    f = counterexample_family(0.75)
    for seed in range(4):
        cert = support_certificate(f, 128, seed)
        assert -1e-8 <= cert.margin <= 1e-12
        assert cert.to_dict()["margin"] == cert.margin
    # a sampled member beyond the bound is an error, not a certificate
    ratio_max = support._batch_ratio_max
    monkeypatch.setattr(support, "_batch_ratio_max",
                        lambda *args, **kwargs: ratio_max(*args, **kwargs) / (1.0 - 1e-8))
    with pytest.raises(RuntimeError, match="exceeded the certified value"):
        support_certificate(f, 128, 0)


@pytest.mark.parametrize("f", [
    IDENTITY,
    HarmonicMapping(AnalyticSeries([0.0]), AnalyticSeries([0.0, 1.0])),
    counterexample_family(0.3),
    counterexample_family(0.75),
    counterexample_family(1.0),
    sample_unit_ball(1),
], ids=["identity", "co-identity", "family-0.3", "family-0.75", "family-1", "sampled"])
@pytest.mark.parametrize("seed", [0, 1])
def test_support_certificate_closed_form_bound(f, seed):
    # |L(q)| <= |w| (|s'(z0)| + |t'(z0)|) and every sampled beta is seeded at
    # z0, so no sampled ratio can pass S0 / (1 - |z0|^2)
    cert = support_certificate(f, samples=256, seed=seed)
    z0 = cert.z0
    s0 = abs(eval_series(differentiate(f.h), z0)) + abs(eval_series(differentiate(f.g), z0))
    assert cert.closed_form_bound == s0 / (1.0 - (z0.real ** 2 + z0.imag ** 2))
    assert cert.to_dict()["closed_form_bound"] == cert.closed_form_bound
    assert cert.sample_max_other <= cert.closed_form_bound * (1.0 + 1e-12)
    # L(f) = S0^2, so attained / bound is mu_f(z0), one on the level set
    assert cert.attained_value / cert.closed_form_bound == pytest.approx(1.0, abs=1e-8)


def test_support_certificate_interior_returns_none():
    assert support_certificate(scale_mapping(IDENTITY, 0.5), samples=64) is None


def test_support_certificate_requires_membership():
    with pytest.raises(ValueError):
        support_certificate(scale_mapping(IDENTITY, 1.2), samples=64)
    offset = HarmonicMapping(AnalyticSeries([0.4, 0.5]), AnalyticSeries([0.0]))
    with pytest.raises(ValueError):
        support_certificate(offset, samples=64)


def test_support_certificate_deterministic():
    a = support_certificate(IDENTITY, samples=256, seed=9)
    b = support_certificate(IDENTITY, samples=256, seed=9)
    assert a.sample_max_other == b.sample_max_other
    assert a.z0 == b.z0


def test_sample_unit_ball_normalization():
    for seed in (0, 1, 17):
        f = sample_unit_ball(seed)
        assert f.h.coefficients[0] == 0.0
        assert f.g.coefficients[0] == 0.0
        assert bloch_norm(f) == pytest.approx(1.0, abs=1e-6)
    again = sample_unit_ball(17)
    assert np.array_equal(again.h.coefficients, sample_unit_ball(17).h.coefficients)


def test_sample_unit_ball_degree_and_domain():
    f = sample_unit_ball(4, degree=2)
    assert f.h.coefficients.size == 3
    with pytest.raises(ValueError):
        sample_unit_ball(0, degree=0)


def test_falsifier_improves_identity():
    L = LinearFunctional([0.0, 1.0], [0.0])
    out = perturbation_falsifier(L, IDENTITY)
    assert out.status is FalsifierStatus.IMPROVED
    assert out.improvement > 0.0
    assert out.improvement >= out.eps * out.K / 2.0 - 1e-12
    assert out.modulus_after <= 1.0 + 1e-12
    assert out.f_tilde is not None
    assert functional_eval(L, out.f_tilde).real > functional_eval(L, IDENTITY).real


def test_falsifier_constant_mapping_gains_two_eps():
    f = HarmonicMapping(AnalyticSeries([0.5]), AnalyticSeries([0.0]))
    L = LinearFunctional([1.0], [0.0])
    out = perturbation_falsifier(L, f)
    assert out.status is FalsifierStatus.IMPROVED
    # K floors at one and the constant bump survives dilation untouched
    assert out.K == 1.0
    assert out.improvement == pytest.approx(2.0 * out.eps, rel=1e-12)


def test_falsifier_not_applicable_on_unit_level_set():
    # scaled identity with sup (|h|+|g|)(1-|z|^2) exactly one
    f = scale_mapping(IDENTITY, 3.0 * np.sqrt(3.0) / 2.0)
    out = perturbation_falsifier(LinearFunctional([0.0, 1.0], [0.0]), f)
    assert out.status is FalsifierStatus.NOT_APPLICABLE
    assert out.f_tilde is None


def test_falsifier_rejects_dead_functional():
    with pytest.raises(ValueError):
        perturbation_falsifier(LinearFunctional([0.0], [1.0]), IDENTITY)


def test_falsifier_rejects_oversized_mapping():
    with pytest.raises(ValueError):
        perturbation_falsifier(LinearFunctional([0.0, 1.0], [0.0]),
                               scale_mapping(IDENTITY, 3.0))


def test_falsifier_g_side_bump():
    L = LinearFunctional([0.0], [0.0, 0.0, 4.0])
    f = HarmonicMapping(AnalyticSeries([0.0, 0.3]), AnalyticSeries([0.0, 0.0, 0.2]))
    out = perturbation_falsifier(L, f)
    assert out.status is FalsifierStatus.IMPROVED
    assert out.side == "g"
    assert out.k0 == 2


def test_decompose_pure_constant():
    f0 = HarmonicMapping(AnalyticSeries([1.0]), AnalyticSeries([0.0]))
    dec = decompose_support_point(f0)
    assert dec.lambda1 == pytest.approx(1.0)
    assert dec.u == pytest.approx(1.0)
    assert np.all(dec.f.h.coefficients == 0.0)


def test_decompose_shifted_family():
    f1 = counterexample_family(1.0)
    f0 = HarmonicMapping(
        AnalyticSeries([0.3j, 0.0, 0.7 * FAMILY_SCALE]),
        AnalyticSeries([0.0, 0.0, -0.7 * FAMILY_SCALE]),
    )
    dec = decompose_support_point(f0)
    assert dec is not None
    assert dec.lambda1 == pytest.approx(0.3)
    assert dec.u == pytest.approx(1.0j)
    assert np.allclose(dec.f.h.coefficients, f1.h.coefficients, atol=1e-12)
    assert np.allclose(dec.f.g.coefficients, f1.g.coefficients, atol=1e-12)


def test_decompose_constant_free_support_point():
    dec = decompose_support_point(counterexample_family(0.5))
    assert dec is not None
    assert dec.lambda1 == 0.0
    assert dec.u == 1.0


def test_decompose_interior_returns_none():
    assert decompose_support_point(scale_mapping(IDENTITY, 0.5)) is None


def test_decompose_interior_constant_returns_none():
    # norm 1 - 5e-7 lies inside the ball beyond its accuracy: no support point
    f0 = HarmonicMapping(AnalyticSeries([0.9999995]), AnalyticSeries([0.0]))
    assert not membership(f0).marginal
    assert decompose_support_point(f0) is None


def test_decompose_keeps_a_small_constant():
    # 5e-7 + (1 - 5e-7) z lies on the sphere and splits as 5e-7 * 1 + (1 - 5e-7) z,
    # up to the rounding of (1 - 5e-7) / (1 - 5e-7)
    f0 = HarmonicMapping(AnalyticSeries([5e-7, 1.0 - 5e-7]), AnalyticSeries([0.0]))
    dec = decompose_support_point(f0)
    assert dec.lambda1 == 5e-7
    assert dec.u == 1.0
    assert np.allclose(dec.f.h.coefficients, [0.0, 1.0], rtol=0.0, atol=1e-15)
    assert np.array_equal(dec.f.g.coefficients, [0.0])


# members of the normalized ball with a nonempty level set, for the third
# result: f0 = lambda1*u + (1-lambda1)*f then supports the unit ball
ROUND_TRIP_MEMBERS = {
    "identity": lambda: IDENTITY,
    "family-0.75": lambda: counterexample_family(0.75),
    "sample-3-5": lambda: sample_unit_ball(3, 5),
    "sample-11-8": lambda: sample_unit_ball(11, 8),
}
ROUND_TRIP_LAMBDAS = [0.0, 0.3, 0.9, 1.0 - 1e-3, 1.0 - 1e-6, 1.0 - 1e-9]


@pytest.mark.parametrize("lam1", ROUND_TRIP_LAMBDAS)
@pytest.mark.parametrize("name", ROUND_TRIP_MEMBERS)
def test_decompose_round_trips_the_third_result(name, lam1):
    f = ROUND_TRIP_MEMBERS[name]()
    rng = np.random.default_rng([list(ROUND_TRIP_MEMBERS).index(name),
                                 ROUND_TRIP_LAMBDAS.index(lam1)])
    u = np.exp(2j * np.pi * rng.uniform())
    f0 = HarmonicMapping(AnalyticSeries(np.r_[lam1 * u, (1.0 - lam1) * f.h.coefficients[1:]]),
                         AnalyticSeries((1.0 - lam1) * f.g.coefficients))
    dec = decompose_support_point(f0)
    assert dec is not None
    c0 = f0.value_at_origin
    assert dec.lambda1 == abs(c0)
    assert dec.u == (c0 / dec.lambda1 if c0 else 1.0)
    h = (1.0 - dec.lambda1) * dec.f.h.coefficients
    h[0] += dec.lambda1 * dec.u
    g = (1.0 - dec.lambda1) * dec.f.g.coefficients
    assert np.abs(h - f0.h.coefficients).max() <= 1e-12
    assert np.abs(g - f0.g.coefficients).max() <= 1e-12


def test_decompose_rejects_oversized_norm():
    with pytest.raises(ValueError):
        decompose_support_point(scale_mapping(IDENTITY, 1.2))


def test_support_certificate_membership_error_comes_before_the_flag():
    # mu of 2z tops 1 + LEVEL_TOL, so its level set is flagged as well
    double = HarmonicMapping(AnalyticSeries([0.0, 2.0]), AnalyticSeries([0.0]))
    with pytest.raises(ValueError, match="membership"):
        support_certificate(double, samples=64)


def test_decompose_residual_outside_the_ball_returns_none():
    # the norm of f0 sits 8e-7 over one, beyond its reported accuracy, so
    # membership puts f0 outside the ball and decompose refuses it, as
    # certify-support and extreme-check do; the residual's beta of 1 + 1.6e-6
    # flags its level set
    f0 = HarmonicMapping(AnalyticSeries([0.5, 0.5 + 8e-7]), AnalyticSeries([0.0]))
    residual = HarmonicMapping(AnalyticSeries([0.0, (0.5 + 8e-7) / 0.5]), AnalyticSeries([0.0]))
    assert support.lambda_set(residual).flagged
    with pytest.raises(ValueError, match="Bloch norm at most one"):
        decompose_support_point(f0)


@pytest.mark.parametrize("n", [0, -3])
def test_verify_bonk_constants_needs_a_sample(n):
    with pytest.raises(ValueError, match="sample"):
        verify_bonk_constants(bonk_constants(2.0), n_samples=n)


@pytest.mark.parametrize("R", [1.0 - 1e-9, 1.0, 1.5, -0.1, float("nan")])
def test_verify_bonk_constants_rejects_radius_outside_the_annulus(R):
    with pytest.raises(ValueError, match="R = "):
        verify_bonk_constants(support.BonkConstants(2.0, 0.25, R), n_samples=10)


def test_flagged_level_sets_decide_no_support_point():
    # mu of 0.9995 z stays below the level, but the declared tails could lift
    # it there: no certificate and no decomposition may answer None
    tailed = HarmonicMapping(AnalyticSeries([0.0, 0.9995], 1e-3), AnalyticSeries([0.0]))
    with pytest.raises(ValueError, match="flagged"):
        support_certificate(tailed, samples=64)
    f0 = HarmonicMapping(AnalyticSeries([0.3, 0.7 * 0.9995], 7e-4), AnalyticSeries([0.0]))
    with pytest.raises(ValueError, match="flagged"):
        decompose_support_point(f0)


# unit-sphere mappings for the unit-ball boundary: beta is 1 with a reported
# accuracy of 1e-12, so every eps below lies beyond the accuracy and inside
# LEVEL_TOL, where the level-set window alone used to decide
SPHERE_CASES = {
    "identity": lambda: IDENTITY,
    "rotated-identity": lambda: HarmonicMapping(AnalyticSeries([0.0, np.exp(0.7j)]),
                                                AnalyticSeries([0.0])),
    **{f"family-{a}": (lambda a=a: counterexample_family(a)) for a in (0.3, 0.75, 1.5)},
}
BOUNDARY_EPS = [2e-9, 1e-8, 5e-7]


@pytest.mark.parametrize("eps", BOUNDARY_EPS)
@pytest.mark.parametrize("name", SPHERE_CASES)
def test_just_inside_the_ball_every_analysis_sees_an_empty_level_set(name, eps):
    f = scale_mapping(SPHERE_CASES[name](), 1.0 - eps)
    lam = lambda_set(f)
    assert lam.classification is LevelSetShape.EMPTY
    assert not lam.flagged
    assert membership(f).in_unit_ball
    assert extreme_necessity(f).verdict is ExtremeVerdict.NOT_EXTREME
    assert support_certificate(f, samples=16) is None
    assert decompose_support_point(f) is None


@pytest.mark.parametrize("eps", BOUNDARY_EPS)
@pytest.mark.parametrize("name", SPHERE_CASES)
def test_just_outside_the_ball_every_analysis_refuses(name, eps):
    f = scale_mapping(SPHERE_CASES[name](), 1.0 + eps)
    assert lambda_set(f).flagged
    assert not membership(f).in_unit_ball
    with pytest.raises(ValueError, match="membership"):
        support_certificate(f, samples=16)
    with pytest.raises(ValueError, match="membership"):
        extreme_necessity(f)
    with pytest.raises(ValueError, match="Bloch norm at most one"):
        decompose_support_point(f)


@pytest.mark.parametrize("name", SPHERE_CASES)
def test_on_the_sphere_the_answers_stand(name):
    f = SPHERE_CASES[name]()
    curve = name.startswith("family")
    lam = lambda_set(f)
    assert lam.classification is (LevelSetShape.CURVE_LIKE if curve else LevelSetShape.ISOLATED)
    assert not lam.flagged
    rep = membership(f)
    assert rep.in_unit_ball and rep.marginal
    assert extreme_necessity(f).verdict is (ExtremeVerdict.NECESSARY_CONDITION_MET if curve
                                            else ExtremeVerdict.NOT_EXTREME)
    assert support_certificate(f, samples=16) is not None
    assert decompose_support_point(f).lambda1 == 0.0


@pytest.mark.parametrize("tail", [0.0, 5e-7, 1e-3])
@pytest.mark.parametrize("scale", [0.5, 0.9, 1.0])
@pytest.mark.parametrize("name", SPHERE_CASES)
def test_declared_tails_flag_only_a_level_set_that_reaches_the_level(name, scale, tail):
    # a short level set's accuracy already counts the tails, so it stays
    # unflagged and EMPTY; on the sphere only tails beyond LEVEL_TOL flag it
    g = scale_mapping(SPHERE_CASES[name](), scale)
    f = HarmonicMapping(AnalyticSeries(g.h.coefficients, tail), g.g)
    lam = lambda_set(f)
    if scale < 1.0:
        assert lam.classification is LevelSetShape.EMPTY
        assert not lam.flagged
        assert extreme_necessity(f).verdict is ExtremeVerdict.NOT_EXTREME
        assert support_certificate(f, samples=16, seed=5) is None
        assert decompose_support_point(f) is None
    elif tail > 1e-6:
        assert lam.flagged
        assert extreme_necessity(f).verdict is ExtremeVerdict.UNRESOLVED
        with pytest.raises(ValueError, match="flagged"):
            support_certificate(f, samples=16, seed=5)
        with pytest.raises(ValueError, match="flagged"):
            decompose_support_point(f)
    else:
        curve = name.startswith("family")
        assert lam.classification is (LevelSetShape.CURVE_LIKE if curve else LevelSetShape.ISOLATED)
        assert not lam.flagged
        assert extreme_necessity(f).verdict is (ExtremeVerdict.NECESSARY_CONDITION_MET if curve
                                                else ExtremeVerdict.NOT_EXTREME)
        assert support_certificate(f, samples=16, seed=5) is not None
        assert decompose_support_point(f).lambda1 == 0.0


def test_a_level_point_short_of_one_on_a_nonempty_level_set_raises():
    # beta = 1 - 5e-7 with a declared tail of 8e-7 reaches the level within
    # its accuracy, and the tail stays within LEVEL_TOL: the level set is
    # nonempty and unflagged, so no certificate may answer that it is empty
    f = HarmonicMapping(AnalyticSeries([0.0, 1.0 - 5e-7], 8e-7), AnalyticSeries([0.0]))
    lam = lambda_set(f)
    assert lam.classification is LevelSetShape.ISOLATED
    assert not lam.flagged
    assert extreme_necessity(f).verdict is ExtremeVerdict.NOT_EXTREME
    assert decompose_support_point(f) is not None
    with pytest.raises(ValueError, match=r"mu = 0\.9999995.*tails 8e-07"):
        support_certificate(f, samples=16)


@pytest.mark.parametrize("degree", [1, 2, 5, 8, 30, 60])
@pytest.mark.parametrize("seed", range(20))
def test_sampled_ball_members_sit_on_the_sphere_with_a_level_set(seed, degree):
    f = sample_unit_ball(seed, degree)
    assert membership(f).marginal
    lam = lambda_set(f)
    assert lam.classification is not LevelSetShape.EMPTY
    assert not lam.flagged


@pytest.mark.parametrize("eps", [2e-9, 5e-7, 2e-6])
def test_falsifier_refuses_a_modulus_outside_the_ball(eps):
    # the modulus of c z peaks at 1 + eps, beyond its reported accuracy:
    # sup_modulus flags the report, and the falsifier refuses it
    f = HarmonicMapping(AnalyticSeries([0.0, 1.5 * np.sqrt(3.0) * (1.0 + eps)]),
                        AnalyticSeries([0.0]))
    assert support.sup_modulus(f)[1].flagged
    with pytest.raises(ValueError, match="modulus ball"):
        perturbation_falsifier(LinearFunctional([0.0, 1.0], [0.0]), f)


def test_falsifier_reads_a_modulus_short_of_one_as_an_empty_level_set():
    # the modulus of c z peaks at 1 - 5e-7, beyond its reported accuracy and
    # inside LEVEL_TOL: the level set is empty, so the falsifier improves f
    f = HarmonicMapping(AnalyticSeries([0.0, 1.5 * np.sqrt(3.0) * (1.0 - 5e-7)]),
                        AnalyticSeries([0.0]))
    out = perturbation_falsifier(LinearFunctional([0.0, 1.0], [0.0]), f)
    assert out.status is FalsifierStatus.IMPROVED
    assert out.improvement > 0.0 and out.modulus_after <= 1.0 + 1e-12


def test_falsifier_gives_up_after_40_halvings(monkeypatch):
    # every perturbed mapping reads a modulus above one, so no eps verifies;
    # the unperturbed modulus still comes from the real search
    searches = []

    def too_large(values):
        searches.append(values)
        return MaximizationResult(1.5, 1e-12, 0j)

    monkeypatch.setattr(support, "maximize_on_disk", too_large)
    f = scale_mapping(IDENTITY, 0.5)
    out = perturbation_falsifier(LinearFunctional([0.0, 1.0], [0.0]), f)
    assert out.status is FalsifierStatus.CONSTRUCTION_FAILED
    assert out.modulus_before == support.sup_modulus(f)[0] < 1.0
    assert len(searches) == 40 and out.f_tilde is None
