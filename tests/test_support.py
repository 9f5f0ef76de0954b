import numpy as np
import pytest

from blochmap import (
    AnalyticSeries,
    FalsifierStatus,
    HarmonicMapping,
    LinearFunctional,
    PointDerivativeFunctional,
    add_mappings,
    bloch_norm,
    bonk_constants,
    counterexample_family,
    decompose_support_point,
    dilation_bound,
    functional_eval,
    lift_to_derivative,
    perturbation_falsifier,
    sample_unit_ball,
    scale_mapping,
    support_certificate,
    verify_bonk_constants,
)
from blochmap.series import differentiate

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


@pytest.mark.parametrize("M", [0.5, 1.0, 5.0])
def test_bonk_constants_verified_sweep(M):
    bc = bonk_constants(M)
    assert bc.R >= np.sqrt(M / (M + 2.0)) - 1e-12
    assert verify_bonk_constants(bc, n_samples=10 ** 5, seed=11) >= 0.0


def test_bonk_constants_domain():
    with pytest.raises(ValueError):
        bonk_constants(-1.0)
    with pytest.raises(ValueError):
        bonk_constants(float("inf"))


def test_point_derivative_functional_consistency():
    pdf = PointDerivativeFunctional(0.3 + 0.1j, 0.7, 1.5 - 0.5j)
    rng = np.random.default_rng(3)
    L = pdf.as_linear_functional(10)
    for _ in range(10):
        f = random_mapping(rng, degree=6, constant=True)
        assert abs(functional_eval(L, f) - pdf.evaluate(f)) < 1e-12
    with pytest.raises(ValueError):
        pdf.as_linear_functional(0)


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


def test_decompose_rejects_oversized_norm():
    with pytest.raises(ValueError):
        decompose_support_point(scale_mapping(IDENTITY, 1.2))


@pytest.mark.parametrize("tol", [float("nan"), float("inf"), 0.0],
                         ids=["nan", "inf", "zero"])
def test_support_tolerances_must_be_positive_and_finite(tol):
    L = LinearFunctional(np.array([0.0, 1.0]), np.array([0.0]))
    with pytest.raises(ValueError, match="tolerance"):
        decompose_support_point(IDENTITY, tol)
    with pytest.raises(ValueError, match="tolerance"):
        perturbation_falsifier(L, scale_mapping(IDENTITY, 0.5), tol)


@pytest.mark.parametrize("n", [0, -3])
def test_verify_bonk_constants_needs_a_sample(n):
    with pytest.raises(ValueError, match="sample"):
        verify_bonk_constants(bonk_constants(2.0), n_samples=n)
