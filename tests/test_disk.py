import numpy as np
import pytest

from blochmap import (
    AnalyticSeries,
    HarmonicMapping,
    MobiusAutomorphism,
    apply_automorphism,
    bloch_constant,
    hyperbolic_distance,
    precompose,
)
from blochmap.disk import _automorphism_series, _composition_tail


def test_distance_from_origin_is_arctanh():
    # arctanh(0.5), frozen from a 40-digit evaluation
    assert hyperbolic_distance(0.0, 0.5) == pytest.approx(0.5493061443340548, abs=1e-15)


def test_distance_real_pair():
    # rho(0.3, 0.5) frozen from a 40-digit evaluation
    assert hyperbolic_distance(0.3, 0.5) == pytest.approx(0.23978654013094313, abs=1e-15)


def test_distance_complex_pair():
    # rho(0.2+0.1i, -0.3+0.4i) frozen from a 40-digit evaluation
    d = hyperbolic_distance(0.2 + 0.1j, -0.3 + 0.4j)
    assert d == pytest.approx(0.6451064034442926, abs=1e-15)


def test_distance_is_a_metric_sample():
    rng = np.random.default_rng(5)
    pts = 0.9 * np.sqrt(rng.random(12)) * np.exp(2j * np.pi * rng.random(12))
    for z in pts:
        assert hyperbolic_distance(z, z) == 0.0
    for z, w in zip(pts[:6], pts[6:]):
        assert hyperbolic_distance(z, w) == pytest.approx(hyperbolic_distance(w, z), abs=1e-15)
    for z, w, v in zip(pts[:4], pts[4:8], pts[8:]):
        assert (hyperbolic_distance(z, w)
                <= hyperbolic_distance(z, v) + hyperbolic_distance(v, w) + 1e-12)


def test_distance_rejects_boundary():
    with pytest.raises(ValueError):
        hyperbolic_distance(1.0, 0.0)
    with pytest.raises(ValueError):
        hyperbolic_distance(0.0, np.exp(0.25j))


NON_FINITE = [complex(float("nan"), 0.0), complex(0.0, float("nan")),
              complex(float("inf"), 0.0)]
NON_FINITE_IDS = ["nan", "nan-imag", "inf"]


@pytest.mark.parametrize("z", NON_FINITE, ids=NON_FINITE_IDS)
def test_distance_rejects_non_finite_points(z):
    with pytest.raises(ValueError):
        hyperbolic_distance(z, 0.1)
    with pytest.raises(ValueError):
        hyperbolic_distance(0.1, z)


@pytest.mark.parametrize("z", NON_FINITE, ids=NON_FINITE_IDS)
def test_automorphism_rejects_non_finite_points(z):
    with pytest.raises(ValueError):
        MobiusAutomorphism(z)
    with pytest.raises(ValueError):
        apply_automorphism(MobiusAutomorphism(0.2j), z)


def test_automorphism_construction():
    phi = MobiusAutomorphism(0.5j, 0.3)
    assert phi.center == 0.5j
    with pytest.raises(ValueError):
        MobiusAutomorphism(1.0)


def test_automorphism_moves_center_to_origin():
    phi = MobiusAutomorphism(0.3 - 0.2j, 1.1)
    assert abs(apply_automorphism(phi, 0.3 - 0.2j)) < 1e-15


def test_automorphism_preserves_distance():
    rng = np.random.default_rng(9)
    for _ in range(10):
        c = 0.7 * np.sqrt(rng.random()) * np.exp(2j * np.pi * rng.random())
        phi = MobiusAutomorphism(c, float(rng.uniform(0, 2 * np.pi)))
        z = 0.8 * np.sqrt(rng.random()) * np.exp(2j * np.pi * rng.random())
        w = 0.8 * np.sqrt(rng.random()) * np.exp(2j * np.pi * rng.random())
        d0 = hyperbolic_distance(z, w)
        d1 = hyperbolic_distance(apply_automorphism(phi, z), apply_automorphism(phi, w))
        assert d1 == pytest.approx(d0, abs=1e-12)


def test_automorphism_series_matches_pointwise():
    phi = MobiusAutomorphism(0.4 + 0.1j, 0.7)
    coeffs = _automorphism_series(phi, 60)
    rng = np.random.default_rng(2)
    for _ in range(8):
        z = 0.5 * np.sqrt(rng.random()) * np.exp(2j * np.pi * rng.random())
        series_val = np.polyval(coeffs[::-1], z)
        assert abs(series_val - apply_automorphism(phi, z)) < 1e-12


def test_precompose_identity_center_is_rotation():
    f = HarmonicMapping(AnalyticSeries([0.0, 1.0, 2.0]), AnalyticSeries([0.0, 0.5]))
    phi = MobiusAutomorphism(0.0, np.pi / 3)
    comp = precompose(f, phi, 5)
    rot = np.exp(1j * np.pi / 3)
    assert abs(comp.h.coefficients[1] - rot) < 1e-14
    assert abs(comp.h.coefficients[2] - 2.0 * rot ** 2) < 1e-14
    assert abs(comp.g.coefficients[1] - 0.5 * rot) < 1e-14
    assert comp.h.tail_bound is None


def test_precompose_is_canonical_and_value_consistent():
    f = HarmonicMapping(
        AnalyticSeries([0.2, 1.0, -0.3j]),
        AnalyticSeries([0.0, 0.4, 0.1]),
    )
    phi = MobiusAutomorphism(0.35 - 0.15j, 0.4)
    comp = precompose(f, phi, 70)
    assert comp.g.coefficients[0] == 0.0
    rng = np.random.default_rng(4)
    for _ in range(10):
        z = 0.6 * np.sqrt(rng.random()) * np.exp(2j * np.pi * rng.random())
        assert abs(comp(z) - f(apply_automorphism(phi, z))) < 1e-10


def test_precompose_declares_honest_tail():
    f = HarmonicMapping(AnalyticSeries([0.0, 1.0]), AnalyticSeries([0.0]))
    phi = MobiusAutomorphism(0.5, 0.0)
    comp = precompose(f, phi, 40)
    # true dropped coefficients of (z - c)/(1 - c z) beyond order 40
    dropped = (1.0 - 0.25) * 0.5 ** np.arange(40, 400)
    assert comp.h.tail_bound is not None
    assert comp.h.tail_bound >= dropped.sum()
    assert comp.h.tail_bound < 1e-9


def test_composition_tail_monotone_in_order():
    coeffs = np.array([0.0, 1.0, 0.5, 0.25], dtype=complex)
    t40 = _composition_tail(coeffs, 0.4, 40)
    t80 = _composition_tail(coeffs, 0.4, 80)
    assert t80 < t40


def test_precompose_preserves_bloch_constant():
    f = HarmonicMapping(
        AnalyticSeries([0.0, 0.8, 0.0, -0.2]),
        AnalyticSeries([0.0, 0.0, 0.3]),
    )
    beta0 = bloch_constant(f)
    phi = MobiusAutomorphism(0.3 + 0.25j, 0.9)
    beta1 = bloch_constant(precompose(f, phi, 80))
    assert beta1 == pytest.approx(beta0, abs=1e-6)


def test_precompose_rejects_tiny_order():
    f = HarmonicMapping(AnalyticSeries([0.0, 1.0]), AnalyticSeries([0.0]))
    with pytest.raises(ValueError):
        precompose(f, MobiusAutomorphism(0.2), 0)
