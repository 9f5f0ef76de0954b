import numpy as np
import pytest

from blochmap import (
    AnalyticSeries,
    differentiate,
    dilate,
    eval_series,
    linear_combination,
    multiply,
    polyval_batch,
    scale,
    sqrt_nonvanishing,
)


def test_construction_copies_and_freezes():
    raw = np.array([1.0, 2.0, 3.0])
    s = AnalyticSeries(raw)
    raw[0] = 99.0
    assert s.coefficients[0] == 1.0
    with pytest.raises(ValueError):
        s.coefficients[1] = 0.0


def test_construction_rejects_bad_input():
    with pytest.raises(ValueError):
        AnalyticSeries([])
    with pytest.raises(ValueError):
        AnalyticSeries([np.nan, 1.0])
    with pytest.raises(ValueError):
        AnalyticSeries([1.0], tail_bound=-0.5)


def test_exactness_flag():
    assert AnalyticSeries([1.0, 2.0]).is_exact
    assert not AnalyticSeries([1.0, 2.0], tail_bound=0.1).is_exact
    assert AnalyticSeries([1.0], tail_bound=0.0).is_exact


def test_polyval_matches_numpy():
    rng = np.random.default_rng(7)
    c = rng.standard_normal(9) + 1j * rng.standard_normal(9)
    z = 0.3 - 0.2j
    assert abs(polyval_batch(c, np.array([z]))[0] - np.polyval(c[::-1], z)) < 1e-14


def test_polyval_rowwise():
    rows = np.array([[1.0, 2.0], [3.0, -1.0]], dtype=complex)
    z = np.array([0.5, 0.25 + 0.0j])
    vals = polyval_batch(rows, z)
    assert np.allclose(vals, [2.0, 2.75])


def test_eval_inside_disk_only():
    s = AnalyticSeries([0.0, 1.0])
    assert eval_series(s, 0.5j) == 0.5j
    with pytest.raises(ValueError):
        eval_series(s, 1.0)


@pytest.mark.parametrize("z", [complex(float("nan"), 0.0), complex(0.0, float("nan")),
                               complex(float("inf"), 0.0)], ids=["nan", "nan-imag", "inf"])
def test_eval_rejects_non_finite_points(z):
    with pytest.raises(ValueError):
        eval_series(AnalyticSeries([0.0, 1.0]), z)


def test_differentiate_power_rule():
    s = AnalyticSeries([5.0, 1.0, 2.0, 3.0])
    d = differentiate(s)
    assert np.allclose(d.coefficients, [1.0, 4.0, 9.0])
    assert d.tail_bound is None


def test_differentiate_constant_keeps_order_zero():
    d = differentiate(AnalyticSeries([4.0]))
    assert np.allclose(d.coefficients, [0.0])


def test_differentiate_of_tail_bounded_is_uncontrolled():
    d = differentiate(AnalyticSeries([1.0, 1.0], tail_bound=0.25))
    assert d.tail_bound == np.inf


def test_dilate_scales_coefficients_geometrically():
    s = AnalyticSeries([1.0, 2.0, 4.0])
    d = dilate(s, 0.5)
    assert np.allclose(d.coefficients, [1.0, 1.0, 1.0])
    assert dilate(s, 1.0).coefficients[2] == 0.0


def test_dilate_domain_and_tail():
    s = AnalyticSeries([1.0, 1.0], tail_bound=0.3)
    assert dilate(s, 0.25).tail_bound == 0.3
    with pytest.raises(ValueError):
        dilate(s, 0.0)
    with pytest.raises(ValueError):
        dilate(s, 1.5)


def test_sqrt_reproduces_binomial_series():
    # sqrt(1+z): coefficients binomial(1/2, k)
    s = AnalyticSeries([1.0, 1.0, 0.0, 0.0, 0.0, 0.0])
    r = sqrt_nonvanishing(s)
    expected = [1.0, 0.5, -0.125, 0.0625, -0.0390625, 0.02734375]
    assert np.allclose(r.coefficients, expected, atol=1e-14)


def test_sqrt_squares_back():
    rng = np.random.default_rng(3)
    c = 0.1 * (rng.standard_normal(8) + 1j * rng.standard_normal(8))
    c[0] = 1.0
    s = AnalyticSeries(c)
    r = sqrt_nonvanishing(s)
    sq = multiply(r, r)
    assert np.allclose(sq.coefficients[:8], c, atol=1e-12)


def test_sqrt_requires_unit_constant_term():
    with pytest.raises(ValueError):
        sqrt_nonvanishing(AnalyticSeries([0.5, 1.0]))


def test_sqrt_of_inexact_is_uncontrolled():
    r = sqrt_nonvanishing(AnalyticSeries([1.0, 0.5], tail_bound=0.1))
    assert r.tail_bound == np.inf


def test_linear_combination_pads_exact_series():
    s = AnalyticSeries([1.0, 2.0])
    t = AnalyticSeries([0.0, 0.0, 3.0])
    r = linear_combination(1.0, s, 2.0, t)
    assert np.allclose(r.coefficients, [1.0, 2.0, 6.0])
    assert r.tail_bound is None


def test_linear_combination_truncates_with_tails():
    s = AnalyticSeries([1.0, 2.0], tail_bound=0.5)
    t = AnalyticSeries([1.0, 1.0, 1.0])
    r = linear_combination(2.0, s, 1.0, t)
    assert r.coefficients.size == 2
    # scaled tail of s plus the coefficient of t dropped by the truncation
    assert r.tail_bound == pytest.approx(2.0 * 0.5 + 1.0)


def test_scale():
    s = AnalyticSeries([1.0, -2.0], tail_bound=0.5)
    r = scale(s, -2.0j)
    assert np.allclose(r.coefficients, [-2.0j, 4.0j])
    assert r.tail_bound == pytest.approx(1.0)


def test_multiply_exact_convolution():
    s = AnalyticSeries([1.0, 1.0])
    r = multiply(s, s)
    assert np.allclose(r.coefficients, [1.0, 2.0, 1.0])
    assert r.is_exact


def test_evaluation_consistency_random():
    rng = np.random.default_rng(11)
    for _ in range(20):
        c = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        s = AnalyticSeries(c)
        z = 0.8 * (rng.uniform(-1, 1) + 1j * rng.uniform(-1, 1)) / 2
        direct = sum(ck * z ** k for k, ck in enumerate(c))
        assert abs(eval_series(s, z) - direct) < 1e-12
