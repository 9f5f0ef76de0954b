import numpy as np
import pytest

from blochmap import (
    AnalyticSeries,
    differentiate,
    dilate,
    eval_series,
    linear_combination,
    polyval_batch,
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


@pytest.mark.parametrize("tail", [None, 0, 0.0])
def test_exact_series_store_a_zero_float_tail(tail):
    s = AnalyticSeries([1.0, 2.0], tail)
    assert type(s.tail_bound) is float and s.tail_bound == 0.0
    assert s.is_exact
    assert type(AnalyticSeries([1.0], 3).tail_bound) is float


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
    assert d.tail_bound == 0.0


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


def test_linear_combination_pads_exact_series():
    s = AnalyticSeries([1.0, 2.0])
    t = AnalyticSeries([0.0, 0.0, 3.0])
    r = linear_combination(1.0, s, 2.0, t)
    assert np.allclose(r.coefficients, [1.0, 2.0, 6.0])
    assert r.tail_bound == 0.0


def test_linear_combination_truncates_with_tails():
    s = AnalyticSeries([1.0, 2.0], tail_bound=0.5)
    t = AnalyticSeries([1.0, 1.0, 1.0])
    r = linear_combination(2.0, s, 1.0, t)
    assert r.coefficients.size == 2
    # scaled tail of s plus the coefficient of t dropped by the truncation
    assert r.tail_bound == pytest.approx(2.0 * 0.5 + 1.0)


def test_linear_combination_pads_exact_partner_of_tailed_series():
    # combining with the exact constant zero keeps every tailed coefficient
    s = AnalyticSeries([0.0, 0.5, 0.1], tail_bound=1e-3)
    r = linear_combination(2.0, s, 0.0, AnalyticSeries([0.0]))
    assert np.array_equal(r.coefficients, [0.0, 1.0, 0.2])
    assert r.tail_bound == pytest.approx(2e-3)
    r = linear_combination(1.0, AnalyticSeries([3.0]), 1.0, s)
    assert np.array_equal(r.coefficients, [3.0, 0.5, 0.1])
    assert r.tail_bound == pytest.approx(1e-3)


def test_linear_combination_two_tails_cap_at_lower_order():
    s = AnalyticSeries([1.0, 2.0, 4.0], tail_bound=0.25)
    t = AnalyticSeries([1.0, 1.0], tail_bound=0.5)
    r = linear_combination(1.0, s, 1.0, t)
    assert np.array_equal(r.coefficients, [2.0, 3.0])
    # both tails plus the coefficient of s beyond the lower order
    assert r.tail_bound == pytest.approx(0.25 + 0.5 + 4.0)


def test_zero_weight_contributes_no_tail():
    # 0 * inf is NaN, which the constructor refused; a zero weight now adds
    # neither a tail nor an order cap
    s = AnalyticSeries([1.0, 2.0, 3.0])
    unbounded = differentiate(AnalyticSeries([0.0, 1.0, 0.5], tail_bound=1e-3))
    assert unbounded.tail_bound == np.inf
    r = linear_combination(1.0, s, 0.0, unbounded)
    assert r.is_exact
    assert np.array_equal(r.coefficients, s.coefficients)
    r = linear_combination(0.0, unbounded, 2.0, s)
    assert r.is_exact
    assert np.array_equal(r.coefficients, 2.0 * s.coefficients)
    # a zero-weight tailed series no longer cuts its partner's order
    tailed = AnalyticSeries([1.0, 2.0, 4.0], tail_bound=0.3)
    r = linear_combination(0.1, tailed, 0.0, AnalyticSeries([1.0, 1.0], tail_bound=0.7))
    assert r.coefficients.size == 3
    assert r.tail_bound == 0.1 * 0.3


def test_finite_tails_keep_their_bits():
    s = AnalyticSeries([1.0, 2.0, 4.0], tail_bound=0.3)
    t = AnalyticSeries([1.0, 1.0], tail_bound=0.7)
    r = linear_combination(0.1, s, 0.2, t)
    assert r.tail_bound == (0.1 * 0.3 + 0.2 * 0.7) + 0.1 * 4.0


def test_evaluation_consistency_random():
    rng = np.random.default_rng(11)
    for _ in range(20):
        c = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        s = AnalyticSeries(c)
        z = 0.8 * (rng.uniform(-1, 1) + 1j * rng.uniform(-1, 1)) / 2
        direct = sum(ck * z ** k for k, ck in enumerate(c))
        assert abs(eval_series(s, z) - direct) < 1e-12
