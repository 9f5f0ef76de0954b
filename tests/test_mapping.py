import json

import numpy as np
import pytest

from blochmap import (
    AnalyticSeries,
    HarmonicMapping,
    LevelSetShape,
    Ternary,
    add_mappings,
    bloch_constant,
    bloch_norm,
    counterexample_family,
    estimate_bloch_constant,
    lambda_set,
    little_bloch_status,
    load_mapping,
    mapping_from_dict,
    mapping_to_dict,
    metric_beta_estimate,
    mu,
    mu_grid_rows,
    save_mapping,
    scale_mapping,
    sup_modulus,
    support_certificate,
)
from blochmap import mapping
from blochmap.extremal import extreme_necessity, membership

IDENTITY = HarmonicMapping(AnalyticSeries([0.0, 1.0]), AnalyticSeries([0.0]))
INV_SQRT3 = 0.5773502691896258


def test_canonical_form_enforced():
    with pytest.raises(ValueError):
        HarmonicMapping(AnalyticSeries([0.0, 1.0]), AnalyticSeries([0.1]))


def test_call_combines_parts():
    f = HarmonicMapping(AnalyticSeries([1.0, 2.0]), AnalyticSeries([0.0, 1.0j]))
    # h(0.5) = 2, conj(g(0.5)) = conj(0.5j) = -0.5j
    assert f(0.5) == pytest.approx(2.0 - 0.5j)


def test_mu_identity_profile():
    assert mu(IDENTITY, 0.0) == pytest.approx(1.0, abs=1e-15)
    assert mu(IDENTITY, 0.5) == pytest.approx(0.75, abs=1e-15)
    with pytest.raises(ValueError):
        mu(IDENTITY, 1.0)


NON_FINITE = [complex(float("nan"), 0.0), complex(0.0, float("nan")),
              complex(float("inf"), 0.0), complex(0.0, -float("inf"))]


@pytest.mark.parametrize("z", NON_FINITE, ids=["nan", "nan-imag", "inf", "-inf-imag"])
def test_mu_and_call_reject_non_finite_points(z):
    with pytest.raises(ValueError):
        mu(IDENTITY, z)
    with pytest.raises(ValueError):
        IDENTITY(z)


def test_bloch_constant_identity():
    est = estimate_bloch_constant(IDENTITY)
    assert est.value == pytest.approx(1.0, abs=1e-8)
    assert abs(est.argmax) < 1e-4


def test_bloch_constant_square():
    # sup (1 - r^2) 2r = 4 / (3 sqrt(3)), frozen from a 40-digit evaluation
    f = HarmonicMapping(AnalyticSeries([0.0, 0.0, 1.0]), AnalyticSeries([0.0]))
    assert bloch_constant(f) == pytest.approx(0.7698003589195010, abs=1e-8)


def test_bloch_constant_scaling_law():
    f = HarmonicMapping(AnalyticSeries([0.0, 0.3, 0.2]), AnalyticSeries([0.0, 0.0, 0.1]))
    b = bloch_constant(f)
    assert bloch_constant(scale_mapping(f, 2.5)) == pytest.approx(2.5 * b, abs=1e-9)


def test_bloch_norm_adds_origin_value():
    f = HarmonicMapping(AnalyticSeries([0.25, 1.0]), AnalyticSeries([0.0]))
    assert bloch_norm(f) == pytest.approx(1.25, abs=1e-8)


def test_zero_mapping():
    z = HarmonicMapping(AnalyticSeries([0.0]), AnalyticSeries([0.0]))
    assert bloch_constant(z) == pytest.approx(0.0, abs=1e-12)
    assert lambda_set(z).classification is LevelSetShape.EMPTY
    assert lambda_set(z).witness_radius == 0.0


def test_family_bloch_constant_and_mu_profile():
    f = counterexample_family(0.75)
    # mu depends only on |z|: (3 sqrt(3) / 2) r (1 - r^2)
    rng = np.random.default_rng(0)
    for _ in range(12):
        r = rng.uniform(0.05, 0.95)
        vals = [mu(f, r * np.exp(1j * t)) for t in rng.uniform(0, 2 * np.pi, 4)]
        assert np.ptp(vals) < 1e-12
        expected = 2.5980762113533160 * r * (1.0 - r * r)
        assert vals[0] == pytest.approx(expected, abs=1e-12)
    est = estimate_bloch_constant(f)
    assert est.value == pytest.approx(1.0, abs=1e-8)
    assert abs(abs(est.argmax) - INV_SQRT3) < 1e-6


def test_family_sum_structure():
    fa = counterexample_family(0.5)
    fb = counterexample_family(1.5)
    half_sum = scale_mapping(add_mappings(fa, fb), 0.5)
    f1 = counterexample_family(1.0)
    assert np.allclose(half_sum.h.coefficients, f1.h.coefficients, atol=1e-15)
    assert np.allclose(half_sum.g.coefficients, f1.g.coefficients, atol=1e-15)


def test_little_bloch_ternary():
    assert little_bloch_status(IDENTITY) is Ternary.TRUE
    tailed = HarmonicMapping(
        AnalyticSeries([0.0, 1.0], tail_bound=0.1), AnalyticSeries([0.0])
    )
    assert little_bloch_status(tailed) is Ternary.UNDECIDED


def test_sup_modulus_identity():
    # sup (1 - r^2) r = 2 / (3 sqrt(3)), frozen from a 40-digit evaluation
    value, report = sup_modulus(IDENTITY)
    assert value == pytest.approx(0.3849001794597505, abs=1e-8)
    assert report.classification is LevelSetShape.EMPTY


def test_lambda_set_identity_isolated_origin():
    rep = lambda_set(IDENTITY)
    assert rep.classification is LevelSetShape.ISOLATED
    assert rep.cluster_count == 1
    assert not rep.flagged
    assert np.abs(rep.points).max() < 1e-6
    assert rep.witness_radius < 1e-6


def test_lambda_set_family_curve():
    rep = lambda_set(counterexample_family(0.5))
    assert rep.classification is LevelSetShape.CURVE_LIKE
    assert rep.witness_radius == pytest.approx(INV_SQRT3, abs=1e-4)
    assert np.abs(np.abs(rep.points) - INV_SQRT3).max() < 1e-4
    assert not rep.flagged


def test_lambda_set_empty_below_one():
    rep = lambda_set(scale_mapping(IDENTITY, 0.5))
    assert rep.classification is LevelSetShape.EMPTY
    assert rep.points.size == 0


def test_lambda_set_flagged_above_one():
    rep = lambda_set(scale_mapping(IDENTITY, 1.5))
    assert rep.flagged


def test_lambda_report_to_dict_is_json_ready():
    rep = lambda_set(IDENTITY)
    text = json.dumps(rep.to_dict())
    back = json.loads(text)
    assert back["classification"] == "ISOLATED"
    assert back["cluster_count"] == 1


def test_metric_beta_bounds_bloch_constant():
    for f in (IDENTITY, counterexample_family(1.0)):
        beta = bloch_constant(f)
        est = metric_beta_estimate(f, 20000, seed=3)
        assert est <= beta + 1e-6
        assert est >= 0.9 * beta


def test_mu_grid_rows_shape_and_values():
    rows = mu_grid_rows(IDENTITY, n_radii=4, n_angles=8)
    assert rows.shape == (33, 3)
    z = rows[:, 0] + 1j * rows[:, 1]
    assert np.allclose(rows[:, 2], 1.0 - np.abs(z) ** 2, atol=1e-12)


def test_serialization_round_trip(tmp_path):
    f = HarmonicMapping(
        AnalyticSeries([0.5 + 0.25j, 1.0, -2.0j], tail_bound=0.125),
        AnalyticSeries([0.0, 0.75j]),
    )
    path = tmp_path / "mapping.json"
    save_mapping(f, path)
    back = load_mapping(path)
    assert np.array_equal(back.h.coefficients, f.h.coefficients)
    assert np.array_equal(back.g.coefficients, f.g.coefficients)
    assert back.h.tail_bound == 0.125
    assert back.g.tail_bound is None


def test_mapping_from_dict_rejects_garbage():
    with pytest.raises(ValueError):
        mapping_from_dict({"h": [[0.0, 0.0]]})
    with pytest.raises(ValueError):
        mapping_from_dict({"h": "nope", "g": [[0.0, 0.0]]})
    with pytest.raises(ValueError):
        mapping_from_dict({"h": [[0.0, 0.0]], "g": [["x", 0.0]]})


def test_load_mapping_malformed_file(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(ValueError, match="malformed"):
        load_mapping(path)


def fresh_identity():
    # a new object each time, so no test sees another test's memo
    return HarmonicMapping(AnalyticSeries([0.0, 1.0]), AnalyticSeries([0.0]))


def random_mapping(seed, degree=6):
    rng = np.random.default_rng(seed)
    h = 0.2 * (rng.standard_normal(degree + 1) + 1j * rng.standard_normal(degree + 1))
    g = 0.2 * (rng.standard_normal(degree + 1) + 1j * rng.standard_normal(degree + 1))
    g[0] = 0.0
    return HarmonicMapping(AnalyticSeries(h), AnalyticSeries(g))


def count_searches(monkeypatch):
    calls = []
    inner = mapping.maximize_on_disk

    def counted(*args, **kwargs):
        calls.append(kwargs)
        return inner(*args, **kwargs)

    monkeypatch.setattr(mapping, "maximize_on_disk", counted)
    return calls


def test_bloch_estimate_is_memoized_on_the_mapping():
    f = random_mapping(1)
    est = estimate_bloch_constant(f)
    assert estimate_bloch_constant(f) is est
    assert bloch_constant(f) == est.value


def test_twin_mapping_gives_an_equal_estimate():
    f = random_mapping(2)
    twin = HarmonicMapping(AnalyticSeries(f.h.coefficients), AnalyticSeries(f.g.coefficients))
    est, twin_est = estimate_bloch_constant(f), estimate_bloch_constant(twin)
    assert twin_est is not est
    assert twin_est == est


def test_grid_arguments_get_their_own_memo_entry(monkeypatch):
    f = random_mapping(3)
    default = estimate_bloch_constant(f)
    coarse = estimate_bloch_constant(f, n_radii=32)
    assert coarse is not default
    assert estimate_bloch_constant(f) is default
    assert estimate_bloch_constant(f, n_radii=32) is coarse
    twin = HarmonicMapping(AnalyticSeries(f.h.coefficients), AnalyticSeries(f.g.coefficients))
    assert estimate_bloch_constant(twin, n_radii=32) == coarse
    calls = count_searches(monkeypatch)
    estimate_bloch_constant(f, n_radii=32, n_starts=5)
    assert len(calls) == 1


def test_screen_analyses_share_one_search(monkeypatch):
    f = fresh_identity()
    calls = count_searches(monkeypatch)
    membership(f)
    extreme_necessity(f)
    lambda_set(f)
    assert len(calls) == 1


def test_support_certificate_runs_one_search(monkeypatch):
    calls = count_searches(monkeypatch)
    support_certificate(fresh_identity(), 16, 0)
    assert len(calls) == 1
