import json

import numpy as np
import pytest

from blochmap import (
    AnalyticSeries,
    HarmonicMapping,
    LevelSetShape,
    MobiusAutomorphism,
    Ternary,
    add_mappings,
    bloch_constant,
    bloch_norm,
    counterexample_family,
    decompose_support_point,
    estimate_bloch_constant,
    lambda_set,
    little_bloch_status,
    load_mapping,
    mapping_from_dict,
    mapping_to_dict,
    metric_beta_estimate,
    mu,
    mu_grid_rows,
    precompose,
    sample_unit_ball,
    save_mapping,
    scale_mapping,
    sup_modulus,
    support_certificate,
)
from blochmap import mapping, optimize
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


def test_scale_mapping_keeps_tailed_coefficients():
    f = HarmonicMapping(AnalyticSeries([0.0, 0.5, 0.1], 1e-3), AnalyticSeries([0.0]))
    scaled = scale_mapping(f, 2.0)
    assert np.array_equal(scaled.h.coefficients, [0.0, 1.0, 0.2])
    assert scaled.h.tail_bound == pytest.approx(2e-3)
    assert scaled.g.tail_bound == 0.0
    # scaling by two is exact, so beta doubles exactly; it read 0 when the
    # tailed h collapsed to its constant term
    beta = estimate_bloch_constant(f).value
    assert beta == pytest.approx(0.5186, abs=1e-4)
    assert estimate_bloch_constant(scaled).value == 2.0 * beta


def test_unimodular_scale_keeps_tailed_coefficients():
    # both parts tailed: every coefficient keeps its modulus, each part its
    # declared tail, and a fresh search of the result reads f's beta
    f = HarmonicMapping(AnalyticSeries([0.0, 1j, 0.5], 1e-3),
                        AnalyticSeries([0.0, -1.0, 0.25j], 2e-3))
    r = scale_mapping(f, np.exp(0.7j))
    assert r.h.coefficients.size == r.g.coefficients.size == 3
    assert np.allclose(np.abs(r.h.coefficients), np.abs(f.h.coefficients), rtol=0, atol=1e-15)
    assert np.allclose(np.abs(r.g.coefficients), np.abs(f.g.coefficients), rtol=0, atol=1e-15)
    assert (r.h.tail_bound, r.g.tail_bound) == pytest.approx((1e-3, 2e-3))
    beta = estimate_bloch_constant(r).value
    assert beta == pytest.approx(estimate_bloch_constant(f).value, rel=1e-12)


def test_zero_scale_of_an_unbounded_tail_is_the_exact_zero():
    f = HarmonicMapping(AnalyticSeries([0.0, 0.5], np.inf), AnalyticSeries([0.0, 0.1j], 1e-3))
    z = scale_mapping(f, 0.0)
    assert z.h.is_exact and z.g.is_exact
    assert not z.h.coefficients.any() and not z.g.coefficients.any()


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


def test_lambda_set_small_circle_is_curve():
    # mu = (1 - r^2)(0.9 + r^2) / beta peaks on the circle r^2 = 0.05, whose
    # diameter is far below any fixed Euclidean curve length
    f = HarmonicMapping(AnalyticSeries([0.0, 0.9]), AnalyticSeries([0.0, 0.0, 0.0, 1.0 / 3.0]))
    rep = lambda_set(scale_mapping(f, 1.0 / 0.9025))
    assert rep.classification is LevelSetShape.CURVE_LIKE
    assert np.abs(np.abs(rep.points) - np.sqrt(0.05)).max() < 1e-3
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
    assert back.g.tail_bound == 0.0


def test_exact_parts_are_written_as_null():
    f = mapping_from_dict({"h": [[0, 0], [1, 0]], "g": [[0, 0]],
                           "tail_bound_h": 0, "tail_bound_g": None})
    assert (f.h.tail_bound, f.g.tail_bound) == (0.0, 0.0)
    d = mapping_to_dict(f)
    assert d["tail_bound_h"] is None and d["tail_bound_g"] is None
    tailed = HarmonicMapping(AnalyticSeries([0.0, 1.0], 0.5), AnalyticSeries([0.0], np.inf))
    assert mapping_to_dict(tailed)["tail_bound_h"] == 0.5
    assert mapping_to_dict(tailed)["tail_bound_g"] == np.inf


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


def test_screen_analyses_share_one_search(monkeypatch):
    f = fresh_identity()
    calls = count_searches(monkeypatch)
    membership(f)
    extreme_necessity(f)
    lambda_set(f)
    assert len(calls) == 1


@pytest.mark.parametrize("analysis", [
    lambda: support_certificate(fresh_identity(), 16, 0),
    # 0.3i + 0.7z: the residual z reuses the estimate of f0, scaled
    lambda: decompose_support_point(HarmonicMapping(AnalyticSeries([0.3j, 0.7]),
                                                    AnalyticSeries([0.0]))),
], ids=["support_certificate", "decompose_support_point"])
def test_support_point_tests_run_one_search(monkeypatch, analysis):
    calls = count_searches(monkeypatch)
    assert analysis() is not None
    assert len(calls) == 1


def normalized_screen(f):
    # the screen of a normalized mapping: beta, then membership and the
    # extreme-point screen of f / beta
    p = scale_mapping(f, 1.0 / estimate_bloch_constant(f).value)
    membership(p)
    return extreme_necessity(p)


@pytest.mark.parametrize("analysis", [
    lambda: normalized_screen(random_centered_mapping(np.random.default_rng(4), 6)),
    lambda: membership(sample_unit_ball(7)),
], ids=["normalized_screen", "sample_unit_ball"])
def test_normalized_mappings_inherit_one_search(monkeypatch, analysis):
    calls = count_searches(monkeypatch)
    analysis()
    assert len(calls) == 1


def test_scaling_starts_no_search_and_carries_only_a_search_made(monkeypatch):
    calls = count_searches(monkeypatch)
    f = fresh_identity()
    assert "_estimate" not in vars(scale_mapping(f, 0.5))
    assert calls == []
    est = estimate_bloch_constant(f)
    carried = vars(scale_mapping(f, -2.0j))["_estimate"]
    assert (carried.value, carried.accuracy, carried.argmax) == (
        2.0 * est.value, 2.0 * est.accuracy, est.argmax)
    # mappings whose mu is not mu_f times one factor keep to their own search
    assert "_estimate" not in vars(add_mappings(f, f))
    assert len(calls) == 1


def random_centered_mapping(rng, degree):
    f = random_mapping(rng, degree)  # default_rng passes a Generator through
    return HarmonicMapping(AnalyticSeries(np.r_[0.0, f.h.coefficients[1:]]), f.g)


def screen_outcome(f):
    # one level walk per mapping: extreme_necessity raises outside the
    # normalized balls, where lambda_set alone runs
    rep = membership(f)
    if rep.in_normalized_unit_ball:
        ext = extreme_necessity(f)
        lam, verdict = ext.lambda_report, ext.verdict
    else:
        lam, verdict = lambda_set(f), None
    sides = (rep.in_unit_ball, rep.in_normalized_unit_ball, rep.in_little_ball,
             rep.in_normalized_little_ball, rep.marginal)
    return sides, lam.classification, lam.points.size, lam.flagged, verdict


def test_carried_estimate_agrees_with_a_fresh_search():
    rng = np.random.default_rng(2025)
    for _ in range(20):
        # beta spread over [0.6, 1.8], so the factors reach inside, onto and
        # outside the unit ball; f itself holds its own search
        raw = random_centered_mapping(rng, int(rng.integers(2, 61)))
        spread = scale_mapping(raw, rng.uniform(0.6, 1.8) / bloch_constant(raw))
        f = HarmonicMapping(spread.h, spread.g)
        beta = estimate_bloch_constant(f).value
        theta = float(rng.uniform(0.0, 2.0 * np.pi))
        for factor in (1.0 / beta, 0.5, 3.0, 0.7 * np.exp(1j * theta)):
            carried = scale_mapping(f, factor)
            fresh = HarmonicMapping(carried.h, carried.g)
            assert "_estimate" in vars(carried) and "_estimate" not in vars(fresh)
            est = estimate_bloch_constant(carried)
            assert abs(est.value - estimate_bloch_constant(fresh).value) <= est.accuracy
            assert screen_outcome(carried) == screen_outcome(fresh)


def test_zero_factor_of_an_unbounded_tail_carries_no_nan():
    f = HarmonicMapping(AnalyticSeries([0.0, 0.5, 0.2], np.inf), AnalyticSeries([0.0]))
    assert estimate_bloch_constant(f).accuracy == np.inf
    assert estimate_bloch_constant(scale_mapping(f, 2.0)).accuracy == np.inf
    est = estimate_bloch_constant(scale_mapping(f, 0.0))
    assert est.value == 0.0
    assert not np.isnan(est.accuracy)


def count_compass_runs(monkeypatch):
    # the size of each compass run's start array, over every namespace the
    # Bloch and level-set searches call it through
    starts = []
    inner = optimize.compass_maximize

    def counted(evaluate, first, *args, **kwargs):
        starts.append(np.size(first))
        return inner(evaluate, first, *args, **kwargs)

    for mod in (optimize, mapping):
        if hasattr(mod, "compass_maximize"):
            monkeypatch.setattr(mod, "compass_maximize", counted)
    return starts


@pytest.mark.parametrize("analysis", [lambda_set, extreme_necessity])
def test_level_set_analyses_run_one_compass_run(monkeypatch, analysis):
    f = fresh_identity()
    runs = count_compass_runs(monkeypatch)
    analysis(f)
    assert len(runs) == 1
    # the beta found with the level set is memoized
    estimate_bloch_constant(f)
    membership(f)
    assert len(runs) == 1


def test_sup_modulus_runs_one_compass_run(monkeypatch):
    runs = count_compass_runs(monkeypatch)
    sup_modulus(counterexample_family(0.75))
    assert len(runs) == 1


def test_memoized_beta_leaves_the_level_walkers_alone(monkeypatch):
    # with beta known, the level set starts no beta walkers
    f = fresh_identity()
    runs = count_compass_runs(monkeypatch)
    membership(f)
    lambda_set(f)
    lambda_set(fresh_identity())
    beta_starts, level_starts, both = runs
    assert beta_starts == optimize.N_STARTS
    assert both == beta_starts + level_starts


def bits(*values):
    return np.array(values, dtype=complex).tobytes()


def same_level_report(a, b):
    return (a.points.tobytes() == b.points.tobytes()
            and a.residuals.tobytes() == b.residuals.tobytes()
            and a.classification is b.classification
            and bits(a.witness_radius) == bits(b.witness_radius)
            and a.flagged == b.flagged
            and len(a.clusters) == len(b.clusters)
            and all(np.array_equal(x, y) for x, y in zip(a.clusters, b.clusters)))


def exact(h, g):
    return lambda: HarmonicMapping(AnalyticSeries(h), AnalyticSeries(g))


# builders of fresh, equal mappings: each call order gets its own object
ORDER_CASES = {
    "identity": exact([0.0, 1.0], [0.0]),
    "rotated-h-0.7": exact([0.0, np.exp(0.7j)], [0.0]),
    "rotated-h-2.9": exact([0.0, np.exp(2.9j)], [0.0]),
    "rotated-g-1.3": exact([0.0], [0.0, np.exp(1.3j)]),
    **{f"family-{a}": (lambda a=a: counterexample_family(a)) for a in (0.3, 0.75, 1.0, 1.5)},
    **{f"ball-{d}-{s}": (lambda d=d, s=s: sample_unit_ball(s, d))
       for d in (1, 2, 5, 8, 30, 60) for s in range(5)},
    "near-tailed": lambda: HarmonicMapping(AnalyticSeries([0.0, 0.9995], 1e-3),
                                           AnalyticSeries([0.0])),
    "double": exact([0.0, 2.0], [0.0]),
}


@pytest.mark.parametrize("name", ORDER_CASES)
def test_beta_and_level_set_bits_in_either_order(name):
    make = ORDER_CASES[name]
    f, g = make(), make()
    est_f = estimate_bloch_constant(f)
    lam_f = lambda_set(f)
    lam_g = lambda_set(g)
    est_g = estimate_bloch_constant(g)
    assert bits(est_f.value, est_f.accuracy, est_f.argmax) == \
        bits(est_g.value, est_g.accuracy, est_g.argmax)
    assert same_level_report(lam_f, lam_g)


@pytest.mark.parametrize("name", ORDER_CASES)
def test_sup_modulus_matches_two_separate_runs(name):
    f = ORDER_CASES[name]()
    values = mapping._weighted_abs_sum(f.h.coefficients, f.g.coefficients)
    res = optimize.maximize_on_disk(values)
    want = mapping._unit_level_report(*optimize._level_walks(values, 1.0),
                                      mapping._with_tail_accuracy(f, res), res.value, f)
    value, got = sup_modulus(f)
    assert bits(value) == bits(res.value)
    assert same_level_report(got, want)


def test_level_seeds_keep_the_4096_best_when_more_sit_near_the_level():
    # 6000 distinct grid values within 0.02 of the level, the 8 best far
    # above it and 100 far below
    rng = np.random.default_rng(24)
    gv = np.concatenate([1.0 + 0.018 * np.linspace(-1.0, 1.0, 6000),
                         2.0 + np.arange(8.0), np.full(100, -5.0)])
    gv = gv[rng.permutation(gv.size)]
    order = np.argsort(gv)[::-1]
    seeds = optimize._level_seeds(gv, order, 1.0)
    assert np.array_equal(seeds, order[:4096])
    assert np.all(np.diff(gv[seeds]) < 0.0)


def test_a_probe_that_beats_the_walkers_is_the_result(monkeypatch):
    # walkers left at their grid starts: the origin is the best one, and the
    # probe 1e-6 away lands on the maximum
    def unwalked(evaluate, starts, initial_step, **kwargs):
        z = np.array(starts, dtype=complex)
        return z, evaluate(z, None)

    monkeypatch.setattr(optimize, "compass_maximize", unwalked)
    res = optimize.maximize_on_disk(lambda z: -np.abs(z - 1e-6))
    assert res.argmax == 1e-6 and res.value == 0.0 and res.accuracy == 1e-6


def property_mapping(seed, max_degree=30):
    # a random polynomial mapping of degree 2 to max_degree and a rotation angle
    rng = np.random.default_rng([seed, 8])
    degree = int(rng.integers(2, max_degree + 1))
    h = rng.standard_normal(degree + 1) + 1j * rng.standard_normal(degree + 1)
    g = rng.standard_normal(degree + 1) + 1j * rng.standard_normal(degree + 1)
    g[0] = 0.0
    return HarmonicMapping(AnalyticSeries(h), AnalyticSeries(g)), rng.uniform(0.0, 2.0 * np.pi)


# an estimate's value is a value of mu_f, so beta lies in [value, value +
# accuracy] as far as the reported accuracy holds; the properties below are
# checked on those intervals
@pytest.mark.parametrize("seed", range(12))
def test_bloch_constant_invariant_under_rotation(seed):
    f, theta = property_mapping(seed)

    def turned(s):
        # s(e^{i theta} z): the k-th coefficient turns by e^{i k theta}
        return AnalyticSeries(s.coefficients * np.exp(1j * theta * np.arange(s.coefficients.size)))

    est = estimate_bloch_constant(f)
    rot = estimate_bloch_constant(HarmonicMapping(turned(f.h), turned(f.g)))
    assert est.value <= rot.value + rot.accuracy
    assert rot.value <= est.value + est.accuracy


@pytest.mark.parametrize("seed", range(12))
def test_bloch_constant_lies_between_those_of_its_parts(seed):
    f, _ = property_mapping(seed)
    zero = AnalyticSeries([0.0])
    est = estimate_bloch_constant(f)
    est_h = estimate_bloch_constant(HarmonicMapping(f.h, zero))
    est_g = estimate_bloch_constant(HarmonicMapping(zero, f.g))
    assert max(est_h.value, est_g.value) <= est.value + est.accuracy
    assert est.value <= est_h.value + est_h.accuracy + est_g.value + est_g.accuracy


@pytest.mark.parametrize("seed", range(12))
def test_bloch_constant_invariant_under_disk_automorphisms(seed):
    # beta(f o phi) = beta(f); precompose evaluates mu exactly as mu_f o phi,
    # and the accuracy still counts the declared tail of its series
    f, theta = property_mapping(seed, max_degree=12)
    rng = np.random.default_rng([seed, 9])
    center = 0.5 * np.sqrt(rng.uniform()) * np.exp(2j * np.pi * rng.uniform())
    degree = f.h.coefficients.size - 1
    composed = precompose(f, MobiusAutomorphism(center, theta), 2 * degree + 40)
    est = estimate_bloch_constant(f)
    comp = estimate_bloch_constant(composed)
    assert abs(comp.value - est.value) <= est.accuracy + comp.accuracy


def test_composed_beta_finds_a_peak_narrower_than_the_grid_step():
    # a degree-30 map scaled to beta = 1 and composed at order 80, drawn as
    # the screen benchmark draws its seed 1107, task 325.  The composed peak
    # near |z| = 0.96 is narrower than GRID_STEP: a walker started beside it
    # with that Euclidean first step jumped past it and read beta = 0.99878
    # at a reported accuracy of 1e-9
    rng = np.random.default_rng([1107, 325])
    h = rng.standard_normal(31) + 1j * rng.standard_normal(31)
    g = rng.standard_normal(31) + 1j * rng.standard_normal(31)
    h[0] = g[0] = 0.0
    f = HarmonicMapping(AnalyticSeries(h), AnalyticSeries(g))
    center = 0.3 * np.sqrt(rng.uniform()) * np.exp(2j * np.pi * rng.uniform())
    phi = MobiusAutomorphism(center, 2.0 * np.pi * rng.uniform())
    unit = scale_mapping(f, 1.0 / bloch_constant(f))
    assert abs(bloch_constant(precompose(unit, phi, 80)) - 1.0) <= 1e-5


def tailed_pair(seed):
    # P, a random polynomial mapping scaled to beta = 1; P + phi, with phi a
    # random tail of 5 to 60 terms beyond P's degree, split between h and g,
    # of coefficient sum T in 1e-4 ... 1e-1; and P declaring those tails
    f, _ = property_mapping(seed)
    p = scale_mapping(f, 1.0 / estimate_bloch_constant(f).value)
    rng = np.random.default_rng([seed, 10])
    total = 10.0 ** rng.uniform(-4.0, -1.0)
    terms = int(rng.integers(5, 61))
    mags = rng.uniform(size=terms)
    tail = total * mags / mags.sum() * np.exp(2j * np.pi * rng.uniform(size=terms))
    split = int(rng.integers(0, terms + 1))
    full, declared = [], []
    for s, c in ((p.h, tail[:split]), (p.g, tail[split:])):
        full.append(AnalyticSeries(np.concatenate([s.coefficients, c])))
        declared.append(AnalyticSeries(s.coefficients, np.abs(c).sum()))
    return p, HarmonicMapping(*full), HarmonicMapping(*declared), total, rng


@pytest.mark.parametrize("seed", range(12))
def test_declared_tails_are_honoured(seed):
    # by Schwarz-Pick a tail phi with sum |c_k| <= T has (1 - |z|^2)|phi'| <= T,
    # so mu moves by at most T and the declared beta's accuracy carries it
    p, full, declared, total, rng = tailed_pair(seed)
    est = estimate_bloch_constant(full)
    est_declared = estimate_bloch_constant(declared)
    assert abs(est.value - est_declared.value) <= est.accuracy + est_declared.accuracy
    z = np.sqrt(rng.uniform(0.0, 0.998, 20000)) * np.exp(2j * np.pi * rng.uniform(size=20000))
    assert (mapping._mu_values(full)(z) <= mapping._mu_values(p)(z) + total).all()


# h = 0.9995 z: mu peaks at 0.9995, below the level, but a declared tail of
# 1e-3 could lift it onto the level
TAILED_NEAR_LEVEL = HarmonicMapping(AnalyticSeries([0.0, 0.9995], 1e-3), AnalyticSeries([0.0]))


def test_declared_tails_above_the_level_tolerance_flag_the_level_set():
    rep = lambda_set(TAILED_NEAR_LEVEL)
    assert rep.classification is LevelSetShape.EMPTY
    assert rep.flagged
    # the modulus of c z peaks at 2c / (3 sqrt 3), here 1 - 5e-7
    near_modulus = HarmonicMapping(AnalyticSeries([0.0, 1.5 * np.sqrt(3.0) * (1.0 - 5e-7)], 1e-3),
                                   AnalyticSeries([0.0]))
    _, rep = sup_modulus(near_modulus)
    assert rep.flagged
    # the sum of both tails counts, and a sum within LEVEL_TOL flags nothing
    split = HarmonicMapping(AnalyticSeries([0.0, 0.9999995], 0.6 * mapping.LEVEL_TOL),
                            AnalyticSeries([0.0], 0.6 * mapping.LEVEL_TOL))
    assert lambda_set(split).flagged
    small = HarmonicMapping(AnalyticSeries([0.0, 0.9999995], 0.5 * mapping.LEVEL_TOL),
                            AnalyticSeries([0.0]))
    assert not lambda_set(small).flagged
    assert not sup_modulus(small)[1].flagged
    # a short report's accuracy already counts the tails, so no tail can
    # lift mu onto the level: the report is EMPTY and unflagged
    _, rep = sup_modulus(HarmonicMapping(AnalyticSeries([0.0, 0.5], 1e-3), AnalyticSeries([0.0])))
    assert rep.classification is LevelSetShape.EMPTY
    assert not rep.flagged
    short = HarmonicMapping(AnalyticSeries([0.0, 0.9995], 0.6 * mapping.LEVEL_TOL),
                            AnalyticSeries([0.0], 0.6 * mapping.LEVEL_TOL))
    rep = lambda_set(short)
    assert rep.classification is LevelSetShape.EMPTY
    assert not rep.flagged
