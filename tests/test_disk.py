import math
import warnings

import numpy as np
import pytest

from blochmap import (
    AnalyticSeries,
    HarmonicMapping,
    MobiusAutomorphism,
    Ternary,
    add_mappings,
    apply_automorphism,
    bloch_constant,
    counterexample_family,
    estimate_bloch_constant,
    hyperbolic_distance,
    lambda_set,
    little_bloch_status,
    mu,
    mu_grid_rows,
    precompose,
    scale_mapping,
)
from blochmap import disk, mapping
from blochmap.disk import _automorphism_series, _composition_tail
from blochmap.series import differentiate


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
        assert hyperbolic_distance(z, w) == hyperbolic_distance(w, z)
    for z, w, v in zip(pts[:4], pts[4:8], pts[8:]):
        assert (hyperbolic_distance(z, w)
                <= hyperbolic_distance(z, v) + hyperbolic_distance(v, w) + 1e-12)


def test_pseudo_distance_is_bit_symmetric():
    # 10^5 pairs, the second half with both points 1e-9 to 1e-2 inside the rim
    rng = np.random.default_rng(31)
    n = 50_000
    radii = np.concatenate([np.sqrt(rng.random((2, n))),
                            1.0 - 10.0 ** rng.uniform(-9, -2, (2, n))], axis=1)
    z, w = radii * np.exp(2j * np.pi * rng.random(radii.shape))
    zw, wz = disk._pseudo_distance(z, w), disk._pseudo_distance(w, z)
    assert np.array_equal(zw.view(np.uint64), wz.view(np.uint64))
    assert ((zw >= 0.0) & (zw <= 1.0)).all()


def test_distance_near_the_rim_matches_the_closed_form():
    # rho(r, -r) = log((1 + r)/(1 - r)) with 1 - r exact for r >= 0.5, out to
    # the boundary margin: the pseudo-distance rounds to one beyond
    # 1 - r ~ 1e-9, where arctanh of it loses every digit or fails.  The
    # bound is set by 1 - r^2, rounded in the disk weight
    for gap in np.geomspace(0.5, 2e-12, 200):
        r = 1.0 - float(gap)
        exact = math.log1p(r) - math.log(1.0 - r)
        assert hyperbolic_distance(r, -r) == pytest.approx(exact, rel=1e-9, abs=0.0)


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


@pytest.mark.parametrize("z", NON_FINITE, ids=NON_FINITE_IDS)
def test_automorphism_rejects_non_finite_rotation(z):
    # the non-finite part of z as the angle: accepted, it made phi read nan
    # at every point, and precompose failed on its coefficients
    with pytest.raises(ValueError, match="rotation"):
        MobiusAutomorphism(0.1, z.real + z.imag)


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
    coeffs = _automorphism_series(phi.center, 60, phi.rotation)
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
    assert comp.h.tail_bound == 0.0


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


def random_mapping(rng, degree):
    h = rng.standard_normal(degree + 1) + 1j * rng.standard_normal(degree + 1)
    g = rng.standard_normal(degree + 1) + 1j * rng.standard_normal(degree + 1)
    g[0] = 0.0
    return HarmonicMapping(AnalyticSeries(h), AnalyticSeries(g))


def random_automorphism(rng, c_max):
    # centres drawn toward the rim, where the truncated series is worst
    c = c_max * rng.uniform() ** 0.25 * np.exp(2j * np.pi * rng.uniform())
    return MobiusAutomorphism(c, 2.0 * np.pi * rng.uniform())


@pytest.mark.parametrize("order", [1, 5])
@pytest.mark.parametrize("seed", range(8))
def test_composed_mu_is_mu_at_phi(seed, order):
    # mu_{f o phi} = mu_f o phi, evaluated exactly whatever the order, for
    # one composition and for a composition of two
    rng = np.random.default_rng([seed, 11])
    f = random_mapping(rng, int(rng.integers(1, 61)))
    phi, psi = random_automorphism(rng, 0.99), random_automorphism(rng, 0.99)
    once = precompose(f, phi, order)
    twice = precompose(once, psi, order)
    z = 0.999 * np.sqrt(rng.random(20)) * np.exp(2j * np.pi * rng.random(20))
    for p in z:
        w = apply_automorphism(phi, p)
        assert mu(once, p) == pytest.approx(mu(f, w), rel=1e-12)
        w = apply_automorphism(phi, apply_automorphism(psi, p))
        assert mu(twice, p) == pytest.approx(mu(f, w), rel=1e-12)


@pytest.mark.parametrize("seed", range(6))
def test_scaled_composition_keeps_its_exact_mu(seed):
    # mu of c (p o phi) is |c| mu_p o phi: scaling keeps the link to p for a
    # composition, a nested one and one peeled of its constant
    rng = np.random.default_rng([seed, 13])
    f = random_mapping(rng, int(rng.integers(1, 61)))
    phi, psi = random_automorphism(rng, 0.99), random_automorphism(rng, 0.99)
    c, d = (complex(rng.uniform(0.2, 2.0) * np.exp(2j * np.pi * rng.uniform()))
            for _ in range(2))
    once = precompose(f, phi, 5)
    scaled = scale_mapping(once, c)
    nested = scale_mapping(precompose(scaled, psi, 5), d)
    lam1 = rng.uniform(0.0, 0.9)
    peeled = mapping._peel_constant(once, lam1)
    z = 0.999 * np.sqrt(rng.random(20)) * np.exp(2j * np.pi * rng.random(20))
    for p in z:
        w = apply_automorphism(phi, p)
        assert mu(scaled, p) == pytest.approx(abs(c) * mu(f, w), rel=1e-12)
        assert mu(peeled, p) == pytest.approx(mu(f, w) / (1.0 - lam1), rel=1e-12)
        w = apply_automorphism(phi, apply_automorphism(psi, p))
        assert mu(nested, p) == pytest.approx(abs(c * d) * mu(f, w), rel=1e-12)


def test_a_sum_drops_the_composition_link():
    # f + 0 is built from its truncated series alone: its mu is the series'
    # own, far from mu_f o phi at a centre near the rim, and the series'
    # declared tail leaves its little Bloch status undecided
    comp = precompose(counterexample_family(0.75), MobiusAutomorphism(0.99, 0.3), 5)
    zero = HarmonicMapping(AnalyticSeries([0.0]), AnalyticSeries([0.0]))
    total = add_mappings(comp, zero)
    assert total._composition is None
    own = mapping._weighted_abs_sum(differentiate(total.h).coefficients,
                                    differentiate(total.g).coefficients)
    z = [0.0, 0.5, -0.9j, 0.3 + 0.6j, -0.99]
    series_mu = [own(np.array([p]))[0] for p in z]
    assert [mu(total, p) for p in z] == series_mu
    assert not np.allclose([mu(comp, p) for p in z], series_mu, rtol=1e-3)
    assert little_bloch_status(comp) is Ternary.TRUE
    assert little_bloch_status(total) is Ternary.UNDECIDED


def test_composed_mu_reads_minus_inf_only_off_the_disk():
    # off the open disk, phi's pole at 1/conj(c) included, the composed mu
    # reads -inf without evaluating; inside it, mu and the grid rows, whose
    # outer ring lies at DISK_RADIUS_CAP, stay finite
    comp = precompose(counterexample_family(0.75), MobiusAutomorphism(0.99, 0.0), 5)
    with np.errstate(all="raise"):
        off = mapping._mu_values(comp)(np.array([1.0 / 0.99, 1.0, 1.01j, -1.0 - 1e-15]))
    assert (off == -np.inf).all()
    assert np.isfinite(mu(comp, 1.0 - 1e-12))
    assert np.isfinite(mu_grid_rows(comp, 8, 16)).all()


@pytest.mark.parametrize("center", [0.9, 0.95, 0.99])
def test_composed_family_keeps_unit_beta_at_low_order(center):
    # f_0.75 has beta = 1; at order 10 the series of f_0.75 o phi is far from
    # the composition, but its mu is exact
    comp = precompose(counterexample_family(0.75), MobiusAutomorphism(center), 10)
    # scaled before either is searched, the copy runs its own search
    copy = scale_mapping(comp, 1.0)
    assert abs(estimate_bloch_constant(comp).value - 1.0) <= 1e-9
    assert abs(estimate_bloch_constant(copy).value - 1.0) <= 1e-9


def test_composed_search_near_the_rim_raises_no_floating_point_error():
    # a degree-60 parent composed at c = 0.99: the compass evaluates
    # candidates past the circle, toward phi's pole at 1/conj(c).  Its beta
    # is not asserted: this mapping's peak moves to the rim, beyond the reach
    # of the search grid
    rng = np.random.default_rng(60)
    f = random_mapping(rng, 60)
    phi = MobiusAutomorphism(0.99j, 0.4)
    comp, fresh = precompose(f, phi, 40), precompose(f, phi, 40)
    with np.errstate(all="raise"):
        est = estimate_bloch_constant(comp)
        rep = lambda_set(fresh)
    assert np.isfinite(est.value) and est.value > 0.0
    assert rep.flagged  # beta far above one


@pytest.mark.parametrize("center", [
    0.9j,
    pytest.param(0.99j, marks=pytest.mark.xfail(
        strict=True, reason="phi pushes the peak beyond the reach of the fixed search grid")),
])
def test_composed_search_keeps_a_peak_pushed_toward_the_rim(center):
    # beta(f o phi) = beta(f) = 24.390 for the degree-60 map above.  Values
    # are compared, not accuracies: the composed accuracy counts the declared
    # tails of the series (5.6e142 at c = 0.99j), so it would cover any miss
    f = random_mapping(np.random.default_rng(60), 60)
    beta = estimate_bloch_constant(f).value
    assert beta == pytest.approx(24.390, abs=5e-4)
    comp = precompose(f, MobiusAutomorphism(center, 0.4), 40)
    assert estimate_bloch_constant(comp).value >= beta - 1e-6


@pytest.mark.parametrize("center", [1e-3, 1e-4, 1e-7])
def test_small_centre_tails_are_positive_and_finite(center):
    # the degree-60 map at order 140: summed in linear space, the Cauchy
    # bounds read an exact 0.0 at c = 1e-3, so the truncated series passed
    # for an exact polynomial, and formed inf * 0 at smaller centres
    f = random_mapping(np.random.default_rng(60), 60)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        comp = precompose(f, MobiusAutomorphism(center), 140)
    for part in (comp.h, comp.g):
        assert np.isfinite(part.tail_bound) and part.tail_bound > 0.0
        assert not part.is_exact


def test_tiny_centre_keeps_the_family_accuracy():
    # at c = 1e-200 the composition is the family up to rounding; its tails
    # once read inf, which made beta's accuracy inf and flagged the level set
    family = counterexample_family(0.75)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        comp = precompose(family, MobiusAutomorphism(1e-200), 40)
        acc = estimate_bloch_constant(comp).accuracy
        rep = lambda_set(comp)
    for part in (comp.h, comp.g):
        assert np.isfinite(part.tail_bound) and part.tail_bound > 0.0
    assert acc == estimate_bloch_constant(precompose(family, MobiusAutomorphism(0.0), 40)).accuracy
    assert not rep.flagged


def test_tail_above_the_double_range_reads_inf_quietly():
    # the degree-60 map scaled by 1e300 at c = 0.5: every Cauchy bound lies
    # above the double range, so the tails are inf, with no overflow or inf * 0
    f = random_mapping(np.random.default_rng(60), 60)
    f = HarmonicMapping(AnalyticSeries(1e300 * f.h.coefficients),
                        AnalyticSeries(1e300 * f.g.coefficients))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        comp = precompose(f, MobiusAutomorphism(0.5), 40)
    assert comp.h.tail_bound == comp.g.tail_bound == np.inf


@pytest.mark.parametrize("center", [1e-3, 1e-2, 1e-200])
def test_small_centre_tail_reads_radii_near_one(center):
    # degree 60 against order 40: the best Cauchy radius lies near one; the
    # 24 spread radii alone read 4e33 at c = 1e-3 and inf at c = 1e-200,
    # while the true tails are about 25
    f = random_mapping(np.random.default_rng(60), 60)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        phi = MobiusAutomorphism(center)
        comp, full = precompose(f, phi, 40), precompose(f, phi, 400)
    for part, long in ((comp.h, full.h), (comp.g, full.g)):
        assert np.abs(long.coefficients[41:]).sum() <= part.tail_bound <= 1e4


def reference_composition_tail(coeffs, c_abs, order):
    # the same 24 Cauchy bounds in linear space, one radius at a time
    mags = np.abs(coeffs)
    best = np.inf
    for frac in np.linspace(0.05, 0.95, 24):
        rho = 1.0 + frac * (1.0 / c_abs - 1.0)
        peak = (rho + c_abs) / (1.0 - c_abs * rho)
        best = min(best, float(mags @ peak ** np.arange(mags.size)) * rho ** (-order) / (rho - 1.0))
    return best


@pytest.mark.parametrize("degree", [2, 5, 8])
@pytest.mark.parametrize("radius", [0.05, 0.3, 0.6])
def test_declared_tail_covers_the_next_coefficients(degree, radius):
    # the coefficients an order-400 composition keeps beyond order 40 are a
    # lower bound on the true tail, so each declared tail must reach them;
    # in the double range, log space moves the linear-space bound by rounding
    rng = np.random.default_rng([degree, 17])
    f = random_mapping(rng, degree)
    phi = MobiusAutomorphism(radius * np.exp(2j * np.pi * rng.uniform()), 2.0 * np.pi * rng.uniform())
    comp, full = precompose(f, phi, 40), precompose(f, phi, 400)
    for part, long, parent in ((comp.h, full.h, f.h), (comp.g, full.g, f.g)):
        assert part.tail_bound >= np.abs(long.coefficients[41:]).sum()
        want = reference_composition_tail(parent.coefficients, radius, 40)
        assert part.tail_bound == pytest.approx(want, rel=1e-12)
