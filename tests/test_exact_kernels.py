"""The certificate and level-set kernels against their plain reference forms.

The vectorized kernels must return the same bits as the loops they replaced,
the shared ``mu`` kernel the same bits as the per-caller copies it replaced,
and the scalar Horner of ``eval_series`` the same bits as ``polyval_batch``:
the pinned benchmark records compare ``sample_max_other`` exactly, so these
tests use exact equality, never a tolerance.
"""

import json

import numpy as np
import pytest

from blochmap import (
    AnalyticSeries,
    HarmonicMapping,
    counterexample_family,
    eval_series,
    polyval_batch,
    save_mapping,
    support_certificate,
)
from blochmap import cli, differentiate, extremal, mapping, support
from blochmap.optimize import compass_maximize, polar_grid

IDENTITY = HarmonicMapping(AnalyticSeries([0.0, 1.0]), AnalyticSeries([0.0]))
CO_IDENTITY = HarmonicMapping(AnalyticSeries([0.0]), AnalyticSeries([0.0, 1.0]))
FAMILY = counterexample_family(0.75)
INV_SQRT3 = 0.5773502691896258


def reference_batch_beta(h_rows, g_rows, z0, rng, step_tol=1e-9):
    # full-width per-term Horner and a BLAS grid pass
    n, k = h_rows.shape
    ks = np.arange(1, k)
    dh = h_rows[:, 1:] * ks
    dg = g_rows[:, 1:] * ks

    def mu_rows(z, rows):
        acc_h = np.zeros(z.shape, dtype=complex)
        acc_g = np.zeros(z.shape, dtype=complex)
        for j in range(k - 2, -1, -1):
            acc_h = acc_h * z + dh[rows, j]
            acc_g = acc_g * z + dg[rows, j]
        w = 1.0 - (z.real ** 2 + z.imag ** 2)
        return w * (np.abs(acc_h) + np.abs(acc_g))

    grid = polar_grid(12, 24)
    vander = grid[:, None] ** np.arange(k - 1)[None, :]
    mu_grid = (1.0 - np.abs(grid) ** 2)[None, :] * (
        np.abs(dh @ vander.T) + np.abs(dg @ vander.T))
    best = grid[np.argmax(mu_grid, axis=1)]
    extra = rng.uniform(0.05, 0.9, n) * np.exp(2j * np.pi * rng.uniform(0.0, 1.0, n))
    starts = np.concatenate([np.full(n, complex(z0)), best, extra])
    walkers = np.tile(np.arange(n), 3)
    _, vals = compass_maximize(mu_rows, starts, 0.1, step_tol=step_tol,
                               max_iter=400, walkers=walkers)
    return vals.reshape(3, n).max(axis=0)


def reference_single_linkage(pts, radius):
    n = pts.size
    parent = np.arange(n)

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for s in range(0, n, 512):
        d = np.abs(pts[s:s + 512][:, None] - pts[None, :])
        ii, jj = np.nonzero(d <= radius)
        for a, b in zip(ii, jj):
            ra, rb = find(a + s), find(int(b))
            if ra != rb:
                parent[ra] = rb
    roots = np.array([find(i) for i in range(n)])
    return [np.flatnonzero(roots == r) for r in np.unique(roots)]


def reference_dedupe_best(pts, vals, radius):
    keep = {}
    for i in np.argsort(vals):
        keep[(round(pts[i].real / radius), round(pts[i].imag / radius))] = i
    idx = np.array(sorted(keep.values()), dtype=int)
    return pts[idx], vals[idx]


def same_beta(h_rows, g_rows, z0, seed):
    got = support._batch_beta(h_rows, g_rows, z0, np.random.default_rng(seed))
    want = reference_batch_beta(h_rows, g_rows, z0, np.random.default_rng(seed))
    return np.array_equal(got, want)


@pytest.fixture(scope="module")
def family_chunk():
    z0 = complex(INV_SQRT3 * np.exp(0.3j))
    h, g, labels = support._draw_sample_rows(FAMILY, z0, 512, 61,
                                             np.random.default_rng(7))
    assert set(labels) == {"aligned", "random_poly", "mobius", "mixture"}
    return h, g, np.array(labels), z0


@pytest.mark.parametrize("size", [1, 16, 77, 128, 512])
def test_batch_beta_matches_reference_across_strata(family_chunk, size):
    h, g, labels, z0 = family_chunk
    rng = np.random.default_rng(size)
    idx = np.sort(rng.choice(labels.size, size, replace=False))
    if size >= 16:
        # every stratum represented
        idx = np.union1d(idx, [np.flatnonzero(labels == name)[0] for name in
                               ("aligned", "random_poly", "mobius", "mixture")])[:size]
    assert same_beta(h[idx], g[idx], z0, size)


def test_batch_beta_identity_chunk_matches_reference():
    h, g, _ = support._draw_sample_rows(IDENTITY, 0j, 128, 61, np.random.default_rng(3))
    assert same_beta(h, g, 0j, 3)


def test_batch_beta_one_sided_rows():
    rng = np.random.default_rng(11)
    h = rng.standard_normal((24, 61)) + 1j * rng.standard_normal((24, 61))
    g = rng.standard_normal((24, 61)) + 1j * rng.standard_normal((24, 61))
    h[:, 0] = g[:, 0] = 0.0
    h[:8] = 0.0            # pure co-analytic rows
    g[8:16] = 0.0          # pure analytic rows
    h[16:, 5:] = 0.0       # low-degree h against a full-degree g
    g[20:, 1:] = 0.0       # constant-only g: a zero derivative side
    assert same_beta(h, g, 0.2 + 0.1j, 11)


def test_batch_beta_wide_mapping():
    rng = np.random.default_rng(12)
    f = HarmonicMapping(
        AnalyticSeries(np.r_[0.0, 0.02 * rng.standard_normal(79)]),
        AnalyticSeries(np.r_[0.0, 0.02j * rng.standard_normal(79)]))
    h, g, _ = support._draw_sample_rows(f, 0.1j, 96, 80, np.random.default_rng(12))
    assert h.shape[1] == 80
    assert same_beta(h, g, 0.1j, 12)


@pytest.mark.parametrize("f", [IDENTITY, CO_IDENTITY, FAMILY],
                         ids=["identity", "co-identity", "family"])
def test_certificate_unchanged_by_kernel(f, monkeypatch):
    fast = support_certificate(f, 128, 4)
    monkeypatch.setattr(support, "_batch_beta", reference_batch_beta)
    slow = support_certificate(f, 128, 4)
    assert fast.sample_max_other == slow.sample_max_other
    assert fast.z0 == slow.z0
    assert fast.strata == slow.strata


@pytest.mark.parametrize("chunk", [1, 63, 64, 65, 512])
@pytest.mark.parametrize("columns", [61, 100])
def test_serial_matvec_matches_threaded_product(chunk, columns):
    rng = np.random.default_rng(chunk * columns)
    rows = rng.standard_normal((chunk, columns)) + 1j * rng.standard_normal((chunk, columns))
    vec = rng.standard_normal(columns) + 1j * rng.standard_normal(columns)
    assert np.array_equal(support._serial_matvec(rows, vec), rows @ vec)


@pytest.mark.parametrize("columns", [61, 80, 100, 128])
def test_serial_matvec_every_chunk_size(columns):
    # a trailing one-row block would go through BLAS dot and round differently
    rng = np.random.default_rng(columns)
    vec = rng.standard_normal(columns) + 1j * rng.standard_normal(columns)
    for chunk in range(1, 300):
        rows = rng.standard_normal((chunk, columns)) + 1j * rng.standard_normal((chunk, columns))
        assert np.array_equal(support._serial_matvec(rows, vec), rows @ vec), chunk


def family_level_points():
    # the converged, deduplicated maxima lambda_set clusters for a family member
    values = mapping._mu_values(FAMILY)
    grid = polar_grid(64, 128)
    gv = values(grid)
    seeds = np.union1d(np.flatnonzero(np.abs(gv - 1.0) <= 0.02), np.argsort(gv)[::-1][:8])
    pts, vals = compass_maximize(lambda z, _w: values(z), grid[seeds],
                                 2.0 * np.pi / 128, step_tol=1e-10)
    keep = np.abs(vals - 1.0) <= 1e-6
    return pts[keep], vals[keep]


def as_partition(clusters):
    return {frozenset(int(i) for i in c) for c in clusters}


def test_dedupe_best_matches_dict_loop():
    pts, vals = family_level_points()
    assert pts.size > 500
    for radius in (1e-6, 1e-3, 0.05):
        got_p, got_v = mapping._dedupe_best(pts, vals, radius)
        want_p, want_v = reference_dedupe_best(pts, vals, radius)
        assert np.array_equal(got_p, want_p) and np.array_equal(got_v, want_v)


def test_dedupe_best_ties_and_half_cells():
    # equal values and points on cell borders: rounding is half-to-even
    pts = np.array([0.5, 1.5, 2.5, -0.5, -1.5, 0.5 + 0.5j, 0.4, 2.4, -0.4]) * 1e-6
    vals = np.array([1.0, 1.0, 2.0, 2.0, 1.0, 1.0, 1.0, 3.0, 2.0])
    got_p, got_v = mapping._dedupe_best(pts, vals, 1e-6)
    want_p, want_v = reference_dedupe_best(pts, vals, 1e-6)
    assert np.array_equal(got_p, want_p) and np.array_equal(got_v, want_v)


def test_single_linkage_family_level_set():
    pts, vals = family_level_points()
    pts, _ = mapping._dedupe_best(pts, vals, 1e-6)
    for radius in (0.005, 0.05):
        assert as_partition(mapping._single_linkage(pts, radius)) == \
            as_partition(reference_single_linkage(pts, radius))


def test_single_linkage_scattered_clusters():
    rng = np.random.default_rng(5)
    centers = 0.8 * (rng.uniform(-1, 1, 12) + 1j * rng.uniform(-1, 1, 12))
    pts = np.concatenate([c + 0.03 * (rng.standard_normal(60) + 1j * rng.standard_normal(60))
                          for c in centers])
    pts = pts[rng.permutation(pts.size)]
    got = mapping._single_linkage(pts, 0.05)
    assert as_partition(got) == as_partition(reference_single_linkage(pts, 0.05))
    assert all(np.all(np.diff(c) > 0) for c in got)


def test_single_linkage_small_inputs():
    assert mapping._single_linkage(np.zeros(0, dtype=complex), 0.05) == []
    assert as_partition(mapping._single_linkage(np.array([0.3j]), 0.05)) == {frozenset({0})}
    two = np.array([0.0, 0.05 + 0.0j])
    assert as_partition(mapping._single_linkage(two, 0.05)) == \
        as_partition(reference_single_linkage(two, 0.05)) == {frozenset({0, 1})}


def bits(z):
    # the bit patterns of both parts, so signed zeros and every last bit count
    return tuple(np.array([z.real, z.imag], dtype=np.float64).view(np.uint64))


def scalar_points(rng):
    edge = 1.0 - 1e-6
    return [0j, complex(-0.0, -0.0), complex(0.0, -0.0), 0.37 + 0j, -0.81 + 0j,
            0.52j, -0.93j, edge + 0j, -edge + 0j, edge * 1j,
            edge * np.exp(2.1j), edge * np.exp(-0.4j)] + [
        complex(r * np.exp(2j * np.pi * t))
        for r, t in zip(np.sqrt(rng.random(20)), rng.random(20))]


def scalar_coefficients(degree, rng):
    dense = rng.standard_normal(degree + 1) + 1j * rng.standard_normal(degree + 1)
    sparse = dense.copy()
    sparse[rng.random(degree + 1) < 0.5] = 0.0
    sparse[-1] = dense[-1]
    signed = sparse.copy()
    signed[::3] = complex(-0.0, 0.0)
    lead_zero = dense.copy()
    lead_zero[0] = 0.0
    return [dense, sparse, signed, lead_zero, np.zeros(degree + 1, dtype=complex)]


@pytest.mark.parametrize("degree", [0, 1, 2, 8, 60, 140])
def test_eval_series_matches_polyval_batch_bits(degree):
    rng = np.random.default_rng(100 + degree)
    points = scalar_points(rng)
    for c in scalar_coefficients(degree, rng):
        s = AnalyticSeries(c)
        for z in points:
            assert bits(eval_series(s, z)) == bits(complex(polyval_batch(s.coefficients, z))), (c, z)


@pytest.mark.parametrize("degree", [0, 1, 2, 8, 60, 140])
def test_mapping_call_matches_evaluate_many_bits(degree):
    rng = np.random.default_rng(200 + degree)
    points = scalar_points(rng)
    cs = scalar_coefficients(degree, rng)
    for ch, cg in zip(cs, cs[1:] + cs[:1]):
        cg = cg.copy()
        cg[0] = 0.0
        f = HarmonicMapping(AnalyticSeries(ch), AnalyticSeries(cg))
        for z in points:
            assert bits(f(z)) == bits(mapping._evaluate_many(f, np.array([z]))[0]), (z,)


def test_family_call_matches_evaluate_many_bits():
    rng = np.random.default_rng(300)
    for z in scalar_points(rng):
        assert bits(FAMILY(z)) == bits(mapping._evaluate_many(FAMILY, np.array([z]))[0])


# the per-caller copies the shared mu kernel replaced, kept as references

def reference_derivative_values(f):
    hp = differentiate(f.h).coefficients
    gp = differentiate(f.g).coefficients

    def values(z):
        z = np.asarray(z, dtype=complex)
        w = 1.0 - (z.real ** 2 + z.imag ** 2)
        return w * (np.abs(polyval_batch(hp, z)) + np.abs(polyval_batch(gp, z)))

    return values


def reference_modulus_values(f):
    hc = f.h.coefficients
    gc = f.g.coefficients

    def values(z):
        z = np.asarray(z, dtype=complex)
        w = 1.0 - (z.real ** 2 + z.imag ** 2)
        return w * (np.abs(polyval_batch(hc, z)) + np.abs(polyval_batch(gc, z)))

    return values


def reference_weighted_derivative(f, pts):
    hp = differentiate(f.h).coefficients
    gp = differentiate(f.g).coefficients
    w = 1.0 - (pts.real ** 2 + pts.imag ** 2)
    deriv = np.abs(polyval_batch(hp, pts)) + np.abs(polyval_batch(gp, pts))
    return deriv, w


def reference_sharpening_margins(f, pts, z0, n):
    deriv, w = reference_weighted_derivative(f, pts)
    mob = np.abs((pts - z0) / (1.0 - np.conj(z0) * pts))
    return 1.0 - (deriv + mob ** n) * w


def reference_series_derivative_at(s, z0):
    c = s.coefficients
    if c.size <= 1:
        return 0j
    d = c[1:] * np.arange(1, c.size)
    return complex(polyval_batch(d, np.array([z0]))[0])


def reference_inner_disk_gap(f, radius):
    grid = polar_grid(48, 96, r_max=radius)
    inv = 1.0 / (1.0 - np.abs(grid) ** 2)
    moduli = (np.abs(polyval_batch(f.h.coefficients, grid))
              + np.abs(polyval_batch(f.g.coefficients, grid)) + mapping._tail_allowance(f))
    return max(0.5 * float((inv - moduli).min()), 0.0)


def array_bits(a):
    return np.ascontiguousarray(a, dtype=np.float64).view(np.uint64)


def same_array_bits(a, b):
    return a.shape == b.shape and np.array_equal(array_bits(a), array_bits(b))


def kernel_mappings(degree, rng):
    # pairs of the scalar test coefficients, plus a declared tail on both parts
    cs = scalar_coefficients(degree, rng)
    out = []
    for ch, cg in zip(cs, cs[1:] + cs[:1]):
        cg = cg.copy()
        cg[0] = 0.0
        out.append(HarmonicMapping(AnalyticSeries(ch), AnalyticSeries(cg)))
    out.append(HarmonicMapping(AnalyticSeries(cs[0], 1e-3), AnalyticSeries(out[0].g.coefficients, 2e-3)))
    return out


def check_mu_kernel(f, pts):
    got = mapping._mu_values(f)(pts)
    assert same_array_bits(got, reference_derivative_values(f)(pts))
    deriv, w = reference_weighted_derivative(f, pts)
    # sharpening_exponent's neighbourhood test reads w * deriv where it read deriv * w
    assert same_array_bits(got, deriv * w)
    assert same_array_bits(mapping._abs_sum(differentiate(f.h).coefficients,
                                            differentiate(f.g).coefficients, pts), deriv)
    assert same_array_bits(mapping._disk_weight(pts), w)
    modulus = mapping._weighted_abs_sum(f.h.coefficients, f.g.coefficients)
    assert same_array_bits(modulus(pts), reference_modulus_values(f)(pts))
    for z in pts:
        assert bits(complex(mapping.mu(f, z))) == bits(complex(reference_derivative_values(f)(np.array([z]))[0]))
        for s in (f.h, f.g):
            assert bits(eval_series(differentiate(s), z)) == bits(reference_series_derivative_at(s, z))
    for n in (1, 2, 5):
        for z0 in (0j, pts[3], pts[-1]):
            assert same_array_bits(extremal._sharpening_margins(f, pts, z0, n),
                                   reference_sharpening_margins(f, pts, z0, n))


@pytest.mark.parametrize("degree", [0, 1, 2, 8, 60, 140])
def test_mu_kernel_matches_per_caller_copies(degree):
    rng = np.random.default_rng(400 + degree)
    pts = np.array(scalar_points(rng))
    for f in kernel_mappings(degree, rng):
        check_mu_kernel(f, pts)


def test_mu_kernel_matches_on_family_member():
    rng = np.random.default_rng(500)
    pts = np.array(scalar_points(rng))
    check_mu_kernel(FAMILY, pts)
    check_mu_kernel(FAMILY, polar_grid(64, 128))


def test_sharpening_margins_on_punctured_samples():
    z0 = INV_SQRT3 * np.exp(0.4j)
    for f, center in ((IDENTITY, 0j), (FAMILY, z0)):
        pts = extremal._punctured_samples(center, 0.3, 48, 96)
        for n in range(1, 9):
            assert same_array_bits(extremal._sharpening_margins(f, pts, center, n),
                                   reference_sharpening_margins(f, pts, center, n))


@pytest.mark.parametrize("degree", [0, 1, 2, 8, 60, 140])
def test_inner_disk_gap_matches_inline_form(degree):
    rng = np.random.default_rng(600 + degree)
    for f in kernel_mappings(degree, rng) + [IDENTITY, FAMILY]:
        # near the modulus ball's boundary, so the gap is smallest off the origin
        peak = reference_modulus_values(f)(polar_grid(48, 96)).max()
        c = 0.9 / peak if peak > 0 else 1.0
        f = HarmonicMapping(AnalyticSeries(c * f.h.coefficients, f.h.tail_bound),
                            AnalyticSeries(c * f.g.coefficients, f.g.tail_bound))
        for radius in (0.3, 0.9, 1.0 - 1e-9):
            got = support._inner_disk_gap(f, radius)
            want = reference_inner_disk_gap(f, radius)
            assert bits(complex(got)) == bits(complex(want)), (radius,)


# the CLI's per-float CSV renderer, kept as the reference for the row-wise one

def reference_render_csv(payload):
    lines = [",".join(payload["header"])]
    for row in payload["rows"]:
        lines.append(",".join(format(float(x), ".17g") for x in row))
    return "\n".join(lines)


def csv_payload(rows):
    return {"header": ["re", "im", "mu"], "rows": rows}


def test_csv_renderer_matches_per_float_form_on_mu_grids():
    rng = np.random.default_rng(700)
    poly60 = HarmonicMapping(
        AnalyticSeries(0.02 * (rng.standard_normal(61) + 1j * rng.standard_normal(61))),
        AnalyticSeries(np.r_[0.0, 0.02 * (rng.standard_normal(60) + 1j * rng.standard_normal(60))]))
    for f in (poly60, FAMILY, IDENTITY):
        for r, t in ((64, 128), (5, 7)):
            payload = csv_payload(mapping.mu_grid_rows(f, r, t))
            assert cli._render_csv(payload) == reference_render_csv(payload)


def test_csv_renderer_matches_per_float_form_on_edge_values():
    edge = [-0.0, 0.0, 5e-324, -5e-324, 1.7976931348623157e308, -1.7976931348623157e308,
            0.1, float(2 ** 53 + 1), float("nan"), float("inf"), float("-inf"), 1.0, 1e16, 1e-5]
    rows = np.array([edge[i:i + 3] for i in range(len(edge) - 2)])
    rendered = cli._render_csv(csv_payload(rows))
    assert rendered == reference_render_csv(csv_payload(rows))
    assert "-0,0,4.9406564584124654e-324" in rendered
    assert "nan,inf,-inf" in rendered
    assert cli._render_csv(csv_payload(np.zeros((0, 3)))) == "re,im,mu"


def test_cli_sharpen_runs_one_dense_check(monkeypatch, capsys, tmp_path):
    calls = []
    dense = extremal.verify_sharpening

    def counting(f, result, *args, **kwargs):
        calls.append(result)
        return dense(f, result, *args, **kwargs)

    # also where the CLI would hold its own reference to the check
    monkeypatch.setattr(extremal, "verify_sharpening", counting)
    monkeypatch.setattr(cli, "verify_sharpening", counting, raising=False)
    path = str(tmp_path / "id.json")
    save_mapping(IDENTITY, path)
    assert cli.main(["sharpen", "--mapping", path, "--z0", "0", "--delta0", "0.9"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["status"] == "FOUND"
    assert len(calls) == 1
    witness = extremal.SharpeningResult(payload["n"], payload["delta"], payload["worst_margin"],
                                        complex(*payload["center"]))
    fresh = dense(IDENTITY, witness)
    assert fresh > 0.0
    assert bits(complex(payload["verified_margin"])) == bits(complex(fresh))


def test_sharpening_result_carries_the_dense_margin():
    for f, delta0 in ((IDENTITY, 0.9), (IDENTITY, 0.3), (CO_IDENTITY, 0.6)):
        res = extremal.sharpening_exponent(f, 0j, delta0)
        assert res.verified_margin > extremal.MARGIN_FLOOR
        assert bits(complex(res.verified_margin)) == bits(complex(extremal.verify_sharpening(f, res)))
        assert res.to_dict()["verified_margin"] == res.verified_margin
    assert np.isnan(extremal.SharpeningResult(2, 0.5, 0.1, 0j).verified_margin)


def test_cached_parser_carries_no_state(monkeypatch, capsys):
    assert cli._build_parser() is cli._build_parser()
    grids = []
    beta = cli.estimate_bloch_constant

    def recording(f, **kwargs):
        grids.append(kwargs)
        return beta(f, **kwargs)

    monkeypatch.setattr(cli, "estimate_bloch_constant", recording)
    assert cli.main(["mu-grid", "--family-a", "1.0", "--grid", "4x8"]) == 0
    assert cli.main(["beta", "--family-a", "1.0", "--grid", "4x8"]) == 0
    assert cli.main(["beta", "--family-a", "1.0"]) == 0
    assert grids == [{"n_radii": 4, "n_angles": 8}, {}]
    capsys.readouterr()
    assert cli.main(["certify-support", "--family-a", "1.0", "--samples", "3"]) == 0
    capsys.readouterr()
    assert cli.main(["bonk", "--m", "1"]) == 0
    assert json.loads(capsys.readouterr().out)["verification_samples"] == 100000


def reference_punctured_samples(z0, delta, n_radii, n_angles, angle_offset=0.0):
    # always applies the boundary mask
    radii = np.geomspace(delta * 1e-2, delta * (1.0 - 1e-9), n_radii)
    angles = 2.0 * np.pi * np.arange(n_angles) / n_angles + angle_offset
    pts = (z0 + radii[:, None] * np.exp(1j * angles)[None, :]).ravel()
    return pts[np.abs(pts) <= 1.0 - 1e-9]


@pytest.mark.parametrize("z0,delta,kept_all", [
    (0j, 0.9, True),
    (0.3 + 0.2j, 0.5, True),
    (0.5, 0.5 - 3e-9, True),          # just inside the skip threshold
    (0.5, 0.5 - 1e-9, True),          # just outside it: masked, nothing dropped
    (0.5, 0.5 - 1e-10, False),        # outside it: the mask drops points
    (0.9, 0.2, False),
    (0.7j, 0.5, False),
    (-0.99, 0.05, False),
])
def test_punctured_samples_skip_mask_only_when_nothing_drops(z0, delta, kept_all):
    for n_radii, n_angles, offset in ((48, 96, 0.0), (1000, 1000, np.pi / 2000.0)):
        got = extremal._punctured_samples(z0, delta, n_radii, n_angles, offset)
        want = reference_punctured_samples(z0, delta, n_radii, n_angles, offset)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
    # whether the boundary mask drops points of the coarse grid
    assert (extremal._punctured_samples(z0, delta, 48, 96).size == 48 * 96) is kept_all


def test_punctured_samples_reject_non_finite_radius():
    with pytest.raises(ValueError, match="open disk"):
        extremal._punctured_samples(0j, float("nan"), 4, 8)
