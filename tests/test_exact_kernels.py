"""The certificate and level-set kernels against their plain reference forms.

The vectorized kernels must return the same bits as the loops they replaced,
the shared ``mu`` kernel the same bits as the per-caller copies it replaced,
the two-iterations-per-call compass search the same walks as the one
iteration per call it replaced, the scalar Horner of ``eval_series`` the
same bits as ``polyval_batch``, the bound-pruned certificate sampler the
same chunk maximum as the full sweep over every row, and the blocked dense
checks of ``verify_sharpening`` and ``verify_bonk_constants`` the same minima
as the whole-array checks they replaced: the pinned benchmark records compare
``sample_max_other`` exactly, so these tests use exact equality, never a
tolerance.
"""

import json
import tracemalloc
from decimal import Decimal

import numpy as np
import pytest

from blochmap import (
    AnalyticSeries,
    HarmonicMapping,
    MobiusAutomorphism,
    counterexample_family,
    eval_series,
    polyval_batch,
    precompose,
    save_mapping,
    support_certificate,
)
from blochmap import cli, differentiate, disk, extremal, mapping, optimize, support
from blochmap.optimize import DISK_RADIUS_CAP, compass_maximize, polar_grid

IDENTITY = HarmonicMapping(AnalyticSeries([0.0, 1.0]), AnalyticSeries([0.0]))
CO_IDENTITY = HarmonicMapping(AnalyticSeries([0.0]), AnalyticSeries([0.0, 1.0]))
FAMILY = counterexample_family(0.75)
INV_SQRT3 = 0.5773502691896258


def reference_compass_maximize(evaluate, starts, initial_step, *, step_tol=1e-10,
                               r_max=DISK_RADIUS_CAP, max_iter=3000, walkers=None):
    # one iteration per objective call over the uncompacted walkers
    z = np.array(starts, dtype=complex)
    walkers = None if walkers is None else np.asarray(walkers)
    v = evaluate(z, walkers)
    step = np.broadcast_to(np.asarray(initial_step, dtype=float), z.shape).copy()
    offsets = np.array([1.0, -1.0, 1j, -1j])
    for _ in range(max_iter):
        act = np.flatnonzero(step > step_tol)
        if act.size == 0:
            break
        zc = z[act][None, :] + offsets[:, None] * step[act][None, :]
        wk = None if walkers is None else np.tile(walkers[act], offsets.size)
        vc = evaluate(zc.ravel(), wk).reshape(offsets.size, act.size)
        vc[np.abs(zc) > r_max] = -np.inf
        pick = vc.argmax(axis=0)
        cols = np.arange(act.size)
        best = vc[pick, cols]
        improved = best > v[act]
        moved = act[improved]
        z[moved] = zc[pick[improved], cols[improved]]
        v[moved] = best[improved]
        step[act[~improved]] *= 0.5
    return z, v


def reference_batch_beta(h_rows, g_rows, z0, rng, step_tol=1e-9, max_iter=400):
    # every row's full compass sweep, with a full-width per-term Horner and a
    # BLAS grid pass; max_iter=0 returns the best start value of each row
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
    _, vals = reference_compass_maximize(mu_rows, starts, 0.1, step_tol=step_tol,
                                         max_iter=max_iter, walkers=walkers)
    return vals.reshape(3, n).max(axis=0)


def reference_ratio_max(h_rows, g_rows, z0, rng, lvals, n_aligned):
    # the unpruned chunk maximum: every row's beta, then every ratio
    return float((lvals / reference_batch_beta(h_rows, g_rows, z0, rng)).max())


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


def certificate_lvals(f, h_rows, g_rows, z0):
    # |L(q)| of each row for the functional support_certificate aligns at z0
    hp0 = eval_series(differentiate(f.h), z0)
    gp0 = eval_series(differentiate(f.g), z0)
    theta0 = np.angle(hp0) + np.angle(gp0) if gp0 != 0 else 0.0
    weight = np.conj(hp0) + np.exp(-1j * theta0) * gp0
    k = np.arange(1, h_rows.shape[1])
    dvec = np.r_[0.0, k * complex(z0) ** (k - 1)]
    matvec = support._serial_matvec
    return np.abs(weight * (matvec(h_rows, dvec) + np.exp(1j * theta0) * np.conj(matvec(g_rows, dvec))))


def same_ratio_max(h_rows, g_rows, z0, seed, lvals, n_aligned):
    # the same maximum, and the same draws: later chunks read the stream on
    rng_got, rng_want = np.random.default_rng(seed), np.random.default_rng(seed)
    got = support._batch_ratio_max(h_rows, g_rows, z0, rng_got, lvals, n_aligned)
    want = reference_ratio_max(h_rows, g_rows, z0, rng_want, lvals, n_aligned)
    return (np.array_equal(got, want, equal_nan=True)
            and rng_got.bit_generator.state == rng_want.bit_generator.state)


@pytest.fixture(scope="module")
def family_chunk():
    z0 = complex(INV_SQRT3 * np.exp(0.3j))
    h, g, sizes = support._draw_sample_rows(FAMILY, z0, 512, 61, np.random.default_rng(7))
    assert list(sizes) == ["aligned", "random_poly", "mobius", "mixture"]
    return h, g, np.repeat(list(sizes), list(sizes.values())), z0


# 3 * size walkers: 63 and 66 sit on both sides of the lookahead switch
@pytest.mark.parametrize("size", [1, 16, 21, 22, 77, 128, 512])
def test_batch_beta_matches_reference_across_strata(family_chunk, size):
    h, g, labels, z0 = family_chunk
    rng = np.random.default_rng(size)
    idx = np.sort(rng.choice(labels.size, size, replace=False))
    if size >= 16:
        # every stratum represented
        idx = np.union1d(idx, [np.flatnonzero(labels == name)[0] for name in
                               ("aligned", "random_poly", "mobius", "mixture")])[:size]
    h, g, labels = h[idx], g[idx], labels[idx]
    n_aligned = int(np.count_nonzero(labels == "aligned"))
    lvals = certificate_lvals(FAMILY, h, g, z0)
    assert same_ratio_max(h, g, z0, size, lvals, n_aligned)
    # other rows setting the maximum, and no aligned rows to cut with
    boosted = lvals * rng.uniform(0.5, 3.0, size)
    assert same_ratio_max(h, g, z0, size, boosted, n_aligned)
    assert same_ratio_max(h, g, z0, size, boosted, 0)


def test_batch_beta_identity_chunk_matches_reference():
    h, g, _ = support._draw_sample_rows(IDENTITY, 0j, 128, 61, np.random.default_rng(3))
    assert same_ratio_max(h, g, 0j, 3, certificate_lvals(IDENTITY, h, g, 0j), 16)


@pytest.mark.parametrize("f,z0", [(IDENTITY, 0j), (CO_IDENTITY, 0j),
                                  (FAMILY, complex(INV_SQRT3 * np.exp(2.1j)))],
                         ids=["identity", "co-identity", "family"])
@pytest.mark.parametrize("size", [1, 16, 22, 128, 512])
def test_ratio_max_full_chunks_match_reference(f, z0, size):
    h, g, sizes = support._draw_sample_rows(f, z0, size, 61, np.random.default_rng(size))
    lvals = certificate_lvals(f, h, g, z0)
    assert same_ratio_max(h, g, z0, 3, lvals, sizes["aligned"])


def test_batch_beta_one_sided_rows():
    rng = np.random.default_rng(11)
    h = rng.standard_normal((24, 61)) + 1j * rng.standard_normal((24, 61))
    g = rng.standard_normal((24, 61)) + 1j * rng.standard_normal((24, 61))
    h[:, 0] = g[:, 0] = 0.0
    h[:8] = 0.0            # pure co-analytic rows
    g[8:16] = 0.0          # pure analytic rows
    h[16:, 5:] = 0.0       # low-degree h against a full-degree g
    g[20:, 1:] = 0.0       # constant-only g: a zero derivative side
    lvals = rng.uniform(0.0, 3.0, 24)
    for n_aligned in (0, 1, 4, 24):
        assert same_ratio_max(h, g, 0.2 + 0.1j, 11, lvals, n_aligned)


def test_batch_beta_wide_mapping():
    rng = np.random.default_rng(12)
    f = HarmonicMapping(
        AnalyticSeries(np.r_[0.0, 0.02 * rng.standard_normal(79)]),
        AnalyticSeries(np.r_[0.0, 0.02j * rng.standard_normal(79)]))
    h, g, sizes = support._draw_sample_rows(f, 0.1j, 96, 80, np.random.default_rng(12))
    assert h.shape[1] == 80
    lvals = certificate_lvals(f, h, g, 0.1j)
    assert same_ratio_max(h, g, 0.1j, 12, lvals, sizes["aligned"])


# (count, stratum sizes in row order): empty strata are left out
STRATA = [(1, {"aligned": 1}), (16, {"aligned": 16}), (17, {"aligned": 16, "mixture": 1}),
          (18, {"aligned": 16, "mobius": 1, "mixture": 1}),
          (22, {"aligned": 16, "random_poly": 2, "mobius": 2, "mixture": 2}),
          (512, {"aligned": 16, "random_poly": 198, "mobius": 149, "mixture": 149})]


@pytest.mark.parametrize("count, want", STRATA, ids=[str(c) for c, _ in STRATA])
def test_sample_rows_report_stratum_sizes(count, want):
    h, g, sizes = support._draw_sample_rows(FAMILY, 0.3j, count, 61, np.random.default_rng(count))
    assert list(sizes.items()) == list(want.items())
    assert h.shape == g.shape == (count, 61)


def reference_automorphism_series(c, order, rotation=0.0):
    # the per-automorphism builder: abs(complex), and the rotation factor
    # applied even at rotation 0, where it turns some -0.0 into 0.0
    coeffs = np.empty(order + 1, dtype=complex)
    coeffs[0] = -c
    coeffs[1:] = np.conj(c) ** np.arange(order) * (1.0 - abs(c) ** 2)
    return coeffs * np.exp(1j * rotation)


def reference_mobius_row(w, columns):
    # (z - w)/(1 - conj(w) z) minus its value at 0, cut after degree
    # MOBIUS_SAMPLE_DEGREE
    row = np.zeros(columns, dtype=complex)
    top = min(columns - 1, support.MOBIUS_SAMPLE_DEGREE)
    row[1:top + 1] = reference_automorphism_series(w, top)[1:]
    return row


def reference_draw_sample_rows(f, z0, count, columns, rng):
    # the row-by-row draw, one generator call per rotation and per side choice
    h_rows = np.zeros((count, columns), dtype=complex)
    g_rows = np.zeros((count, columns), dtype=complex)
    fh = np.zeros(columns, dtype=complex)
    fg = np.zeros(columns, dtype=complex)
    fh[: f.h.coefficients.size] = f.h.coefficients
    fg[: f.g.coefficients.size] = f.g.coefficients
    n_aligned = min(16, count)
    n_poly = (count - n_aligned) * 2 // 5
    n_mob = (count - n_aligned - n_poly) // 2
    n_mix = count - n_aligned - n_poly - n_mob
    for j in range(n_aligned):
        if j % 4 == 0:
            h_rows[j], g_rows[j] = fh, fg
        elif j % 4 == 1:
            rot = np.exp(2j * np.pi * rng.uniform())
            h_rows[j], g_rows[j] = rot * fh, np.conj(rot) * fg
        elif j % 4 == 2:
            h_rows[j] = reference_mobius_row(z0, columns)
        else:
            g_rows[j] = reference_mobius_row(z0, columns)
    i = n_aligned

    def gaussian_rows(m, degree):
        rows = rng.standard_normal((m, degree + 1)) + 1j * rng.standard_normal((m, degree + 1))
        rows[:, 0] = 0.0
        return rows

    hp, gp = gaussian_rows(n_poly, 8), gaussian_rows(n_poly, 8)
    drop = rng.uniform(size=n_poly)
    hp[drop < 0.2] = 0.0
    gp[(drop >= 0.2) & (drop < 0.4)] = 0.0
    h_rows[i: i + n_poly, :9], g_rows[i: i + n_poly, :9] = hp, gp
    i += n_poly
    radii = rng.uniform(0.0, 0.85, n_mob)
    angles = np.exp(2j * np.pi * rng.uniform(0.0, 1.0, n_mob))
    for j in range(n_mob):
        row = reference_mobius_row(complex(radii[j] * angles[j]), columns)
        if rng.uniform() < 0.5:
            h_rows[i + j] = row
        else:
            g_rows[i + j] = row
    i += n_mob
    t = rng.uniform(0.05, 0.95, n_mix)[:, None]
    hp, gp = gaussian_rows(n_mix, 8), gaussian_rows(n_mix, 8)
    h_rows[i:] = t * fh[None, :]
    g_rows[i:] = t * fg[None, :]
    h_rows[i:, :9] += (1.0 - t) * hp
    g_rows[i:, :9] += (1.0 - t) * gp
    sizes = {"aligned": n_aligned, "random_poly": n_poly, "mobius": n_mob, "mixture": n_mix}
    return h_rows, g_rows, {name: size for name, size in sizes.items() if size}


SAMPLED = {"identity": lambda: IDENTITY, "co-identity": lambda: CO_IDENTITY,
           "f0.3": lambda: counterexample_family(0.3), "f0.75": lambda: FAMILY,
           "f1": lambda: counterexample_family(1.0),
           **{f"ball{d}": (lambda d=d: support.sample_unit_ball(d, d)) for d in (5, 30, 60)}}


@pytest.mark.parametrize("name", list(SAMPLED))
def test_sample_rows_match_the_row_loop(name):
    # rows, strata and the generator state after the draw, bit for bit
    f = SAMPLED[name]()
    for count in (1, 3, 5, 16, 17, 22, 64, 128, 512):
        for columns, z0 in ((61, 0j), (61, complex(0.6 * np.exp(1j * count))), (80, -0.45 + 0j)):
            rng_got, rng_want = np.random.default_rng(count), np.random.default_rng(count)
            h, g, sizes = support._draw_sample_rows(f, z0, count, columns, rng_got)
            h_ref, g_ref, sizes_ref = reference_draw_sample_rows(f, z0, count, columns, rng_want)
            assert same_raw_bits(h, h_ref) and same_raw_bits(g, g_ref)
            assert list(sizes.items()) == list(sizes_ref.items())
            assert rng_got.bit_generator.state == rng_want.bit_generator.state


@pytest.mark.parametrize("rotation", [0.0, 1.1])
def test_automorphism_series_rows_match_single_centres(rotation):
    rng = np.random.default_rng(29)
    centers = 0.99 * np.sqrt(rng.uniform(size=64)) * np.exp(2j * np.pi * rng.uniform(size=64))
    centers[:6] = [0j, complex(-0.0, -0.0), complex(0.5, -0.0), complex(-0.0, 0.3), -0.5, 0.5j]
    rows = disk._automorphism_series(centers, 60, rotation)
    assert rows.shape == (64, 61)
    for c, row in zip(centers, rows):
        want = reference_automorphism_series(complex(c), 60, rotation)
        assert same_raw_bits(row, want)
        assert same_raw_bits(disk._automorphism_series(complex(c), 60, rotation), want)


def test_ratio_max_keeps_nan_bounds(family_chunk):
    # a NaN functional value bounds its row by NaN, which must never be
    # skipped: the unpruned maximum reads NaN, so the pruned one must too
    h, g, labels, z0 = family_chunk
    lvals = certificate_lvals(FAMILY, h, g, z0)
    for row in (16, 300, 511):
        nan_row = lvals.copy()
        nan_row[row] = np.nan
        got = support._batch_ratio_max(h, g, z0, np.random.default_rng(2), nan_row, 16)
        assert np.isnan(got)
    # an all-zero row: both its start values and its L vanish, 0/0 is NaN
    h0, g0 = h[:40].copy(), g[:40].copy()
    h0[30] = g0[30] = 0.0
    zero = certificate_lvals(FAMILY, h0, g0, z0)
    with np.errstate(invalid="ignore"):
        assert same_ratio_max(h0, g0, z0, 2, zero, 16)
        assert np.isnan(support._batch_ratio_max(h0, g0, z0, np.random.default_rng(2), zero, 16))


@pytest.mark.parametrize("boost", [1.0, 1.2])
def test_ratio_max_runs_compass_only_on_surviving_rows(family_chunk, monkeypatch, boost):
    h, g, labels, z0 = family_chunk
    lvals = certificate_lvals(FAMILY, h, g, z0)
    # boosted rows beat the cut now and then, so some of them survive
    lvals[16:] *= boost
    # the bound each row's best start value gives, and the aligned rows' cut
    start = reference_batch_beta(h, g, z0, np.random.default_rng(5), max_iter=0)
    betas = reference_batch_beta(h, g, z0, np.random.default_rng(5))
    cut = (lvals[:16] / betas[:16]).max()
    surviving = int(np.count_nonzero(~(lvals[16:] / start[16:] <= cut)))
    walkers = []

    def counting(evaluate, starts, *args, **kwargs):
        walkers.append(len(starts))
        return compass_maximize(evaluate, starts, *args, **kwargs)

    monkeypatch.setattr(support, "compass_maximize", counting)
    got = support._batch_ratio_max(h, g, z0, np.random.default_rng(5), lvals, 16)
    assert got == (lvals / betas).max()
    # the aligned rows hold four copies each of f, its Mobius identity row and
    # its co-identity row: equal rows share their z0 and grid walks
    distinct = len({(h[i].tobytes(), g[i].tobytes()) for i in range(16)})
    assert walkers[0] == 2 * distinct + 16 == 30
    assert sum(walkers) <= 3 * (16 + surviving)
    assert surviving < (512 - 16) // 4
    assert (surviving > 0) == (boost > 1.0)


def test_einsum_grid_pass_on_row_subsets_matches_whole_chunk(family_chunk):
    # the grid pass runs only on the rows left after the first bound; its
    # rows must be the rows of the whole-chunk pass, bit for bit
    h, _, _, _ = family_chunk
    grid = polar_grid(12, 24)
    rng = np.random.default_rng(21)
    for columns in (61, 80):
        d = np.zeros((h.shape[0], columns - 1), dtype=complex)
        d[:, :60] = h[:, 1:] * np.arange(1, 61)
        d[:, 60:] = rng.standard_normal((h.shape[0], columns - 61))
        vander = grid[:, None] ** np.arange(columns - 1)[None, :]
        whole = np.einsum("nk,gk->ng", d, vander)
        for size in (0, 1, 2, 17, 255, 511, 512):
            rows = np.sort(rng.choice(h.shape[0], size, replace=False))
            assert np.array_equal(np.einsum("nk,gk->ng", d[rows], vander), whole[rows])


@pytest.mark.parametrize("f", [IDENTITY, CO_IDENTITY, FAMILY],
                         ids=["identity", "co-identity", "family"])
def test_certificate_unchanged_by_kernel(f, monkeypatch):
    fast = support_certificate(f, 128, 4)
    monkeypatch.setattr(support, "_batch_ratio_max", reference_ratio_max)
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


def reference_mobius_factor(pts, z0):
    # |pts - z0| / |1 - conj(z0) pts|, with
    # |1 - conj(z0) pts|^2 = |pts - z0|^2 + (1 - |pts|^2)(1 - |z0|^2)
    d = np.abs(pts - z0)
    w = 1.0 - (pts.real ** 2 + pts.imag ** 2)
    w0 = 1.0 - (z0.real ** 2 + z0.imag ** 2)
    return d / (d * d + w0 * w) ** 0.5


def reference_sharpening_margins(f, pts, z0, n):
    # 1 - mu - |m|^n w, with mu read as the mu kernel forms it
    deriv, w = reference_weighted_derivative(f, pts)
    return 1.0 - w * deriv - reference_mobius_factor(pts, z0) ** n * w


def summed_sharpening_margins(f, pts, z0, n):
    # the margins' former form, the weight multiplying the whole sum
    deriv, w = reference_weighted_derivative(f, pts)
    return 1.0 - (deriv + reference_mobius_factor(pts, z0) ** n) * w


def reference_series_derivative_at(s, z0):
    c = s.coefficients
    if c.size <= 1:
        return 0j
    d = c[1:] * np.arange(1, c.size)
    return complex(polyval_batch(d, np.array([z0]))[0])


def reference_inner_disk_gap(f, radius):
    grid = polar_grid(48, 96, r_max=radius)
    inv = 1.0 / (1.0 - (grid.real ** 2 + grid.imag ** 2))
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
    assert same_array_bits(got, deriv * w)
    assert same_array_bits(mapping._abs_sum(differentiate(f.h).coefficients,
                                            differentiate(f.g).coefficients, pts), deriv)
    assert same_array_bits(disk._disk_weight(pts), w)
    modulus = mapping._weighted_abs_sum(f.h.coefficients, f.g.coefficients)
    assert same_array_bits(modulus(pts), reference_modulus_values(f)(pts))
    for z in pts:
        assert bits(complex(mapping.mu(f, z))) == bits(complex(reference_derivative_values(f)(np.array([z]))[0]))
        for s in (f.h, f.g):
            assert bits(eval_series(differentiate(s), z)) == bits(reference_series_derivative_at(s, z))
    for n in (1, 2, 5):
        for z0 in (0j, pts[3], pts[-1]):
            assert same_array_bits(extremal._sharpening_margins(got, pts, z0, n),
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


PUNCTURED = [(IDENTITY, 0j), (FAMILY, INV_SQRT3 * np.exp(0.4j))]


def test_sharpening_margins_on_punctured_samples():
    for f, center in PUNCTURED:
        pts = extremal._punctured_samples(center, 0.3, 48, 96)
        mu_vals = mapping._mu_values(f)(pts)
        for n in range(1, 9):
            assert same_array_bits(extremal._sharpening_margins(mu_vals, pts, center, n),
                                   reference_sharpening_margins(f, pts, center, n))


def assert_near_summed_margins(f, pts, z0, n):
    # within 4 ulps of the larger of one and the summed terms, which is 4
    # ulps of one wherever (|h'| + |g'| + |m|^n) w <= 1
    got = extremal._sharpening_margins(mapping._mu_values(f)(pts), pts, z0, n)
    deriv, w = reference_weighted_derivative(f, pts)
    terms = (deriv + reference_mobius_factor(pts, z0) ** n) * w
    gap = np.abs(got - summed_sharpening_margins(f, pts, z0, n))
    assert (gap <= 4.0 * np.spacing(np.maximum(terms, 1.0))).all()


@pytest.mark.parametrize("degree", [0, 1, 2, 8, 60, 140])
def test_sharpening_margins_near_the_summed_form_on_kernel_mappings(degree):
    rng = np.random.default_rng(400 + degree)
    pts = np.array(scalar_points(rng))
    for f in kernel_mappings(degree, rng):
        for n in (1, 2, 5, 8):
            for z0 in (0j, pts[3], pts[-1]):
                assert_near_summed_margins(f, pts, z0, n)


def test_sharpening_margins_near_the_summed_form_on_punctured_samples():
    for f, center in PUNCTURED:
        for delta in (0.3, 0.05):
            pts = extremal._punctured_samples(center, delta, 48, 96)
            for n in range(1, 9):
                assert_near_summed_margins(f, pts, center, n)


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


# the CLI's per-float CSV renderer, kept as the reference for the numpy one

def reference_render_csv(rows):
    lines = ["re,im,mu"]
    for row in rows:
        lines.append(",".join(format(float(x), ".17g") for x in row))
    return "\n".join(lines)


def test_csv_renderer_matches_per_float_form_on_mu_grids():
    rng = np.random.default_rng(700)
    poly60 = HarmonicMapping(
        AnalyticSeries(0.02 * (rng.standard_normal(61) + 1j * rng.standard_normal(61))),
        AnalyticSeries(np.r_[0.0, 0.02 * (rng.standard_normal(60) + 1j * rng.standard_normal(60))]))
    for f in (poly60, FAMILY, IDENTITY):
        # a grid has 1 + r*t rows: around the renderer's 4096-row blocks
        for r, t in ((64, 128), (5, 7), (1, 4094), (1, 4095), (1, 4096)):
            rows = mapping.mu_grid_rows(f, r, t)
            assert cli._render_csv(rows) == reference_render_csv(rows)


def test_csv_renderer_matches_per_float_form_on_edge_values():
    edge = [-0.0, 0.0, 5e-324, -5e-324, 1.7976931348623157e308, -1.7976931348623157e308,
            0.1, float(2 ** 53 + 1), float("nan"), float("inf"), float("-inf"), 1.0, 1e16, 1e-5]
    rows = np.array([edge[i:i + 3] for i in range(len(edge) - 2)])
    rendered = cli._render_csv(rows)
    assert rendered == reference_render_csv(rows)
    assert "-0,0,4.9406564584124654e-324" in rendered
    assert "nan,inf,-inf" in rendered
    assert cli._render_csv(np.zeros((0, 3))) == "re,im,mu"


def seventeen_digit_ties(rng, n):
    # q / 2**j with q odd has j fractional digits ending in 5; with 18 - j
    # integer digits its 18th significant digit is that last 5, an exact tie
    ties = []
    for j in range(2, 16):
        lo, hi = 10 ** (17 - j) * 2 ** j, min(10 ** (18 - j), 2 ** (53 - j)) * 2 ** j
        if lo < hi:
            ties.append((rng.integers(lo, hi, n) | 1) / 2.0 ** j)
    ties = np.concatenate(ties)
    for x in ties[::len(ties) // 100]:
        digits = str(Decimal(float(x))).replace(".", "").lstrip("0")
        assert len(digits) == 18 and digits[-1] == "5"
    return ties


def test_csv_renderer_matches_per_float_form_on_the_fast_path():
    # the numpy path writes 1e-4 <= |x| < 1e16; the values around it fall back
    rng = np.random.default_rng(710)
    n = 20000
    powers = 10.0 ** np.arange(-4, 17)
    edges = np.concatenate([np.nextafter(powers, 0), powers, np.nextafter(powers, np.inf),
                            [np.nextafter(1.0, 0), 1447495411393100.0]])
    drawn = np.concatenate([
        10.0 ** rng.uniform(-6, 17, n),
        rng.integers(np.float64(1e-6).view(np.int64), np.float64(1e17).view(np.int64),
                     n).view(np.float64),
        np.round(10.0 ** rng.uniform(0, 10, n)) * 10.0 ** rng.integers(0, 7, n),
        rng.integers(1, 10 ** 6, n) / 10.0 ** rng.integers(0, 9, n),
        seventeen_digit_ties(rng, 2000),
    ])
    drawn *= rng.choice([-1.0, 1.0], len(drawn))
    values = np.concatenate([edges, -edges, [-0.0], drawn])
    assert len(values) >= 10 ** 5
    rows = values[:len(values) // 3 * 3].reshape(-1, 3)
    assert cli._render_csv(rows) == reference_render_csv(rows)


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
    rows = cli.mu_grid_rows

    def recording(f, **kwargs):
        grids.append(kwargs)
        return rows(f, **kwargs)

    monkeypatch.setattr(cli, "mu_grid_rows", recording)
    assert cli.main(["mu-grid", "--family-a", "1.0", "--grid", "4x8"]) == 0
    assert cli.main(["mu-grid", "--family-a", "1.0"]) == 0
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


# the compass search one iteration per call, today's distance-block linkage,
# the diameter test without its lower bound, the copying Horner fill and the
# polar grid built inline, kept as references

def raw_bits(a):
    # both parts of a complex array, so signed zeros and every last bit count
    return np.ascontiguousarray(a).view(np.uint64)


def same_raw_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and np.array_equal(raw_bits(a), raw_bits(b))


def counted(values):
    calls = []

    def evaluate(z, walkers):
        calls.append(z.size)
        return values(z)

    return evaluate, calls


def check_same_walk(values, starts, initial_step, **kwargs):
    got_ev, got_calls = counted(values)
    want_ev, want_calls = counted(values)
    got = compass_maximize(got_ev, starts, initial_step, **kwargs)
    want = reference_compass_maximize(want_ev, starts, initial_step, **kwargs)
    assert same_raw_bits(got[0], want[0]) and same_raw_bits(got[1], want[1])
    return got_calls, want_calls


def disk_starts(n, r, seed):
    rng = np.random.default_rng(seed)
    return r * np.sqrt(rng.random(n)) * np.exp(2j * np.pi * rng.random(n))


# |z|^3 (1 - |z|^2): it grows outward to its peak at |z| = sqrt(3/5)
OUTWARD = mapping._weighted_abs_sum(np.array([0.0, 0.0, 0.0, 1.0]), np.array([0.0]))


@pytest.mark.parametrize("max_iter", [1, 2, 3, 400])
@pytest.mark.parametrize("walkers", [1, 20, 63, 64, 65, 384])
def test_compass_matches_one_iteration_per_call(walkers, max_iter):
    values = mapping._mu_values(FAMILY)
    got, want = check_same_walk(values, disk_starts(walkers, 0.95, walkers), 0.05,
                                max_iter=max_iter)
    if walkers <= optimize.LOOKAHEAD_WALKERS:
        # two iterations per call after the one that evaluates the starts
        assert len(got) - 1 == -(-(len(want) - 1) // 2)
        assert got[1] == (24 if max_iter > 1 else 4) * walkers
        assert all(size % 24 == 0 for size in got[1:-1])
    else:
        assert got[1] == 4 * walkers


def test_compass_matches_on_level_set_seeds():
    # lambda_set's sweep: thousands of walkers, one iteration per call until
    # at most LOOKAHEAD_WALKERS remain active
    values = mapping._mu_values(FAMILY)
    grid = polar_grid(64, 128)
    gv = values(grid)
    seeds = np.union1d(np.flatnonzero(np.abs(gv - 1.0) <= 0.02), np.argsort(gv)[::-1][:8])
    assert seeds.size > 4 * optimize.LOOKAHEAD_WALKERS
    got, want = check_same_walk(values, grid[seeds], 2.0 * np.pi / 128)
    assert len(got) < len(want)


@pytest.mark.parametrize("max_iter", [1, 3, 400])
def test_compass_masks_candidates_beyond_r_max(max_iter):
    # starts within one step of r_max on an objective growing outward
    step = 0.01
    angles = np.linspace(0.0, 2.0 * np.pi, 16, endpoint=False) + 0.1
    starts = np.r_[(DISK_RADIUS_CAP - 0.6 * step) * np.exp(1j * angles), 0.99, -0.99j]
    for f in (np.abs, OUTWARD):
        check_same_walk(f, starts, step, max_iter=max_iter)
    z, _ = compass_maximize(lambda z, _w: np.abs(z), starts, step, max_iter=max_iter)
    assert np.abs(z).max() <= DISK_RADIUS_CAP


@pytest.mark.parametrize("max_iter", [1, 3, 400])
def test_compass_masks_rim_walkers_on_wide_sweeps(max_iter):
    # 96 starts within one step of r_max beside 40 inner ones: one iteration
    # per call, which masks the candidates of the walkers at the rim only
    step = 0.01
    angles = np.linspace(0.0, 2.0 * np.pi, 96, endpoint=False) + 0.1
    starts = np.r_[(DISK_RADIUS_CAP - 0.6 * step) * np.exp(1j * angles), disk_starts(40, 0.9, 2)]
    assert starts.size > optimize.LOOKAHEAD_WALKERS
    for f in (np.abs, OUTWARD):
        got, _ = check_same_walk(f, starts, step, max_iter=max_iter)
        assert got[1] == 4 * starts.size


def test_compass_ties_go_to_the_first_candidate():
    starts = disk_starts(30, 0.8, 1)
    check_same_walk(lambda z: np.ones(z.shape), starts, 0.1)
    # plateaus: several candidates share the best value
    check_same_walk(lambda z: -np.round(np.abs(z - 0.2), 1), starts, 0.1)


@pytest.mark.parametrize("n", [20, 200])
def test_compass_nan_candidates_never_move_a_walker(n):
    # NaN above a line and on a lattice of thin strips: a NaN candidate stops
    # its walker from moving even beside a better one, and a NaN start never
    # moves; 200 walkers start on the one-iteration path
    values = mapping._mu_values(FAMILY)

    def holed(z):
        out = values(z)
        out[(z.imag > 0.4) | (np.abs(np.sin(40.0 * z.real)) < 0.05)] = np.nan
        return out

    starts = disk_starts(n, 0.95, n)
    assert np.isnan(holed(starts)).any()
    for max_iter in (1, 3, 3000):
        got, _ = check_same_walk(holed, starts, 0.05, max_iter=max_iter)
        assert got[1] == (4 if n > optimize.LOOKAHEAD_WALKERS or max_iter == 1 else 24) * n


def test_compass_walker_frozen_by_first_halving():
    # steps below 2 * step_tol: a walker at the peak freezes after one
    # iteration while the others move on within the same call
    peak = lambda z: -np.abs(z - 0.3)
    starts = np.array([0.3, 0.1, 0.5j, 0.3 + 1e-10, 0.3 - 2e-10j])
    for max_iter in (1, 2, 3, 7):
        check_same_walk(peak, starts, 1.5e-10, step_tol=1e-10, max_iter=max_iter)
    check_same_walk(peak, starts, 1e-10, step_tol=1e-10)


@pytest.mark.parametrize("n", [20, 200])
def test_compass_takes_one_first_step_per_start(n):
    # maximize_on_disk's beta walkers start with GRID_STEP (1 - |z|^2): each
    # walk is the one its start takes alone with its own step
    values = mapping._mu_values(FAMILY)
    starts = disk_starts(n, 0.97, n)
    steps = 0.05 * (1.0 - np.abs(starts) ** 2)
    check_same_walk(values, starts, steps)
    z, v = compass_maximize(lambda z, _w: values(z), starts, steps)
    for k in range(0, n, 7):
        zk, vk = compass_maximize(lambda z, _w: values(z), starts[k:k + 1], steps[k])
        assert same_raw_bits(zk, z[k:k + 1]) and same_raw_bits(vk, v[k:k + 1])


@pytest.mark.parametrize("inner", [0, 80])
def test_compass_matches_on_composed_mu(inner):
    # rim walkers' speculative candidates reach past the circle, toward phi's
    # pole at 1/conj(c); the composed mu reads -inf there without evaluating,
    # and 80 inner starts put the sweep on the one-iteration path
    values = mapping._mu_values(precompose(FAMILY, MobiusAutomorphism(0.97j, 0.3), 10))
    angles = np.linspace(0.0, 2.0 * np.pi, 16, endpoint=False) + 0.1
    starts = np.r_[(DISK_RADIUS_CAP - 0.03) * np.exp(1j * angles), disk_starts(inner, 0.9, 4)]
    with np.errstate(all="raise"):
        for max_iter in (1, 3, 3000):
            check_same_walk(values, starts, 0.05, max_iter=max_iter)


def test_compass_routes_walkers_to_their_objectives():
    rng = np.random.default_rng(8)
    rows = rng.standard_normal((5, 9)) + 1j * rng.standard_normal((5, 9))

    def routed(z, walkers):
        return 1.0 - np.abs(z) ** 2 + 0.1 * np.abs(polyval_batch(rows[walkers], z))

    for n in (1, 20, 21, 22, 70):
        starts = disk_starts(n, 0.9, n)
        ids = np.arange(n) % 5
        got = compass_maximize(routed, starts, 0.05, walkers=ids)
        want = reference_compass_maximize(routed, starts, 0.05, walkers=ids)
        assert same_raw_bits(got[0], want[0]) and same_raw_bits(got[1], want[1])


def reference_spread_top_indices(points, values, count, min_sep):
    # the pairwise greedy loop over the value order
    order = np.argsort(values)[::-1]
    chosen = []
    for i in order:
        p = points[i]
        if all(abs(p - points[j]) >= min_sep for j in chosen):
            chosen.append(int(i))
            if len(chosen) == count:
                break
    return np.asarray(chosen, dtype=int)


def spread_case(name):
    # (points, values, count, min_sep) of maximize_on_disk's seed pick, or a
    # variant of it
    grid = polar_grid(*optimize.DISK_GRID)
    mu_on = lambda f: mapping._mu_values(f)(grid)
    seeding = (optimize.N_STARTS, optimize.GRID_STEP)
    if name == "identity":
        # tied rings: about 800 points of the order are read before 20 picks
        return (grid, mu_on(IDENTITY), *seeding)
    if name == "family":
        return (grid, mu_on(FAMILY), *seeding)
    if name.startswith("poly"):
        rng = np.random.default_rng(int(name[4:]))
        return (grid, mu_on(kernel_mappings(int(name[4:]), rng)[0]), *seeding)
    if name == "constant":
        return (grid, np.ones(grid.size), *seeding)
    if name == "nan":
        values = mu_on(FAMILY)
        values[::37] = np.nan
        return (grid, values, *seeding)
    if name == "sparse":
        # 13 points, fewer than count of them pairwise min_sep apart
        small = polar_grid(2, 6)
        return (small, np.abs(small - 0.3), optimize.N_STARTS, 0.6)
    if name == "tie":
        # a point exactly min_sep from the first pick is kept; w[k] is one
        # whose |w| a complex-array np.abs rounds lower than abs() does, where
        # that SIMD path exists
        rng = np.random.default_rng(5)
        w = rng.uniform(0.4, 0.6, 64) * np.exp(2j * np.pi * rng.random(64))
        k = int(np.argmin(np.abs(w) - np.hypot(w.real, w.imag)))
        return (np.array([0j, w[k], 0.9]), np.array([3.0, 2.0, 1.0]), 2, float(abs(w[k])))
    assert name == "deep"
    # many picks: the scan reads window after window
    return (grid, mu_on(FAMILY), 300, optimize.GRID_STEP)


@pytest.mark.parametrize("name", ["identity", "family", "poly2", "poly8", "poly30", "poly60",
                                  "constant", "nan", "sparse", "tie", "deep"])
def test_spread_top_indices_matches_pairwise_loop(name):
    points, values, count, min_sep = spread_case(name)
    order = np.argsort(values)[::-1]
    got = optimize._spread_top_indices(points, order, count, min_sep)
    want = reference_spread_top_indices(points, values, count, min_sep)
    assert got.dtype == want.dtype and np.array_equal(got, want)
    last = np.flatnonzero(np.isin(order, want)).max()
    if name in ("identity", "deep"):
        assert want.size == count and last >= optimize.SPREAD_WINDOW
    if name == "sparse":
        assert 1 < want.size < count
    if name == "tie":
        assert want.tolist() == [0, 1]
    if name == "nan":
        # NaN sorts last, so it leads the descending order
        assert np.isnan(values[want[0]])


def reference_block_linkage(pts, radius):
    # every pair in 512-row blocks, as int32 edges; min-label propagation
    n = pts.size
    if n == 0:
        return []
    ii, jj = [], []
    for s in range(0, n, 512):
        a, b = np.nonzero(np.abs(pts[s:s + 512, None] - pts[None, s:]) <= radius)
        keep = b > a
        ii.append((a[keep] + s).astype(np.int32))
        jj.append((b[keep] + s).astype(np.int32))
    ii, jj = np.concatenate(ii), np.concatenate(jj)
    labels = np.arange(n)
    while True:
        prev = labels.copy()
        np.minimum.at(labels, jj, labels[ii])
        np.minimum.at(labels, ii, labels[jj])
        while True:
            jumped = labels[labels]
            if np.array_equal(jumped, labels):
                break
            labels = jumped
        if np.array_equal(labels, prev):
            break
    order = np.argsort(labels, kind="stable")
    return np.split(order, np.flatnonzero(np.diff(labels[order])) + 1)


def check_same_clusters(pts, radius):
    got = mapping._single_linkage(pts, radius)
    want = reference_block_linkage(pts, radius)
    assert len(got) == len(want)
    assert all(np.array_equal(a, b) for a, b in zip(got, want))
    return got


def linkage_case(name):
    # the family's deduplicated level ring, or a vertical segment, whose one
    # shared real part puts every later point in every window
    if name == "segment":
        return 0.3 + 1j * np.linspace(-0.9, 0.9, 2048)
    pts, vals = family_level_points()
    return mapping._dedupe_best(pts, vals, 1e-6)[0]


def test_sweep_linkage_family_ring():
    pts = linkage_case("ring")
    assert pts.size == 1152
    for radius in (0.005, 0.05, 0.5):
        check_same_clusters(pts, radius)


def peak_bytes(fn, *args):
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_sweep_linkage_vertical_segment_within_block_memory():
    pts = linkage_case("segment")
    assert len(check_same_clusters(pts, 0.05)) == 1
    assert len(check_same_clusters(pts[::200], 0.05)) == pts[::200].size
    assert peak_bytes(mapping._single_linkage, pts, 0.05) <= \
        peak_bytes(reference_block_linkage, pts, 0.05)


def pair_counts(pts, radius):
    # candidate pairs (real parts at most 1.001 radius apart, the linkage's
    # widened window) and edges (points at most radius apart), in 256-row blocks
    candidates = edges = 0
    for s in range(0, pts.size, 256):
        block = pts[s:s + 256, None]
        later = np.arange(pts.size)[None, :] > np.arange(s, s + block.shape[0])[:, None]
        candidates += int((later & (np.abs(block.real - pts.real) <= 1.001 * radius)).sum())
        edges += int((later & (np.abs(block - pts) <= radius)).sum())
    return candidates, edges


def linkage_peak_bound(n, edges):
    # a block holds at most BLOCK_POINTS candidate pairs while n <= BLOCK_POINTS,
    # with at most 64 bytes each alive at once: int64 row and column indices
    # and, where numpy elides no temporary, three complex arrays.  Per point,
    # at most 68 bytes: the int32 order, the complex sorted copy, the int64
    # window ends, counts and running totals, and three int64 label arrays.
    # Per edge, 16: its int32 ends in the block lists and concatenated, or
    # concatenated and one gathered int64 label.  72 bytes bound both
    assert n <= mapping.BLOCK_POINTS
    return 64 * mapping.BLOCK_POINTS + 72 * (n + edges)


@pytest.mark.parametrize("case, want", [
    ("ring", (1152, 65_332, 18_326)),
    ("segment", (2048, 2_096_128, 113_092)),
])
def test_sweep_linkage_memory_stays_within_the_block_budget(case, want):
    pts = linkage_case(case)
    candidates, edges = pair_counts(pts, 0.05)
    assert (pts.size, candidates, edges) == want
    assert peak_bytes(mapping._single_linkage, pts, 0.05) <= \
        linkage_peak_bound(pts.size, edges)


@pytest.mark.parametrize("case", ["ring", "segment"])
def test_sweep_linkage_advances_past_rows_over_the_budget(case, monkeypatch):
    # a budget below one row's candidate count: each such row is its own block
    monkeypatch.setattr(mapping, "BLOCK_POINTS", 8)
    pts = linkage_case(case)
    # more than 8 candidates a row on average, so some row has more than 8
    assert pair_counts(pts, 0.05)[0] > 8 * pts.size
    for radius in (0.005, 0.05):
        check_same_clusters(pts, radius)


def test_sweep_linkage_dense_blob_and_scatter():
    rng = np.random.default_rng(9)
    blob = 0.2 + 0.01 * (rng.standard_normal(700) + 1j * rng.standard_normal(700))
    assert len(check_same_clusters(blob, 0.05)) == 1
    scatter = 0.6 * (rng.uniform(-1, 1, 900) + 1j * rng.uniform(-1, 1, 900))
    for radius in (0.01, 0.03, 0.05):
        check_same_clusters(scatter, radius)
    check_same_clusters(np.round(scatter, 2), 0.05)


def test_sweep_linkage_pairs_exactly_radius_apart_in_x():
    # x_j - x_i rounds to radius, so each pair is an edge, yet for some
    # x_i + radius rounds below x_j: an unwidened window would drop them
    radius = 0.05
    xi = np.round(np.linspace(-0.09, 0.0, 901), 4)
    xj = np.nextafter(xi + radius, np.inf)
    exact = xj - xi <= radius
    xi, xj = xi[exact][::20], xj[exact][::20]
    assert xi.size > 30 and np.all(xi + radius < xj)
    # one pair per row, rows more than radius apart
    ys = -0.9 + 0.055 * np.arange(xi.size)
    pts = np.concatenate([xi + 1j * ys, xj + 1j * ys, np.linspace(-0.9, 0.9, 19) + 0.95j])
    clusters = check_same_clusters(pts, radius)
    assert sum(c.size == 2 for c in clusters) == xi.size


def test_sweep_linkage_small_and_odd_radii():
    for pts in (np.zeros(0, dtype=complex), np.array([0.3j]), np.array([0.1, 0.1]),
                np.array([0.0, 0.05 + 0.0j, -0.05 + 0.05j])):
        for radius in (0.05, 0.0, -0.0, -0.1):
            check_same_clusters(pts, radius)


def reference_polyval_batch(coefficients, z):
    c = np.asarray(coefficients, dtype=complex)
    z = np.asarray(z, dtype=complex)
    out = np.broadcast_to(c[..., -1], z.shape).copy()
    for k in range(c.shape[-1] - 2, -1, -1):
        out *= z
        out += c[..., k]
    return out


@pytest.mark.parametrize("degree", [0, 1, 8, 60])
def test_polyval_batch_fill_matches_copy(degree):
    rng = np.random.default_rng(800 + degree)
    c = rng.standard_normal(degree + 1) + 1j * rng.standard_normal(degree + 1)
    rows = rng.standard_normal((6, degree + 1)) + 1j * rng.standard_normal((6, degree + 1))
    z = disk_starts(30, 0.99, degree)
    cases = [(c, z), (c, z[3]), (c, complex(z[4])), (c, z.reshape(5, 6)), (c, z[:0]),
             (c.real, z.real), (rows, z[:6]), (rows, z[:6].reshape(6)), (rows[:, None, :], z.reshape(6, 5))]
    for coefficients, points in cases:
        got = polyval_batch(coefficients, points)
        want = reference_polyval_batch(coefficients, points)
        assert same_raw_bits(got, want)
        assert got.flags.writeable and not np.shares_memory(got, coefficients)


def reference_polar_grid(n_radii=64, n_angles=128, r_max=DISK_RADIUS_CAP):
    radii = np.linspace(0.0, r_max, n_radii + 1)[1:]
    angles = np.linspace(0.0, 2.0 * np.pi, n_angles, endpoint=False)
    rings = radii[:, None] * np.exp(1j * angles)[None, :]
    return np.concatenate(([0.0 + 0.0j], rings.ravel()))


@pytest.mark.parametrize("args", [(64, 128), (12, 24), (48, 96, 1.0 - 1e-6),
                                  (48, 96, 0.3), (1, 1), (0, 4), (3, 5, 0.5)])
def test_polar_grid_is_a_fresh_writable_build(args):
    grid = polar_grid(*args)
    assert same_raw_bits(grid, reference_polar_grid(*args))
    again = polar_grid(*args)
    assert again is not grid and not np.shares_memory(again, grid)
    assert grid.flags.writeable and again.flags.writeable
    grid *= 2.0
    assert same_raw_bits(again, reference_polar_grid(*args))


@pytest.mark.parametrize("shared, args", [
    (optimize._DISK_POINTS, optimize.DISK_GRID), (support._COARSE_GRID, (12, 24)),
    (mapping._ANCHOR_GRID, (48, 96, 1.0 - 1e-6))], ids=["disk", "coarse", "anchor"])
def test_shared_search_grids_are_read_only_fresh_builds(shared, args):
    assert same_raw_bits(shared, reference_polar_grid(*args))
    assert not shared.flags.writeable
    with pytest.raises(ValueError):
        shared[0] = 1.0
    with pytest.raises(ValueError):
        shared *= 2.0


def test_mu_grid_rows_lay_out_a_fresh_polar_grid():
    rows = mapping.mu_grid_rows(FAMILY, 7, 13)
    grid = reference_polar_grid(7, 13)
    assert same_raw_bits(rows[:, 0], grid.real) and same_raw_bits(rows[:, 1], grid.imag)
    assert same_raw_bits(rows[:, 2], reference_derivative_values(FAMILY)(grid))


# the one-shot dense checks, kept as references for the blocked ones

def reference_verify_sharpening(f, result, n_radii=1000, n_angles=1000):
    # the whole offset grid at once, then one min
    z0, delta = result.center, result.delta
    radii = np.geomspace(delta * 1e-2, delta * (1.0 - 1e-9), n_radii)
    angles = 2.0 * np.pi * np.arange(n_angles) / n_angles + np.pi / (2.0 * n_angles)
    pts = (z0 + radii[:, None] * np.exp(1j * angles)[None, :]).ravel()
    if not abs(z0) + abs(delta) <= 1.0 - 2e-9:
        pts = pts[np.abs(pts) <= DISK_RADIUS_CAP]
    if pts.size == 0:
        raise ValueError("punctured neighborhood does not meet the open disk")
    mu_vals = reference_derivative_values(f)(pts)
    return float(extremal._sharpening_margins(mu_vals, pts, z0, result.exponent_n).min())


def reference_verify_bonk_constants(constants, n_samples=10 ** 6, seed=0):
    # every eps draw, then every r draw, as whole arrays
    rng = np.random.default_rng(seed)
    eps = rng.uniform(0.0, constants.epsilon1, n_samples)
    eps = np.maximum(eps, 1e-12)
    r = rng.uniform(constants.R, DISK_RADIUS_CAP, n_samples)
    ratio = (1.0 - r * r) / (1.0 - (1.0 - eps) ** 2 * r * r)
    return float((1.0 - eps * constants.M - ratio).min())


def dense_check_mappings():
    rng = np.random.default_rng(800)
    out = {"identity": IDENTITY, "co-identity": CO_IDENTITY, "family": FAMILY}
    for degree in (8, 60):
        h, _, _, g, _ = scalar_coefficients(degree, rng)
        out[f"degree-{degree}"] = HarmonicMapping(AnalyticSeries(h / degree),
                                                  AnalyticSeries(g / degree))
    return out


DENSE_MAPPINGS = dense_check_mappings()
# (center, delta, n): an inner witness, one on the family's level circle, and
# two whose neighbourhoods cross the disk cap, so the mask drops points
WITNESSES = [(0j, 0.45, 2), (INV_SQRT3 * np.exp(0.4j), 0.1, 3), (0.9 + 0j, 0.2, 1),
             (-0.99j, 0.05, 5)]


@pytest.mark.parametrize("shape", [(1, 1), (37, 41), (7, 33000), (1000, 1000)],
                         ids=["1x1", "37x41", "7x33000", "1000x1000"])
@pytest.mark.parametrize("name", DENSE_MAPPINGS)
def test_blocked_sharpening_check_matches_one_shot(name, shape):
    f = DENSE_MAPPINGS[name]
    # the full grid costs a 10^6-point Horner per witness; two witnesses cover
    # both mask paths there
    witnesses = WITNESSES[::2] if shape == (1000, 1000) else WITNESSES
    for center, delta, n in witnesses:
        w = extremal.SharpeningResult(n, delta, 0.1, complex(center))
        got = extremal.verify_sharpening(f, w, *shape)
        assert bits(complex(got)) == bits(complex(reference_verify_sharpening(f, w, *shape)))


@pytest.mark.parametrize("center, delta", [(1.0 + 0j, 1e-10), (2.0 + 0j, 0.5),
                                           (0j, float("nan")), (-1j, 1e-12)])
@pytest.mark.parametrize("shape", [(1, 1), (37, 41), (7, 33000), (1000, 1000)],
                         ids=["1x1", "37x41", "7x33000", "1000x1000"])
def test_blocked_sharpening_check_with_every_point_masked(center, delta, shape):
    w = extremal.SharpeningResult(2, delta, 0.1, center)
    for check in (extremal.verify_sharpening, reference_verify_sharpening):
        with pytest.raises(ValueError, match="open disk"):
            check(IDENTITY, w, *shape)


def test_blocked_sharpening_check_lets_a_nan_margin_through(monkeypatch):
    margins = extremal._sharpening_margins

    def outer_ring_nan(mu_vals, pts, z0, n):
        # a NaN margin on the outermost radius only, which the last block holds
        out = margins(mu_vals, pts, z0, n)
        out[np.abs(pts - z0) > 0.449] = np.nan
        return out

    monkeypatch.setattr(extremal, "_sharpening_margins", outer_ring_nan)
    w = extremal.SharpeningResult(2, 0.45, 0.1, 0j)
    assert np.isnan(reference_verify_sharpening(IDENTITY, w))
    assert np.isnan(extremal.verify_sharpening(IDENTITY, w))


def test_sharpening_checks_differentiate_once(monkeypatch):
    # one (h', g') pair per check, however many blocks or (n, delta) tries;
    # the pair comes from the mu kernel, mapping._mu_values
    calls = []
    derive = mapping.differentiate

    def counting(s):
        calls.append(s)
        return derive(s)

    monkeypatch.setattr(mapping, "differentiate", counting)
    extremal.verify_sharpening(IDENTITY, extremal.SharpeningResult(2, 0.45, 0.1, 0j))
    assert len(calls) == 2
    calls.clear()
    # one pair for the unit-level check at z0 (mu), one for the search, whose
    # n = 1 fails on the search grid so two exponents are tried, and one for
    # the dense check that confirms n = 2
    res = extremal.sharpening_exponent(IDENTITY, 0j, 0.45)
    assert res.exponent_n == 2
    assert len(calls) == 6


def counting_mu_kernel(monkeypatch):
    # the sizes of the point arrays each of extremal's mu kernels evaluates
    sizes = []
    kernel = extremal._mu_values

    def counting(f):
        values = kernel(f)

        def counted(z):
            sizes.append(np.size(z))
            return values(z)

        return counted

    monkeypatch.setattr(extremal, "_mu_values", counting)
    return sizes


def test_sharpening_checks_evaluate_mu_once_per_grid(monkeypatch):
    sizes = counting_mu_kernel(monkeypatch)
    # the dense check: once per block, 7 blocks of one radius row each
    extremal.verify_sharpening(IDENTITY, extremal.SharpeningResult(2, 0.45, 0.1, 0j), 7, 33000)
    assert sizes == [33000] * 7
    sizes.clear()
    # the search: once on its grid for both exponents it tries, then once
    # per block of the dense check that confirms n = 2
    res = extremal.sharpening_exponent(IDENTITY, 0j, 0.45)
    assert res.exponent_n == 2 and res.delta == 0.45
    rows = extremal.BLOCK_POINTS // 1000
    assert sizes == [48 * 96] + [rows * 1000] * (1000 // rows) + [1000 % rows * 1000]


def test_sharpening_reads_the_composed_mu(monkeypatch):
    # identity o phi touches the unit level at phi's center alone; the search
    # and the dense check read its mu as the identity's at phi(z), not as
    # the truncated series' own
    phi = MobiusAutomorphism(0.3 + 0.2j, 0.5)
    comp = precompose(IDENTITY, phi, 40)
    seen = []
    margins = extremal._sharpening_margins

    def recording(mu_vals, pts, z0, n):
        seen.append((mu_vals, pts))
        return margins(mu_vals, pts, z0, n)

    monkeypatch.setattr(extremal, "_sharpening_margins", recording)
    res = extremal.sharpening_exponent(comp, phi.center, 0.3)
    assert (res.exponent_n, res.delta) == (2, 0.3)
    assert res.verified_margin > extremal.MARGIN_FLOOR
    parent = reference_derivative_values(IDENTITY)
    rot, c = np.exp(1j * phi.rotation), phi.center
    for mu_vals, pts in seen:
        assert same_array_bits(mu_vals, parent(rot * (pts - c) / (1.0 - np.conj(c) * pts)))
    # the search grid, tried at n = 1 and 2, and the dense check's blocks
    assert [p.size for _, p in seen[:3]] == [48 * 96, 48 * 96, extremal.BLOCK_POINTS // 1000 * 1000]
    assert sum(p.size for _, p in seen[2:]) == 1000 * 1000


@pytest.mark.parametrize("shape", [(1, 1), (37, 41), (7, 33000), (1000, 1000)],
                         ids=["1x1", "37x41", "7x33000", "1000x1000"])
def test_sharpening_blocks_tile_the_one_shot_grid(monkeypatch, shape):
    seen = []
    margins = extremal._sharpening_margins

    def recording(mu_vals, pts, z0, n):
        seen.append(pts)
        return margins(mu_vals, pts, z0, n)

    monkeypatch.setattr(extremal, "_sharpening_margins", recording)
    n_radii, n_angles = shape
    for center, delta, n in WITNESSES:
        seen.clear()
        extremal.verify_sharpening(IDENTITY, extremal.SharpeningResult(n, delta, 0.1, center),
                                   *shape)
        want = reference_punctured_samples(center, delta, n_radii, n_angles,
                                           np.pi / (2.0 * n_angles))
        assert same_raw_bits(np.concatenate(seen), want)
        assert max(b.size for b in seen) <= max(extremal.BLOCK_POINTS, n_angles)


BLOCK = extremal.BLOCK_POINTS


@pytest.mark.parametrize("n_samples", [1, BLOCK - 1, BLOCK, BLOCK + 1, 10 ** 6])
@pytest.mark.parametrize("M", [0.0, 0.3, 3.7, 1e6])
def test_blocked_bonk_check_matches_one_shot(M, n_samples):
    bc = support.bonk_constants(M)
    for seed in (0, 17):
        got = support.verify_bonk_constants(bc, n_samples, seed)
        assert bits(complex(got)) == bits(complex(reference_verify_bonk_constants(bc, n_samples, seed)))


def test_dense_checks_use_a_quarter_of_the_one_shot_memory():
    for center, delta, n in WITNESSES[::2]:
        w = extremal.SharpeningResult(n, delta, 0.1, complex(center))
        assert peak_bytes(extremal.verify_sharpening, FAMILY, w) < \
            peak_bytes(reference_verify_sharpening, FAMILY, w) / 4
    bc = support.bonk_constants(3.7)
    assert peak_bytes(support.verify_bonk_constants, bc, 10 ** 6) < \
        peak_bytes(reference_verify_bonk_constants, bc, 10 ** 6) / 4
