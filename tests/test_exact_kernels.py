"""The certificate and level-set kernels against their plain reference forms.

The vectorized kernels must return the same bits as the loops they replaced:
the pinned benchmark records compare ``sample_max_other`` exactly, so these
tests use exact equality, never a tolerance.
"""

import numpy as np
import pytest

from blochmap import (
    AnalyticSeries,
    HarmonicMapping,
    counterexample_family,
    support_certificate,
)
from blochmap import mapping, support
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
    values = mapping._derivative_values(FAMILY)
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
