"""Lipschitz truncation: maximal function, level choice, McShane fill, strips."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from striplab.errors import DiagnosticError
from striplab.truncation import (
    KAPPA_WINDOW,
    LADDER_FACTOR,
    GridFunction,
    _good_set_kappa,
    _mcshane,
    _strip_slice,
    dirichlet_energy,
    grad_sup,
    gradient_magnitude,
    maximal_function,
    reflect_to_square,
    rough_field,
    sample_on_strip,
    select_lambda,
    thin_truncate,
)

from helpers import raises_value_error


def linear_field(n1, n2, spacing, coef):
    """u with constant gradient: rows of coef are per-component (a, b)."""
    d1, d2 = spacing
    x = np.arange(n1) * d1
    y = np.arange(n2) * d2
    coef = np.atleast_2d(coef)
    vals = coef[:, 0] * x[:, None, None] + coef[:, 1] * y[None, :, None]
    return GridFunction(values=vals, spacing=spacing)


def random_scalar(n1, n2, seed, scale=1.0):
    """An (n1, n2) array of scaled standard normal samples."""
    return scale * np.random.default_rng(seed).standard_normal((n1, n2))


def one_component(values, spacing):
    """A one-component field from (n1, n2) values."""
    return GridFunction(values=values[:, :, None], spacing=spacing)


# ---------------------------------------------------------------- grids


def test_grid_function_validation():
    with raises_value_error("n1, n2, ncomp"):
        GridFunction(values=np.zeros(5), spacing=(0.1, 0.1))
    with raises_value_error("n1, n2, ncomp"):
        GridFunction(values=np.zeros((4, 4)), spacing=(0.1, 0.1))
    with raises_value_error("n1, n2, ncomp"):
        GridFunction(values=np.zeros((3, 3, 2, 2)), spacing=(0.1, 0.1))
    with raises_value_error("at least 2 nodes"):
        GridFunction(values=np.zeros((1, 4, 1)), spacing=(0.1, 0.1))
    with raises_value_error("spacings must be positive"):
        GridFunction(values=np.zeros((4, 4, 1)), spacing=(0.1, 0.0))
    with raises_value_error("must be finite"):
        GridFunction(values=np.full((4, 4, 1), np.nan), spacing=(0.1, 0.1))


def test_grid_function_properties():
    gf = GridFunction(values=np.arange(30.0).reshape(5, 3, 2), spacing=(0.25, 0.5))
    assert (gf.n1, gf.n2) == (5, 3)
    assert gf.cell_area == pytest.approx(0.125)
    planes = gf.planes()
    assert planes.shape == (2, 5, 3)
    assert np.shares_memory(planes, gf.values)
    assert np.array_equal(planes[1], gf.values[:, :, 1])


def test_gradient_magnitude_exact_on_linear_fields():
    gf = linear_field(9, 7, (0.125, 0.2), [(0.75, -0.5)])
    mag = gradient_magnitude(gf.planes(), gf.spacing)
    assert mag.shape == (9, 7)
    assert mag == pytest.approx(np.hypot(0.75, 0.5), rel=1e-13)

    vec = linear_field(9, 7, (0.125, 0.2), [(1.0, 2.0), (-3.0, 0.25)])
    frob = np.sqrt(1.0 + 4.0 + 9.0 + 0.0625)
    assert gradient_magnitude(vec.planes(), vec.spacing) == pytest.approx(frob, rel=1e-13)


@pytest.mark.parametrize("ncomp", [1, 2])
def test_gradient_magnitude_matches_component_axis_sum_bitwise(ncomp):
    u = sample_on_strip(rough_field(5), 64, 64, 1.0)
    comps = u.values[:, :, :ncomp]
    d1, d2 = u.spacing
    gx = (comps[1:, :-1] - comps[:-1, :-1]) / d1
    gy = (comps[:-1, 1:] - comps[:-1, :-1]) / d2
    expect = np.pad(np.sqrt(np.sum(gx**2 + gy**2, axis=-1)), ((0, 1), (0, 1)), mode="edge")
    got = gradient_magnitude(np.moveaxis(comps, -1, 0), u.spacing)
    assert got.tobytes() == expect.tobytes()


def test_dirichlet_energy_and_sup_on_linear_field():
    gf = linear_field(17, 9, (0.0625, 0.125), [(2.0, -1.0)])
    area = 16 * 0.0625 * 8 * 0.125
    assert dirichlet_energy(gf) == pytest.approx(5.0 * area, rel=1e-13)
    assert grad_sup(gf) == pytest.approx(np.sqrt(5.0), rel=1e-13)


@settings(max_examples=25, deadline=None)
@given(shift=st.floats(-5.0, 5.0), scale=st.floats(0.1, 4.0))
def test_gradient_shift_and_scale_invariance(shift, scale):
    base = random_scalar(8, 6, seed=5)[None]
    spacing = (0.2, 0.3)
    ref = gradient_magnitude(base, spacing)
    shifted = gradient_magnitude(base + shift, spacing)
    assert shifted == pytest.approx(ref, rel=1e-9, abs=1e-9)
    assert gradient_magnitude(scale * base, spacing) == pytest.approx(scale * ref, rel=1e-12)


# ---------------------------------------------------- maximal function


def ladder(f, spacing):
    """The sqrt(2) radius ladder of maximal_function for f's grid."""
    d1, d2 = spacing
    n1, n2 = f.shape
    diam = np.hypot((n1 - 1) * d1, (n2 - 1) * d2)
    radii = [0.5 * min(d1, d2)]
    while radii[-1] < diam:
        radii.append(radii[-1] * LADDER_FACTOR)
    return radii


def half_widths(r, f, spacing):
    return tuple(min(int(r / d), n - 1) for d, n in zip(spacing, f.shape))


def disc_masks(f, spacing, r):
    """In-domain node masks of the disc of radius r about each node, row-major."""
    d1, d2 = spacing
    ii, jj = np.indices(f.shape)
    return [((ii - i) * d1) ** 2 + ((jj - j) * d2) ** 2 <= r * r for i, j in np.ndindex(f.shape)]


def box_mask(f, i, j, m1, m2):
    mask = np.zeros(f.shape, dtype=bool)
    mask[max(i - m1, 0):i + m1 + 1, max(j - m2, 0):j + m2 + 1] = True
    return mask


def dense_maximal(f, spacing):
    """Direct disc averages over the same sqrt(2) radius ladder."""
    out = np.zeros_like(f)
    for r in ladder(f, spacing):
        for (i, j), inside in zip(np.ndindex(f.shape), disc_masks(f, spacing, r)):
            out[i, j] = max(out[i, j], f[inside].mean())
    return out


def dense_box_maximal(f, spacing):
    """Direct averages over the in-domain nodes of each ladder radius's box."""
    out = np.zeros_like(f)
    for r in ladder(f, spacing):
        m1, m2 = half_widths(r, f, spacing)
        for i, j in np.ndindex(f.shape):
            out[i, j] = max(out[i, j], f[box_mask(f, i, j, m1, m2)].mean())
    return out


def test_maximal_function_matches_dense_oracle():
    f, spacing = np.abs(random_scalar(9, 7, seed=3)), (0.1, 0.15)
    mf = maximal_function(f, spacing)
    assert np.all(mf >= f)  # smallest box is the node itself
    assert mf == pytest.approx(dense_box_maximal(f, spacing), rel=1e-10, abs=1e-12)


def test_maximal_function_matches_dense_oracle_at_padding_edge():
    # the summed-area table's zero row and column are read by every window
    # that starts at the first node, and the largest boxes clip to m = n - 1
    # on both axes, so their windows run from the padding to the far edge
    n1, n2, spacing = 14, 13, (0.07, 0.11)
    f = np.abs(random_scalar(n1, n2, seed=17))
    f[0, 0] += 6.0  # a corner spike weighs most on the far side
    r_max = ladder(f, spacing)[-1]
    assert r_max / spacing[0] > n1 and r_max / spacing[1] > n2
    mf = maximal_function(f, spacing)
    assert mf == pytest.approx(dense_box_maximal(f, spacing), rel=1e-10, abs=1e-12)


def test_maximal_function_constant_is_fixed_point():
    assert maximal_function(np.full((12, 6), 0.7), (0.05, 0.05)) == pytest.approx(0.7, rel=1e-12)


def test_box_maximal_function_is_comparable_to_the_disc_one():
    # maximal_function's docstring: disc_r lies in box_r, which lies in
    # disc_(sqrt2 r), so c Mf <= box Mf <= C Mf with c the least ratio
    # #disc_r / #box_r and C the largest #disc_(sqrt2 r) / #box_r of
    # in-domain node counts.  This is why the box function may stand in
    # for the ball one in the truncation lemma.
    ratios = []
    for seed in range(20):
        rng = np.random.default_rng(seed)
        n1, n2 = rng.integers(4, 13, size=2)
        spacing = tuple(rng.uniform(0.03, 0.2, size=2))
        f = np.abs(rng.standard_normal((n1, n2)))
        if seed % 3 == 0:
            f[rng.integers(n1), rng.integers(n2)] += 25.0
        radii = ladder(f, spacing)
        discs = [disc_masks(f, spacing, r) for r in radii]
        c, C = np.inf, 0.0
        for k, r in enumerate(radii):
            m1, m2 = half_widths(r, f, spacing)
            nodes = np.ndindex(n1, n2)
            for (i, j), inner, outer in zip(nodes, discs[k], discs[min(k + 1, len(radii) - 1)]):
                box = box_mask(f, i, j, m1, m2)
                assert not np.any(inner & ~box) and not np.any(box & ~outer)
                c = min(c, inner.sum() / box.sum())
                C = max(C, outer.sum() / box.sum())
        mf_box = maximal_function(f, spacing)
        mf_disc = dense_maximal(f, spacing)
        ratio = mf_box / mf_disc
        assert np.all(ratio >= c * (1 - 1e-12)), seed
        assert np.all(ratio <= C * (1 + 1e-12)), seed
        ratios.append((ratio.min(), ratio.max()))
    lo, hi = np.min(ratios), np.max(ratios)
    assert lo < 1.0 < hi  # the two functions do differ


# ------------------------------------------------------ level selection


def test_select_lambda_matches_argmin_oracle():
    f = np.abs(random_scalar(20, 14, seed=9, scale=3.0)) + 0.1
    cell_area = 0.05 * 0.07
    a, A = 0.2, 8.0
    cand = np.geomspace(a, A, 64)
    g = np.array([t**2 * np.sum(f > t) * cell_area for t in cand])
    expect = cand[np.argmin(g)]
    lam, mask = select_lambda(f, cell_area, a, A)
    assert lam == expect
    assert np.array_equal(mask, f > lam)


# ------------------------------------------------------- McShane fill


def dense_mcshane(u, good, t, spacing):
    """Windowed steepness constant and per-node upper extension of (ncomp, n1, n2) planes, by loops."""
    d1, d2 = spacing
    ncomp, n1, n2 = u.shape
    kappa = t
    for i in range(n1):
        for j in range(n2):
            if not good[i, j]:
                continue
            for di in range(-KAPPA_WINDOW, KAPPA_WINDOW + 1):
                for dj in range(-KAPPA_WINDOW, KAPPA_WINDOW + 1):
                    if di == 0 and dj == 0:
                        continue
                    i2, j2 = i + di, j + dj
                    if not (0 <= i2 < n1 and 0 <= j2 < n2 and good[i2, j2]):
                        continue
                    dist = np.hypot(di * d1, dj * d2)
                    for c in range(ncomp):
                        kappa = max(kappa, abs(u[c, i, j] - u[c, i2, j2]) / dist)
    v = u.copy()
    gi, gj = np.nonzero(good)
    for i in range(n1):
        for j in range(n2):
            if good[i, j]:
                continue
            dist = np.hypot((i - gi) * d1, (j - gj) * d2)
            for c in range(ncomp):
                v[c, i, j] = np.min(u[c, gi, gj] + kappa * dist)
    return v, kappa


def box_mf(gf):
    """Box maximal function of |grad u| for a GridFunction u."""
    return maximal_function(gradient_magnitude(gf.planes(), gf.spacing), gf.spacing)


def _kappa_bits(u, good, t, spacing):
    """(scan, loop oracle) steepness constants as bytes."""
    got = _good_set_kappa(u, good, t, spacing)
    _, expect = dense_mcshane(u, good, t, spacing)
    return np.float64(got).tobytes(), np.float64(expect).tobytes()


def test_good_set_kappa_matches_loop_oracle_bitwise():
    rng = np.random.default_rng(12)
    spacing = (0.07, 0.045)
    vec = np.moveaxis(rng.standard_normal((14, 11, 2)), -1, 0)
    good = rng.random((14, 11)) > 0.3
    t = 0.5
    got, expect = _kappa_bits(vec, good, t, spacing)
    assert got == expect
    assert np.frombuffer(got)[0] > t
    scalar = vec[:1]
    got, expect = _kappa_bits(scalar, good, t, spacing)
    assert got == expect
    assert np.frombuffer(got)[0] > t


def test_good_set_kappa_without_pairs_is_the_level():
    # good nodes further apart than the window on both axes: no pair to test
    u = np.random.default_rng(3).standard_normal((2, 12, 12))
    good = np.zeros((12, 12), dtype=bool)
    good[::KAPPA_WINDOW + 1, ::KAPPA_WINDOW + 1] = True
    t = 0.25
    got, expect = _kappa_bits(u, good, t, (0.1, 0.1))
    assert got == expect == np.float64(t).tobytes()


@pytest.mark.parametrize("shape", [(3, 3), (2, 5), (5, 3)], ids=lambda s: f"{s[0]}x{s[1]}")
def test_good_set_kappa_on_grids_smaller_than_the_window(shape):
    rng = np.random.default_rng(sum(shape))
    u = 10.0 * rng.standard_normal((2,) + shape)
    good = np.ones(shape, dtype=bool)
    good[0, 0] = False
    got, expect = _kappa_bits(u, good, 0.1, (0.2, 0.3))
    assert got == expect
    assert np.frombuffer(got)[0] > 0.1


def test_lipschitz_truncate_matches_loop_oracle():
    f = random_scalar(12, 10, seed=4, scale=0.4)
    f[5, 4] += 3.0  # one spike forces a small bad set
    f[8, 7] -= 2.0
    u = one_component(f, (0.09, 0.11))
    mf = box_mf(u)
    t = float(np.quantile(mf, 0.8))
    good = ~(mf > t)
    assert good.any() and not good.all()
    planes = u.planes()
    expect, _ = dense_mcshane(planes, good, t, u.spacing)
    kappa = _good_set_kappa(planes, good, t, u.spacing)
    v = _mcshane(planes, good, kappa, u.spacing, np.ones_like(good))
    np.testing.assert_allclose(v, expect, rtol=1e-13, atol=1e-13)
    assert np.array_equal(v[0][good], f[good])


def test_lipschitz_truncate_vector_components_fill_independently():
    values = np.stack([random_scalar(10, 8, seed=6, scale=0.3),
                       random_scalar(10, 8, seed=7, scale=0.3)], axis=-1)
    values[4, 4, 0] += 2.5
    u = GridFunction(values=values, spacing=(0.1, 0.1))
    mf = box_mf(u)
    t = float(np.quantile(mf, 0.85))
    good = ~(mf > t)
    assert good.any() and not good.all()
    planes = u.planes()
    expect, _ = dense_mcshane(planes, good, t, u.spacing)
    kappa = _good_set_kappa(planes, good, t, u.spacing)
    v = _mcshane(planes, good, kappa, u.spacing, np.ones_like(good))
    np.testing.assert_allclose(v, expect, rtol=1e-13, atol=1e-13)


def unpruned_mcshane(planes, good, kappa, spacing, fill=None):
    """Upper McShane extension of (ncomp, n1, n2) planes with every good node in every minimum."""
    d1, d2 = spacing
    n1, n2 = good.shape
    xs = np.arange(n1) * d1
    ys = np.arange(n2) * d2
    gi, gj = np.nonzero(good)
    bad = ~good if fill is None else fill & ~good
    expect = planes.copy()
    for i, j in zip(*np.nonzero(bad)):
        dist = np.hypot(xs[i] - xs[gi], ys[j] - ys[gj])
        expect[:, i, j] = np.min(planes[:, gi, gj] + kappa * dist, axis=1)
    return expect


def test_mcshane_tiles_match_unpruned_minimum_bitwise():
    u = sample_on_strip(rough_field(3), 96, 96, 1.0)
    mf = box_mf(u)
    good = ~(mf > float(np.quantile(mf, 0.7)))
    kappa = 5.0
    fill = np.zeros_like(good)
    fill[:, 30:50] = True
    for restrict in (np.ones_like(good), fill):
        v = _mcshane(u.planes(), good, kappa, u.spacing, fill=restrict)
        assert np.array_equal(v, unpruned_mcshane(u.planes(), good, kappa, u.spacing, restrict))


def test_mcshane_window_covers_grid_when_kappa_is_small():
    # kappa * diameter is far below the spread of u: every filled node takes
    # the smallest good value, wherever it sits
    u = sample_on_strip(rough_field(5), 40, 40, 1.0)
    planes = u.planes()
    mf = box_mf(u)
    good = ~(mf > float(np.quantile(mf, 0.5)))
    for kappa in (1e-6, 1e-3):
        v = _mcshane(planes, good, kappa, u.spacing, np.ones_like(good))
        assert np.array_equal(v, unpruned_mcshane(planes, good, kappa, u.spacing))
    # constant good values with kappa * distance below their roundoff: only
    # the slack keeps the window from shrinking to one cell around the tile
    flat = np.where(good, 1.0, planes)
    v = _mcshane(flat, good, 1e-20, u.spacing, np.ones_like(good))
    assert np.array_equal(v, unpruned_mcshane(flat, good, 1e-20, u.spacing))


def test_mcshane_window_grows_across_a_wide_bad_block():
    u = sample_on_strip(rough_field(8), 48, 48, 1.0)
    good = np.ones((u.n1, u.n2), dtype=bool)
    good[10:36, 6:40] = False  # tiles in the middle see no good node nearby
    good[20, 22] = True  # and one lone good node inside
    for kappa in (0.5, 5.0, 50.0):
        v = _mcshane(u.planes(), good, kappa, u.spacing, np.ones_like(good))
        assert np.array_equal(v, unpruned_mcshane(u.planes(), good, kappa, u.spacing))


def test_mcshane_single_good_node():
    n1, n2 = 30, 21
    spacing = (0.1, 0.3)
    planes = random_scalar(n1, n2, seed=23)[None]
    for node in ((0, 0), (17, 9), (29, 20)):
        good = np.zeros((n1, n2), dtype=bool)
        good[node] = True
        for kappa in (0.7, 30.0):
            v = _mcshane(planes, good, kappa, spacing, np.ones_like(good))
            assert np.array_equal(v, unpruned_mcshane(planes, good, kappa, spacing))


@pytest.mark.parametrize("ncomp", [1, 2])
def test_mcshane_and_kappa_bytes_do_not_depend_on_layout(ncomp):
    # planes viewed from interleaved (n1, n2, ncomp) storage and contiguous
    # (ncomp, n1, n2) planes holding the same values give the same bytes
    u = sample_on_strip(rough_field(9), 40, 40, 1.0)
    mf = box_mf(u)
    good = ~(mf > float(np.quantile(mf, 0.7)))
    strided = np.moveaxis(np.ascontiguousarray(u.values[:, :, :ncomp]), -1, 0)
    planed = np.ascontiguousarray(strided)
    assert planed.flags.c_contiguous and strided.flags.c_contiguous == (ncomp == 1)
    kappas = [_good_set_kappa(x, good, 0.5, u.spacing) for x in (strided, planed)]
    assert np.float64(kappas[0]).tobytes() == np.float64(kappas[1]).tobytes()
    fill = np.zeros_like(good)
    fill[:, 12:20] = True
    for restrict in (np.ones_like(good), fill):
        v_str, v_pl = (_mcshane(x, good, kappas[0], u.spacing, fill=restrict)
                       for x in (strided, planed))
        assert v_str.shape == v_pl.shape == planed.shape
        assert v_str.tobytes() == v_pl.tobytes()


# ----------------------------------------------------------- reflection


def tent_row(J, K, m):
    z = (J - (K - m) // 2) % (2 * m)
    return z if z <= m else 2 * m - z


def test_reflect_to_square_row_map_matches_tent_oracle():
    spacing = (0.2, 1.0 / 16.0)
    scalar = one_component(random_scalar(7, 5, seed=12), spacing)
    vector = GridFunction(values=np.random.default_rng(12).standard_normal((7, 5, 2)),
                          spacing=spacing)
    K = round(1.0 / spacing[1])
    m = scalar.n2 - 1
    for u in (scalar, vector):
        ext = reflect_to_square(u)
        # the square is contiguous (ncomp, n1, K + 1) component planes
        assert ext.shape == (u.values.shape[2], 7, K + 1)
        assert ext.flags.c_contiguous
        for J in range(K + 1):
            assert np.array_equal(ext[:, :, J], u.planes()[:, :, tent_row(J, K, m)])


def test_reflect_to_square_every_strip_recovers_the_field():
    u = one_component(random_scalar(6, 5, seed=13), (0.25, 1.0 / 32.0))
    ext = reflect_to_square(u)
    K, m = ext.shape[2] - 1, u.n2 - 1
    n_side = (K - m) // (2 * m)
    assert n_side >= 1
    for i0 in range(-n_side, n_side + 1):
        rows = _strip_slice(i0, K, m)
        assert np.array_equal(ext[:, :, rows], u.planes())


def test_reflect_to_square_validation():
    with raises_value_error("even count"):
        reflect_to_square(GridFunction(values=np.zeros((4, 3, 1)), spacing=(0.1, 0.2)))
    with raises_value_error("even count"):
        reflect_to_square(GridFunction(values=np.zeros((4, 3, 1)), spacing=(0.1, 0.15)))
    with raises_value_error("even number of cells"):
        reflect_to_square(GridFunction(values=np.zeros((4, 4, 1)), spacing=(0.1, 0.125)))
    with raises_value_error("too thick"):
        reflect_to_square(GridFunction(values=np.zeros((4, 3, 1)), spacing=(0.1, 0.25)))


# ------------------------------------------------------- thin truncation


def test_thin_truncate_gentle_field_passes_through():
    u = sample_on_strip(lambda x, y, h=1.0: 0.1 * np.sin(2 * np.pi * x)[..., None] * np.ones(2),
                        32, 4, 0.125)
    res = thin_truncate(u, 14.0, 28.0)
    assert res.q == 0.0
    assert res.mismatch_area == 0.0
    assert not res.bad_mask.any()
    assert np.array_equal(res.v.values, u.values)
    assert not np.shares_memory(res.v.values, u.values)
    assert res.strip_index == 0
    assert res.lam == res.level


def test_thin_truncate_certificates_on_rough_field():
    u = sample_on_strip(rough_field(0), 64, 8, 0.125)
    a, A = 14.0, 28.0
    res = thin_truncate(u, a, A)
    assert res.mismatch_area > 0.0  # seed 0 is known to trip the level
    assert a <= res.level <= A
    assert grad_sup(res.v) <= res.lam  # exact by construction
    assert res.lam >= res.level
    assert res.bad_mask.shape == u.values.shape[:2]
    assert res.mismatch_area == pytest.approx(res.bad_mask.sum() * u.cell_area)
    recomputed = res.lam**2 * res.mismatch_area * np.log(A / a) / dirichlet_energy(u)
    assert res.q == pytest.approx(recomputed, rel=1e-12)


@pytest.mark.parametrize("n1, n2", [(64, 8), (128, 16), (256, 32)])
def test_thin_truncate_changes_only_bad_nodes_of_the_selected_strip(n1, n2):
    # bad_mask is {v != u} by definition; the property is that v differs
    # from u only where the selected strip has Mf > level.  Containment
    # only: the McShane fill may reproduce u at a bad node.
    a, A = 14.0, 28.0
    u = sample_on_strip(rough_field(0), n1, n2, 0.125)
    res = thin_truncate(u, a, A)
    ext = reflect_to_square(u)
    mf = maximal_function(gradient_magnitude(ext, u.spacing), u.spacing)
    rows = _strip_slice(res.strip_index, ext.shape[2] - 1, u.n2 - 1)
    strip_bad = mf[:, rows] > res.level
    assert res.bad_mask.any()
    assert not np.any(res.bad_mask & ~strip_bad)


def test_thin_truncate_strip_field_is_a_strip_of_the_square_output():
    u = sample_on_strip(rough_field(3), 64, 8, 0.125)
    res = thin_truncate(u, 14.0, 28.0)
    assert res.v.values.shape == u.values.shape
    assert res.v.spacing == u.spacing


@pytest.mark.parametrize(
    "seed, level, strip_index, n_bad, q, lam, kappa",
    [
        (28, 28.0, 0, 400, 0.8069399226650392, 53.87675497902643, 28.0),
        (31, 14.0, -3, 1517, 0.5742435232647988, 26.380467161097624, 14.0),
    ],
)
def test_thin_truncate_heavy_fields_pinned(seed, level, strip_index, n_bad, q, lam, kappa):
    # at 256x32, seed 31 has the sweep's largest bad set and takes the
    # lowest level; seed 28 takes the highest
    u = sample_on_strip(rough_field(seed), 256, 32, 0.125)
    res = thin_truncate(u, 14.0, 28.0)
    assert res.level == level
    assert res.strip_index == strip_index
    assert int(res.bad_mask.sum()) == n_bad
    assert res.q == pytest.approx(q, rel=1e-12)
    assert res.lam == pytest.approx(lam, rel=1e-12)
    assert res.kappa == pytest.approx(kappa, rel=1e-12)


@pytest.mark.parametrize("seed, n1, n2", [(0, 128, 16), (28, 256, 32)])
def test_thin_truncate_fill_matches_unpruned_oracle_on_the_square(seed, n1, n2):
    # the pruned, windowed fill on the reflected square equals the McShane
    # minimum over every good node of the square, bit for bit
    u = sample_on_strip(rough_field(seed), n1, n2, 0.125)
    res = thin_truncate(u, 14.0, 28.0)
    ext = reflect_to_square(u)
    bad = maximal_function(gradient_magnitude(ext, u.spacing), u.spacing) > res.level
    rows = _strip_slice(res.strip_index, ext.shape[2] - 1, u.n2 - 1)
    fill = np.zeros_like(bad)
    fill[:, rows] = True
    assert (fill & bad).any()
    expect = unpruned_mcshane(ext, ~bad, res.kappa, u.spacing, fill=fill)
    assert res.v.planes().tobytes() == expect[:, :, rows].tobytes()


@pytest.mark.parametrize("ncomp", [1, 2])
def test_thin_truncate_leaves_the_input_unchanged(ncomp):
    # with one component u's planes view is already contiguous, so a stage
    # that wrote in place would write into the caller's field
    u = sample_on_strip(rough_field(0), 64, 8, 0.125)
    u = GridFunction(values=np.ascontiguousarray(u.values[:, :, :ncomp]), spacing=u.spacing)
    before = u.values.copy()
    res = thin_truncate(u, 14.0, 28.0)
    assert res.bad_mask.any()
    assert u.values.tobytes() == before.tobytes()
    assert not np.shares_memory(res.v.values, u.values)


def test_thin_truncate_q_is_infinite_when_u_has_no_energy():
    # the cell-anchored energy never reads the far corner node, so a field
    # that moves only there has zero energy and a nonempty mismatch set
    values = np.zeros((33, 5, 2))
    values[-1, -1] = 50.0
    u = GridFunction(values=values, spacing=(1.0 / 32.0, 1.0 / 32.0))
    assert dirichlet_energy(u) == 0.0
    res = thin_truncate(u, 14.0, 28.0)
    assert res.mismatch_area > 0.0
    assert res.q == float("inf")


def test_thin_truncate_low_window_exhausts_good_set():
    u = sample_on_strip(rough_field(1), 64, 8, 0.125)
    with pytest.raises(DiagnosticError, match="good set is empty"):
        thin_truncate(u, 0.5, 1.0)


def test_thin_truncate_window_validation():
    u = sample_on_strip(rough_field(0), 32, 4, 0.125)
    with raises_value_error("0 < a < A"):
        thin_truncate(u, 28.0, 14.0)
    with raises_value_error("0 < a < A"):
        thin_truncate(u, 0.0, 14.0)


# ------------------------------------------------------------ test fields


def test_rough_field_is_deterministic_and_resolution_independent():
    fn_a = rough_field(7)
    fn_b = rough_field(7)
    x = np.linspace(0.0, 1.0, 11)
    y = np.linspace(0.0, 0.125, 5)
    X, Y = np.meshgrid(x, y, indexing="ij")
    assert np.array_equal(fn_a(X, Y, 0.125), fn_b(X, Y, 0.125))
    coarse = sample_on_strip(fn_a, 32, 4, 0.125)
    fine = sample_on_strip(fn_a, 64, 8, 0.125)
    assert np.array_equal(coarse.values, fine.values[::2, ::2])


def test_sample_on_strip_grid_layout():
    u = sample_on_strip(lambda x, y, h=1.0: np.stack([x + y, x - y], axis=-1), 8, 4, 0.25)
    assert u.values.shape == (9, 5, 2)
    assert u.spacing == pytest.approx((0.125, 0.0625))
    assert u.values[3, 2] == pytest.approx([3 * 0.125 + 2 * 0.0625, 3 * 0.125 - 2 * 0.0625])
