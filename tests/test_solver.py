"""Assembly consistency (FD checked) and the continuation solver."""

from fractions import Fraction

import numpy as np
import pytest
from scipy.linalg import solve_banded

from striplab import (
    HalfDistSquared,
    LoadProfile,
    SolverConfig,
    build_mesh,
    rigid_state,
    scaled_energy,
    solve_stationary,
    warm_start,
)
from striplab.errors import ConfigError, StepRejected
from striplab.mesh import DeformationField
from striplab.solver import elastic_residual, load_vector, tangent

W = HalfDistSquared()
GAMMA = LoadProfile.constant(0.0, -1e-3)


def perturbed_field(mesh, h, scale=1e-3, seed=17):
    """Rigid state plus a small random displacement vanishing on the clamp."""
    fld = rigid_state(mesh, h)
    rng = np.random.default_rng(seed)
    du = scale * rng.standard_normal(fld.y.shape)
    du[mesh.clamped_nodes()] = 0.0
    fld.y += du
    return fld


def test_rigid_state_is_exact_equilibrium():
    for h in (0.2, 0.05):
        mesh = build_mesh(1.0, 16, 4)
        fld, rep = solve_stationary(mesh, h, LoadProfile.constant(0.0, 0.0), W)
        assert rep.converged
        assert rep.iterations == 0
        assert rep.residual_sup == 0.0
        assert np.array_equal(fld.y, rigid_state(mesh, h).y)
        el, tot = scaled_energy(fld, LoadProfile.constant(0.0, 0.0), W, 1.0)
        assert el == 0.0 and tot == 0.0


def test_load_vector_against_dense_loops():
    mesh = build_mesh(1.0, 4, 2)
    h = 0.2
    g = LoadProfile.constant(0.3, -0.7)
    got = load_vector(mesh, g, h)  # flat, length 2*nnode
    expect = np.zeros((mesh.nnode, 2))
    gvals = g(mesh.qp_x[:, 0])
    for e in range(mesh.nelem):
        for q in range(4):
            qp = 4 * e + q
            for a in range(4):
                expect[mesh.conn[e, a]] += h**2 * mesh.qp_w * mesh.shape_n[q, a] * gvals[qp]
    expect[mesh.clamped_nodes()] = 0.0
    np.testing.assert_allclose(got, expect.ravel(), atol=1e-16)


def test_residual_is_gradient_of_energy():
    mesh = build_mesh(1.0, 8, 4)
    h = 0.1
    fld = perturbed_field(mesh, h)
    r = elastic_residual(fld, W, 0.1) - load_vector(mesh, GAMMA, h)
    rng = np.random.default_rng(3)
    du = rng.standard_normal(fld.y.shape)
    du[mesh.clamped_nodes()] = 0.0
    eps = 1e-7

    def total(y):
        probe = DeformationField(mesh=mesh, h=h, y=y)
        _, tot = scaled_energy(probe, GAMMA, W, 1.0)
        return tot

    fd = (total(fld.y + eps * du) - total(fld.y - eps * du)) / (2 * eps)
    analytic = float(r @ du.ravel())
    assert analytic == pytest.approx(fd, rel=1e-6, abs=1e-12)


def test_tangent_is_derivative_of_residual():
    mesh = build_mesh(1.0, 6, 3)
    h = 0.1
    fld = perturbed_field(mesh, h, seed=23)
    K = tangent(fld, W)
    rng = np.random.default_rng(4)
    du = rng.standard_normal(fld.y.shape)
    du[mesh.clamped_nodes()] = 0.0
    eps = 1e-7
    hi = DeformationField(mesh=mesh, h=h, y=fld.y + eps * du)
    lo = DeformationField(mesh=mesh, h=h, y=fld.y - eps * du)
    fd = (elastic_residual(hi, W, 0.1) - elastic_residual(lo, W, 0.1)) / (2 * eps)
    got = K @ du.ravel()
    free = mesh.free_dofs()
    np.testing.assert_allclose(got[free], fd[free], rtol=2e-6, atol=2e-9)


def test_tangent_is_symmetric():
    mesh = build_mesh(1.0, 6, 3)
    fld = perturbed_field(mesh, 0.1, seed=29)
    K = tangent(fld, W).tocsr()
    gap = abs(K - K.T).max()
    assert gap < 1e-12 * abs(K).max()


def test_tangent_clamped_rows_and_columns_are_identity():
    mesh = build_mesh(1.0, 6, 3)
    fld = perturbed_field(mesh, 0.1, seed=31)
    K = tangent(fld, W).tocsr()
    fixed = np.flatnonzero(~mesh.free_dofs())
    dense = K.toarray()
    eye = np.eye(K.shape[0])
    assert np.array_equal(dense[fixed], eye[fixed])
    assert np.array_equal(dense[:, fixed], eye[:, fixed])
    # no stored entry, even an explicit zero, couples a clamped dof to another
    rows = np.repeat(np.arange(K.shape[0]), np.diff(K.indptr))
    touches = np.isin(rows, fixed) | np.isin(K.indices, fixed)
    assert np.array_equal(rows[touches], K.indices[touches])


def test_tangent_band_layout():
    mesh = build_mesh(1.0, 6, 3)
    fld = perturbed_field(mesh, 0.1, seed=37)
    K = tangent(fld, W)
    A = W.hessian(fld.gradients()).reshape(mesh.nelem, 4, 2, 2, 2, 2)
    B = mesh.strain_operator(fld.h).reshape(4, 2, 2, 8)
    ndof = 2 * mesh.nnode
    expect = np.zeros((ndof, ndof))
    for e in range(mesh.nelem):
        for q in range(4):
            ke = np.einsum("ikr,ikjl,jls->rs", B[q], A[e, q], B[q])
            expect[np.ix_(mesh.edofs[e], mesh.edofs[e])] += mesh.qp_w * ke
    fixed = np.flatnonzero(~mesh.free_dofs())
    expect[fixed] = 0.0
    expect[:, fixed] = 0.0
    expect[fixed, fixed] = 1.0
    np.testing.assert_allclose(K.toarray(), expect, rtol=0, atol=1e-13 * abs(expect).max())

    bw = 2 * mesh.ny + 5
    assert np.array_equal(K.offsets, np.arange(bw, -bw - 1, -1))
    # DIA -> CSR drops explicit zeros, so check the band itself: data[k, c]
    # is entry (c + k - bw, c)
    k, c = np.indices(K.data.shape)
    r = c + k - bw
    inside = (r >= 0) & (r < ndof)
    touches = inside & (np.isin(r, fixed) | np.isin(c, fixed))
    assert np.array_equal(K.data[touches], (r == c)[touches].astype(float))


def test_singular_tangent_fails_fast_with_reason():
    class Flat(HalfDistSquared):
        def hessian(self, F):
            return np.zeros(F.shape + (2, 2))

    mesh = build_mesh(1.0, 16, 4)
    cfg = SolverConfig(min_load_step=0.5)
    _, rep = solve_stationary(mesh, 0.2, GAMMA, Flat(), cfg)
    assert not rep.converged
    assert "singular tangent" in rep.message


def test_cold_continuation_ends_exactly_at_full_load():
    # the first step, at full load, needs more than six iterations, so the
    # load loop halves it
    mesh = build_mesh(1.0, 16, 4)
    cfg = SolverConfig(max_iters=6)
    _, rep = solve_stationary(mesh, 0.2, LoadProfile.constant(0.0, -0.5), W, cfg)
    assert rep.converged
    assert rep.message.startswith("cold start at full load failed: Newton iteration cap")
    loads = [mu for mu, _ in rep.path]
    assert all(a < b for a, b in zip(loads, loads[1:]))
    # each increment is 2^-k >= min_load_step, so every load factor is a
    # dyadic rational with a small denominator (0.1 would have 2^55)
    assert all(Fraction(mu).denominator <= 1 / cfg.min_load_step for mu in loads)
    assert rep.path[-1][0] == 1.0


@pytest.mark.parametrize("h, nx", [(0.0125, 320), (0.00625, 640)])
def test_thin_cold_solve_converges_at_full_load(h, nx):
    mesh = build_mesh(1.0, nx, 8)
    _, rep = solve_stationary(mesh, h, GAMMA, W)
    assert rep.converged
    assert rep.message == ""
    assert [mu for mu, _ in rep.path] == [1.0]


@pytest.mark.parametrize("h, nx", [(0.2, 64), (0.025, 160), (0.0125, 320)])
def test_solve_stops_at_the_roundoff_floor(h, nx):
    """One more full Newton step from a returned state cannot halve its residual."""
    mesh = build_mesh(1.0, nx, 8)
    fld, rep = solve_stationary(mesh, h, GAMMA, W)
    assert rep.converged
    f = load_vector(mesh, GAMMA, h)
    r = elastic_residual(fld, W, 0.1) - f
    assert float(np.max(np.abs(r))) == rep.residual_sup
    K = tangent(fld, W)
    delta = solve_banded((mesh.k_bw, mesh.k_bw), K.data, -r)
    delta[~mesh.free_dofs()] = 0.0
    fld.y = fld.y + delta.reshape(-1, 2)
    after = float(np.max(np.abs(elastic_residual(fld, W, 0.1) - f)))
    assert after > 0.5 * rep.residual_sup


HEAVY = LoadProfile.constant(-1.0, -1e-3)  # past Greenhill's load


def test_heavy_column_converges_by_continuation():
    mesh = build_mesh(1.0, 16, 4)
    _, rep = solve_stationary(mesh, 0.1, HEAVY, W)
    assert rep.converged
    assert rep.message.startswith("cold start at full load failed:")
    assert "not a descent direction" in rep.message
    assert len(rep.path) > 1
    assert rep.path[-1][0] == 1.0


def test_iterations_count_rejected_increments(monkeypatch):
    calls = 0

    def counted(*args, **kwargs):
        nonlocal calls
        calls += 1
        return tangent(*args, **kwargs)

    monkeypatch.setattr("striplab.solver.tangent", counted)
    _, rep = solve_stationary(build_mesh(1.0, 16, 4), 0.1, HEAVY, W)
    assert rep.converged
    assert sum(it for _, it in rep.path) < rep.iterations <= calls


def test_warm_start_failing_at_full_load_still_converges():
    mesh = build_mesh(1.0, 16, 4)
    prev, _ = solve_stationary(mesh, 0.2, GAMMA, W)
    fld, rep = solve_stationary(mesh, 0.1, HEAVY, W, warm=prev)
    assert rep.converged
    assert rep.message.startswith("warm start at full load failed:")
    assert rep.path[-1][0] == 1.0
    tip = fld.y[mesh.nx * (mesh.ny + 1) + mesh.ny // 2]
    assert tip == pytest.approx([0.421673, -0.804849], abs=1e-6)


def test_solve_small_load_converges_and_bends_down():
    mesh = build_mesh(1.0, 64, 8)
    fld, rep = solve_stationary(mesh, 0.2, GAMMA, W)
    assert rep.converged
    assert rep.iterations > 0
    # tip midline moves down under a downward load
    tip = fld.y[mesh.nx * (mesh.ny + 1) + mesh.ny // 2]
    assert tip[1] < 0.0
    assert rep.elastic_energy > 0.0
    assert rep.total_energy < 0.0  # work done exceeds stored energy at equilibrium


def test_warm_start_prefers_direct_solve():
    mesh = build_mesh(1.0, 64, 8)
    fld, _ = solve_stationary(mesh, 0.2, GAMMA, W)
    mesh2 = build_mesh(1.0, 64, 8)
    warm, rep2 = solve_stationary(mesh2, 0.1, GAMMA, W, warm=fld)
    assert rep2.converged
    assert rep2.message == "warm start"
    assert len(rep2.path) == 1
    ids = mesh2.clamped_nodes()
    clamp = np.stack([np.zeros(ids.size), warm.h * mesh2.x2], axis=1)
    assert np.max(np.abs(warm.y[ids] - clamp)) == 0.0


def test_warm_start_reimposes_clamp_exactly():
    mesh = build_mesh(1.0, 16, 4)
    fld = perturbed_field(mesh, 0.2, scale=0.05)
    fld.y[mesh.clamped_nodes()] += 0.02  # violate the clamp on purpose
    moved = warm_start(fld, build_mesh(1.0, 32, 4), 0.1)
    ids = moved.mesh.clamped_nodes()
    clamp = np.stack([np.zeros(ids.size), moved.h * moved.mesh.x2], axis=1)
    assert np.max(np.abs(moved.y[ids] - clamp)) == 0.0


def test_unreachable_load_reports_nonconvergence():
    mesh = build_mesh(1.0, 16, 4)
    cfg = SolverConfig(max_iters=2, min_load_step=0.3)
    fld, rep = solve_stationary(mesh, 0.2, LoadProfile.constant(0.0, -0.5), W, cfg)
    assert not rep.converged
    assert "stalled" in rep.message
    assert np.all(np.isfinite(fld.y))


def test_residual_guards_inverted_elements():
    mesh = build_mesh(1.0, 4, 2)
    fld = rigid_state(mesh, 0.2)
    grid = np.arange(mesh.nnode).reshape(mesh.nx + 1, mesh.ny + 1)
    fld.y[grid[2, :], 0] -= 2.0 * mesh.dx  # fold the mesh over itself
    with pytest.raises(StepRejected):
        elastic_residual(fld, W, 0.1) - load_vector(mesh, GAMMA, fld.h)


def test_thickness_validation():
    mesh = build_mesh(1.0, 8, 2)
    with pytest.raises(ConfigError):
        solve_stationary(mesh, 0.0, GAMMA, W)
    with pytest.raises(ConfigError):
        solve_stationary(mesh, 0.7, GAMMA, W)
