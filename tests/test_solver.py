"""Assembly consistency (FD checked) and the continuation solver."""

from fractions import Fraction

import numpy as np
import pytest
from scipy.linalg import solve_banded
from scipy.sparse import coo_matrix, dia_matrix, diags

from striplab import solver
from striplab.algebra import newton_step
from striplab.config import mesh_from
from striplab.elastica import ROD_N, minimize_J2, solve_elastica
from striplab.energy import HalfDistSquared, tension_modulus
from striplab.errors import ConfigError, StepRejected
from striplab.loads import LoadProfile
from striplab.mesh import StripMesh, build_mesh, mesh_rule_nx
from striplab.solver import (
    elastic_residual,
    lift,
    load_vector,
    scaled_energy,
    solve_stationary,
    tangent,
)

from helpers import config_from_text, raises_value_error

W = HalfDistSquared()
GAMMA = LoadProfile.constant(0.0, -1e-3)


def perturbed_field(mesh, scale=1e-3, seed=17):
    """Rigid state plus a small random displacement vanishing on the clamp."""
    rng = np.random.default_rng(seed)
    du = scale * rng.standard_normal(mesh.rigid.shape)
    du[mesh.clamped_nodes()] = 0.0
    return mesh.rigid + du


def dia(K):
    """A band returned by ``tangent`` as a scipy DIA matrix, offsets bw..-bw."""
    bw, ndof = (K.shape[0] - 1) // 2, K.shape[1]
    return dia_matrix((K, np.arange(bw, -bw - 1, -1)), shape=(ndof, ndof))


def test_rigid_state_is_exact_equilibrium():
    for h in (0.2, 0.05):
        mesh = build_mesh(1.0, h, 16, 4)
        y, rep = solve_stationary(mesh, LoadProfile.constant(0.0, 0.0), W)
        assert rep.converged
        assert rep.iterations == 0
        assert rep.residual_sup == 0.0
        assert np.array_equal(y, mesh.rigid)
        f = load_vector(mesh, LoadProfile.constant(0.0, 0.0)(mesh.qp_x[:, 0]))
        el, tot = scaled_energy(mesh, y, f, W, 1.0, mesh.scaled_gradients(y))
        assert el == 0.0 and tot == 0.0


def test_solver_returns_positions_it_owns():
    # at zero load neither solve takes a step, so what Newton returns is the
    # array it was given
    mesh = build_mesh(1.0, 0.1, 16, 4)
    zero = LoadProfile.constant(0.0, 0.0)
    rigid = mesh.rigid.copy()
    y, rep = solve_stationary(mesh, zero, W)
    assert rep.converged and rep.iterations == 0
    assert y.flags.writeable
    assert not np.shares_memory(y, mesh.rigid)
    start = lift(solve_elastica(1.0, zero, 1.0, n=256), mesh)
    y, rep = solve_stationary(mesh, zero, W, start=start)
    assert rep.converged and rep.iterations == 0
    assert not np.shares_memory(y, start)
    assert not mesh.rigid.flags.writeable
    assert mesh.rigid.tobytes() == rigid.tobytes()


def test_load_vector_against_dense_loops():
    h = 0.2
    mesh = build_mesh(1.0, h, 4, 2)
    g = LoadProfile.constant(0.3, -0.7)
    gvals = g(mesh.qp_x[:, 0])
    got = load_vector(mesh, gvals)  # flat, length 2*nnode
    expect = np.zeros((mesh.nnode, 2))
    for e in range(mesh.nelem):
        for q in range(4):
            qp = 4 * e + q
            for a in range(4):
                expect[mesh.conn[e, a]] += h**2 * mesh.qp_w * mesh.shape_n[q, a] * gvals[qp]
    expect[mesh.clamped_nodes()] = 0.0
    np.testing.assert_allclose(got, expect.ravel(), atol=1e-16)


@pytest.mark.parametrize("h, nx, ny", [(0.2, 8, 2), (0.1, 8, 3), (0.05, 12, 4), (0.025, 16, 5)])
def test_load_work_is_quadrature_work(h, nx, ny):
    # f . y, the load term of scaled_energy, against the quadrature sum of
    # h^2 g . y; the clamped rows f drops do no work, as y1 = 0 and
    # y2 = h x2 is odd in x2 there
    mesh = build_mesh(1.0, h, nx, ny)
    g = LoadProfile(
        xs=np.array([0.0, 0.4, 1.0]), vals=np.array([[0.3, -1.0], [-0.5, 0.2], [0.7, -0.4]])
    )
    gq = g(mesh.qp_x[:, 0])
    f = load_vector(mesh, gq)
    for seed in range(5):
        y = perturbed_field(mesh, scale=0.1, seed=seed)
        expect = h**2 * mesh.qp_w * np.sum(gq * mesh.qp_values(y))
        assert f @ y.ravel() == pytest.approx(expect, rel=1e-14, abs=0.0)


def test_residual_is_gradient_of_energy():
    mesh = build_mesh(1.0, 0.1, 8, 4)
    y = perturbed_field(mesh)
    F = mesh.scaled_gradients(y)
    f = load_vector(mesh, GAMMA(mesh.qp_x[:, 0]))
    r = elastic_residual(mesh, W, F) - f
    rng = np.random.default_rng(3)
    du = rng.standard_normal(y.shape)
    du[mesh.clamped_nodes()] = 0.0
    eps = 1e-7

    def total(y):
        F = mesh.scaled_gradients(y)
        _, tot = scaled_energy(mesh, y, f, W, 1.0, F)
        return tot

    fd = (total(y + eps * du) - total(y - eps * du)) / (2 * eps)
    analytic = float(r @ du.ravel())
    assert analytic == pytest.approx(fd, rel=1e-6, abs=1e-12)


def test_tangent_is_derivative_of_residual():
    mesh = build_mesh(1.0, 0.1, 6, 3)
    y = perturbed_field(mesh, seed=23)
    K = dia(tangent(mesh, W, mesh.scaled_gradients(y)))
    rng = np.random.default_rng(4)
    du = rng.standard_normal(y.shape)
    du[mesh.clamped_nodes()] = 0.0
    eps = 1e-7
    hi = mesh.scaled_gradients(y + eps * du)
    lo = mesh.scaled_gradients(y - eps * du)
    fd = (elastic_residual(mesh, W, hi) - elastic_residual(mesh, W, lo)) / (2 * eps)
    got = K @ du.ravel()
    fixed = np.arange(2 * mesh.clamped_nodes().size)
    np.testing.assert_allclose(np.delete(got, fixed), np.delete(fd, fixed), rtol=2e-6, atol=2e-9)


def test_tangent_is_symmetric():
    mesh = build_mesh(1.0, 0.1, 6, 3)
    y = perturbed_field(mesh, seed=29)
    K = dia(tangent(mesh, W, mesh.scaled_gradients(y))).tocsr()
    gap = abs(K - K.T).max()
    assert gap < 1e-12 * abs(K).max()


def test_tangent_clamped_rows_and_columns_are_identity():
    mesh = build_mesh(1.0, 0.1, 6, 3)
    y = perturbed_field(mesh, seed=31)
    K = dia(tangent(mesh, W, mesh.scaled_gradients(y))).tocsr()
    fixed = np.arange(2 * mesh.clamped_nodes().size)
    dense = K.toarray()
    eye = np.eye(K.shape[0])
    assert np.array_equal(dense[fixed], eye[fixed])
    assert np.array_equal(dense[:, fixed], eye[:, fixed])
    # no stored entry, even an explicit zero, couples a clamped dof to another
    rows = np.repeat(np.arange(K.shape[0]), np.diff(K.indptr))
    touches = np.isin(rows, fixed) | np.isin(K.indices, fixed)
    assert np.array_equal(rows[touches], K.indices[touches])


def test_tangent_band_layout():
    mesh = build_mesh(1.0, 0.1, 6, 3)
    y = perturbed_field(mesh, seed=37)
    F = mesh.scaled_gradients(y)
    K = tangent(mesh, W, F)
    A = W.hessian(F).reshape(mesh.nelem, 4, 2, 2, 2, 2)
    B = mesh.B.reshape(4, 2, 2, 8)
    ndof = 2 * mesh.nnode
    expect = np.zeros((ndof, ndof))
    for e in range(mesh.nelem):
        for q in range(4):
            ke = np.einsum("ikr,ikjl,jls->rs", B[q], A[e, q], B[q])
            expect[np.ix_(mesh.edofs[e], mesh.edofs[e])] += mesh.qp_w * ke
    fixed = np.arange(2 * mesh.clamped_nodes().size)
    expect[fixed] = 0.0
    expect[:, fixed] = 0.0
    expect[fixed, fixed] = 1.0
    np.testing.assert_allclose(dia(K).toarray(), expect, rtol=0, atol=1e-13 * abs(expect).max())

    bw = 2 * mesh.ny + 5
    assert mesh.k_bw == bw and K.shape == (2 * bw + 1, ndof)
    # DIA -> CSR drops explicit zeros, so check the band itself: K[k, c]
    # is entry (c + k - bw, c)
    k, c = np.indices(K.shape)
    r = c + k - bw
    inside = (r >= 0) & (r < ndof)
    touches = inside & (np.isin(r, fixed) | np.isin(c, fixed))
    assert np.array_equal(K[touches], (r == c)[touches].astype(float))


@pytest.mark.parametrize("nx, ny", [(16, 4), (160, 8)])
def test_operator_assembly_matches_element_definition(nx, ny):
    """Residual B^T P, tangent sum_q w B_q^T A_q B_q and F = Id + B u_e, by definition."""
    mesh = build_mesh(1.0, 0.025, nx, ny)
    y = perturbed_field(mesh, scale=1e-5, seed=41)
    ue = (y - mesh.rigid).reshape(-1)[mesh.edofs]
    F = np.einsum("qgd,ed->eqg", mesh.B, ue).reshape(mesh.nqp, 2, 2) + np.eye(2)
    got = mesh.scaled_gradients(y)
    assert np.max(np.abs(got - F)) <= 1e-13 * np.max(np.abs(F))

    P = W.stress(F).reshape(mesh.nelem, 4, 4)
    expect = np.zeros(2 * mesh.nnode)
    np.add.at(expect, mesh.edofs, mesh.qp_w * np.einsum("qgd,eqg->ed", mesh.B, P))
    expect.reshape(-1, 2)[mesh.clamped_nodes()] = 0.0
    got = elastic_residual(mesh, W, mesh.scaled_gradients(y))
    assert np.max(np.abs(got - expect)) <= 1e-13 * np.max(np.abs(expect))

    A = W.hessian(F).reshape(mesh.nelem, 4, 4, 4)
    ke = mesh.qp_w * np.einsum("qgd,eqgh,qhf->edf", mesh.B, A, mesh.B)
    ndof = 2 * mesh.nnode
    rows = np.repeat(mesh.edofs, 8, axis=1).reshape(-1)
    cols = np.tile(mesh.edofs, 8).reshape(-1)
    fixed = np.arange(ndof) < 2 * mesh.clamped_nodes().size  # the clamped nodes come first
    keep = ~(fixed[rows] | fixed[cols])
    expect = coo_matrix((ke.reshape(-1)[keep], (rows[keep], cols[keep])), shape=(ndof, ndof))
    expect = (expect + diags(fixed.astype(float))).tocsr()
    gap = abs(dia(tangent(mesh, W, mesh.scaled_gradients(y))).tocsr() - expect).max()
    assert gap <= 1e-13 * abs(expect).max()


def test_newton_builds_gradients_once_per_evaluation(monkeypatch):
    # each residual evaluation builds F once and shares it with the tangent
    # and, where it is computed, the energy; the solve's energies come from
    # the F of Newton's last accepted evaluation, so it builds no more
    counts = {"gradients": 0, "residual": 0}
    scaled_gradients = StripMesh.scaled_gradients

    def gradients(self, y):
        counts["gradients"] += 1
        return scaled_gradients(self, y)

    def residual(*args, **kwargs):
        counts["residual"] += 1
        return elastic_residual(*args, **kwargs)

    monkeypatch.setattr(StripMesh, "scaled_gradients", gradients)
    monkeypatch.setattr("striplab.solver.elastic_residual", residual)
    _, rep = solve_stationary(build_mesh(1.0, 0.1, 16, 4), GAMMA, W)
    assert rep.converged and rep.iterations > 1
    assert counts["gradients"] == counts["residual"]


@pytest.mark.parametrize("h", [0.1, 0.025])
def test_lifted_solve_computes_the_energy_only_where_it_is_read(monkeypatch, h):
    # converge's solve: a lifted start at the shipped load.  Every trial but
    # the closing refinement passes the residual test; that one starts at
    # the roundoff floor, so its residual cannot fall by the Armijo factor
    # and the energy test reads the iterate's energy and the trial's, which
    # is then the returned iterate's
    counts = {"energy": 0, "gradients": 0, "newton": 0}
    newton, energy = solver._newton, solver.scaled_energy
    scaled_gradients = StripMesh.scaled_gradients

    def counted(key, fn):
        def wrapped(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return wrapped

    mesh = build_mesh(1.0, h, mesh_rule_nx(1.0, h), 8)
    start = lift(solve_elastica(tension_modulus(W), GAMMA, 1.0, n=ROD_N), mesh)
    monkeypatch.setattr("striplab.solver._newton", counted("newton", newton))
    monkeypatch.setattr("striplab.solver.scaled_energy", counted("energy", energy))
    monkeypatch.setattr(StripMesh, "scaled_gradients", counted("gradients", scaled_gradients))
    y, rep = solve_stationary(mesh, GAMMA, W, start=start)
    assert rep.converged and rep.iterations == 3
    assert counts == {"energy": 2, "gradients": 4, "newton": 1}
    f = load_vector(mesh, GAMMA(mesh.qp_x[:, 0]))
    el, tot = energy(mesh, y, f, W, 1.0, scaled_gradients(mesh, y))
    assert (rep.elastic_energy, rep.total_energy) == (el, tot)  # bit for bit


def test_singular_tangent_fails_fast_with_reason(monkeypatch):
    class Flat(HalfDistSquared):
        def hessian(self, F):
            return np.zeros(F.shape + (2, 2))

    mesh = build_mesh(1.0, 0.2, 16, 4)
    monkeypatch.setattr("striplab.solver.MIN_LOAD_STEP", 0.5)
    _, rep = solve_stationary(mesh, GAMMA, Flat())
    assert not rep.converged
    assert "singular tangent" in rep.message


@pytest.mark.parametrize("h, nx", [(0.2, 64), (0.025, 160)])
def test_newton_step_matches_solve_banded_bit_for_bit(h, nx):
    # gbsv called directly factors the same values as scipy's wrapper does
    mesh = build_mesh(1.0, h, nx, 8)
    y = lift(solve_elastica(1.0, GAMMA, 1.0, n=256), mesh)
    F = mesh.scaled_gradients(y)
    r = elastic_residual(mesh, W, F) - load_vector(mesh, GAMMA(mesh.qp_x[:, 0]))
    K = tangent(mesh, W, F)
    K_before, r_before = K.copy(), r.copy()
    delta = newton_step(K, r)
    assert delta.tobytes() == solve_banded((mesh.k_bw, mesh.k_bw), K, -r).tobytes()
    assert K.tobytes() == K_before.tobytes() and r.tobytes() == r_before.tobytes()


def test_cold_continuation_ends_exactly_at_full_load(monkeypatch):
    # the first step, at full load, needs more than six iterations, so the
    # load loop halves it
    mesh = build_mesh(1.0, 0.2, 16, 4)
    monkeypatch.setattr("striplab.solver.MAX_ITERS", 6)
    y, rep = solve_stationary(mesh, LoadProfile.constant(0.0, -0.5), W)
    assert rep.converged
    ids = mesh.clamped_nodes()
    assert y[ids].tobytes() == mesh.rigid[ids].tobytes()
    assert rep.message.startswith("cold start at full load failed: Newton iteration cap")
    loads = [mu for mu, _ in rep.path]
    assert all(a < b for a, b in zip(loads, loads[1:]))
    # each increment is 2^-k >= MIN_LOAD_STEP, so every load factor is a
    # dyadic rational with a small denominator (0.1 would have 2^55)
    assert all(Fraction(mu).denominator <= 1 / solver.MIN_LOAD_STEP for mu in loads)
    assert rep.path[-1][0] == 1.0


@pytest.mark.parametrize("h, nx", [(0.0125, 320), (0.00625, 640)])
def test_thin_cold_solve_converges_at_full_load(h, nx):
    mesh = build_mesh(1.0, h, nx, 8)
    _, rep = solve_stationary(mesh, GAMMA, W)
    assert rep.converged
    assert rep.message == ""
    assert [mu for mu, _ in rep.path] == [1.0]


@pytest.mark.parametrize("h, nx", [(0.2, 64), (0.025, 160), (0.0125, 320)])
def test_solve_stops_at_the_roundoff_floor(h, nx):
    """One more full Newton step from a returned state cannot halve its residual."""
    mesh = build_mesh(1.0, h, nx, 8)
    y, rep = solve_stationary(mesh, GAMMA, W)
    assert rep.converged
    f = load_vector(mesh, GAMMA(mesh.qp_x[:, 0]))
    F = mesh.scaled_gradients(y)
    r = elastic_residual(mesh, W, F) - f
    assert float(np.max(np.abs(r))) == rep.residual_sup
    K = tangent(mesh, W, F)
    delta = solve_banded((mesh.k_bw, mesh.k_bw), K, -r)
    assert not delta[np.arange(2 * mesh.clamped_nodes().size)].any()  # assembly holds the clamp
    F = mesh.scaled_gradients(y + delta.reshape(-1, 2))
    after = float(np.max(np.abs(elastic_residual(mesh, W, F) - f)))
    assert after > 0.5 * rep.residual_sup


HEAVY = LoadProfile.constant(-1.0, -1e-3)  # past Greenhill's load
TIP_X, TIP_Y = 0.421673, -0.804849  # buckled tip midline on 16x4 at h = 0.1


def test_heavy_column_converges_by_continuation():
    mesh = build_mesh(1.0, 0.1, 16, 4)
    y, rep = solve_stationary(mesh, HEAVY, W)
    assert rep.converged
    assert rep.message.startswith("cold start at full load failed:")
    assert "not a descent direction" in rep.message
    assert len(rep.path) > 1
    assert rep.path[-1][0] == 1.0
    ids = mesh.clamped_nodes()
    assert y[ids].tobytes() == mesh.rigid[ids].tobytes()


def test_armijo_energies_leave_the_report_exact(monkeypatch):
    # the heavy column's continuation reaches the energy test; whatever the
    # line search computed, the report holds the returned iterate's energies
    energy = solver.scaled_energy
    calls = 0

    def counted(*args, **kwargs):
        nonlocal calls
        calls += 1
        return energy(*args, **kwargs)

    monkeypatch.setattr("striplab.solver.scaled_energy", counted)
    mesh = build_mesh(1.0, 0.1, 16, 4)
    y, rep = solve_stationary(mesh, HEAVY, W)
    assert rep.converged
    assert calls > len(rep.path)  # some trial failed the residual test
    f = load_vector(mesh, HEAVY(mesh.qp_x[:, 0]))
    el, tot = energy(mesh, y, f, W, 1.0, mesh.scaled_gradients(y))
    assert (rep.elastic_energy, rep.total_energy) == (el, tot)


def test_iterations_count_rejected_increments(monkeypatch):
    calls = 0

    def counted(*args, **kwargs):
        nonlocal calls
        calls += 1
        return tangent(*args, **kwargs)

    monkeypatch.setattr("striplab.solver.tangent", counted)
    _, rep = solve_stationary(build_mesh(1.0, 0.1, 16, 4), HEAVY, W)
    assert rep.converged
    assert sum(it for _, it in rep.path) < rep.iterations <= calls


def test_start_failing_at_full_load_still_converges():
    mesh = build_mesh(1.0, 0.1, 16, 4)
    start = lift(solve_elastica(1.0, GAMMA, 1.0, n=256), mesh)
    y0 = start.copy()
    y, rep = solve_stationary(mesh, HEAVY, W, start=start)
    assert np.array_equal(start, y0)
    assert rep.converged
    assert rep.message.startswith("given start at full load failed:")
    assert len(rep.path) > 1
    assert rep.path[-1][0] == 1.0
    tip = y[mesh.nx * (mesh.ny + 1) + mesh.ny // 2]
    assert tip == pytest.approx([TIP_X, TIP_Y], abs=1e-6)
    ids = mesh.clamped_nodes()
    assert y[ids].tobytes() == mesh.rigid[ids].tobytes()


def test_lifted_heavy_column_converges_in_one_load_step():
    mesh = build_mesh(1.0, 0.1, 16, 4)
    rod = minimize_J2(1.0, HEAVY, 1.0, n=256)
    y, rep = solve_stationary(mesh, HEAVY, W, start=lift(rod, mesh))
    assert rep.converged
    assert rep.message == ""
    assert len(rep.path) == 1
    tip = y[mesh.nx * (mesh.ny + 1) + mesh.ny // 2]
    assert tip == pytest.approx([TIP_X, TIP_Y], abs=1e-6)


def test_solve_small_load_converges_and_bends_down():
    mesh = build_mesh(1.0, 0.2, 64, 8)
    y, rep = solve_stationary(mesh, GAMMA, W)
    assert rep.converged
    assert rep.iterations > 0
    # tip midline moves down under a downward load
    tip = y[mesh.nx * (mesh.ny + 1) + mesh.ny // 2]
    assert tip[1] < 0.0
    assert rep.elastic_energy > 0.0
    assert rep.total_energy < 0.0  # work done exceeds stored energy at equilibrium


def test_lifted_start_converges_in_one_load_step():
    mesh = build_mesh(1.0, 0.1, 64, 8)
    start = lift(solve_elastica(1.0, GAMMA, 1.0, n=256), mesh)
    _, rep = solve_stationary(mesh, GAMMA, W, start=start)
    assert rep.converged
    assert rep.message == ""
    assert len(rep.path) == 1


def test_lift_meets_clamp_exactly():
    mesh = build_mesh(1.0, 0.1, 32, 4)
    rod = solve_elastica(1.0, LoadProfile.constant(0.0, -0.5), 1.0, n=64)
    y = lift(rod, mesh)
    ids = mesh.clamped_nodes()
    clamp = np.stack([np.zeros(ids.size), mesh.h * mesh.x2], axis=1)
    assert y[ids].tobytes() == clamp.tobytes()  # bitwise, signed zeros included
    assert np.max(np.abs(y - mesh.rigid)) > 0.1  # the rod is bent


def test_unreachable_load_reports_nonconvergence(monkeypatch):
    mesh = build_mesh(1.0, 0.2, 16, 4)
    monkeypatch.setattr("striplab.solver.MAX_ITERS", 2)
    monkeypatch.setattr("striplab.solver.MIN_LOAD_STEP", 0.3)
    y, rep = solve_stationary(mesh, LoadProfile.constant(0.0, -0.5), W)
    assert not rep.converged
    assert "stalled" in rep.message
    assert np.all(np.isfinite(y))
    ids = mesh.clamped_nodes()
    assert y[ids].tobytes() == mesh.rigid[ids].tobytes()


def test_residual_guards_inverted_elements():
    mesh = build_mesh(1.0, 0.2, 4, 2)
    y = mesh.rigid.copy()
    grid = np.arange(mesh.nnode).reshape(mesh.nx + 1, mesh.ny + 1)
    y[grid[2, :], 0] -= 2.0 * mesh.dx  # fold the mesh over itself
    F = mesh.scaled_gradients(y)
    with pytest.raises(StepRejected):
        elastic_residual(mesh, W, F) - load_vector(mesh, GAMMA(mesh.qp_x[:, 0]))
    F[3] = np.nan  # argmin picks the NaN, which compares False with the floor
    with pytest.raises(StepRejected, match="det = nan"):
        elastic_residual(mesh, W, F)


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning", "ignore:invalid:RuntimeWarning")
def test_overflowing_load_fails_without_raising():
    # the first Newton step overflows, so a trial's determinants are NaN; the
    # guard rejects them like any other trial, and the solve reports why
    mesh = build_mesh(1.0, 0.2, 64, 8)
    y, rep = solve_stationary(mesh, LoadProfile.constant(0.0, 1e308), W)
    assert not rep.converged
    assert "line search failed" in rep.message
    assert rep.path == []
    assert y.tobytes() == mesh.rigid.tobytes()


def test_start_on_another_mesh_is_refused():
    # same grid, other thickness: its clamped edge spans 0.2, not 0.1
    mesh = build_mesh(1.0, 0.1, 8, 2)
    with raises_value_error("start"):
        solve_stationary(mesh, GAMMA, W, start=build_mesh(1.0, 0.2, 8, 2).rigid)


def test_start_off_the_clamp_is_refused():
    # no Newton step moves a clamped dof, so such a start would be solved
    # with its clamped edge where it was given
    mesh = build_mesh(1.0, 0.1, 16, 4)
    start = mesh.rigid.copy()
    start[mesh.clamped_nodes(), 1] += 0.01
    with raises_value_error("clamp"):
        solve_stationary(mesh, GAMMA, W, start=start)
    with raises_value_error("start"):
        solve_stationary(mesh, GAMMA, W, start=mesh.rigid[:-1])


def test_thickness_validation():
    # a stationary solve reads h from its mesh; mesh_from checks (0, 0.5]
    for h in (0.0, 0.7):
        with pytest.raises(ConfigError, match="strip.h"):
            mesh_from(config_from_text(f"strip.h = {h}\nstrip.nx = 8\nstrip.ny = 2\n"))
    mesh = build_mesh(1.0, 0.5, 8, 2)
    y, rep = solve_stationary(mesh, LoadProfile.constant(0.0, 0.0), W)
    assert rep.converged and np.array_equal(y, mesh.rigid)
