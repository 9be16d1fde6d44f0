"""Rotation extraction, strain/stress moments, and the identity report."""

import numpy as np
import pytest

from striplab.algebra import rot2, tmul2, trans2
from striplab.cli import main
from striplab.config import ExperimentConfig, load_from, mesh_from
from striplab.diagnostics import (
    _slab_weights,
    column_moments,
    diagnose,
    mollified_angle,
    slab_rotations,
    theta_error,
    y_error,
)
from striplab.elastica import ROD_N, solve_elastica
from striplab.energy import HalfDistSquared, IsotropicQuadratic, tension_modulus
from striplab.errors import ConfigError, DiagnosticError
from striplab.loads import LoadProfile
from striplab.mesh import build_mesh, mesh_rule_nx
from striplab.solver import lift, solve_stationary

from helpers import config_from_text, read_table

W = HalfDistSquared()
G0 = LoadProfile.constant(0.0, 0.0)


def slab_angle_of(mesh, y):
    return slab_rotations(mesh, mesh.scaled_gradients(y))


def rotated_state(mesh, phi):
    """y = R(phi) (x1, h x2): scaled gradient R exactly, but clamp violated."""
    return mesh.rigid @ rot2(phi).T


def test_slab_rotations_rigid_state_zero():
    mesh = build_mesh(1.0, 0.2, 32, 4)
    slab_angle = slab_angle_of(mesh, mesh.rigid)
    assert slab_angle.size == 5
    assert np.all(slab_angle == 0.0)


def test_slab_rotations_recover_constant_rotation():
    mesh = build_mesh(1.0, 0.1, 32, 4)
    phi = 0.7
    slab_angle = slab_angle_of(mesh, rotated_state(mesh, phi))
    np.testing.assert_allclose(slab_angle, phi, atol=1e-12)
    xs = np.linspace(0.0, 1.0, 41)
    np.testing.assert_allclose(mollified_angle(mesh, slab_angle, xs), phi, atol=1e-12)
    # the bump weights are a partition of unity, so a constant profile stays put
    w = _slab_weights(mesh, slab_angle.size, xs)
    np.testing.assert_allclose(w.sum(axis=1), 1.0, atol=1e-12)


def test_slab_count_validation():
    with pytest.raises(ConfigError, match="strip.h"):  # only one slab fits
        mesh_from(config_from_text("strip.L = 0.5\nstrip.h = 0.3\nstrip.nx = 16\nstrip.ny = 2\n"))
    with pytest.raises(ConfigError, match="strip.nx"):  # 20 slabs share 8 quadrature columns
        mesh_from(config_from_text("strip.h = 0.05\nstrip.nx = 4\nstrip.ny = 8\n"))


def test_smoothed_profile_extends_constantly():
    mesh = build_mesh(1.0, 0.2, 64, 4)
    slab_angle = np.linspace(0.0, 0.4, slab_angle_of(mesh, mesh.rigid).size)

    def at(x):
        return mollified_angle(mesh, slab_angle, np.array([x]))

    # beyond the outermost slab centers the profile is constant
    assert at(0.0) == pytest.approx(slab_angle[0], abs=1e-12)
    assert at(1.0) == pytest.approx(slab_angle[-1], abs=1e-12)
    mid = at(0.5)
    assert slab_angle.min() <= mid <= slab_angle.max()


def test_angle_at_requires_sorted_positions():
    mesh = build_mesh(1.0, 0.2, 32, 4)
    slab_angle = slab_angle_of(mesh, mesh.rigid)
    with pytest.raises(DiagnosticError):
        mollified_angle(mesh, slab_angle, np.array([0.5, 0.2]))


def test_tensor_field_moments_by_hand():
    mesh = build_mesh(1.0, 0.1, 8, 4)
    vals = np.zeros((mesh.nqp, 2, 2))
    vals[:, 0, 0] = mesh.qp_x[:, 1]  # f(x2) = x2
    bar, hat = column_moments(mesh, vals)
    # zeroth moment of x2 vanishes; first moment is integral of x2^2 = 1/12
    np.testing.assert_allclose(bar[:, 0, 0], 0.0, atol=1e-15)
    np.testing.assert_allclose(hat[:, 0, 0], 1.0 / 12.0, atol=1e-14)
    assert bar.shape == (mesh.ncol, 2, 2)


def test_strain_and_stress_vanish_on_rotated_state():
    mesh = build_mesh(1.0, 0.1, 32, 4)
    d = diagnose(mesh, rotated_state(mesh, -0.4), G0, W)
    np.testing.assert_allclose(d.G, 0.0, atol=1e-10)
    np.testing.assert_allclose(d.E, 0.0, atol=1e-10)


@pytest.mark.parametrize("noise", [0.0, 1e-3])
def test_diagnose_products_are_einsum_bitwise(noise):
    # the three 2x2 products of diagnose against the einsums they replaced:
    # G = Rq^T F, the rotated load, and Rq times the z-identity's right-hand
    # side.  Without noise, every zero is -0.0 and rot2(0) has a -0.0 entry,
    # where a plain sum of the two products would give -0.0 and einsum 0.0
    mesh = build_mesh(1.0, 0.2, 16, 4)
    rng = np.random.default_rng(5)
    y = mesh.rigid + noise * rng.standard_normal(mesh.rigid.shape)
    F = mesh.scaled_gradients(y)
    R = rot2(noise * rng.uniform(-np.pi, np.pi, mesh.nqp))
    g = noise * rng.standard_normal((mesh.nqp, 2))
    F[F == 0.0] = -0.0
    g[g == 0.0] = -0.0

    def bits(a):
        return np.ascontiguousarray(a).view(np.int64)

    assert np.array_equal(bits(tmul2(R, F)), bits(np.einsum("qji,qjk->qik", R, F)))
    rotated = tmul2(R, g[:, :, None])[:, :, 0]
    assert np.array_equal(bits(rotated), bits(np.einsum("cji,cj->ci", R, g)))
    assert np.array_equal(bits(tmul2(trans2(R), F)), bits(np.einsum("qij,qjk->qik", R, F)))


def test_identity_report_rigid_state_all_zero():
    mesh = build_mesh(1.0, 0.1, 64, 8)
    row = diagnose(mesh, mesh.rigid, G0, W).row
    assert row.h == 0.1
    assert (row.r1, row.r2, row.r3, row.r4) == (0.0, 0.0, 0.0, 0.0)
    assert row.r5 == 1.0  # 0/0 convention for an exactly rigid field
    assert row == (0.1, 0.0, 0.0, 0.0, 0.0, 1.0)


def test_z_field_rigid_state_zero():
    mesh = build_mesh(1.0, 0.2, 32, 4)
    d = diagnose(mesh, mesh.rigid, G0, W)
    assert d.z_bc_gap == pytest.approx(0.0, abs=1e-13)


@pytest.mark.parametrize("density", [HalfDistSquared(), IsotropicQuadratic(1.0, 1.0)])
@pytest.mark.parametrize("g2", [-1e-3, -1.0])
@pytest.mark.parametrize("h", [0.2, 0.1, 0.025])
def test_z_bc_gap_is_half_angle_sine_at_the_clamp(density, g2, h):
    # on the clamped edge y = (0, h x2), so z(0, x2) = x2 (sin, 1 - cos)(theta_h(0))
    g = LoadProfile.constant(0.0, g2)
    mesh = build_mesh(1.0, h, mesh_rule_nx(1.0, h), 8)
    y, rep = solve_stationary(mesh, g, density)
    assert rep.converged
    d = diagnose(mesh, y, g, density)
    assert d.z_bc_gap > 0.0
    assert d.z_bc_gap == pytest.approx(abs(np.sin(d.node_theta[0] / 2)), rel=1e-12)


def test_r2_pinned_on_cantilever():
    # the reference cantilever at h = 0.1 on the default 64x8 mesh; r2 reads
    # the tilted load at the quadrature columns
    g = LoadProfile.constant(0.0, -1e-3)
    mesh = build_mesh(1.0, 0.1, mesh_rule_nx(1.0, 0.1), 8)
    y, rep = solve_stationary(mesh, g, W)
    assert rep.converged
    assert diagnose(mesh, y, g, W).row.r2 == pytest.approx(5.9569699680385555e-05, rel=1e-13)


def test_r3_is_set_by_the_x1_mesh():
    # r3 extrapolates the first stress moment to the free end over the last
    # two columns: on the cantilever load it is |g2| dx^2 / 4, whatever h is
    g = LoadProfile.constant(0.0, -1e-3)
    r3 = {}
    for h, nx, ny in ((0.1, 64, 8), (0.1, 128, 8), (0.2, 64, 4)):
        mesh = build_mesh(1.0, h, nx, ny)
        y, rep = solve_stationary(mesh, g, W)
        assert rep.converged
        r3[h, nx] = diagnose(mesh, y, g, W).row.r3
        assert 0.98 <= r3[h, nx] * 4 * nx**2 / 1e-3 <= 1.02, (h, nx, r3[h, nx])
    assert 3.9 <= r3[0.1, 64] / r3[0.1, 128] <= 4.1


def test_theta_and_y_error_vanish_on_matching_limit():
    mesh = build_mesh(1.0, 0.1, 64, 8)
    d = diagnose(mesh, mesh.rigid, G0, W)
    sol = solve_elastica(1.0, G0, 1.0, n=64)  # zero load: theta = 0, ybar = (x, 0)
    assert theta_error(d, sol) == pytest.approx(0.0, abs=1e-13)
    # y_error retains the h |dy2| transverse term, zero only in-plane parts
    err = y_error(d, mesh.rigid, sol)
    assert err == pytest.approx(0.1, abs=1e-2)  # sqrt of integral of h^2 |Re2|^2 = h


def test_converge_two_thicknesses(tmp_path):
    # the converge subcommand tabulates each h as it solves it
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text("load.g2 = -1e-3\nsweep.h = 0.2, 0.1\n")
    out = tmp_path / "o"
    assert main(["converge", "--config", str(cfg_path), "--out", str(out)]) == 0
    _, rows = read_table(out / "convergence.csv")
    _, identities = read_table(out / "identities.csv")
    assert len(rows) == 2
    assert float(rows[1][1]) < float(rows[0][1])  # theta error decreases with h
    assert float(rows[1][2]) < float(rows[0][2])  # y error decreases with h
    assert float(identities[0][1]) > float(identities[1][1])  # r1
    # energy_over_h2 is the energy the strip solver reports, not a recomputation
    cfg = ExperimentConfig.load(cfg_path)
    g = load_from(cfg)
    rod = solve_elastica(tension_modulus(W), g, 1.0, n=ROD_N)
    for row in rows:
        mesh = mesh_from(cfg, float(row[0]))
        _, report = solve_stationary(mesh, g, W, start=lift(rod, mesh))
        assert row[3] == repr(report.elastic_energy / mesh.h**2)
