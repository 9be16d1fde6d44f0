"""Mesh construction, quadrature exactness, and scaled gradients."""

import numpy as np
import pytest

from striplab import build_mesh, mesh_rule_nx, rigid_state
from striplab.errors import ConfigError
from striplab.mesh import DeformationField


def test_build_mesh_shapes():
    mesh = build_mesh(2.0, 6, 4)
    assert mesh.nnode == 7 * 5
    assert mesh.nelem == 24
    assert mesh.nqp == 96
    assert mesh.conn.shape == (24, 4)
    assert mesh.qp_x.shape == (96, 2)
    assert mesh.col_x.shape == (12,)
    assert np.all(np.diff(mesh.col_x) > 0)
    assert mesh.x2[0] == -0.5 and mesh.x2[-1] == 0.5


def test_build_mesh_validation():
    with pytest.raises(ConfigError):
        build_mesh(0.0, 4, 4)
    with pytest.raises(ConfigError):
        build_mesh(1.0, 0, 4)
    with pytest.raises(ConfigError):
        build_mesh(1.0, 4, -1)


def test_mesh_rule_nx():
    assert mesh_rule_nx(1.0, 0.2) == 64
    assert mesh_rule_nx(1.0, 0.05) == 80
    assert mesh_rule_nx(1.0, 0.025) == 160
    assert mesh_rule_nx(2.0, 0.1) == 80


def test_quadrature_weight_sums_to_area():
    mesh = build_mesh(1.5, 7, 3)
    assert mesh.nqp * mesh.qp_w == pytest.approx(1.5, rel=1e-14)
    assert mesh.ncol * mesh.col_w == pytest.approx(1.5, rel=1e-14)


def test_quadrature_integrates_cubics_exactly():
    # two-point Gauss per direction: exact for degree <= 3 in each variable
    mesh = build_mesh(1.0, 5, 4)
    x1, x2 = mesh.qp_x[:, 0], mesh.qp_x[:, 1]
    val = mesh.qp_w * np.sum(x1 * x2**2)
    assert val == pytest.approx(0.5 / 12.0, rel=1e-13)
    val3 = mesh.qp_w * np.sum(x1**3 * x2**3)
    assert val3 == pytest.approx(0.0, abs=1e-15)


def test_rigid_state_gradients_identity_exactly():
    mesh = build_mesh(1.0, 8, 4)
    fld = rigid_state(mesh, 0.1)
    F = fld.gradients()
    assert np.array_equal(F, np.broadcast_to(np.eye(2), F.shape))
    assert np.all(fld.displacement() == 0.0)
    ids = mesh.clamped_nodes()
    clamp = np.stack([np.zeros(ids.size), fld.h * mesh.x2], axis=1)
    assert np.max(np.abs(fld.y[ids] - clamp)) == 0.0


def test_scaled_gradient_of_linear_displacement():
    mesh = build_mesh(1.0, 6, 3)
    h = 0.2
    a, b = 0.03, -0.02
    u = np.stack([a * mesh.nodes[:, 0], b * mesh.nodes[:, 1]], axis=1)
    F = mesh.scaled_gradients(u, h)
    expect = np.array([[1.0 + a, 0.0], [0.0, 1.0 + b / h]])
    np.testing.assert_allclose(F, np.broadcast_to(expect, F.shape), atol=1e-13)


def test_qp_values_interpolates_bilinear_exactly():
    mesh = build_mesh(1.0, 4, 4)
    nodal = 2.0 * mesh.nodes[:, 0] - 3.0 * mesh.nodes[:, 1] + mesh.nodes[:, 0] * mesh.nodes[:, 1]
    at_qp = mesh.qp_values(nodal)
    x1, x2 = mesh.qp_x[:, 0], mesh.qp_x[:, 1]
    np.testing.assert_allclose(at_qp, 2.0 * x1 - 3.0 * x2 + x1 * x2, atol=1e-13)


def test_interpolate_reproduces_nodes_and_bilinear():
    mesh = build_mesh(1.0, 5, 3)
    nodal = np.stack([mesh.nodes[:, 0] ** 1, mesh.nodes[:, 1]], axis=1)
    got = mesh.interpolate(nodal, mesh.nodes)
    np.testing.assert_allclose(got, nodal, atol=1e-13)
    rng = np.random.default_rng(5)
    pts = np.stack([rng.uniform(0, 1, 40), rng.uniform(-0.5, 0.5, 40)], axis=1)
    np.testing.assert_allclose(mesh.interpolate(nodal, pts), pts, atol=1e-13)


def test_clamped_nodes_and_free_dofs():
    mesh = build_mesh(1.0, 4, 2)
    ids = mesh.clamped_nodes()
    assert np.all(mesh.nodes[ids, 0] == 0.0)
    free = mesh.free_dofs()
    assert free.sum() == 2 * (mesh.nnode - ids.size)
    assert not free[: 2 * ids.size].any()


def test_node_ids_grid_matches_coordinates():
    mesh = build_mesh(1.0, 4, 2)
    grid = np.arange(mesh.nnode).reshape(mesh.nx + 1, mesh.ny + 1)
    np.testing.assert_allclose(mesh.nodes[grid[2, 1]], [mesh.x1[2], mesh.x2[1]])


def test_deformation_field_displacement_roundtrip():
    mesh = build_mesh(1.0, 4, 2)
    h = 0.1
    rng = np.random.default_rng(9)
    fld = rigid_state(mesh, h)
    fld.y += 0.01 * rng.standard_normal(fld.y.shape)
    rebuilt = DeformationField(mesh=mesh, h=h, y=fld.rigid() + fld.displacement())
    np.testing.assert_allclose(rebuilt.y, fld.y, atol=1e-16)
