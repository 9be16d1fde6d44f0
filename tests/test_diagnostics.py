"""Rotation extraction, strain/stress moments, and the identity report."""

import numpy as np
import pytest

from striplab import (
    HalfDistSquared,
    LoadProfile,
    build_mesh,
    convergence_study,
    diagnose,
    mesh_rule_nx,
    rigid_state,
    rot2,
    slab_rotations,
    solve_elastica,
    solve_stationary,
)
from striplab.diagnostics import column_moments, theta_error, y_error
from striplab.errors import ConfigError, DiagnosticError
from striplab.mesh import DeformationField

W = HalfDistSquared()
G0 = LoadProfile.constant(0.0, 0.0)


def profile_of(fld):
    return slab_rotations(fld.mesh, fld.h, fld.gradients())


def rotated_state(mesh, h, phi):
    """y = R(phi) (x1, h x2): scaled gradient R exactly, but clamp violated."""
    R = rot2(phi)
    pts = np.stack([mesh.nodes[:, 0], h * mesh.nodes[:, 1]], axis=1)
    return DeformationField(mesh=mesh, h=h, y=pts @ R.T)


def test_slab_rotations_rigid_state_zero():
    mesh = build_mesh(1.0, 32, 4)
    fld = rigid_state(mesh, 0.2)
    prof = profile_of(fld)
    assert prof.slab_angle.size == 5
    assert prof.edges[0] == 0.0 and prof.edges[-1] == pytest.approx(1.0)
    assert np.all(prof.slab_angle == 0.0)


def test_slab_rotations_recover_constant_rotation():
    mesh = build_mesh(1.0, 32, 4)
    phi = 0.7
    fld = rotated_state(mesh, 0.1, phi)
    prof = profile_of(fld)
    np.testing.assert_allclose(prof.slab_angle, phi, atol=1e-12)
    xs = np.linspace(0.0, 1.0, 41)
    np.testing.assert_allclose(prof.angle_at(xs), phi, atol=1e-12)
    R = prof.smoothed_matrix_at(xs)
    np.testing.assert_allclose(R, np.broadcast_to(rot2(phi), R.shape), atol=1e-12)


def test_slab_count_validation():
    mesh = build_mesh(1.0, 16, 2)
    with pytest.raises(ConfigError):
        profile_of(rigid_state(mesh, 0.8))  # only one slab fits


def test_smoothed_profile_extends_constantly():
    mesh = build_mesh(1.0, 64, 4)
    fld = rigid_state(mesh, 0.2)
    prof = profile_of(fld)
    prof.slab_angle[:] = np.linspace(0.0, 0.4, prof.slab_angle.size)
    # beyond the outermost slab centers the profile is constant
    assert prof.angle_at(np.array([0.0])) == pytest.approx(prof.slab_angle[0], abs=1e-12)
    assert prof.angle_at(np.array([1.0])) == pytest.approx(prof.slab_angle[-1], abs=1e-12)
    mid = prof.angle_at(np.array([0.5]))
    assert prof.slab_angle.min() <= mid <= prof.slab_angle.max()


def test_angle_at_requires_sorted_positions():
    mesh = build_mesh(1.0, 32, 4)
    prof = profile_of(rigid_state(mesh, 0.2))
    with pytest.raises(DiagnosticError):
        prof.angle_at(np.array([0.5, 0.2]))


def test_tensor_field_moments_by_hand():
    mesh = build_mesh(1.0, 8, 4)
    vals = np.zeros((mesh.nqp, 2, 2))
    vals[:, 0, 0] = mesh.qp_x[:, 1]  # f(x2) = x2
    bar, hat = column_moments(mesh, vals)
    # zeroth moment of x2 vanishes; first moment is integral of x2^2 = 1/12
    np.testing.assert_allclose(bar[:, 0, 0], 0.0, atol=1e-15)
    np.testing.assert_allclose(hat[:, 0, 0], 1.0 / 12.0, atol=1e-14)
    assert bar.shape == (mesh.ncol, 2, 2)


def test_strain_and_stress_vanish_on_rotated_state():
    mesh = build_mesh(1.0, 32, 4)
    fld = rotated_state(mesh, 0.1, -0.4)
    d = diagnose(fld, G0, W)
    np.testing.assert_allclose(d.G, 0.0, atol=1e-10)
    np.testing.assert_allclose(d.E, 0.0, atol=1e-10)


def test_identity_report_rigid_state_all_zero():
    mesh = build_mesh(1.0, 64, 8)
    fld = rigid_state(mesh, 0.1)
    row = diagnose(fld, G0, W).row
    assert row.h == 0.1
    assert (row.r1, row.r2, row.r3, row.r4) == (0.0, 0.0, 0.0, 0.0)
    assert row.r5 == 1.0  # 0/0 convention for an exactly rigid field
    assert row.as_tuple() == (0.1, 0.0, 0.0, 0.0, 0.0, 1.0)


def test_z_field_rigid_state_zero():
    mesh = build_mesh(1.0, 32, 4)
    fld = rigid_state(mesh, 0.2)
    d = diagnose(fld, G0, W)
    np.testing.assert_allclose(d.z, 0.0, atol=1e-13)
    assert d.z_bc_gap == pytest.approx(0.0, abs=1e-13)


def test_z_identity_error_small_on_solved_field():
    mesh = build_mesh(1.0, 64, 8)
    fld, rep = solve_stationary(mesh, 0.1, LoadProfile.constant(0.0, -1e-3), W)
    assert rep.converged
    err = diagnose(fld, LoadProfile.constant(0.0, -1e-3), W).z_identity_error
    assert err < 0.2  # relative identity gap, dominated by smoothing bias


def test_r2_pinned_on_cantilever():
    # the reference cantilever at h = 0.1 on the default 64x8 mesh; r2 reads
    # the tilted load at the quadrature columns
    g = LoadProfile.constant(0.0, -1e-3)
    mesh = build_mesh(1.0, mesh_rule_nx(1.0, 0.1), 8)
    fld, rep = solve_stationary(mesh, 0.1, g, W)
    assert rep.converged
    assert diagnose(fld, g, W).row.r2 == pytest.approx(5.9569699680385555e-05, rel=1e-13)


def test_theta_and_y_error_vanish_on_matching_limit():
    mesh = build_mesh(1.0, 64, 8)
    fld = rigid_state(mesh, 0.1)
    d = diagnose(fld, G0, W)
    sol = solve_elastica(1.0, G0, 1.0, n=64)  # zero load: theta = 0, ybar = (x, 0)
    assert theta_error(d, sol) == pytest.approx(0.0, abs=1e-13)
    # y_error retains the h |dy2| transverse term, zero only in-plane parts
    err = y_error(fld, d.F, sol)
    assert err == pytest.approx(0.1, abs=1e-2)  # sqrt of integral of h^2 |Re2|^2 = h


def test_convergence_study_two_thicknesses():
    g = LoadProfile.constant(0.0, -1e-3)
    sol = solve_elastica(1.0, g, 1.0, n=1024)
    fields = []
    prev = None
    for h in (0.2, 0.1):
        mesh = build_mesh(1.0, mesh_rule_nx(1.0, h), 8)
        fld, rep = solve_stationary(mesh, h, g, W, warm=prev)
        assert rep.converged
        fields.append(fld)
        prev = fld
    table = convergence_study(fields, sol, g, W)
    rows = list(table.rows())
    assert len(rows) == 2
    assert rows[1][1] < rows[0][1]  # theta error decreases with h
    assert rows[1][2] < rows[0][2]  # y error decreases with h
    assert table.residuals[0].r1 > table.residuals[1].r1


def test_convergence_study_rejects_mismatched_lengths():
    g = LoadProfile.constant(0.0, -1e-3)
    sol = solve_elastica(1.0, g, 2.0, n=64)
    mesh = build_mesh(1.0, 64, 8)
    fld = rigid_state(mesh, 0.2)
    with pytest.raises(ConfigError):
        convergence_study([fld], sol, g, W)
