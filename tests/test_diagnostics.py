"""Rotation extraction, strain/stress moments, and the identity report."""

import numpy as np
import pytest

from striplab.algebra import rot2
from striplab.cli import main
from striplab.config import ExperimentConfig, elastica_from, load_from, mesh_from
from striplab.csvio import read_table
from striplab.diagnostics import (
    _slab_weights,
    column_moments,
    diagnose,
    mollified_angle,
    slab_rotations,
    theta_error,
    y_error,
)
from striplab.elastica import solve_elastica
from striplab.energy import HalfDistSquared
from striplab.errors import ConfigError, DiagnosticError
from striplab.loads import LoadProfile
from striplab.mesh import DeformationField, build_mesh, mesh_rule_nx, rigid_state
from striplab.solver import lift, solve_stationary

W = HalfDistSquared()
G0 = LoadProfile.constant(0.0, 0.0)


def slab_angle_of(fld):
    return slab_rotations(fld.mesh, fld.gradients())


def rotated_state(mesh, phi):
    """y = R(phi) (x1, h x2): scaled gradient R exactly, but clamp violated."""
    return DeformationField(mesh=mesh, y=mesh.rigid @ rot2(phi).T)


def test_slab_rotations_rigid_state_zero():
    mesh = build_mesh(1.0, 0.2, 32, 4)
    fld = rigid_state(mesh)
    slab_angle = slab_angle_of(fld)
    assert slab_angle.size == 5
    assert np.all(slab_angle == 0.0)


def test_slab_rotations_recover_constant_rotation():
    mesh = build_mesh(1.0, 0.1, 32, 4)
    phi = 0.7
    fld = rotated_state(mesh, phi)
    slab_angle = slab_angle_of(fld)
    np.testing.assert_allclose(slab_angle, phi, atol=1e-12)
    xs = np.linspace(0.0, 1.0, 41)
    np.testing.assert_allclose(mollified_angle(mesh, slab_angle, xs), phi, atol=1e-12)
    # the bump weights are a partition of unity, so a constant profile stays put
    w = _slab_weights(mesh, slab_angle.size, xs)
    np.testing.assert_allclose(w.sum(axis=1), 1.0, atol=1e-12)


def test_slab_count_validation():
    mesh = build_mesh(0.5, 0.3, 16, 2)
    with pytest.raises(ConfigError):
        slab_angle_of(rigid_state(mesh))  # only one slab fits


def test_smoothed_profile_extends_constantly():
    mesh = build_mesh(1.0, 0.2, 64, 4)
    fld = rigid_state(mesh)
    slab_angle = np.linspace(0.0, 0.4, slab_angle_of(fld).size)

    def at(x):
        return mollified_angle(mesh, slab_angle, np.array([x]))

    # beyond the outermost slab centers the profile is constant
    assert at(0.0) == pytest.approx(slab_angle[0], abs=1e-12)
    assert at(1.0) == pytest.approx(slab_angle[-1], abs=1e-12)
    mid = at(0.5)
    assert slab_angle.min() <= mid <= slab_angle.max()


def test_angle_at_requires_sorted_positions():
    mesh = build_mesh(1.0, 0.2, 32, 4)
    slab_angle = slab_angle_of(rigid_state(mesh))
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
    fld = rotated_state(mesh, -0.4)
    d = diagnose(fld, G0, W)
    np.testing.assert_allclose(d.G, 0.0, atol=1e-10)
    np.testing.assert_allclose(d.E, 0.0, atol=1e-10)


def test_identity_report_rigid_state_all_zero():
    mesh = build_mesh(1.0, 0.1, 64, 8)
    fld = rigid_state(mesh)
    row = diagnose(fld, G0, W).row
    assert row.h == 0.1
    assert (row.r1, row.r2, row.r3, row.r4) == (0.0, 0.0, 0.0, 0.0)
    assert row.r5 == 1.0  # 0/0 convention for an exactly rigid field
    assert row == (0.1, 0.0, 0.0, 0.0, 0.0, 1.0)


def test_z_field_rigid_state_zero():
    mesh = build_mesh(1.0, 0.2, 32, 4)
    fld = rigid_state(mesh)
    d = diagnose(fld, G0, W)
    np.testing.assert_allclose(d.z, 0.0, atol=1e-13)
    assert d.z_bc_gap == pytest.approx(0.0, abs=1e-13)


def test_z_identity_error_small_on_solved_field():
    mesh = build_mesh(1.0, 0.1, 64, 8)
    fld, rep = solve_stationary(mesh, LoadProfile.constant(0.0, -1e-3), W)
    assert rep.converged
    err = diagnose(fld, LoadProfile.constant(0.0, -1e-3), W).z_identity_error
    assert err < 0.2  # relative identity gap, dominated by smoothing bias


def test_r2_pinned_on_cantilever():
    # the reference cantilever at h = 0.1 on the default 64x8 mesh; r2 reads
    # the tilted load at the quadrature columns
    g = LoadProfile.constant(0.0, -1e-3)
    mesh = build_mesh(1.0, 0.1, mesh_rule_nx(1.0, 0.1), 8)
    fld, rep = solve_stationary(mesh, g, W)
    assert rep.converged
    assert diagnose(fld, g, W).row.r2 == pytest.approx(5.9569699680385555e-05, rel=1e-13)


def test_theta_and_y_error_vanish_on_matching_limit():
    mesh = build_mesh(1.0, 0.1, 64, 8)
    fld = rigid_state(mesh)
    d = diagnose(fld, G0, W)
    sol = solve_elastica(1.0, G0, 1.0, n=64)  # zero load: theta = 0, ybar = (x, 0)
    assert theta_error(d, sol) == pytest.approx(0.0, abs=1e-13)
    # y_error retains the h |dy2| transverse term, zero only in-plane parts
    err = y_error(fld, d.F, sol)
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
    rod = elastica_from(cfg, W, g)
    for row in rows:
        mesh = mesh_from(cfg, float(row[0]))
        _, report = solve_stationary(mesh, g, W, start=lift(rod, mesh))
        assert row[3] == repr(report.elastic_energy / mesh.h**2)
