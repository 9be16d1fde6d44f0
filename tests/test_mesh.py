"""Mesh construction, quadrature exactness, and scaled gradients."""

import ast
import importlib
import inspect
import pkgutil
from pathlib import Path

import numpy as np
import pytest

import striplab
from striplab.config import mesh_from
from striplab.errors import ConfigError
from striplab.mesh import build_mesh, mesh_rule_nx

from helpers import config_from_text


def test_build_mesh_shapes():
    mesh = build_mesh(2.0, 0.1, 6, 4)
    assert mesh.nnode == 7 * 5
    assert mesh.nelem == 24
    assert mesh.nqp == 96
    assert mesh.conn.shape == (24, 4)
    assert mesh.qp_x.shape == (96, 2)
    assert mesh.col_x.shape == (12,)
    assert np.all(np.diff(mesh.col_x) > 0)
    assert mesh.x2[0] == -0.5 and mesh.x2[-1] == 0.5


def test_build_mesh_validation():
    # build_mesh trusts its caller; mesh_from checks each bound and names its key
    for L, h, nx, ny, key in [
        (0.0, 0.1, 4, 4, "strip.L"),
        (1.0, 0.1, 0, 4, "strip.nx"),
        (1.0, 0.1, 4, -1, "strip.ny"),
        (1.0, 0.0, 8, 2, "strip.h"),
        (1.0, 0.7, 8, 2, "strip.h"),
        (1.0, float("nan"), 8, 2, "strip.h"),
    ]:
        text = f"strip.L = {L}\nstrip.h = {h}\nstrip.nx = {nx}\nstrip.ny = {ny}\n"
        with pytest.raises(ConfigError, match=key):
            mesh_from(config_from_text(text))


def test_mesh_owns_its_thickness_read_only():
    mesh = build_mesh(1.0, 0.2, 6, 3)
    assert mesh.h == 0.2
    assert mesh.B.shape == (4, 4, 8)
    assert np.array_equal(mesh.rigid, mesh.nodes * [1.0, 0.2])
    with pytest.raises(ValueError):
        mesh.B[0, 0, 0] = 1.0
    with pytest.raises(ValueError):
        mesh.rigid[0, 0] = 1.0
    assert mesh.k_op.shape == (64, 64)
    with pytest.raises(ValueError):
        mesh.k_op[0, 0] = 1.0
    # five slabs of width 0.2, each holding the quadrature points inside it
    assert mesh.nslab == 5
    assert np.array_equal(mesh.qp_slab, np.floor(mesh.qp_x[:, 0] / 0.2))
    with pytest.raises(ValueError):
        mesh.qp_slab[0] = 1


def test_no_public_callable_takes_both_mesh_and_h():
    # a mesh is built for one h, so h never travels beside a mesh
    both = []
    public = []
    for info in pkgutil.iter_modules(striplab.__path__):
        mod = importlib.import_module(f"striplab.{info.name}")
        public += [
            (name, obj) for name, obj in vars(mod).items()
            if not name.startswith("_") and getattr(obj, "__module__", None) == mod.__name__
        ]
    for name, obj in public:
        if not callable(obj) or inspect.isclass(obj) and issubclass(obj, Exception):
            continue  # error types, whose signature is the builtin one
        members = {name: obj}
        if inspect.isclass(obj):
            members |= {
                f"{name}.{k}": v for k, v in vars(obj).items()
                if not k.startswith("_") and inspect.isfunction(v)
            }
        for label, fn in members.items():
            if {"mesh", "h"} <= set(inspect.signature(fn).parameters):
                both.append(label)
    assert both == []


def test_only_config_and_the_out_check_raise_config_error():
    # ConfigError means a bad config value or CLI option (exit 2); every check
    # behind the config gates raises a plain ValueError, and so do the test
    # helpers' CSV readers
    sites = {}
    package = sorted(Path(striplab.__file__).parent.glob("*.py"))
    for path in package + [Path(__file__).with_name("helpers.py")]:
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.Raise):
                continue
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if getattr(exc, "id", getattr(exc, "attr", None)) == "ConfigError":
                sites.setdefault(path.name, []).append(ast.unparse(node))
    assert sorted(sites) == ["cli.py", "config.py"]
    assert len(sites["cli.py"]) == 1 and "--out" in sites["cli.py"][0]


def test_mesh_rule_nx():
    assert mesh_rule_nx(1.0, 0.2) == 64
    assert mesh_rule_nx(1.0, 0.05) == 80
    assert mesh_rule_nx(1.0, 0.025) == 160
    assert mesh_rule_nx(2.0, 0.1) == 80


def test_quadrature_weight_sums_to_area():
    mesh = build_mesh(1.5, 0.1, 7, 3)
    assert mesh.nqp * mesh.qp_w == pytest.approx(1.5, rel=1e-14)
    assert mesh.ncol * mesh.col_w == pytest.approx(1.5, rel=1e-14)


def test_quadrature_integrates_cubics_exactly():
    # two-point Gauss per direction: exact for degree <= 3 in each variable
    mesh = build_mesh(1.0, 0.1, 5, 4)
    x1, x2 = mesh.qp_x[:, 0], mesh.qp_x[:, 1]
    val = mesh.qp_w * np.sum(x1 * x2**2)
    assert val == pytest.approx(0.5 / 12.0, rel=1e-13)
    val3 = mesh.qp_w * np.sum(x1**3 * x2**3)
    assert val3 == pytest.approx(0.0, abs=1e-15)


def test_rigid_state_gradients_identity_exactly():
    mesh = build_mesh(1.0, 0.1, 8, 4)
    F = mesh.scaled_gradients(mesh.rigid)
    assert np.array_equal(F, np.broadcast_to(np.eye(2), F.shape))
    ids = mesh.clamped_nodes()
    clamp = np.stack([np.zeros(ids.size), mesh.h * mesh.x2], axis=1)
    assert np.max(np.abs(mesh.rigid[ids] - clamp)) == 0.0


def test_scaled_gradient_of_linear_displacement():
    h = 0.2
    mesh = build_mesh(1.0, h, 6, 3)
    a, b = 0.03, -0.02
    u = np.stack([a * mesh.nodes[:, 0], b * mesh.nodes[:, 1]], axis=1)
    F = mesh.scaled_gradients(mesh.rigid + u)
    expect = np.array([[1.0 + a, 0.0], [0.0, 1.0 + b / h]])
    np.testing.assert_allclose(F, np.broadcast_to(expect, F.shape), atol=1e-13)


def test_qp_values_interpolates_bilinear_exactly():
    mesh = build_mesh(1.0, 0.1, 4, 4)
    nodal = 2.0 * mesh.nodes[:, 0] - 3.0 * mesh.nodes[:, 1] + mesh.nodes[:, 0] * mesh.nodes[:, 1]
    at_qp = mesh.qp_values(nodal)
    x1, x2 = mesh.qp_x[:, 0], mesh.qp_x[:, 1]
    np.testing.assert_allclose(at_qp, 2.0 * x1 - 3.0 * x2 + x1 * x2, atol=1e-13)


def test_clamped_nodes_are_the_first_column():
    mesh = build_mesh(1.0, 0.1, 4, 2)
    ids = mesh.clamped_nodes()
    assert np.all(mesh.nodes[ids, 0] == 0.0)
    # every node on x1 = 0 is clamped, and they come first, so the clamped
    # dofs are 0 .. 2 * ids.size - 1
    assert np.array_equal(ids, np.flatnonzero(mesh.nodes[:, 0] == 0.0))
    assert np.array_equal(ids, np.arange(ids.size))


def test_node_ids_grid_matches_coordinates():
    mesh = build_mesh(1.0, 0.1, 4, 2)
    grid = np.arange(mesh.nnode).reshape(mesh.nx + 1, mesh.ny + 1)
    np.testing.assert_allclose(mesh.nodes[grid[2, 1]], [mesh.x1[2], mesh.x2[1]])

