"""Config parsing, hashing, and the experiment object builders."""

import numpy as np
import pytest

from striplab import HalfDistSquared, IsotropicQuadratic, mesh_rule_nx
from striplab.config import (
    _REQUIRED,
    DEFAULT_SWEEP,
    ExperimentConfig,
    config_hash,
    elastica_from,
    energy_from,
    load_from,
    mesh_from,
    parse_config_text,
    solver_from,
    sweep_from,
)
from striplab.errors import ConfigError

BASIC = """
# cantilever reference
strip.L = 1.0
strip.h = 0.1
load.g2 = -1e-3   # downward
solver.max_iters = 12
sweep.h = 0.2, 0.1
"""


def test_parse_basic_text():
    raw = parse_config_text(BASIC)
    assert raw == {
        "strip.L": "1.0",
        "strip.h": "0.1",
        "load.g2": "-1e-3",
        "solver.max_iters": "12",
        "sweep.h": "0.2, 0.1",
    }


def test_parse_splits_on_first_equals_only():
    raw = parse_config_text("run.tag = a=b=c")
    assert raw["run.tag"] == "a=b=c"


@pytest.mark.parametrize(
    "text, fragment",
    [
        ("strip.L 1.0", "line 1"),
        ("ok.key = 1\nnodot = 2", "line 2"),
        ("9bad.key = 1", "malformed key"),
        ("a.b = 1\na.b = 2", "duplicate key"),
        ("a.b.c = 1", "malformed key"),
    ],
)
def test_parse_rejections_name_the_line(text, fragment):
    with pytest.raises(ConfigError, match=fragment):
        parse_config_text(text)


def test_hash_ignores_comments_whitespace_and_order():
    a = ExperimentConfig.from_text("strip.h = 0.1\nload.g2 = -1e-3\n")
    b = ExperimentConfig.from_text(
        "# reordered with noise\nload.g2=-1e-3\n\n   strip.h   =   0.1\n"
    )
    assert a.hash == b.hash
    assert len(a.hash) == 16
    c = ExperimentConfig.from_text("strip.h = 0.2\nload.g2 = -1e-3\n")
    assert c.hash != a.hash
    assert config_hash(a.raw) == a.hash


def test_load_missing_file_is_config_error(tmp_path):
    with pytest.raises(ConfigError, match="not found"):
        ExperimentConfig.load(tmp_path / "absent.cfg")


def test_load_reads_file(tmp_path):
    p = tmp_path / "run.cfg"
    p.write_text(BASIC)
    cfg = ExperimentConfig.load(p)
    assert cfg.get_float("strip.L") == 1.0
    assert cfg.source == str(p)


def test_getters_and_defaults():
    cfg = ExperimentConfig.from_text(BASIC)
    assert cfg.get_float("strip.h") == 0.1
    assert cfg.get_int("solver.max_iters") == 12
    assert cfg.get_floats("sweep.h") == (0.2, 0.1)
    assert cfg.get_str("energy.kind", "half-dist-squared") == "half-dist-squared"
    assert cfg.get_float("energy.mu", 1.0) == 1.0
    assert cfg.get_int("elastica.n", 2048) == 2048
    assert "strip.h" in cfg.used
    assert "energy.mu" not in cfg.raw


@pytest.mark.parametrize(
    "text, getter, fragment",
    [
        ("a.x = abc", "get_float", "not a number"),
        ("a.x = 1.5", "get_int", "not an integer"),
        ("a.x = 1, two", "get_floats", "not a number list"),
    ],
)
def test_getter_type_errors_name_the_key(text, getter, fragment):
    cfg = ExperimentConfig.from_text(text)
    with pytest.raises(ConfigError, match="a.x"):
        getattr(cfg, getter)("a.x")
    with pytest.raises(ConfigError, match=fragment):
        getattr(cfg, getter)("a.x")


def test_require_names_key_and_source():
    cfg = ExperimentConfig.from_text("a.x = 1")
    with pytest.raises(ConfigError, match="'strip.h' in <memory>"):
        cfg.get_float("strip.h", _REQUIRED)


def test_energy_from_default_and_isotropic():
    assert isinstance(energy_from(ExperimentConfig.from_text("")), HalfDistSquared)
    cfg = ExperimentConfig.from_text(
        "energy.kind = isotropic-quadratic\nenergy.mu = 2.0\nenergy.lambda = 0.5\n"
    )
    W = energy_from(cfg)
    assert isinstance(W, IsotropicQuadratic)
    assert (W.mu, W.lam) == (2.0, 0.5)


def test_load_from_constant_and_sampled():
    assert np.all(load_from(ExperimentConfig.from_text("")).vals == 0.0)
    g = load_from(ExperimentConfig.from_text("load.g2 = -1e-3"))
    assert g(0.3).tolist() == [0.0, -1e-3]

    cfg = ExperimentConfig.from_text(
        "load.samples_x = 0.0, 0.5, 1.0\n"
        "load.samples_g1 = 0.0, 0.0, 0.0\n"
        "load.samples_g2 = 0.0, -1.0, -2.0\n"
    )
    g = load_from(cfg)
    assert g(0.25).tolist() == [0.0, -0.5]
    assert g(2.0).tolist() == [0.0, -2.0]  # constant extension

    with pytest.raises(ConfigError, match="samples_g1"):
        load_from(ExperimentConfig.from_text("load.samples_x = 0.0, 1.0"))


def test_solver_from_overrides():
    cfg = ExperimentConfig.from_text("solver.newton_tol = 1e-8\nsolver.min_load_step = 0.01\n")
    sc = solver_from(cfg)
    assert sc.newton_tol == 1e-8
    assert sc.min_load_step == 0.01
    assert sc.max_iters == solver_from(ExperimentConfig.from_text("")).max_iters


def test_mesh_from_rule_and_overrides():
    mesh, h = mesh_from(ExperimentConfig.from_text("strip.h = 0.1"))
    assert h == 0.1
    assert mesh.nx == mesh_rule_nx(1.0, 0.1)
    assert mesh.ny == 8

    mesh, h = mesh_from(ExperimentConfig.from_text("strip.h = 0.2\nstrip.nx = 16\nstrip.ny = 4"))
    assert (mesh.nx, mesh.ny, h) == (16, 4, 0.2)

    cfg = ExperimentConfig.from_text("strip.h = 0.2\nstrip.ny = 4")
    mesh, h = mesh_from(cfg, 0.05)
    assert (mesh.nx, mesh.ny, h) == (mesh_rule_nx(1.0, 0.05), 4, 0.05)
    assert cfg.unread() == ["strip.h"]

    with pytest.raises(ConfigError, match="strip.h"):
        mesh_from(ExperimentConfig.from_text(""))


def test_sweep_from_default_and_validation():
    assert sweep_from(ExperimentConfig.from_text("")) == DEFAULT_SWEEP
    assert sweep_from(ExperimentConfig.from_text("sweep.h = 0.4, 0.2")) == (0.4, 0.2)
    with pytest.raises(ConfigError, match="decreasing"):
        sweep_from(ExperimentConfig.from_text("sweep.h = 0.1, 0.2"))
    with pytest.raises(ConfigError, match="0, 0.5"):
        sweep_from(ExperimentConfig.from_text("sweep.h = 0.7"))
    with pytest.raises(ConfigError, match="at least one"):
        sweep_from(ExperimentConfig.from_text("sweep.h ="))


def test_elastica_from_uses_config_resolution():
    cfg = ExperimentConfig.from_text("elastica.n = 64\nload.g2 = -1e-3\n")
    W = energy_from(cfg)
    sol = elastica_from(cfg, W, load_from(cfg))
    assert sol.x.size == 65
    assert sol.theta[1] < 0.0  # downward load tilts the rod clockwise
