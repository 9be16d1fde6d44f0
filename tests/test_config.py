"""Config parsing, hashing, and the experiment object builders."""

from pathlib import Path

import numpy as np
import pytest

from striplab.config import (
    _REQUIRED,
    DEFAULT_SWEEP,
    ExperimentConfig,
    config_hash,
    energy_from,
    load_from,
    mesh_from,
    parse_config_text,
    seed_from,
    sweep_from,
    truncation_from,
)
from striplab.energy import HalfDistSquared, IsotropicQuadratic
from striplab.errors import ConfigError
from striplab.mesh import mesh_rule_nx

from helpers import config_from_text

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

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
    a = config_from_text("strip.h = 0.1\nload.g2 = -1e-3\n")
    b = config_from_text(
        "# reordered with noise\nload.g2=-1e-3\n\n   strip.h   =   0.1\n"
    )
    assert a.hash == b.hash
    assert len(a.hash) == 16
    c = config_from_text("strip.h = 0.2\nload.g2 = -1e-3\n")
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
    cfg = config_from_text(BASIC)
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
        ("a.x = 0.2,,0.1", "get_floats", "not a number list"),
        ("a.x = 0, ,1,", "get_floats", "not a number list"),
    ],
)
def test_getter_type_errors_name_the_key(text, getter, fragment):
    cfg = config_from_text(text)
    with pytest.raises(ConfigError, match="a.x"):
        getattr(cfg, getter)("a.x")
    with pytest.raises(ConfigError, match=fragment):
        getattr(cfg, getter)("a.x")


def test_require_names_key_and_source():
    cfg = config_from_text("a.x = 1")
    with pytest.raises(ConfigError, match="'strip.h' in <memory>"):
        cfg.get_float("strip.h", _REQUIRED)


def test_energy_from_default_and_isotropic():
    assert isinstance(energy_from(config_from_text("")), HalfDistSquared)
    cfg = config_from_text(
        "energy.kind = isotropic-quadratic\nenergy.mu = 2.0\nenergy.lambda = 0.5\n"
    )
    W = energy_from(cfg)
    assert isinstance(W, IsotropicQuadratic)
    assert (W.mu, W.lam) == (2.0, 0.5)


def test_energy_from_spelling_and_errors():
    def density(text):
        return energy_from(config_from_text(text))

    assert isinstance(density("energy.kind = half-dist-squared"), HalfDistSquared)
    assert isinstance(density("energy.kind = half_dist_squared"), HalfDistSquared)
    W = density("energy.kind = isotropic_quadratic\nenergy.mu = 2.0\nenergy.lambda = 1.0")
    assert isinstance(W, IsotropicQuadratic) and W.mu == 2.0
    with pytest.raises(ConfigError, match="unknown energy.kind 'neo-hookean'"):
        density("energy.kind = neo-hookean")
    iso = "energy.kind = isotropic-quadratic\n"
    with pytest.raises(ConfigError, match="energy.mu must be finite and positive, got -1.0"):
        density(iso + "energy.mu = -1.0")
    with pytest.raises(ConfigError, match="energy.lambda must be finite and nonnegative, got -0.5"):
        density(iso + "energy.lambda = -0.5")


def test_load_from_constant_and_sampled():
    assert np.all(load_from(config_from_text("")).vals == 0.0)
    g = load_from(config_from_text("load.g2 = -1e-3"))
    assert g(0.3).tolist() == [0.0, -1e-3]

    cfg = config_from_text(
        "load.samples_x = 0.0, 0.5, 1.0\n"
        "load.samples_g1 = 0.0, 0.0, 0.0\n"
        "load.samples_g2 = 0.0, -1.0, -2.0\n"
    )
    g = load_from(cfg)
    assert g(0.25).tolist() == [0.0, -0.5]
    assert g(2.0).tolist() == [0.0, -2.0]  # constant extension

    with pytest.raises(ConfigError, match="samples_g1"):
        load_from(config_from_text("load.samples_x = 0.0, 1.0"))
    # one sample, then a repeated position: each names load.samples_x
    with pytest.raises(ConfigError, match="load.samples_x: load sample positions"):
        load_from(config_from_text("load.samples_x = 0\nload.samples_g1 = 1\nload.samples_g2 = 2"))
    with pytest.raises(ConfigError, match="load.samples_x: load sample positions"):
        load_from(config_from_text(
            "load.samples_x = 0, 0\nload.samples_g1 = 1, 3\nload.samples_g2 = 2, 4"
        ))


def test_mesh_from_rule_and_overrides():
    mesh = mesh_from(config_from_text("strip.h = 0.1"))
    assert mesh.h == 0.1
    assert mesh.nx == mesh_rule_nx(1.0, 0.1)
    assert mesh.ny == 8

    mesh = mesh_from(config_from_text("strip.h = 0.2\nstrip.nx = 16\nstrip.ny = 4"))
    assert (mesh.nx, mesh.ny, mesh.h) == (16, 4, 0.2)

    cfg = config_from_text("strip.h = 0.2\nstrip.ny = 4")
    mesh = mesh_from(cfg, 0.05)
    assert (mesh.nx, mesh.ny, mesh.h) == (mesh_rule_nx(1.0, 0.05), 4, 0.05)
    assert cfg.unread() == ["strip.h"]

    with pytest.raises(ConfigError, match="strip.h"):
        mesh_from(config_from_text(""))
    # a thickness passed in comes from the sweep, and the message says so
    with pytest.raises(ConfigError, match=r"sweep\.h must lie in \(0, 0\.5\]"):
        mesh_from(config_from_text(""), 0.7)


def test_sweep_from_default_and_validation():
    assert sweep_from(config_from_text("")) == DEFAULT_SWEEP
    assert sweep_from(config_from_text("sweep.h = 0.4, 0.2")) == (0.4, 0.2)
    with pytest.raises(ConfigError, match="decreasing"):
        sweep_from(config_from_text("sweep.h = 0.1, 0.2"))
    with pytest.raises(ConfigError, match="at least one"):
        sweep_from(config_from_text("sweep.h ="))


def test_truncation_from_defaults_and_shipped_config():
    default = (14.0, 28.0, 50, 0.125, [(64, 8), (128, 16), (256, 32)])
    assert truncation_from(config_from_text("")) == default
    cfg = ExperimentConfig.load(CONFIGS / "truncation.cfg")
    raw = cfg.raw
    a, A, nfields, height, grids = truncation_from(cfg)
    assert (a, A) == (float(raw["truncation.level_min"]), float(raw["truncation.level_max"]))
    assert (nfields, height) == (int(raw["truncation.fields"]), float(raw["truncation.height"]))
    assert ",".join(f"{n1}x{n2}" for n1, n2 in grids) == raw["truncation.resolutions"]
    got = truncation_from(config_from_text("truncation.resolutions = 32X8\ntruncation.fields = 2"))
    assert got[2] == 2 and got[4] == [(32, 8)]


def test_seed_from_flag_wins_and_negatives_name_their_source():
    assert seed_from(config_from_text(""), None) == 1234
    assert seed_from(config_from_text("run.seed = 5"), None) == 5
    assert seed_from(config_from_text("run.seed = 5"), 9) == 9
    assert seed_from(config_from_text("run.seed = 5"), 0) == 0
    with pytest.raises(ConfigError, match="--seed must be at least 0, got -1"):
        seed_from(config_from_text("run.seed = 5"), -1)
    with pytest.raises(ConfigError, match="run.seed must be at least 0, got -3"):
        seed_from(config_from_text("run.seed = -3"), None)
