"""End-to-end driver runs: exit codes, artifacts, determinism."""

import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from striplab.cli import _hypothesis_rows, main, run_energy_check
from striplab.config import elastica_from, energy_from, load_from, mesh_from
from striplab.diagnostics import diagnose
from striplab.energy import HalfDistSquared
from striplab.errors import DiagnosticError
from striplab.solver import solve_stationary

from helpers import config_from_text, read_keyvalue, read_table

TINY_STRIP = """
strip.L = 1.0
strip.h = 0.2
load.g2 = -1e-3
"""

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

TINY_TRUNC = """
truncation.fields = 2
truncation.resolutions = 64x8
"""


def write_cfg(tmp_path, text, name="run.cfg"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def child_env(**extra):
    """The environment of a fresh interpreter that imports striplab from src/."""
    env = dict(os.environ, **extra)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def test_parser_requires_subcommand_and_config(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["diagnose"])
    assert exc.value.code == 2
    # an unknown subcommand exits 2 even with a readable config
    with pytest.raises(SystemExit) as exc:
        main(["solve-strip", "--config", write_cfg(tmp_path, TINY_STRIP)])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["solve-elastica", "--config", write_cfg(tmp_path, TINY_STRIP)])
    assert exc.value.code == 2


def test_manifest_lists_unread_config_keys(tmp_path):
    # a typo, a key this subcommand never reads, the removed load_steps,
    # max_iters and det_floor, and a modulus the default density does not use
    cfg = write_cfg(
        tmp_path,
        TINY_STRIP
        + "solver.newton_tl = 1e-9\nsweep.h = 0.2\nsolver.load_steps = 10\nenergy.mu = nan\n"
        + "solver.max_iters = 3\nsolver.det_floor = 0.5\n",
    )
    out = tmp_path / "out"
    assert main(["diagnose", "--config", cfg, "--out", str(out)]) == 0
    _, manifest = read_table(out / "manifest.csv")
    assert manifest[0][0] == "config"
    assert manifest[0][3] == (
        "energy.mu;solver.det_floor;solver.load_steps;solver.max_iters;solver.newton_tl;sweep.h"
    )


def test_solver_failure_exits_1(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr("striplab.solver.MAX_ITERS", 2)
    monkeypatch.setattr("striplab.solver.MIN_LOAD_STEP", 0.3)
    cfg = write_cfg(tmp_path, "strip.h = 0.2\nstrip.nx = 16\nstrip.ny = 2\nload.g2 = -0.5\n")
    out = tmp_path / "out"
    assert main(["diagnose", "--config", cfg, "--out", str(out)]) == 1
    report = read_keyvalue(out / "report.csv")
    assert report["converged"] == "false"
    assert "stalled" in report["message"]
    assert report["message"].startswith("cold start at full load failed:")
    # every table is still written, from the last accepted iterate
    assert len(list(out.glob("*.csv"))) == 6


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning", "ignore:invalid:RuntimeWarning")
def test_overflowing_load_exits_1_with_a_report(tmp_path):
    # the trial's determinants are NaN; the guard rejects the trial, so the
    # solve fails as a solve rather than as a diagnostic
    cfg = write_cfg(tmp_path, "strip.L = 1.0\nstrip.h = 0.2\nload.g2 = 1e308\n")
    out = tmp_path / "out"
    assert main(["diagnose", "--config", cfg, "--out", str(out)]) == 1
    report = read_keyvalue(out / "report.csv")
    assert report["converged"] == "false"
    assert "line search failed" in report["message"]


def test_rod_solver_failure_exits_1_without_output(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr("striplab.elastica.ROD_MAX_ITERS", 0)
    out = tmp_path / "o"
    assert main(["converge", "--config", str(CONFIGS / "cantilever.cfg"), "--out", str(out)]) == 1
    assert "solver failure: rod Newton iteration cap reached" in capsys.readouterr().err
    assert not out.exists()


def test_converge_tabulates_only_the_thicknesses_that_solve(tmp_path):
    cfg = write_cfg(tmp_path, "load.g2 = -3\nsweep.h = 0.2, 0.1\n")
    out = tmp_path / "o"
    assert main(["converge", "--config", cfg, "--out", str(out)]) == 1
    _, manifest = read_table(out / "manifest.csv")
    status = {r[0]: r[1] for r in manifest}
    assert status["solve h=0.2"].startswith("non-converged:")
    assert "continuation stalled at load factor 0.762451" in status["solve h=0.2"]
    assert status["solve h=0.1"] == "ok"
    for name in ("convergence.csv", "identities.csv"):
        _, rows = read_table(out / name)
        assert [float(r[0]) for r in rows] == [0.1]


def test_missing_config_exits_2(tmp_path, capsys):
    code = main(["diagnose", "--config", str(tmp_path / "nope.cfg"), "--out", str(tmp_path)])
    assert code == 2
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "case", ["config-is-a-directory", "config-not-utf8", "out-is-a-file", "out-under-a-file"]
)
def test_unreadable_config_or_file_out_exits_2(tmp_path, capsys, case):
    cfg, out = write_cfg(tmp_path, TINY_STRIP), tmp_path / "o"
    if case == "config-is-a-directory":
        cfg = str(tmp_path)
    elif case == "config-not-utf8":
        (tmp_path / "run.cfg").write_bytes(b"strip.h = 0.2\n# \xff\xfe\n")
    else:
        out.write_text("keep")
    target = out / "sub" if case == "out-under-a-file" else out
    assert main(["diagnose", "--config", cfg, "--out", str(target)]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and "Traceback" not in err
    assert ("--out" in err) == case.startswith("out")
    assert (out.read_text() == "keep") if case.startswith("out") else not out.exists()


def test_malformed_config_exits_2(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "strip.h 0.2\n")
    assert main(["diagnose", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert "line 1" in capsys.readouterr().err


def test_truncate_bad_window_exits_2_naming_both_keys(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "truncation.level_min = 2.0\ntruncation.level_max = 1.0\n")
    assert main(["truncate", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "level_min" in err and "level_max" in err


@pytest.mark.parametrize(
    "command, text, key",
    [
        ("truncate", "truncation.resolutions = 0x8\n", "truncation.resolutions"),
        ("truncate", "truncation.fields = 0\n", "truncation.fields"),
        ("diagnose", "strip.h = abc\n", "strip.h"),
        (
            "diagnose",
            "strip.h = 0.2\nload.samples_x = 0.0, 1.0\n"
            "load.samples_g1 = 0.0, 0.0\nload.samples_g2 = -1e-3\n",
            "load.samples_g2",
        ),
        ("diagnose", "strip.h = 0\n", "strip.h"),
        ("diagnose", "strip.h = nan\n", "strip.h"),
        ("diagnose", "strip.h = 0.2\nstrip.L = nan\n", "strip.L"),
        ("diagnose", "strip.h = 0.2\nstrip.L = inf\n", "strip.L"),
        ("converge", "strip.L = inf\n", "strip.L"),
        ("diagnose", "strip.h = 0.2\nload.g2 = inf\n", "load.g2"),
        ("converge", "load.g2 = nan\n", "load.g2"),
        ("truncate", TINY_TRUNC + "truncation.level_max = inf\n", "truncation.level_max"),
        ("truncate", TINY_TRUNC + "truncation.level_min = nan\n", "truncation.level_min"),
        ("truncate", TINY_TRUNC + "truncation.height = 0\n", "truncation.height"),
        ("diagnose", "strip.L = 0.5\nstrip.h = 0.4\n", "strip.h"),
        ("converge", "strip.L = 0.5\nsweep.h = 0.4\n", "sweep.h"),
        ("diagnose", "strip.h = 0.2\nstrip.nx = 2\n", "strip.nx"),
        ("diagnose", "strip.h = 0.2\nstrip.ny = 1\n", "strip.ny"),
        ("converge", "sweep.h = 0.2\nstrip.nx = 2\n", "strip.nx"),
        ("converge", "sweep.h = 0.2\nstrip.ny = 1\n", "strip.ny"),
        ("truncate", TINY_TRUNC + "run.seed = -3\n", "run.seed"),
        ("energy-check", "run.seed = -3\n", "run.seed"),
        ("truncate", "truncation.resolutions = 64x8,64x7\n", "truncation.resolutions"),
        ("truncate", TINY_TRUNC + "truncation.height = 0.4\n", "truncation.height"),
        (
            "diagnose",
            "strip.h = 0.2\nenergy.kind = isotropic-quadratic\nenergy.mu = inf\n",
            "energy.mu",
        ),
        (
            "converge",
            "sweep.h = 0.2\nenergy.kind = isotropic-quadratic\nenergy.lambda = inf\n",
            "energy.lambda",
        ),
        (
            "diagnose",
            "strip.h = 0.2\nload.samples_x = 0, 1\n"
            "load.samples_g1 = 0, 0, 0\nload.samples_g2 = -1, -1, -1\n",
            "load.samples_x",
        ),
        (
            "diagnose",
            "strip.h = 0.2\nload.samples_x = 1, 0\n"
            "load.samples_g1 = 0, 0\nload.samples_g2 = -1, -1\n",
            "load.samples_x",
        ),
        (
            "diagnose",
            "strip.h = 0.2\nload.samples_x = 0.5\n"
            "load.samples_g1 = 0\nload.samples_g2 = -1\n",
            "load.samples_x",
        ),
        (
            "diagnose",
            "strip.h = 0.2\nload.samples_x = 0, 1\n"
            "load.samples_g1 = 0, nan\nload.samples_g2 = -1, -1\n",
            "load.samples_g1",
        ),
        (
            "diagnose",
            "strip.h = 0.2\nload.samples_x = 0, 1\n"
            "load.samples_g1 = 0, 0\nload.samples_g2 = -1, inf\n",
            "load.samples_g2",
        ),
        ("diagnose", "strip.h = 0.05\nstrip.nx = 4\n", "strip.nx"),
        ("converge", "sweep.h = 0.05\nstrip.nx = 4\n", "strip.nx"),
        ("truncate", "truncation.resolutions = 64by8\n", "truncation.resolutions"),
        ("converge", "sweep.h = 0.2,,0.1\n", "sweep.h"),
    ],
    ids=[
        "zero-cells",
        "no-fields",
        "h-not-a-number",
        "sample-lengths",
        "h-zero",
        "h-nan",
        "L-nan",
        "L-inf",
        "elastica-L-inf",
        "g2-inf",
        "elastica-g2-nan",
        "level-max-inf",
        "level-min-nan",
        "height-zero",
        "diagnose-h-above-half-L",
        "sweep-h-above-half-L",
        "nx-below-4",
        "ny-below-2",
        "converge-nx-below-4",
        "converge-ny-below-2",
        "truncate-seed-negative",
        "energy-check-seed-negative",
        "odd-cells-across",
        "height-too-thick",
        "mu-inf",
        "lambda-inf",
        "sample-positions-vs-values",
        "sample-positions-decreasing",
        "single-sample",
        "sample-g1-nan",
        "sample-g2-inf",
        "diagnose-slab-without-quadrature",
        "converge-slab-without-quadrature",
        "resolution-not-NxM",
        "sweep-h-empty-entry",
    ],
)
def test_bad_config_value_exits_2_naming_the_key(tmp_path, capsys, command, text, key):
    cfg = write_cfg(tmp_path, text)
    assert main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and key in err
    assert not (tmp_path / "o").exists()


def test_converge_builds_meshes_through_strip_nx_and_ny(tmp_path):
    base = TINY_STRIP + "strip.ny = 4\nsweep.h = 0.2, 0.1\n"
    out_rule, out_nx = tmp_path / "rule", tmp_path / "nx"
    assert main(["converge", "--config", write_cfg(tmp_path, base), "--out", str(out_rule)]) == 0
    cfg = write_cfg(tmp_path, base + "strip.nx = 32\n", name="nx.cfg")
    assert main(["converge", "--config", cfg, "--out", str(out_nx)]) == 0
    _, manifest = read_table(out_nx / "manifest.csv")
    assert manifest[0][3] == "strip.h"
    rule = (out_rule / "convergence.csv").read_bytes()
    assert (out_nx / "convergence.csv").read_bytes() != rule


def test_truncate_lists_the_removed_exponent_key_as_unread(tmp_path):
    # the level rule's exponent is fixed at 2; an old truncation.p is ignored
    cfg = write_cfg(tmp_path, TINY_TRUNC + "truncation.p = 1\n")
    out = tmp_path / "o"
    assert main(["truncate", "--config", cfg, "--out", str(out)]) == 0
    _, manifest = read_table(out / "manifest.csv")
    assert "truncation.p" in manifest[0][3].split(";")


def test_truncate_unreachable_level_exits_3(tmp_path, capsys):
    cfg = write_cfg(
        tmp_path,
        TINY_TRUNC + "truncation.level_min = 0.5\ntruncation.level_max = 1.0\n",
    )
    out = tmp_path / "o"
    assert main(["truncate", "--config", cfg, "--out", str(out)]) == 3
    assert "good set is empty" in capsys.readouterr().err
    _, manifest = read_table(out / "manifest.csv")
    assert [row[0] for row in manifest] == ["config", "truncate"]
    assert manifest[1][1].startswith("failed: good set is empty")


@pytest.mark.parametrize("grid", ["1x8", "2x8", "3x8"])
def test_truncate_grids_coarser_than_the_window(tmp_path, grid):
    # fewer nodes along the strip than the steepness window spans
    cfg = write_cfg(tmp_path, f"truncation.fields = 3\ntruncation.resolutions = {grid}\n")
    out = tmp_path / "o"
    assert main(["truncate", "--config", cfg, "--out", str(out)]) == 0
    _, rows = read_table(out / "qstats.csv")
    assert [r[0] for r in rows] == [grid] * 3


def test_truncate_outputs_are_deterministic(tmp_path):
    cfg = write_cfg(tmp_path, TINY_TRUNC)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["truncate", "--config", cfg, "--out", str(out_a)]) == 0
    assert main(["truncate", "--config", cfg, "--out", str(out_b)]) == 0
    assert (out_a / "qstats.csv").read_bytes() == (out_b / "qstats.csv").read_bytes()
    assert (out_a / "summary.csv").read_bytes() == (out_b / "summary.csv").read_bytes()
    # manifests may differ in wall time and output directory only
    _, rows_a = read_table(out_a / "manifest.csv")
    _, rows_b = read_table(out_b / "manifest.csv")
    for ra, rb in zip(rows_a, rows_b):
        assert ra[:2] == rb[:2]
        names_a = [p.rsplit("/", 1)[-1] for p in ra[3].split(";")]
        names_b = [p.rsplit("/", 1)[-1] for p in rb[3].split(";")]
        assert names_a == names_b


@pytest.mark.parametrize(
    "command, text",
    [
        ("diagnose", TINY_STRIP),
        ("converge", TINY_STRIP + "sweep.h = 0.2, 0.1\n"),
    ],
    ids=["diagnose", "converge"],
)
def test_solver_outputs_are_deterministic(tmp_path, command, text):
    cfg = write_cfg(tmp_path, text)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main([command, "--config", cfg, "--out", str(out_a)]) == 0
    assert main([command, "--config", cfg, "--out", str(out_b)]) == 0
    # manifests record wall times; every other file must match byte for byte
    names = sorted(p.name for p in out_a.glob("*.csv") if p.name != "manifest.csv")
    assert names == sorted(p.name for p in out_b.glob("*.csv") if p.name != "manifest.csv")
    assert len(names) >= 3
    for name in names:
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), name


def test_diagnose_bytes_do_not_depend_on_blas_threads(tmp_path):
    # the element operators are BLAS products, so the thread count must not
    # change how any entry is summed
    cfg = write_cfg(tmp_path, "strip.L = 1.0\nstrip.h = 0.025\nload.g2 = -1e-3\n")
    outs = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads-{threads}"
        env = child_env(OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
        cmd = [sys.executable, "-m", "striplab.cli", "diagnose", "--config", cfg]
        run = subprocess.run(cmd + ["--out", str(out)], env=env, capture_output=True)
        assert run.returncode == 0, run.stderr
        outs.append(out)
    # manifests record wall times; every other file must match byte for byte
    names = sorted(p.name for p in outs[0].glob("*.csv") if p.name != "manifest.csv")
    assert names == sorted(p.name for p in outs[1].glob("*.csv") if p.name != "manifest.csv")
    assert len(names) == 5
    for name in names:
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name


IMPORT_PROBE = """
import sys
from striplab.cli import main
cantilever, trunc, out = sys.argv[1:]
assert main(["energy-check", "--config", cantilever, "--out", out + "/ec"]) == 0
assert main(["truncate", "--config", trunc, "--out", out + "/tr"]) == 0
print("scipy.linalg" in sys.modules)
assert main(["diagnose", "--config", cantilever, "--out", out + "/dg"]) == 0
print("scipy.linalg" in sys.modules)
"""


def test_only_solving_subcommands_import_scipy_linalg(tmp_path):
    # scipy.linalg is most of the start-up time, so commands that solve no
    # linear system must not load it; the test process already has, hence
    # a fresh interpreter
    trunc = write_cfg(tmp_path, "truncation.fields = 1\ntruncation.resolutions = 64x8\n")
    cmd = [sys.executable, "-c", IMPORT_PROBE, str(CONFIGS / "cantilever.cfg"), trunc, str(tmp_path)]
    run = subprocess.run(cmd, env=child_env(), capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    assert run.stdout.split() == ["False", "True"]


def test_truncate_seed_changes_the_fields(tmp_path, capsys):
    cfg = write_cfg(tmp_path, TINY_TRUNC)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["truncate", "--config", cfg, "--out", str(out_a), "--seed", "7"]) == 0
    assert main(["truncate", "--config", cfg, "--out", str(out_b), "--seed", "8"]) == 0
    _, rows_a = read_table(out_a / "qstats.csv")
    _, rows_b = read_table(out_b / "qstats.csv")
    assert [r[1] for r in rows_a] != [r[1] for r in rows_b]
    summary = read_keyvalue(out_a / "summary.csv")
    assert "q_max_64x8" in summary
    assert main(["truncate", "--config", cfg, "--out", str(tmp_path / "c"), "--seed", "-1"]) == 2
    assert "--seed" in capsys.readouterr().err


def test_energy_check_default_density_passes(tmp_path):
    cfg = write_cfg(tmp_path, "")
    out = tmp_path / "o"
    assert main(["energy-check", "--config", cfg, "--out", str(out)]) == 0
    _, rows = read_table(out / "hypotheses.csv")
    by_tag = {r[0]: r[2] for r in rows if r[0] != "H4"}
    assert by_tag == {"H1": "pass", "H2": "pass", "H3": "pass"}


def test_energy_check_isotropic_marks_reflection_gap_xfail(tmp_path):
    cfg = write_cfg(tmp_path, "energy.kind = isotropic-quadratic\n")
    out = tmp_path / "o"
    assert main(["energy-check", "--config", cfg, "--out", str(out)]) == 0
    _, rows = read_table(out / "hypotheses.csv")
    h3 = [r for r in rows if r[0] == "H3"]
    assert h3 and h3[0][2] == "xfail"


class LeakyDensity(HalfDistSquared):
    """Deliberately frame-dependent: a negative control for the check suite."""

    def energy(self, F):
        F = np.asarray(F, dtype=float)
        return super().energy(F) + F[..., 0, 1] ** 2


def test_energy_check_negative_control_fails_loudly(tmp_path, monkeypatch):
    rows = _hypothesis_rows(LeakyDensity(), np.random.default_rng(0))
    status = {r[0]: r[2] for r in rows if r[0] != "H4"}
    assert status["H1"] == "fail"

    monkeypatch.setattr("striplab.cli.energy_from", lambda cfg: LeakyDensity())
    cfg = config_from_text("")
    out = tmp_path / "o"
    with pytest.raises(DiagnosticError, match="H1"):
        run_energy_check(cfg, out)
    _, rows = read_table(out / "hypotheses.csv")  # written before the raise
    assert any(r[0] == "H1" and r[2] == "fail" for r in rows)
    cfg_path = write_cfg(tmp_path, "")
    assert main(["energy-check", "--config", cfg_path, "--out", str(out)]) == 3


def test_diagnose_emits_every_table(tmp_path):
    cfg = write_cfg(tmp_path, TINY_STRIP)
    out = tmp_path / "o"
    assert main(["diagnose", "--config", cfg, "--out", str(out)]) == 0
    for name in (
        "solution.csv",
        "rotations.csv",
        "moments.csv",
        "identities.csv",
        "report.csv",
        "manifest.csv",
    ):
        assert (out / name).exists()
    header, manifest = read_table(out / "manifest.csv")
    assert header == ["step", "status", "seconds", "outputs"]
    assert [r[0] for r in manifest] == ["config", "diagnose", "write"]
    assert ["diagnose", "ok"] == manifest[1][:2]
    assert manifest[1][3] == ""
    written = [p.rsplit("/", 1)[-1] for p in manifest[2][3].split(";")]
    assert written == [
        "solution.csv", "rotations.csv", "moments.csv", "identities.csv", "report.csv"
    ]
    header, rows = read_table(out / "identities.csv")
    assert header == ["h", "r1", "r2", "r3", "r4", "r5"]
    assert len(rows) == 1
    assert float(rows[0][0]) == 0.2
    # the clamp gap of z tracks the mollified angle at x1 = 0, small under
    # this load but not zero
    report = read_keyvalue(out / "report.csv")
    assert 0.0 <= float(report["z_bc_gap"]) < 1e-2
    assert report["converged"] == "true"
    assert float(report["h"]) == 0.2
    _, rows = read_table(out / "solution.csv")
    assert len(rows) == (64 + 1) * (8 + 1)  # mesh rule at h=0.2
    assert report["load_path"] == f"1:{report['iterations']}"
    assert list(report).index("load_path") == list(report).index("message") + 1
    assert list(report) == [
        "h", "L", "nx", "ny", "converged", "iterations", "residual_sup", "elastic_energy",
        "total_energy", "message", "load_path", "z_bc_gap",
    ]  # the z-identity row is gone


def test_per_point_fields_come_back_from_solution_csv(tmp_path):
    # diagnose writes no per-point table: repr round-trips every float of
    # solution.csv, so diagnose on the y read back gives G and E bit for bit
    cfg = write_cfg(tmp_path, TINY_STRIP)
    out = tmp_path / "o"
    assert main(["diagnose", "--config", cfg, "--out", str(out)]) == 0
    assert not (out / "fields.csv").exists()
    ref = config_from_text(TINY_STRIP)
    W, g, mesh = energy_from(ref), load_from(ref), mesh_from(ref)
    y, _ = solve_stationary(mesh, g, W)
    _, rows = read_table(out / "solution.csv")
    table = np.array([[float(v) for v in r[1:]] for r in rows])
    assert table[:, :2].tobytes() == mesh.nodes.tobytes()
    assert table[:, 2:].tobytes() == y.tobytes()
    d_read, d = diagnose(mesh, table[:, 2:], g, W), diagnose(mesh, y, g, W)
    assert d_read.G.tobytes() == d.G.tobytes()
    assert d_read.E.tobytes() == d.E.tobytes()


def test_converge_runs_the_sweep(tmp_path):
    text = "load.g2 = -1e-3\nsweep.h = 0.2, 0.1\n"
    cfg = write_cfg(tmp_path, text)
    out = tmp_path / "o"
    assert main(["converge", "--config", cfg, "--out", str(out)]) == 0
    report = read_keyvalue(out / "report.csv")
    assert list(report) == ["modulus", "L", "n", "iterations", "tip_angle", "j2"]
    assert float(report["tip_angle"]) < 0.0
    assert report["n"] == "2048"  # elastica.ROD_N
    ref = config_from_text(text)
    rod = elastica_from(ref, energy_from(ref), load_from(ref))
    assert report["tip_angle"] == repr(float(rod.theta[-1]))
    assert report["j2"] == repr(float(rod.j2))
    _, rows = read_table(out / "elastica.csv")
    assert len(rows) == 2049
    header, rows = read_table(out / "convergence.csv")
    assert header == ["h", "theta_err_L2", "y_err_W12", "energy_over_h2"]
    assert len(rows) == 2
    assert float(rows[1][1]) < float(rows[0][1])  # theta error shrinks with h
    header, ids = read_table(out / "identities.csv")
    assert header == ["h", "r1", "r2", "r3", "r4", "r5"]
    assert [float(r[0]) for r in ids] == [0.2, 0.1]
    _, manifest = read_table(out / "manifest.csv")
    steps = [r[0] for r in manifest]
    assert steps == ["config", "elastica", "solve h=0.2", "solve h=0.1", "diagnostics"]
    written = [p.rsplit("/", 1)[-1] for p in manifest[1][3].split(";")]
    assert written == ["elastica.csv", "report.csv"]


def test_converge_solves_every_thickness_of_the_thin_sweep(tmp_path):
    out = tmp_path / "o"
    assert main(["converge", "--config", str(CONFIGS / "thin.cfg"), "--out", str(out)]) == 0
    _, manifest = read_table(out / "manifest.csv")
    solved = {r[0]: r[1] for r in manifest if r[0].startswith("solve h=")}
    assert solved == {
        f"solve h={h}": "ok" for h in ("0.2", "0.1", "0.05", "0.025", "0.0125", "0.00625")
    }
    _, rows = read_table(out / "convergence.csv")
    assert [float(r[0]) for r in rows] == [0.2, 0.1, 0.05, 0.025, 0.0125, 0.00625]


@pytest.mark.parametrize(
    "name, commands, overrides",
    [
        ("cantilever.cfg", ("diagnose", "converge", "energy-check"), {}),
        ("thin.cfg", ("diagnose", "converge", "energy-check"), {"sweep.h": "0.2"}),
        ("truncation.cfg", ("truncate",), {"truncation.fields": "2"}),
    ],
    ids=["cantilever", "thin", "truncation"],
)
def test_every_shipped_config_key_is_read(tmp_path, name, commands, overrides):
    # a key that no subcommand using the config reads sets nothing; the
    # overrides only shorten the runs, and keep the config's set of keys
    text = (CONFIGS / name).read_text()
    for key, value in overrides.items():
        text, n = re.subn(rf"^{re.escape(key)}\s*=.*$", f"{key} = {value}", text, flags=re.M)
        assert n == 1, key
    cfg = write_cfg(tmp_path, text)
    unread = []
    for command in commands:
        out = tmp_path / command
        assert main([command, "--config", cfg, "--out", str(out)]) == 0
        _, manifest = read_table(out / "manifest.csv")
        unread.append(set(manifest[0][3].split(";")) - {""})
    assert set.intersection(*unread) == set()
