"""Command-line experiment drivers, one per entry of `COMMANDS`.

Each takes --config PATH and --out DIR (--seed N where it matters).  Exit
codes: 0 success, 1 solver non-convergence, 2 config error, 3 diagnostic or
truncation failure.
"""

from __future__ import annotations

import argparse
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import csvio
from .algebra import dist_so2, rot2
from .config import (
    ExperimentConfig,
    energy_from,
    load_from,
    mesh_from,
    seed_from,
    sweep_from,
    truncation_from,
)
from .diagnostics import ConvergenceRow, IdentityRow, diagnose, theta_error, y_error
from .elastica import ROD_N, solve_elastica
from .energy import taylor_remainder, tension_modulus
from .errors import ConfigError, DiagnosticError, DomainError, NonConvergence
from .solver import lift, solve_stationary
from .truncation import rough_field, sample_on_strip, thin_truncate

EXIT_OK = 0
EXIT_SOLVER = 1
EXIT_CONFIG = 2
EXIT_DIAGNOSTIC = 3


@dataclass
class RunManifest:
    """What a driver produced: per-step status, timing, and artifact paths."""

    config: ExperimentConfig
    out_dir: Path
    entries: list = field(default_factory=list)

    def record(self, step: str, status: str, seconds: float, outputs=()):
        self.entries.append((step, status, seconds, tuple(str(p) for p in outputs)))

    @property
    def all_ok(self) -> bool:
        return all(status == "ok" for _, status, _, _ in self.entries)

    def write(self) -> Path:
        """The config row lists the config keys the run did not read."""
        rows = [("config", self.config.hash, 0.0, ";".join(self.config.unread()))]
        rows += [
            (step, status, round(seconds, 3), ";".join(outputs))
            for step, status, seconds, outputs in self.entries
        ]
        return csvio.write_table(
            self.out_dir / "manifest.csv",
            ["step", "status", "seconds", "outputs"],
            rows,
        )


def run_diagnose(cfg: ExperimentConfig, out: Path) -> RunManifest:
    manifest = RunManifest(config=cfg, out_dir=out)
    W = energy_from(cfg)
    g = load_from(cfg)
    mesh = mesh_from(cfg)
    t0 = time.perf_counter()
    y, report = solve_stationary(mesh, g, W)
    status = "ok" if report.converged else f"non-converged: {report.message}"
    d = diagnose(mesh, y, g, W)
    manifest.record("diagnose", status, time.perf_counter() - t0)
    t0 = time.perf_counter()
    items = {
        "h": mesh.h,
        "L": mesh.L,
        "nx": mesh.nx,
        "ny": mesh.ny,
        "converged": report.converged,
        "iterations": report.iterations,
        "residual_sup": report.residual_sup,
        "elastic_energy": report.elastic_energy,
        "total_energy": report.total_energy,
        "message": report.message,
        "load_path": ";".join(f"{mu:.6g}:{it}" for mu, it in report.path),
        "z_bc_gap": d.z_bc_gap,
    }
    paths = [
        csvio.write_solution(out / "solution.csv", mesh, y),
        csvio.write_rotations(out / "rotations.csv", d),
        csvio.write_moments(out / "moments.csv", d),
        csvio.write_table(out / "identities.csv", IdentityRow._fields, [d.row]),
        csvio.write_keyvalue(out / "report.csv", items),
    ]
    manifest.record("write", "ok", time.perf_counter() - t0, paths)
    manifest.write()
    return manifest


def run_convergence(cfg: ExperimentConfig, out: Path) -> RunManifest:
    """The rod at ROD_N and ROD_N // 2, then each sweep h solved from its lift, tabulated."""
    manifest = RunManifest(config=cfg, out_dir=out)
    W = energy_from(cfg)
    g = load_from(cfg)
    # every mesh is built, and so checked, before any output
    meshes = [mesh_from(cfg, h) for h in sweep_from(cfg)]

    t0 = time.perf_counter()
    modulus, L = tension_modulus(W), meshes[0].L
    limit = solve_elastica(modulus, g, L, n=ROD_N)
    # the rod's own error estimate: theta at half the grid on the shared nodes
    coarse = solve_elastica(modulus, g, L, n=ROD_N // 2)
    gap = np.sqrt(np.trapezoid((limit.theta[::2] - coarse.theta) ** 2, coarse.x))
    dt = time.perf_counter() - t0
    rod = {
        "modulus": limit.modulus,
        "L": limit.L,
        "n": limit.x.size - 1,
        "iterations": limit.iterations,
        "tip_angle": limit.theta[-1],
        "j2": limit.j2,
        "theta_gap_half": gap,
    }
    paths = [
        csvio.write_elastica(out / "elastica.csv", limit),
        csvio.write_keyvalue(out / "report.csv", rod),
    ]
    manifest.record("elastica", "ok", dt, paths)

    errors, identities = [], []
    diag_s = 0.0
    for mesh in meshes:
        h = mesh.h
        t0 = time.perf_counter()
        y, report = solve_stationary(mesh, g, W, start=lift(limit, mesh))
        t1 = time.perf_counter()
        if not report.converged:
            manifest.record(f"solve h={h:g}", f"non-converged: {report.message}", t1 - t0)
            continue
        manifest.record(f"solve h={h:g}", "ok", t1 - t0)
        try:
            d = diagnose(mesh, y, g, W)
        except DiagnosticError as exc:
            manifest.record("diagnostics", f"failed: {exc}", diag_s + time.perf_counter() - t1)
            manifest.write()
            raise
        energy = report.elastic_energy / h**2  # the energy the solver measured
        errors.append(ConvergenceRow(h, theta_error(d, limit), y_error(d, y, limit), energy))
        identities.append(d.row)
        diag_s += time.perf_counter() - t1

    if errors:
        t0 = time.perf_counter()
        paths = [
            csvio.write_table(out / "convergence.csv", ConvergenceRow._fields, errors),
            csvio.write_table(out / "identities.csv", IdentityRow._fields, identities),
        ]
        manifest.record("diagnostics", "ok", diag_s + time.perf_counter() - t0, paths)
    manifest.write()
    return manifest


def run_truncation_demo(cfg: ExperimentConfig, out: Path, seed: int | None = None) -> RunManifest:
    manifest = RunManifest(config=cfg, out_dir=out)
    a, A, nfields, height, grids = truncation_from(cfg)
    seed = seed_from(cfg, seed)

    rows, summary = [], {}
    t0 = time.perf_counter()
    for n1, n2 in grids:
        key = f"{n1}x{n2}"
        qs = []
        for idx in range(nfields):
            fn = rough_field(seed + idx)
            u = sample_on_strip(fn, n1, n2, height)
            try:
                result = thin_truncate(u, a, A)
            except DiagnosticError as exc:
                manifest.record("truncate", f"failed: {exc}", time.perf_counter() - t0)
                manifest.write()
                raise
            qs.append(result.q)
            rows.append(
                (
                    key,
                    seed + idx,
                    result.level,
                    result.lam,
                    result.q,
                    result.mismatch_area,
                    result.strip_index,
                    result.grad_sup,
                )
            )
        summary[f"q_max_{key}"] = max(qs)
        summary[f"q_mean_{key}"] = sum(qs) / len(qs)
    dt = time.perf_counter() - t0
    paths = [
        csvio.write_table(
            out / "qstats.csv",
            ["grid", "seed", "level", "lam", "q", "mismatch_area", "strip_index", "grad_sup_v"],
            rows,
        ),
        csvio.write_keyvalue(out / "summary.csv", summary),
    ]
    manifest.record("truncate", "ok", dt, paths)
    manifest.write()
    return manifest


def _hypothesis_rows(W, rng) -> list[tuple]:
    """The invariant suite for one density: objectivity, well, coercivity, smoothness."""
    rows = []
    n = 1000
    F = np.eye(2) + 0.4 * rng.standard_normal((n, 2, 2))
    R = rot2(rng.uniform(-np.pi, np.pi, size=n))
    gap = np.max(np.abs(W.energy(R @ F) - W.energy(F)))
    rows.append(("H1", "frame indifference", "pass" if gap <= 1e-10 else "fail", gap))

    Wr = np.max(np.abs(W.energy(rot2(rng.uniform(-np.pi, np.pi, size=n)))))
    ok2 = Wr <= 1e-12 and np.min(W.energy(F)) >= 0.0
    rows.append(("H2", "zero on rotations, nonnegative", "pass" if ok2 else "fail", Wr))

    # Coercivity against squared distance: sample the orientation-preserving
    # regime, then probe a reflection, where an isotropic quadratic vanishes.
    dets = F[..., 0, 0] * F[..., 1, 1] - F[..., 0, 1] * F[..., 1, 0]
    Fpos = F[dets > 0.2]
    d2 = dist_so2(Fpos) ** 2
    mask = d2 > 1e-12
    cmin = float(np.min(W.energy(Fpos[mask]) / d2[mask]))
    refl = np.array([[1.0, 0.0], [0.0, -1.0]])
    w_refl = float(W.energy(refl))
    if W.coercive_globally:
        status = "pass" if cmin > 1e-3 and w_refl > 1e-3 else "fail"
    else:
        # documented exception: vanishing at reflections, checked not hidden
        status = "xfail" if w_refl <= 1e-12 else "fail"
    rows.append(("H3", "coercive over squared distance", status, min(cmin, w_refl)))

    A = rng.standard_normal((2, 2))
    ts = np.array([1e-2, 5e-3, 2.5e-3])
    rem = taylor_remainder(W, ts[:, None, None] * A)
    rnorm = np.sqrt(np.sum(rem**2, axis=(-2, -1)))
    # remainder is o(t): halving t must shrink it faster than linearly
    ratios = rnorm[:-1] / np.maximum(rnorm[1:], 1e-300)
    ok4, val4 = bool(np.all(ratios > 2.5)), float(np.min(ratios))
    rows.append(("H4", "quadratic expansion at identity", "pass" if ok4 else "fail", val4))
    rows.append(("H4", "tension modulus", "pass", tension_modulus(W)))
    return rows


def run_energy_check(cfg: ExperimentConfig, out: Path, seed: int | None = None) -> RunManifest:
    manifest = RunManifest(config=cfg, out_dir=out)
    W = energy_from(cfg)
    seed = seed_from(cfg, seed)
    t0 = time.perf_counter()
    rows = _hypothesis_rows(W, np.random.default_rng(seed))
    dt = time.perf_counter() - t0
    failed = [tag for tag, _, status, _ in rows if status == "fail"]
    paths = [
        csvio.write_table(
            out / "hypotheses.csv", ["tag", "check", "status", "value"], rows
        )
    ]
    status = "ok" if not failed else "failed: " + ",".join(failed)
    manifest.record("energy-check", status, dt, paths)
    manifest.write()
    if failed:
        raise DiagnosticError(f"energy hypotheses violated: {', '.join(failed)}")
    return manifest


# subcommand -> (runner, help, takes --seed)
COMMANDS = {
    "diagnose": (run_diagnose, "solve one thickness and emit all diagnostic tables", False),
    "converge": (run_convergence, "run the h-sweep against the rod limit", False),
    "truncate": (run_truncation_demo, "run the truncation property sweep", True),
    "energy-check": (run_energy_check, "run the energy-density hypothesis suite", True),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="striplab",
        description="Thin-strip equilibria, their rod limit, and the supporting checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text, seeded) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="experiment config file")
        p.add_argument("--out", default="out", help="output directory")
        if seeded:
            p.add_argument("--seed", type=int, default=None, help="sweep seed")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    runner, _, seeded = COMMANDS[args.command]
    try:
        out = Path(args.out)
        # the nearest existing part of --out must be a directory to write into
        found = next(p for p in (out, *out.parents) if p.exists())
        if not found.is_dir():
            raise ConfigError(f"--out must name a directory, but {found} is a file")
        cfg = ExperimentConfig.load(args.config)
        extra = {"seed": args.seed} if seeded else {}
        manifest = runner(cfg, out, **extra)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NonConvergence as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except (DiagnosticError, DomainError) as exc:
        print(f"diagnostic failure: {exc}", file=sys.stderr)
        return EXIT_DIAGNOSTIC
    return EXIT_OK if manifest.all_ok else EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())
