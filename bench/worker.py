"""One fresh benchmark process: set up, warm up, run whole passes, check each unit.

run.py starts this file with one JSON job as its only argument:

    {"workload": ..., "inputs": [...], "share": seconds, "trace": bool, "work": dir}

It imports striplab from the checkout's src/, reads the workload's config,
runs one untimed warm-up unit on the config's own inputs, and then runs whole
passes over `inputs` until the next pass would end past `share` seconds (at
least one pass).  With tracing on, each input runs once untraced and once
traced in every pass.  A unit is timed around its striplab.cli.run_* calls
only; its outputs are checked after the clock stops.  The speed probe runs
once before the first timed unit and after every unit, and each unit
carries the mean of the two probes around it.  The last line of stdout is
one JSON object with the results.
"""

from __future__ import annotations

import csv
import hashlib
import itertools
import json
import math
import resource
import shutil
import sys
import time
import traceback
from pathlib import Path

from spans import WARMUP, Tracer
from speed import probe

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402  (the program under test comes from src/)
import scipy  # noqa: E402

import striplab  # noqa: E402
from striplab import cli  # noqa: E402
from striplab.config import ExperimentConfig, parse_config_text  # noqa: E402
from striplab.truncation import grad_sup  # noqa: E402


class CheckFailed(Exception):
    """A unit ran but its outputs are wrong."""


def _rows(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _manifest_ok(out: Path) -> list[dict]:
    rows = [r for r in _rows(out / "manifest.csv") if r["step"] != "config"]
    bad = [f"{r['step']}: {r['status']}" for r in rows if r["status"] != "ok"]
    if bad:
        raise CheckFailed(f"{out.name} manifest not ok: {'; '.join(bad)}")
    return rows


def _all_finite(path: Path) -> None:
    for row in _rows(path):
        for key, val in row.items():
            if not math.isfinite(float(val)):
                raise CheckFailed(f"{path.name}: {key} = {val}")


def digest(out: Path) -> str:
    """sha256 over every artifact but manifest.csv, which records wall times."""
    h = hashlib.sha256()
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        if path.name == "manifest.csv":
            continue
        h.update(str(path.relative_to(out)).encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


class Workload:
    """A shipped config, one unit of striplab.cli.run_* calls, and its output check."""

    config = ""

    def __init__(self):
        self.path = ROOT / self.config
        self.raw = parse_config_text(self.path.read_text())

    def cfg(self, overrides: dict) -> ExperimentConfig:
        return ExperimentConfig(raw=self.raw | overrides, source=str(self.path))


class Cantilever(Workload):
    """energy-check, then converge, on configs/cantilever.cfg at a seeded g2."""

    config = "configs/cantilever.cfg"

    def __init__(self):
        super().__init__()
        self.n_h = len(self.cfg({}).get_floats("sweep.h"))

    def warmup_input(self):
        return {"g2": float(self.raw["load.g2"]), "check_seed": int(self.raw["run.seed"])}

    def run(self, inp, out):
        cfg = self.cfg({"load.g2": repr(inp["g2"])})
        cli.run_energy_check(cfg, out / "energy-check", seed=inp["check_seed"])
        cli.run_convergence(cfg, out / "converge")

    def check(self, inp, out):
        if any(r["status"] == "fail" for r in _rows(out / "energy-check" / "hypotheses.csv")):
            raise CheckFailed("hypotheses.csv has a failed check")
        _manifest_ok(out / "energy-check")
        steps = _manifest_ok(out / "converge")
        solved = [r for r in steps if r["step"].startswith("solve h=")]
        if len(solved) != self.n_h:
            raise CheckFailed(f"{len(solved)} of {self.n_h} thicknesses solved")
        _all_finite(out / "converge" / "convergence.csv")


class StripCold(Workload):
    """diagnose at h = 0.025 from the rigid state, with a seeded g2."""

    config = "configs/cantilever.cfg"
    h = 0.025

    def warmup_input(self):
        return {"g2": float(self.raw["load.g2"])}

    def run(self, inp, out):
        cli.run_diagnose(self.cfg({"strip.h": repr(self.h), "load.g2": repr(inp["g2"])}), out)

    def check(self, inp, out):
        _manifest_ok(out)
        report = {r["key"]: r["value"] for r in _rows(out / "report.csv")}
        if report["converged"] != "true":
            raise CheckFailed(f"solve did not converge: {report['message']}")
        _all_finite(out / "identities.csv")


class Truncate(Workload):
    """run_truncation_demo on one seeded field, on every grid of configs/truncation.cfg."""

    config = "configs/truncation.cfg"

    def __init__(self):
        super().__init__()
        self.a = float(self.raw["truncation.level_min"])
        self.A = float(self.raw["truncation.level_max"])
        self.grids = self.raw["truncation.resolutions"].count(",") + 1
        self.seen = []
        inner = cli.thin_truncate

        def capture(u, *args, **kwargs):
            res = inner(u, *args, **kwargs)
            self.seen.append((u, res))
            return res

        # run_truncation_demo looks thin_truncate up in cli; keep each (u, result)
        cli.thin_truncate = capture

    def warmup_input(self):
        return {"field_seed": int(self.raw["run.seed"])}

    def run(self, inp, out):
        self.seen.clear()
        cli.run_truncation_demo(self.cfg({"truncation.fields": "1"}), out, seed=inp["field_seed"])

    def check(self, inp, out):
        _manifest_ok(out)
        if len(self.seen) != self.grids or len(_rows(out / "qstats.csv")) != self.grids:
            raise CheckFailed(f"expected {self.grids} truncations, saw {len(self.seen)}")
        for u, res in self.seen:
            grid = f"{u.n1 - 1}x{u.n2 - 1}"
            if not grad_sup(res.v) <= res.lam:
                raise CheckFailed(f"{grid}: sup |grad v| above lam = {res.lam!r}")
            off = ~res.bad_mask
            if not np.array_equal(res.v.values[off], u.values[off]):
                raise CheckFailed(f"{grid}: v differs from u off the bad set")
            if not self.a <= res.level <= self.A:
                raise CheckFailed(f"{grid}: level {res.level!r} outside [a, A]")
            if not math.isfinite(res.q):
                raise CheckFailed(f"{grid}: q = {res.q!r}")


WORKLOADS = {"cantilever": Cantilever, "strip-cold": StripCold, "truncate": Truncate}


def main() -> int:
    job = json.loads(sys.argv[1])
    tracer = None
    if job["trace"]:
        tracer = Tracer()
        tracer.install()
    wl = WORKLOADS[job["workload"]]()
    work = Path(job["work"])

    def unit(uid, inp):
        """Run, time and check one unit; returns (seconds, digest or None, error)."""
        out = work / "unit"
        shutil.rmtree(out, ignore_errors=True)
        if tracer is not None:
            tracer.unit = uid
        t0 = time.perf_counter()
        try:
            wl.run(inp, out)
        except Exception:  # a failed unit is counted, and the run goes on
            traceback.print_exc()
            return time.perf_counter() - t0, None, "run raised"
        finally:
            if tracer is not None:
                tracer.unit = None
        seconds = time.perf_counter() - t0
        try:
            wl.check(inp, out)
        except Exception as exc:
            print(f"{job['workload']} input {inp}: check failed: {exc}", file=sys.stderr)
            return seconds, None, f"check failed: {exc}"
        return seconds, digest(out), None

    _, _, warm_error = unit(WARMUP, wl.warmup_input())
    t_ready = time.monotonic()
    probes = [probe()]

    units = []
    loop0 = time.perf_counter()
    for npass in itertools.count():
        pass0 = time.perf_counter()
        for idx, inp in enumerate(job["inputs"]):
            # a traced worker runs each input untraced and traced, alternating
            # which goes first, so the overhead compares units run moments apart
            modes = (False,) if tracer is None else \
                (False, True) if (idx + npass) % 2 == 0 else (True, False)
            for traced in modes:
                seconds, dig, err = unit(len(units) if traced else None, inp)
                probes.append(probe())
                units.append({"input": idx, "traced": traced, "seconds": seconds,
                              "probe": (probes[-2] + probes[-1]) / 2,
                              "digest": dig, "error": err})
        now = time.perf_counter()
        if (now - loop0) + (now - pass0) > job["share"]:
            break

    result = {
        "t_ready": t_ready,
        "probe_ready": probes[0],
        "warmup_error": warm_error,
        "units": units,
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "versions": {
            "python": sys.version.split()[0],
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "striplab": striplab.__version__,
        },
    }
    if tracer is not None:
        tracer.write(work / "spans.csv")
        ok = [i for i, u in enumerate(units) if u["traced"] and u["error"] is None]
        result["trace"] = tracer.reduce(ok, job["workload"])
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
