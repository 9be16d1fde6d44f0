"""striplab benchmark: three seeded workloads through striplab.cli's run_* functions.

    python3 bench/run.py --workload {cantilever,strip-cold,truncate} \\
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout; striplab is imported from its src/.  The
seed generates every input.  Each run starts fresh worker processes one after
another (worker.py), with BLAS and OpenMP threads capped at the number of
usable CPUs.  Untraced (--trace 0), three workers share the seconds and the
run reports the end-to-end metrics; traced (--trace 1), one worker runs every
input both untraced and traced and the run reports the per-layer metrics.
Every unit's outputs are checked.  Times are rescaled to a reference machine
speed by speed.py, and the info line also carries the raw ones.  The last
line of stdout is one JSON object: {"correct", "attempted", "failed",
"metrics"}.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

from spans import PER_LAYER
from speed import probe, rescale

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
FRESH_STARTS = 3      # untraced workers per run; setup_s is their median
RUN_LIMIT_S = 170.0   # the whole run must end well within 180 s
G2_RANGE = (-2e-3, -5e-4)
# field seeds of the first eight fields the shipped truncation sweep draws
FIELD_PANEL = range(8)
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def _stratified_g2(rng: random.Random, n: int) -> list[float]:
    """One g2 from each of n equal slices of G2_RANGE, in seeded order."""
    lo, hi = G2_RANGE
    g2 = [lo + (k + rng.random()) * (hi - lo) / n for k in range(n)]
    rng.shuffle(g2)
    return g2


def make_inputs(workload: str, seed: int) -> list[dict]:
    rng = random.Random(f"{workload}:{seed}")
    if workload == "cantilever":
        return [{"g2": g2, "check_seed": rng.randrange(2**31)}
                for g2 in _stratified_g2(rng, 4)]
    if workload == "strip-cold":
        return [{"g2": g2} for g2 in _stratified_g2(rng, 3)]
    fields = list(FIELD_PANEL)
    rng.shuffle(fields)
    return [{"field_seed": s} for s in fields]


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def run_worker(job: dict, env: dict, deadline: float) -> tuple[float, float, dict]:
    """Start one fresh worker; returns (its set-up time, rescaled and raw, and its result)."""
    p_spawn = probe()
    t_spawn = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), json.dumps(job)],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
        timeout=max(1.0, deadline - t_spawn),
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    setup = result["t_ready"] - t_spawn
    return rescale(setup, (p_spawn + result["probe_ready"]) / 2), setup, result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=("cantilever", "strip-cold", "truncate"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    start = time.monotonic()

    for need in ("src/striplab/__init__.py", "configs/cantilever.cfg", "configs/truncation.cfg"):
        if not (ROOT / need).is_file():
            print(f"bench: {need} not found; run from the root of a striplab checkout",
                  file=sys.stderr)
            return 2

    nproc = len(os.sched_getaffinity(0))
    env = dict(os.environ)
    env.update({var: str(nproc) for var in THREAD_VARS})
    inputs = make_inputs(args.workload, args.seed)
    work = ROOT / "bench" / "_work" / args.workload
    work.mkdir(parents=True, exist_ok=True)

    workers = 1 if args.trace else FRESH_STARTS
    job = {"workload": args.workload, "inputs": inputs, "share": args.seconds / workers,
           "trace": bool(args.trace), "work": str(work)}
    results = []
    for _ in range(workers):
        try:
            results.append(run_worker(job, env, start + RUN_LIMIT_S))
        except (subprocess.TimeoutExpired, RuntimeError, ValueError, IndexError) as exc:
            print(f"bench: {args.workload} worker failed: {exc}", file=sys.stderr)
            return 1

    units = [u for *_, r in results for u in r["units"]]
    attempted = len(units)
    failed = sum(u["error"] is not None for u in units)
    warm_failed = sum(r["warmup_error"] is not None for *_, r in results)

    plain = [u for u in units if not u["traced"] and u["error"] is None]
    if not plain:
        print(f"bench: every {args.workload} unit failed", file=sys.stderr)
        return 1
    ok_plain = [rescale(u["seconds"], u["probe"]) for u in plain]
    q1, p50, q3 = _quartiles(ok_plain)
    raw_q1, raw_p50, raw_q3 = _quartiles([u["seconds"] for u in plain])

    # same input, same bytes: one digest per input, in input order
    by_input = {}
    for u in units:
        if u["digest"] is not None:
            by_input.setdefault(u["input"], set()).add(u["digest"])
    deterministic = all(len(d) == 1 for d in by_input.values())
    workload_digest = hashlib.sha256("\n".join(
        min(by_input.get(i, {"missing"})) for i in range(len(inputs))).encode()).hexdigest()

    info = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "inputs": inputs,
        "nproc": nproc,
        "thread_caps": {var: env[var] for var in THREAD_VARS},
        "versions": results[0][2]["versions"],
        "workers": len(results),
        "unit_s": {"p50": p50, "q1": q1, "q3": q3, "n": len(ok_plain)},
        "raw_unit_s": {"p50": raw_p50, "q1": raw_q1, "q3": raw_q3},
        "probe_s_p50": statistics.median(u["probe"] for u in plain),
        "artifact_sha256": workload_digest,
        "deterministic": deterministic,
        "warmup_failures": warm_failed,
    }

    if args.trace:
        tr = results[0][2]["trace"]
        traced = [u for u in units if u["traced"] and u["error"] is None]
        ok_traced = [rescale(u["seconds"], u["probe"]) for u in traced]
        metrics = dict(tr["metrics"])
        metrics["trace.overhead_frac"] = (statistics.median(ok_traced) / p50 - 1.0
                                          if ok_traced else 0.0)
        # against the traced unit's own wall time, so machine speed cancels
        metrics["trace.coverage_frac"] = (
            statistics.median(top / u["seconds"] for top, u in zip(tr["toplevel_s"], traced))
            if ok_traced else 0.0)
        units_of = {name: unit for name, unit, _ in PER_LAYER}
        out_metrics = {name: {"value": metrics[name], "unit": units_of[name]}
                       for name, _, _ in PER_LAYER}
        info.update({k: tr[k] for k in ("missing", "unfired", "problems", "installed")})
        for what in ("missing", "unfired", "problems"):
            if tr[what]:
                print(f"bench: {what} spans: {', '.join(tr[what])}", file=sys.stderr)
    else:
        setup = [s for s, *_ in results]
        timed = sum(ok_plain)
        out_metrics = {
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "unit_s_p50": {"value": p50, "unit": "s"},
            "units_per_s": {"value": len(ok_plain) / timed, "unit": "1/s"},
            "peak_rss_mb": {"value": statistics.median(r["rss_mb"] for *_, r in results),
                            "unit": "MB"},
            "ok_frac": {"value": (attempted - failed) / attempted, "unit": "ratio"},
        }
        info["setup_s_each"] = setup
        info["raw_setup_s_each"] = [raw for _, raw, _ in results]

    print(f"# {args.workload} seed {args.seed}: {attempted} units, {failed} failed "
          f"(fail_frac {failed / attempted:.4g} ratio), digest {workload_digest[:16]}")
    if not args.trace:
        print(f"#   unit_s p50 {p50:.4f} s  q1 {q1:.4f}  q3 {q3:.4f}  n {len(ok_plain)}  "
              f"(raw p50 {raw_p50:.4f} s)")
    for name, m in out_metrics.items():
        print(f"#   {name:40s} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"info": info}))
    print(json.dumps({
        "correct": failed == 0 and warm_failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": out_metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
