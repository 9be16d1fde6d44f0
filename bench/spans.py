"""Span tracer for the benchmark's traced run, and the per-layer metrics.

The tracer rebinds striplab functions and methods with wrappers that record
one span per call: name, start, end, parent span, unit id, grid tag and a few
counts read from the call's arguments or result.  Each wrapper is installed in
every namespace that holds the original object, so `cli.solve_stationary` and
`solver.solve_stationary` both record.  Spans stay in memory while the worker
runs; the worker writes them out and reduces them here when it is done.

A target whose name no longer exists in the program is reported as missing,
and a span expected on a workload that never fired is reported as unfired.
Neither stops the run; their metrics read 0.
"""

from __future__ import annotations

import csv
import functools
import importlib
import json
import sys
from collections import defaultdict
from dataclasses import dataclass
from time import perf_counter
from typing import Callable

C, S, T = "cantilever", "strip-cold", "truncate"
SOLVE = (C, S)
GRIDS = ("64x8", "128x16", "256x32")


def _grid_of(gf) -> str:
    return f"{gf.n1 - 1}x{gf.n2 - 1}"


def _first_arg_grid(args, kwargs):
    return _grid_of(args[0])


def _newton_counts(args, kwargs, result):
    return {"iters": int(result[0])}


def _solve_counts(args, kwargs, result):
    warm = kwargs.get("warm", args[5] if len(args) > 5 else None)
    report = result[1]
    hit = warm is not None and report.message == "warm start"
    return {
        "warm_attempts": int(warm is not None),
        "warm_hits": int(hit),
        "cold_steps": 0 if hit else len(report.path),
    }


def _elastica_counts(args, kwargs, result):
    return {"iters": int(result.iterations)}


def _count_rows(rows, ctx):
    for row in rows:
        ctx["rows"] = ctx.get("rows", 0) + 1
        yield row


def _write_prepare(args, kwargs, ctx):
    """Count the rows write_table consumes without changing what it writes."""
    ctx["rows"] = 0
    if "rows" in kwargs:
        kwargs = dict(kwargs, rows=_count_rows(kwargs["rows"], ctx))
    else:
        args = args[:2] + (_count_rows(args[2], ctx),) + args[3:]
    return args, kwargs


def _write_counts(args, kwargs, result, ctx):
    # manifest.csv records wall times, so its size is not repeatable
    size = 0 if result.name == "manifest.csv" else result.stat().st_size
    return {"rows": ctx["rows"], "bytes": size}


def _thin_truncate_counts(args, kwargs, result):
    return {"bad_nodes": int(result.bad_mask.sum())}


def _mcshane_prepare(args, kwargs, ctx):
    good = args[1]
    fill = kwargs.get("fill", args[4] if len(args) > 4 else None)
    bad = ~good if fill is None else fill & ~good
    ctx["pairs"] = int(bad.sum()) * int(good.sum())
    return args, kwargs


def _mcshane_counts(args, kwargs, result, ctx):
    return {"pairs": ctx["pairs"]}


def _kernel_counts(args, kwargs, result):
    # the first ladder radius is the node itself and needs no convolution
    return {"radii": len(result) - 1}


@dataclass(frozen=True)
class Target:
    """One traced name: span, where it is defined, and where it must fire.

    tag(args, kwargs) names the grid of a span that has no tagged parent;
    prepare(args, kwargs, ctx) may swap arguments before the call; count
    (args, kwargs, result[, ctx]) returns the counts the span records.
    """

    span: str
    module: str
    attr: str          # "function" or "Class.method"
    on: tuple          # workloads on which the span must fire
    tag: Callable | None = None
    prepare: Callable | None = None
    count: Callable | None = None


TARGETS = [
    Target("cli.run_convergence", "striplab.cli", "run_convergence", (C,)),
    Target("cli.run_energy_check", "striplab.cli", "run_energy_check", (C,)),
    Target("cli.run_diagnose", "striplab.cli", "run_diagnose", (S,)),
    Target("cli.run_truncation_demo", "striplab.cli", "run_truncation_demo", (T,)),
    Target("config.energy_from", "striplab.config", "energy_from", SOLVE),
    Target("config.load_from", "striplab.config", "load_from", SOLVE),
    Target("config.solver_from", "striplab.config", "solver_from", SOLVE),
    Target("config.mesh_from", "striplab.config", "mesh_from", (S,)),
    Target("config.sweep_from", "striplab.config", "sweep_from", (C,)),
    Target("config.elastica_from", "striplab.config", "elastica_from", (C,)),
    Target("mesh.build", "striplab.mesh", "build_mesh", SOLVE),
    Target("mesh.gradients", "striplab.mesh", "StripMesh.scaled_gradients", SOLVE),
    Target("energy.energy", "striplab.energy", "HalfDistSquared.energy", SOLVE),
    Target("energy.stress", "striplab.energy", "HalfDistSquared.stress", SOLVE),
    Target("energy.hessian", "striplab.energy", "HalfDistSquared.hessian", SOLVE),
    Target("solver.solve", "striplab.solver", "solve_stationary", SOLVE, count=_solve_counts),
    Target("solver.newton", "striplab.solver", "_newton", SOLVE, count=_newton_counts),
    Target("solver.residual", "striplab.solver", "residual", SOLVE),
    Target("solver.tangent", "striplab.solver", "tangent", SOLVE),
    Target("solver.load_vector", "striplab.solver", "load_vector", SOLVE),
    Target("solver.spsolve", "scipy.sparse.linalg", "spsolve", SOLVE),
    Target("solver.scaled_energy", "striplab.solver", "scaled_energy", SOLVE),
    Target("elastica.solve", "striplab.elastica", "solve_elastica", (C,), count=_elastica_counts),
    Target("diagnostics.diagnose", "striplab.diagnostics", "diagnose", SOLVE),
    Target("diagnostics.convergence_study", "striplab.diagnostics", "convergence_study", (C,)),
    Target("csvio.write", "striplab.csvio", "write_table", (C, S, T),
           prepare=_write_prepare, count=_write_counts),
    Target("truncation.thin_truncate", "striplab.truncation", "thin_truncate", (T,),
           tag=_first_arg_grid, count=_thin_truncate_counts),
    Target("truncation.gradient", "striplab.truncation", "gradient_magnitude", (T,),
           tag=_first_arg_grid),
    Target("truncation.maximal_function", "striplab.truncation", "maximal_function", (T,)),
    Target("truncation.kernels", "striplab.truncation", "_ball_kernels", (T,),
           count=_kernel_counts),
    Target("truncation.select_lambda", "striplab.truncation", "select_lambda", (T,)),
    Target("truncation.kappa", "striplab.truncation", "_good_set_kappa", (T,)),
    Target("truncation.mcshane", "striplab.truncation", "_mcshane", (T,),
           prepare=_mcshane_prepare, count=_mcshane_counts),
]

# (metric, unit, better); the traced run reports exactly these
PER_LAYER = [
    ("cli.self_s", "s", "lower"),
    ("config.self_s", "s", "lower"),
    ("mesh.build_s", "s", "lower"),
    ("mesh.build_calls", "count", "lower"),
    ("mesh.gradients_s", "s", "lower"),
    ("mesh.gradients_calls", "count", "lower"),
    ("energy.hessian_s", "s", "lower"),
    ("energy.hessian_calls", "count", "lower"),
    ("energy.stress_s", "s", "lower"),
    ("energy.energy_s", "s", "lower"),
    ("solver.tangent_s", "s", "lower"),
    ("solver.tangent_calls", "count", "lower"),
    ("solver.residual_s", "s", "lower"),
    ("solver.residual_calls", "count", "lower"),
    ("solver.load_vector_s", "s", "lower"),
    ("solver.load_vector_calls", "count", "lower"),
    ("solver.spsolve_s", "s", "lower"),
    ("solver.spsolve_calls", "count", "lower"),
    ("solver.newton_s", "s", "lower"),
    ("solver.linesearch_s", "s", "lower"),
    ("solver.linesearch_evals", "count", "lower"),
    ("solver.linesearch_evals_per_iter", "ratio", "lower"),
    ("solver.newton_iters", "count", "lower"),
    ("solver.continuation_steps", "count", "lower"),
    ("solver.newton_failures", "count", "lower"),
    ("solver.warm_start_hit_ratio", "ratio", "higher"),
    ("elastica.solve_s", "s", "lower"),
    ("elastica.newton_iters", "count", "lower"),
    ("diagnostics.diagnose_s", "s", "lower"),
    ("diagnostics.convergence_study_s", "s", "lower"),
    ("csvio.write_s", "s", "lower"),
    ("csvio.bytes_written", "bytes", "lower"),
    ("csvio.rows_written", "count", "lower"),
]
for _g in GRIDS:
    PER_LAYER += [
        (f"truncation.thin_truncate_s.{_g}", "s", "lower"),
        (f"truncation.mcshane_s.{_g}", "s", "lower"),
        (f"truncation.mcshane_pairs.{_g}", "count", "lower"),
        (f"truncation.maximal_function_s.{_g}", "s", "lower"),
        (f"truncation.fft_radii.{_g}", "count", "lower"),
        (f"truncation.kappa_s.{_g}", "s", "lower"),
        (f"truncation.select_lambda_s.{_g}", "s", "lower"),
        (f"truncation.gradient_s.{_g}", "s", "lower"),
        (f"truncation.bad_nodes.{_g}", "count", "lower"),
    ]
PER_LAYER += [
    ("truncation.kernel_build_s", "s", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
    ("trace.coverage_frac", "ratio", "higher"),
]

WARMUP = -1  # unit id of the untimed warm-up unit


class Tracer:
    """Records spans while `unit` is set; calls pass straight through otherwise."""

    def __init__(self):
        self.unit = None
        self.spans = []   # [name, start, end, parent, unit, tag, counts]
        self.stack = []
        self.installed = {}   # span -> namespaces holding its wrapper
        self.missing = {}     # span -> name the program no longer has
        self.problems = []    # count hooks that raised, once each

    def install(self, targets=TARGETS):
        for t in targets:
            try:
                owner = importlib.import_module(t.module)
                *path, name = t.attr.split(".")
                for part in path:
                    owner = getattr(owner, part)
                orig = getattr(owner, name)
            except (ImportError, AttributeError):
                self.missing[t.span] = f"{t.module}.{t.attr}"
                continue
            wrapper = self._wrap(t, orig)
            if path:  # a method: rebinding it on the class reaches every caller
                setattr(owner, name, wrapper)
                self.installed[t.span] = [f"{t.module}.{t.attr}"]
                continue
            where = []
            for mod in [owner] + _striplab_modules():
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        setattr(mod, key, wrapper)
                        where.append(f"{mod.__name__}.{key}")
            self.installed[t.span] = sorted(set(where))

    def _hook(self, target, fn, *args):
        try:
            return fn(*args)
        except Exception as exc:  # a hook must never break the traced call
            note = f"{target.span}: {type(exc).__name__}: {exc}"
            if note not in self.problems:
                self.problems.append(note)
            return None

    def _wrap(self, target, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer.unit is None:
                return fn(*args, **kwargs)
            parent = tracer.stack[-1] if tracer.stack else None
            tag = tracer.spans[parent][5] if parent is not None else None
            if tag is None and target.tag is not None:
                tag = tracer._hook(target, target.tag, args, kwargs)
            ctx = {}
            if target.prepare is not None:
                prepared = tracer._hook(target, target.prepare, args, kwargs, ctx)
                if prepared is not None:
                    args, kwargs = prepared
            rec = [target.span, 0.0, 0.0, parent, tracer.unit, tag, None]
            tracer.stack.append(len(tracer.spans))
            tracer.spans.append(rec)
            rec[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                rec[6] = {"raised": 1}
                raise
            finally:
                rec[2] = perf_counter()
                tracer.stack.pop()
            if target.count is not None:
                extra = (ctx,) if target.prepare is not None else ()
                rec[6] = tracer._hook(target, target.count, args, kwargs, result, *extra)
            return result

        return traced

    def write(self, path) -> None:
        with open(path, "w", newline="") as fh:
            out = csv.writer(fh, lineterminator="\n")
            out.writerow(["index", "unit", "span", "tag", "start", "end", "parent", "counts"])
            for i, (name, t0, t1, parent, unit, tag, counts) in enumerate(self.spans):
                out.writerow([i, unit, name, tag or "", repr(t0), repr(t1),
                              "" if parent is None else parent,
                              json.dumps(counts) if counts else ""])

    def reduce(self, units, workload) -> dict:
        """Per-unit means over the traced units, plus the warm-up's kernel build.

        Returns the per-layer metrics except trace.overhead_frac and
        trace.coverage_frac, which run.py computes from unit times; the
        top-level span time of each traced unit, in unit order; and the
        missing, unfired and problem reports.
        """
        units = set(units)
        child = defaultdict(float)
        for name, t0, t1, parent, unit, tag, counts in self.spans:
            if parent is not None:
                child[parent] += t1 - t0
        self_s = defaultdict(float)
        calls = defaultdict(int)
        cnt = defaultdict(float)
        top = defaultdict(float)
        kernel_build = 0.0
        for i, (name, t0, t1, parent, unit, tag, counts) in enumerate(self.spans):
            own = (t1 - t0) - child[i]
            if unit == WARMUP:
                if name == "truncation.kernels":
                    kernel_build += own
                continue
            if unit not in units:
                continue
            if parent is None:
                top[unit] += t1 - t0
            key = name
            if name == "solver.scaled_energy" and parent is not None \
                    and self.spans[parent][0] == "solver.newton":
                key = "solver.linesearch"
            for k in (key, f"{key}@{tag}") if tag else (key,):
                self_s[k] += own
                calls[k] += 1
                for ck, cv in (counts or {}).items():
                    cnt[f"{k}:{ck}"] += cv
        n = max(1, len(units))

        def mean_self(span):
            return self_s[span] / n

        def mean_calls(span):
            return calls[span] / n

        def mean_count(span, what):
            return cnt[f"{span}:{what}"] / n

        iters = cnt["solver.newton:iters"]
        attempts = cnt["solver.solve:warm_attempts"]
        m = {
            "cli.self_s": sum(self_s[t.span] for t in TARGETS if t.module == "striplab.cli") / n,
            "config.self_s":
                sum(self_s[t.span] for t in TARGETS if t.module == "striplab.config") / n,
            "mesh.build_s": mean_self("mesh.build"),
            "mesh.build_calls": mean_calls("mesh.build"),
            "mesh.gradients_s": mean_self("mesh.gradients"),
            "mesh.gradients_calls": mean_calls("mesh.gradients"),
            "energy.hessian_s": mean_self("energy.hessian"),
            "energy.hessian_calls": mean_calls("energy.hessian"),
            "energy.stress_s": mean_self("energy.stress"),
            "energy.energy_s": mean_self("energy.energy"),
            "solver.tangent_s": mean_self("solver.tangent"),
            "solver.tangent_calls": mean_calls("solver.tangent"),
            "solver.residual_s": mean_self("solver.residual"),
            "solver.residual_calls": mean_calls("solver.residual"),
            "solver.load_vector_s": mean_self("solver.load_vector"),
            "solver.load_vector_calls": mean_calls("solver.load_vector"),
            "solver.spsolve_s": mean_self("solver.spsolve"),
            "solver.spsolve_calls": mean_calls("solver.spsolve"),
            "solver.newton_s": mean_self("solver.newton"),
            "solver.linesearch_s": mean_self("solver.linesearch"),
            "solver.linesearch_evals": mean_calls("solver.linesearch"),
            "solver.linesearch_evals_per_iter":
                calls["solver.linesearch"] / iters if iters else 0.0,
            "solver.newton_iters": iters / n,
            "solver.continuation_steps": mean_count("solver.solve", "cold_steps"),
            "solver.newton_failures": mean_count("solver.newton", "raised"),
            "solver.warm_start_hit_ratio":
                cnt["solver.solve:warm_hits"] / attempts if attempts else 0.0,
            "elastica.solve_s": mean_self("elastica.solve"),
            "elastica.newton_iters": mean_count("elastica.solve", "iters"),
            "diagnostics.diagnose_s": mean_self("diagnostics.diagnose"),
            "diagnostics.convergence_study_s": mean_self("diagnostics.convergence_study"),
            "csvio.write_s": mean_self("csvio.write"),
            "csvio.bytes_written": mean_count("csvio.write", "bytes"),
            "csvio.rows_written": mean_count("csvio.write", "rows"),
        }
        for g in GRIDS:
            m[f"truncation.thin_truncate_s.{g}"] = mean_self(f"truncation.thin_truncate@{g}")
            m[f"truncation.mcshane_s.{g}"] = mean_self(f"truncation.mcshane@{g}")
            m[f"truncation.mcshane_pairs.{g}"] = mean_count(f"truncation.mcshane@{g}", "pairs")
            m[f"truncation.maximal_function_s.{g}"] = \
                mean_self(f"truncation.maximal_function@{g}")
            m[f"truncation.fft_radii.{g}"] = mean_count(f"truncation.kernels@{g}", "radii")
            m[f"truncation.kappa_s.{g}"] = mean_self(f"truncation.kappa@{g}")
            m[f"truncation.select_lambda_s.{g}"] = mean_self(f"truncation.select_lambda@{g}")
            m[f"truncation.gradient_s.{g}"] = mean_self(f"truncation.gradient@{g}")
            m[f"truncation.bad_nodes.{g}"] = \
                mean_count(f"truncation.thin_truncate@{g}", "bad_nodes")
        m["truncation.kernel_build_s"] = kernel_build

        unfired = [t.span for t in TARGETS
                   if workload in t.on and t.span not in self.missing and calls[t.span] == 0]
        return {
            "metrics": m,
            "toplevel_s": [top[u] for u in sorted(units)],
            "missing": self.missing,
            "unfired": unfired,
            "problems": self.problems,
            "installed": self.installed,
        }


def _striplab_modules():
    return [mod for name, mod in sorted(sys.modules.items())
            if mod is not None and (name == "striplab" or name.startswith("striplab."))]
