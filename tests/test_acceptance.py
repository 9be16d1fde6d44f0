"""Acceptance gate: nine pinned criteria, one printed verdict line each.

Run `pytest -s tests/test_acceptance.py` to see the per-criterion lines.
Criteria 1-5, 8 and 9 run the command line (`diagnose`, `converge`,
`truncate`, `energy-check`) on the shipped configs, or on small configs
written next to their outputs, and take every number from the CSVs it
writes. Criteria 2-5 share one module-scoped `converge` of the cantilever
sweep plus, as the r2 control, one `converge` per h at doubled nx; so does
the check that the rod reference resolves far below the strip's error.
Criteria 6 and 7 and the reflection xfail check library values that no
artifact holds.
"""

import time
from pathlib import Path

import numpy as np
import pytest

from striplab.cli import main
from striplab.algebra import ID2
from striplab.elastica import _j2_discrete, _rod_setup, minimize_J2, solve_elastica
from striplab.energy import HalfDistSquared, IsotropicQuadratic, tension_modulus
from striplab.loads import LoadProfile
from striplab.mesh import mesh_rule_nx

from helpers import read_keyvalue, read_table

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
HS = (0.2, 0.1, 0.05, 0.025)
GAMMA = LoadProfile.constant(0.0, -1e-3)


def _report(num: int, name: str, ok: bool, detail: str):
    print(f"criterion {num}: {'pass' if ok else 'FAIL'} | {name} | {detail}")
    assert ok, f"criterion {num} failed: {detail}"


def _run(out: Path, command: str, config, *args) -> Path:
    """Run one subcommand into `out` from a config path or config text; it must exit 0."""
    if isinstance(config, str):
        out.mkdir(parents=True)
        (out / "run.cfg").write_text(config)
        config = out / "run.cfg"
    code = main([command, "--config", str(config), "--out", str(out), *args])
    assert code == 0, f"{command} exited {code}"
    return out


def _table(path) -> dict:
    """The columns of a CSV by header: floats where every entry parses, else strings."""
    header, rows = read_table(path)
    cols = {}
    for name, col in zip(header, np.array(rows).T):
        try:
            cols[name] = col.astype(float)
        except ValueError:
            cols[name] = col
    return cols


def _step_seconds(out: Path, step: str) -> float:
    manifest = _table(out / "manifest.csv")
    return float(np.sum(manifest["seconds"][manifest["step"] == step]))


@pytest.fixture(scope="module")
def sweep(tmp_path_factory):
    """`converge` on the cantilever config, and per h a `converge` at doubled nx."""
    tmp = tmp_path_factory.mktemp("sweep")
    t_wall = time.perf_counter()
    out = _run(tmp / "rule", "converge", CONFIGS / "cantilever.cfg")
    errors = _table(out / "convergence.csv")
    fine_r2 = []
    for h in errors["h"].tolist():
        nx = 2 * mesh_rule_nx(1.0, h)
        text = f"strip.L = 1.0\nload.g2 = -1e-3\nsweep.h = {h!r}\nstrip.nx = {nx}\n"
        fine = _run(tmp / f"doubled-{h!r}", "converge", text)
        fine_r2.append(_table(fine / "identities.csv")["r2"][0])
    return {
        "errors": errors,
        "rod": read_keyvalue(out / "report.csv"),
        "identities": _table(out / "identities.csv"),
        "fine_r2": np.asarray(fine_r2),
        "wall": time.perf_counter() - t_wall,
    }


def test_criterion_01_trivial_equilibrium(tmp_path):
    res_max, it_max, sec_max, r_max = 0.0, 0, 0.0, 0.0
    for h in HS:
        out = _run(tmp_path / f"h{h!r}", "diagnose", f"strip.h = {h!r}\n")
        sol = _table(out / "solution.csv")
        assert np.array_equal(sol["y1"], sol["x1"])
        assert np.array_equal(sol["y2"], h * sol["x2"])
        report = read_keyvalue(out / "report.csv")
        ids = _table(out / "identities.csv")
        res_max = max(res_max, float(report["residual_sup"]))
        it_max = max(it_max, int(report["iterations"]))
        sec_max = max(sec_max, _step_seconds(out, "diagnose"))
        r_max = max(r_max, *(float(abs(ids[f"r{k}"][0])) for k in range(1, 5)))
    ok = res_max <= 1e-12 and it_max <= 2 and r_max == 0.0 and sec_max <= 1.0
    detail = f"residual {res_max:.2e}, iters {it_max}, max|r1..r4| {r_max:.2e}, {sec_max:.2f} s/h"
    _report(1, "zero load returns the rigid state", ok, detail)


def test_criterion_02_energy_scaling(sweep):
    esc = sweep["errors"]["energy_over_h2"]
    ratio = float(esc.max() / esc.min())
    ok = ratio <= 2.0 and sweep["wall"] <= 300.0
    detail = (
        f"energy/h^2 in [{esc.min():.3e}, {esc.max():.3e}], ratio {ratio:.3f}, "
        f"sweep {sweep['wall']:.1f} s"
    )
    _report(2, "elastic energy scales with h^2", ok, detail)


def test_criterion_03_convergence_of_equilibria(sweep):
    t = sweep["errors"]["theta_err_L2"]
    y = sweep["errors"]["y_err_W12"]
    ok = (
        bool(np.all(np.diff(t) < 0))
        and t[-1] <= 0.5 * t[0]
        and bool(np.all(np.diff(y) < 0))
        and y[-1] <= 0.5 * y[0]
    )
    detail = (
        f"theta err {t[0]:.3e} -> {t[-1]:.3e} (x{t[-1] / t[0]:.3f}), "
        f"y err {y[0]:.3e} -> {y[-1]:.3e} (x{y[-1] / y[0]:.3f})"
    )
    _report(3, "strip equilibria approach the rod limit", ok, detail)


def test_criterion_04_identity_residuals(sweep):
    r1, r2, r3, r4 = (sweep["identities"][f"r{k}"] for k in range(1, 5))
    fine = sweep["fine_r2"]
    halved = fine / r2
    disc = 2.0 * (r2 - fine)  # first-order Richardson estimate per h
    ok1 = bool(np.all(np.diff(r1) < 0))
    ok2 = bool(np.all(r2 <= 10.0 * disc)) and bool(np.all(halved <= 0.65))
    ok3 = bool(np.all(np.diff(r3) < 0))
    ok4 = float(r4.max()) <= 2.0 * float(r4.min())
    detail = (
        f"r1 {r1[0]:.3e} -> {r1[-1]:.3e}, r2/disc max {np.max(r2 / disc):.2f}, "
        f"doubling ratio max {halved.max():.3f}, r3 {r3[0]:.2e} -> {r3[-1]:.2e}, "
        f"r4 spread {r4.max() / r4.min():.3f}"
    )
    _report(4, "limit identities hold up to mesh error", ok1 and ok2 and ok3 and ok4, detail)


def test_criterion_05_rigidity_ratio(sweep):
    r5 = sweep["identities"]["r5"]
    spread = float(r5.max() / r5.min())
    ok = bool(np.all(np.isfinite(r5))) and spread <= 2.0
    detail = f"r5 in [{r5.min():.3f}, {r5.max():.3f}], spread {spread:.3f}"
    _report(5, "rigidity ratio stays bounded", ok, detail)


def test_rod_reference_resolves_below_the_strip_error(sweep):
    # not a tenth criterion: a check that criteria 3-5 measure the strip's
    # error and not the rod's, from the rod's own half-grid estimate
    gap = float(sweep["rod"]["theta_gap_half"])
    finest = float(sweep["errors"]["theta_err_L2"][-1])
    ok = 0.0 < gap < 0.01 * finest
    print(f"rod reference: {'pass' if ok else 'FAIL'} | theta gap to n/2 {gap:.2e}, "
          f"finest theta err {finest:.2e} (x{gap / finest:.1e})")
    assert ok, f"rod theta gap {gap!r} is not below 1% of the finest theta error {finest!r}"


def test_criterion_06_elastica_oracle():
    t0 = time.perf_counter()
    sol = solve_elastica(1.0, GAMMA, 1.0, n=256)
    alt = minimize_J2(1.0, GAMMA, 1.0, n=256)
    tip_gap = abs(sol.theta[-1] - (-2e-3)) / 2e-3
    route_gap = float(np.max(np.abs(sol.theta - alt.theta)))

    n = 256
    _, dx, c, gtv, wq = _rod_setup(1.0, GAMMA, 1.0, n)
    rng = np.random.default_rng(3)
    theta = 0.05 * rng.standard_normal(n + 1)
    theta[0] = 0.0
    _, grad = _j2_discrete(theta, gtv, c, dx, wq)
    eps = 1e-7
    fd_worst = 0.0
    for i in rng.choice(n, size=10, replace=False) + 1:
        tp, tm = theta.copy(), theta.copy()
        tp[i] += eps
        tm[i] -= eps
        fd = (_j2_discrete(tp, gtv, c, dx, wq)[0] - _j2_discrete(tm, gtv, c, dx, wq)[0]) / (2 * eps)
        fd_worst = max(fd_worst, abs(grad[i - 1] - fd) / abs(fd))
    dt = time.perf_counter() - t0
    ok = tip_gap <= 5e-3 and route_gap <= 1e-6 and fd_worst <= 1e-6 and dt <= 1.0
    detail = (
        f"tip angle gap {tip_gap:.2e} rel, routes {route_gap:.2e} sup, "
        f"gradient FD {fd_worst:.2e} rel, {dt:.2f} s"
    )
    _report(6, "rod solver against the linearized closed form", ok, detail)


def test_criterion_07_modulus_inversion():
    cases = [(HalfDistSquared(), 1.0)]
    for mu, lam in ((1.0, 1.0), (2.0, 0.5), (1.5, 0.0)):
        cases.append((IsotropicQuadratic(mu, lam), 4 * mu * (mu + lam) / (lam + 2 * mu)))
    s = 1.0 / np.sqrt(2.0)  # orthonormal basis of the symmetric 2x2 matrices
    sym = np.array([[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 1.0]], [[0.0, s], [s, 0.0]]])
    worst = 0.0
    for W, closed in cases:
        block = np.einsum("pik,ikjl,qjl->pq", sym, W.hessian(ID2), sym)  # D2W(Id) on them
        einv = np.linalg.inv(block)[0, 0]
        worst = max(worst, abs(1.0 / einv - closed), abs(tension_modulus(W) - closed))
    ok = worst <= 1e-12
    detail = f"worst gap {worst:.2e} over {len(cases)} densities"
    _report(7, "tension modulus equals the inverted quadratic form", ok, detail)


def test_criterion_08_truncation_sweep(tmp_path):
    text = (CONFIGS / "truncation.cfg").read_text()
    wide = text.replace("truncation.level_max = 28.0", "truncation.level_max = 42.0")
    assert wide != text
    a, q_max, dt = 14.0, [], 0.0
    for A, config in ((28.0, CONFIGS / "truncation.cfg"), (42.0, wide)):
        out = _run(tmp_path / f"A{A:g}", "truncate", config)
        rows = _table(out / "qstats.csv")
        assert rows["q"].size == 150  # 50 seeds on each of the three grids
        assert np.all(rows["grad_sup_v"] <= rows["lam"])
        assert np.all((a <= rows["level"]) & (rows["level"] <= A))
        assert np.all(np.isfinite(rows["q"]))
        summary = read_keyvalue(out / "summary.csv")
        q_max += [float(v) for k, v in summary.items() if k.startswith("q_max_")]
        dt += _step_seconds(out, "truncate")
    vals = np.array(q_max)
    spread = float(vals.max() / vals.min())
    ok = spread <= 2.0 and dt <= 120.0
    detail = (
        f"max q per cell in [{vals.min():.3f}, {vals.max():.3f}], spread {spread:.3f}, "
        f"{dt:.1f} s"
    )
    _report(8, "gradient bound certified on 300 rough fields", ok, detail)


def test_criterion_09_density_hypotheses(tmp_path):
    half = _run(tmp_path / "half", "energy-check", CONFIGS / "cantilever.cfg", "--seed", "11")
    iso_text = "energy.kind = isotropic-quadratic\nenergy.mu = 1\nenergy.lambda = 1\n"
    iso = _run(tmp_path / "iso", "energy-check", iso_text, "--seed", "12")
    rows_half = _table(half / "hypotheses.csv")
    rows_iso = _table(iso / "hypotheses.csv")
    h3 = rows_iso["tag"] == "H3"
    half_ok = bool(np.all(rows_half["status"] == "pass"))
    iso_h3 = rows_iso["status"][h3].tolist()
    iso_rest_ok = bool(np.all(rows_iso["status"][~h3] == "pass"))
    ok = half_ok and iso_rest_ok and iso_h3 == ["xfail"]
    detail = (
        f"half-dist all pass: {half_ok}, isotropic rest pass: {iso_rest_ok}, "
        f"isotropic coercivity status: {iso_h3[0] if iso_h3 else 'missing'}"
    )
    _report(9, "density hypotheses on 10^3 samples per density", ok, detail)


@pytest.mark.xfail(reason="isotropic quadratic energy vanishes at reflections", strict=True)
def test_criterion_09_isotropic_reflection_coercivity():
    refl = np.array([[1.0, 0.0], [0.0, -1.0]])
    assert IsotropicQuadratic(1.0, 1.0).energy(refl) > 1e-3
