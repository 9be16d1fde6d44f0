"""Acceptance gate: nine pinned criteria, one printed verdict line each.

Run `pytest -s tests/test_acceptance.py` to see the per-criterion lines.
Criteria 2-5 share one module-scoped load sweep at the mesh rule defaults;
everything else solves its own small problems.
"""

import time

import numpy as np
import pytest

from striplab import (
    HalfDistSquared,
    IsotropicQuadratic,
    LoadProfile,
    build_mesh,
    convergence_study,
    grad_sup,
    gtilde,
    linearize,
    mesh_rule_nx,
    minimize_J2,
    rigid_state,
    rough_field,
    sample_on_strip,
    solve_elastica,
    solve_stationary,
    thin_truncate,
)
from striplab.cli import _hypothesis_rows
from striplab.diagnostics import diagnose
from striplab.elastica import _j2_discrete

HS = (0.2, 0.1, 0.05, 0.025)
W0 = HalfDistSquared()
GAMMA = LoadProfile.constant(0.0, -1e-3)


def _report(num: int, name: str, ok: bool, detail: str):
    print(f"criterion {num}: {'pass' if ok else 'FAIL'} | {name} | {detail}")
    assert ok, f"criterion {num} failed: {detail}"


@pytest.fixture(scope="module")
def sweep():
    """Loaded h-sweep, rod limit, diagnostics, and mesh-doubled r2 controls."""
    t_wall = time.perf_counter()
    limit = solve_elastica(1.0, GAMMA, 1.0, n=2048)
    fields, solve_secs, prev = [], [], None
    for h in HS:
        mesh = build_mesh(1.0, mesh_rule_nx(1.0, h), 8)
        t0 = time.perf_counter()
        fld, rep = solve_stationary(mesh, h, GAMMA, W0, warm=prev)
        solve_secs.append(time.perf_counter() - t0)
        assert rep.converged, rep.message
        fields.append(fld)
        prev = fld
    table = convergence_study(fields, limit, GAMMA, W0)
    fine_r2 = []
    for fld in fields:
        mesh2 = build_mesh(1.0, 2 * fld.mesh.nx, 8)
        fld2, rep2 = solve_stationary(mesh2, fld.h, GAMMA, W0, warm=fld)
        assert rep2.converged, rep2.message
        fine_r2.append(diagnose(fld2, GAMMA, W0).row.r2)
    return {
        "table": table,
        "fine_r2": np.asarray(fine_r2),
        "solve_secs": solve_secs,
        "wall": time.perf_counter() - t_wall,
    }


def test_criterion_01_trivial_equilibrium():
    g0 = LoadProfile.constant(0.0, 0.0)
    res_max, it_max, sec_max, r_max = 0.0, 0, 0.0, 0.0
    for h in HS:
        mesh = build_mesh(1.0, mesh_rule_nx(1.0, h), 8)
        t0 = time.perf_counter()
        fld, rep = solve_stationary(mesh, h, g0, W0)
        sec_max = max(sec_max, time.perf_counter() - t0)
        assert np.array_equal(fld.y, rigid_state(mesh, h).y)
        row = diagnose(fld, g0, W0).row
        res_max = max(res_max, rep.residual_sup)
        it_max = max(it_max, rep.iterations)
        r_max = max(r_max, abs(row.r1), abs(row.r2), abs(row.r3), abs(row.r4))
    ok = res_max <= 1e-12 and it_max <= 2 and r_max == 0.0 and sec_max <= 1.0
    _report(
        1,
        "zero load returns the rigid state",
        ok,
        f"residual {res_max:.2e}, iters {it_max}, max|r1..r4| {r_max:.2e}, {sec_max:.2f} s/h",
    )


def test_criterion_02_energy_scaling(sweep):
    esc = np.asarray(sweep["table"].energy_over_h2)
    ratio = float(esc.max() / esc.min())
    ok = ratio <= 2.0 and sweep["wall"] <= 300.0
    _report(
        2,
        "elastic energy scales with h^2",
        ok,
        f"energy/h^2 in [{esc.min():.3e}, {esc.max():.3e}], ratio {ratio:.3f}, "
        f"sweep {sweep['wall']:.1f} s",
    )


def test_criterion_03_convergence_of_equilibria(sweep):
    t = np.asarray(sweep["table"].theta_err)
    y = np.asarray(sweep["table"].y_err)
    ok = (
        bool(np.all(np.diff(t) < 0))
        and t[-1] <= 0.5 * t[0]
        and bool(np.all(np.diff(y) < 0))
        and y[-1] <= 0.5 * y[0]
    )
    _report(
        3,
        "strip equilibria approach the rod limit",
        ok,
        f"theta err {t[0]:.3e} -> {t[-1]:.3e} (x{t[-1] / t[0]:.3f}), "
        f"y err {y[0]:.3e} -> {y[-1]:.3e} (x{y[-1] / y[0]:.3f})",
    )


def test_criterion_04_identity_residuals(sweep):
    rows = sweep["table"].residuals
    r1 = np.array([r.r1 for r in rows])
    r2 = np.array([r.r2 for r in rows])
    r3 = np.array([r.r3 for r in rows])
    r4 = np.array([r.r4 for r in rows])
    fine = sweep["fine_r2"]
    halved = fine / r2
    disc = 2.0 * (r2 - fine)  # first-order Richardson estimate per h
    ok1 = bool(np.all(np.diff(r1) < 0))
    ok2 = bool(np.all(r2 <= 10.0 * disc)) and bool(np.all(halved <= 0.65))
    ok3 = bool(np.all(np.diff(r3) < 0))
    ok4 = float(r4.max()) <= 2.0 * float(r4.min())
    _report(
        4,
        "limit identities hold up to mesh error",
        ok1 and ok2 and ok3 and ok4,
        f"r1 {r1[0]:.3e} -> {r1[-1]:.3e}, r2/disc max {np.max(r2 / disc):.2f}, "
        f"doubling ratio max {halved.max():.3f}, r3 {r3[0]:.2e} -> {r3[-1]:.2e}, "
        f"r4 spread {r4.max() / r4.min():.3f}",
    )


def test_criterion_05_rigidity_ratio(sweep):
    r5 = np.array([r.r5 for r in sweep["table"].residuals])
    spread = float(r5.max() / r5.min())
    ok = bool(np.all(np.isfinite(r5))) and spread <= 2.0
    _report(
        5,
        "rigidity ratio stays bounded",
        ok,
        f"r5 in [{r5.min():.3f}, {r5.max():.3f}], spread {spread:.3f}",
    )


def test_criterion_06_elastica_oracle():
    t0 = time.perf_counter()
    sol = solve_elastica(1.0, GAMMA, 1.0, n=256)
    alt = minimize_J2(1.0, GAMMA, 1.0, n=256)
    tip_gap = abs(sol.theta[-1] - (-2e-3)) / 2e-3
    route_gap = float(np.max(np.abs(sol.theta - alt.theta)))

    n = 256
    x = np.linspace(0.0, 1.0, n + 1)
    dx = 1.0 / n
    wq = np.full(n + 1, dx)
    wq[0] = wq[-1] = 0.5 * dx
    gtv = gtilde(GAMMA, 1.0, xs=x)
    rng = np.random.default_rng(3)
    theta = 0.05 * rng.standard_normal(n + 1)
    theta[0] = 0.0
    _, grad = _j2_discrete(theta, gtv, 1.0 / 12.0, dx, wq)
    eps = 1e-7
    fd_worst = 0.0
    for i in rng.choice(n, size=10, replace=False) + 1:
        tp, tm = theta.copy(), theta.copy()
        tp[i] += eps
        tm[i] -= eps
        fd = (
            _j2_discrete(tp, gtv, 1.0 / 12.0, dx, wq)[0]
            - _j2_discrete(tm, gtv, 1.0 / 12.0, dx, wq)[0]
        ) / (2 * eps)
        fd_worst = max(fd_worst, abs(grad[i - 1] - fd) / abs(fd))
    dt = time.perf_counter() - t0
    ok = tip_gap <= 5e-3 and route_gap <= 1e-6 and fd_worst <= 1e-6 and dt <= 1.0
    _report(
        6,
        "rod solver against the linearized closed form",
        ok,
        f"tip angle gap {tip_gap:.2e} rel, routes {route_gap:.2e} sup, "
        f"gradient FD {fd_worst:.2e} rel, {dt:.2f} s",
    )


def test_criterion_07_modulus_inversion():
    cases = [(HalfDistSquared(), 1.0)]
    for mu, lam in ((1.0, 1.0), (2.0, 0.5), (1.5, 0.0)):
        cases.append((IsotropicQuadratic(mu, lam), 4 * mu * (mu + lam) / (lam + 2 * mu)))
    worst = 0.0
    for W, closed in cases:
        lin = linearize(W)
        einv = np.linalg.inv(lin.matrix[:3, :3])[0, 0]  # symmetric block
        worst = max(worst, abs(1.0 / einv - closed), abs(lin.modulus - closed))
    ok = worst <= 1e-12
    _report(
        7,
        "tension modulus equals the inverted quadratic form",
        ok,
        f"worst gap {worst:.2e} over {len(cases)} densities",
    )


def test_criterion_08_truncation_sweep():
    t0 = time.perf_counter()
    cell_max = {}
    for a, A in ((14.0, 28.0), (14.0, 42.0)):
        for n1, n2 in ((64, 8), (128, 16), (256, 32)):
            qmax = 0.0
            for seed in range(50):
                u = sample_on_strip(rough_field(seed), n1, n2, 0.125)
                res = thin_truncate(u, a, A)
                assert grad_sup(res.v) <= res.lam
                off = ~res.bad_mask
                assert np.array_equal(res.v.values[off], u.values[off])
                assert a <= res.level <= A
                assert np.isfinite(res.q)
                qmax = max(qmax, res.q)
            cell_max[(a, A, n1, n2)] = qmax
    dt = time.perf_counter() - t0
    vals = np.array(list(cell_max.values()))
    spread = float(vals.max() / vals.min())
    ok = spread <= 2.0 and dt <= 120.0
    _report(
        8,
        "gradient bound certified on 300 rough fields",
        ok,
        f"max q per cell in [{vals.min():.3f}, {vals.max():.3f}], spread {spread:.3f}, "
        f"{dt:.1f} s",
    )


def test_criterion_09_density_hypotheses():
    rows_half = _hypothesis_rows(HalfDistSquared(), np.random.default_rng(11))
    rows_iso = _hypothesis_rows(IsotropicQuadratic(1.0, 1.0), np.random.default_rng(12))
    half_ok = all(status == "pass" for _, _, status, _ in rows_half)
    iso_h3 = [status for tag, _, status, _ in rows_iso if tag == "H3"]
    iso_rest_ok = all(status == "pass" for tag, _, status, _ in rows_iso if tag != "H3")
    ok = half_ok and iso_rest_ok and iso_h3 == ["xfail"]
    _report(
        9,
        "density hypotheses on 10^3 samples per density",
        ok,
        f"half-dist all pass: {half_ok}, isotropic rest pass: {iso_rest_ok}, "
        f"isotropic coercivity status: {iso_h3[0] if iso_h3 else 'missing'}",
    )


@pytest.mark.xfail(reason="isotropic quadratic energy vanishes at reflections", strict=True)
def test_criterion_09_isotropic_reflection_coercivity():
    refl = np.array([[1.0, 0.0], [0.0, -1.0]])
    assert IsotropicQuadratic(1.0, 1.0).energy(refl) > 1e-3
