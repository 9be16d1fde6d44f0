"""Rod boundary-value problem: two independent routes and their oracles."""

import numpy as np
import pytest

from striplab import (
    J2_eval,
    LoadProfile,
    gtilde,
    linear_cantilever_theta,
    minimize_J2,
    solve_elastica,
)
from striplab.elastica import _j2_discrete
from striplab.errors import ConfigError, NonConvergence

G_SMALL = LoadProfile.constant(0.0, -1e-3)


def test_load_profile_constant_and_samples():
    g = LoadProfile.constant(0.5, -1.0)
    np.testing.assert_allclose(g(np.array([0.0, 0.3, 1.0])), [[0.5, -1.0]] * 3)
    assert not np.all(g.vals == 0.0)
    assert np.all(LoadProfile.constant(0.0, 0.0).vals == 0.0)
    gs = LoadProfile.from_samples([0.0, 1.0], [[0.0, 0.0], [0.0, -2.0]])
    np.testing.assert_allclose(gs(0.5), [0.0, -1.0])
    np.testing.assert_allclose(gs(2.0), [0.0, -2.0])  # constant extension
    with pytest.raises(ConfigError):
        LoadProfile.from_samples([0.0], [[1.0, 2.0]])
    with pytest.raises(ConfigError):
        LoadProfile.from_samples([0.0, 0.0], [[1.0, 2.0], [3.0, 4.0]])


def test_gtilde_constant_load_exact():
    # antiderivative from the free end: values (x - L) * g, exactly 0 at L
    g = LoadProfile.constant(0.2, -0.5)
    xs = np.linspace(0.0, 2.0, 17)
    gt = gtilde(g, 2.0, xs=xs)
    np.testing.assert_allclose(gt, (xs - 2.0)[:, None] * np.array([0.2, -0.5]), atol=1e-15)
    assert gt[-1, 0] == 0.0 and gt[-1, 1] == 0.0


def test_gtilde_linear_load_trapezoid_exact():
    xs = np.linspace(0.0, 1.0, 33)
    g = LoadProfile.from_samples([0.0, 1.0], [[0.0, 0.0], [0.0, 1.0]])  # g2 = x
    gt = gtilde(g, 1.0, xs=xs)
    expect = 0.5 * (xs**2 - 1.0)  # integral of s ds from 1 to x
    np.testing.assert_allclose(gt[:, 1], expect, atol=1e-14)


def test_gtilde_validation():
    with pytest.raises(ConfigError):
        gtilde(G_SMALL, 1.0, xs=np.array([0.0, 0.5, 0.4, 1.0]))
    with pytest.raises(ConfigError):
        gtilde(G_SMALL, 1.0, xs=np.array([0.0, 0.5, 0.9]))  # does not end at L


def test_linear_cantilever_closed_form():
    x = np.linspace(0.0, 1.0, 7)
    got = linear_cantilever_theta(1e-3, 1.0, 1.0, x)
    expect = (12e-3) * (0.5 * x**2 - x**3 / 6.0 - 0.5 * x)
    np.testing.assert_allclose(got, expect, rtol=1e-14)
    assert got[-1] == pytest.approx(-2e-3, rel=1e-12)


def test_tip_angle_matches_linearized_solution():
    sol = solve_elastica(1.0, G_SMALL, 1.0, n=256)
    assert sol.theta[0] == 0.0
    assert sol.theta[-1] == pytest.approx(-2e-3, rel=5e-3)
    lin = linear_cantilever_theta(1e-3, 1.0, 1.0, sol.x)
    assert np.max(np.abs(sol.theta - lin)) < 1e-6


def test_discrete_natural_boundary_condition_is_exact():
    # ghost-node elimination with gtilde(L) = 0 forces theta[n] == theta[n-1]
    sol = solve_elastica(1.0, G_SMALL, 1.0, n=256)
    assert sol.theta[-1] == sol.theta[-2]


def test_two_routes_agree():
    a = solve_elastica(1.0, G_SMALL, 1.0, n=256)
    b = minimize_J2(1.0, G_SMALL, 1.0, n=256)
    assert np.max(np.abs(a.theta - b.theta)) < 1e-6
    assert a.j2 == pytest.approx(b.j2, rel=1e-6, abs=1e-15)


def test_j2_gradient_matches_fd():
    n = 128
    x = np.linspace(0.0, 1.0, n + 1)
    dx = 1.0 / n
    c = 1.0 / 12.0
    wq = np.full(n + 1, dx)
    wq[0] = wq[-1] = 0.5 * dx
    gtv = gtilde(G_SMALL, 1.0, xs=x)
    rng = np.random.default_rng(7)
    theta = 0.1 * rng.standard_normal(n + 1)
    theta[0] = 0.0
    _, grad = _j2_discrete(theta, gtv, c, dx, wq)
    eps = 1e-7
    for i in rng.choice(n, size=12, replace=False) + 1:
        tp, tm = theta.copy(), theta.copy()
        tp[i] += eps
        tm[i] -= eps
        fd = (_j2_discrete(tp, gtv, c, dx, wq)[0] - _j2_discrete(tm, gtv, c, dx, wq)[0]) / (2 * eps)
        assert grad[i - 1] == pytest.approx(fd, rel=1e-6, abs=1e-12)


def test_nonlinear_correction_is_superquadratic_in_load():
    # odd symmetry of the rod equation kills the quadratic term, so the
    # deviation from the linearized tip grows faster than gamma^2
    devs = []
    for gam in (1e-3, 2e-3, 4e-3):
        sol = solve_elastica(1.0, LoadProfile.constant(0.0, -gam), 1.0, n=1024)
        devs.append(abs(sol.theta[-1] + 2.0 * gam))
    ratios = np.array(devs[1:]) / np.array(devs[:-1])
    assert np.all(ratios > 4.0)


def test_load_ramping_handles_large_deflection():
    sol = solve_elastica(1.0, LoadProfile.constant(0.0, -0.5), 1.0, n=256)
    alt = minimize_J2(1.0, LoadProfile.constant(0.0, -0.5), 1.0, n=256)
    assert sol.theta[-1] < -0.5  # genuinely nonlinear regime
    assert np.max(np.abs(sol.theta - alt.theta)) < 1e-6


def test_midline_reconstruction_is_arclength_consistent():
    sol = solve_elastica(1.0, LoadProfile.constant(0.0, -0.3), 1.0, n=512)
    seg = np.diff(sol.ybar, axis=0)
    lengths = np.hypot(seg[:, 0], seg[:, 1])
    # trapezoid of a unit tangent: each segment length <= dx, total close to L
    dx = 1.0 / 512
    assert np.all(lengths <= dx + 1e-15)
    assert np.sum(lengths) == pytest.approx(1.0, rel=1e-3)
    assert sol.ybar[0, 0] == 0.0 and sol.ybar[0, 1] == 0.0


def test_j2_eval_matches_quadrature_by_hand():
    sol = solve_elastica(1.0, G_SMALL, 1.0, n=64)
    kappa = np.gradient(sol.theta, sol.x, edge_order=2)
    integrand = kappa**2 / 24.0 - np.sum(G_SMALL(sol.x) * sol.ybar, axis=-1)
    assert J2_eval(sol, G_SMALL) == pytest.approx(np.trapezoid(integrand, sol.x), rel=1e-12)


def test_solution_interpolators():
    sol = solve_elastica(1.0, G_SMALL, 1.0, n=64)
    np.testing.assert_allclose(sol.theta_at(sol.x), sol.theta, atol=1e-15)
    np.testing.assert_allclose(sol.ybar_at(sol.x), sol.ybar, atol=1e-15)


def test_validation_and_nonconvergence():
    with pytest.raises(ConfigError):
        solve_elastica(0.0, G_SMALL, 1.0)
    with pytest.raises(ConfigError):
        solve_elastica(1.0, G_SMALL, 1.0, n=4)
    with pytest.raises(ConfigError):
        minimize_J2(-1.0, G_SMALL, 1.0)
    with pytest.raises(NonConvergence):
        solve_elastica(1.0, LoadProfile.constant(0.0, -5.0), 1.0, n=64, max_iters=1)


def test_cantilever_rod_pinned():
    # the reference cantilever of configs/cantilever.cfg: the tilted load,
    # the midline and J2 must reproduce these values
    sol = solve_elastica(1.0, G_SMALL, 1.0, n=2048)
    assert sol.theta[-1] == pytest.approx(-0.0019999967898386753, rel=1e-13)
    assert sol.j2 == pytest.approx(-2.999995163020606e-07, rel=1e-13)
