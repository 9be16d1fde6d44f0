"""Rod boundary-value problem: one discrete functional, Newton and descent on it, and their oracles."""

import numpy as np
import pytest
from scipy.linalg import solve_banded, solveh_banded
from scipy.sparse import dia_matrix

from striplab.algebra import newton_step
from striplab.elastica import (
    DESCENT_GTOL,
    ROD_TOL,
    _j2_discrete,
    _j2_hessian,
    _rod_setup,
    gtilde,
    minimize_J2,
    solve_elastica,
)
from striplab.errors import NonConvergence
from striplab.loads import LoadProfile

from helpers import linear_cantilever_theta, raises_value_error

G_SMALL = LoadProfile.constant(0.0, -1e-3)


def test_load_profile_constant_and_samples():
    g = LoadProfile.constant(0.5, -1.0)
    np.testing.assert_allclose(g(np.array([0.0, 0.3, 1.0])), [[0.5, -1.0]] * 3)
    assert not np.all(g.vals == 0.0)
    assert np.all(LoadProfile.constant(0.0, 0.0).vals == 0.0)
    gs = LoadProfile(xs=np.array([0.0, 1.0]), vals=np.array([[0.0, 0.0], [0.0, -2.0]]))
    np.testing.assert_allclose(gs(0.5), [0.0, -1.0])
    np.testing.assert_allclose(gs(2.0), [0.0, -2.0])  # constant extension


def test_gtilde_constant_load_exact():
    # antiderivative from the free end: values (x - L) * g, exactly 0 at L
    g = LoadProfile.constant(0.2, -0.5)
    xs = np.linspace(0.0, 2.0, 17)
    gt = gtilde(g, 2.0, xs=xs)
    np.testing.assert_allclose(gt, (xs - 2.0)[:, None] * np.array([0.2, -0.5]), atol=1e-15)
    assert gt[-1, 0] == 0.0 and gt[-1, 1] == 0.0


def test_gtilde_linear_load_trapezoid_exact():
    xs = np.linspace(0.0, 1.0, 33)
    g = LoadProfile(xs=np.array([0.0, 1.0]), vals=np.array([[0.0, 0.0], [0.0, 1.0]]))  # g2 = x
    gt = gtilde(g, 1.0, xs=xs)
    expect = 0.5 * (xs**2 - 1.0)  # integral of s ds from 1 to x
    np.testing.assert_allclose(gt[:, 1], expect, atol=1e-14)


def test_gtilde_validation():
    with raises_value_error("strictly increasing"):
        gtilde(G_SMALL, 1.0, xs=np.array([0.0, 0.5, 0.4, 1.0]))
    with raises_value_error("must end at L"):
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
    # with gtilde(L) = 0 the last row of grad J2_h is (c/dx)(theta[n] - theta[n-1])
    sol = solve_elastica(1.0, G_SMALL, 1.0, n=256)
    assert sol.theta[-1] == sol.theta[-2]


def test_two_routes_agree():
    a = solve_elastica(1.0, G_SMALL, 1.0, n=256)
    b = minimize_J2(1.0, G_SMALL, 1.0, n=256)
    assert np.max(np.abs(a.theta - b.theta)) < 1e-6
    assert a.j2 == pytest.approx(b.j2, rel=1e-6, abs=1e-15)


def assert_steps_agree(K, got, expect):
    """Two backward-stable solves with the (3, n) band K differ by at most eps cond(K), relative.

    The rod's bands have cond(K) ~ n^2 (1.1e5 at n = 256), so two LAPACK
    routes differ by far more than eps even though each is exact to roundoff.
    """
    n = K.shape[1]
    cond = np.linalg.cond(dia_matrix((K, [1, 0, -1]), shape=(n, n)).toarray())
    assert np.max(np.abs(got - expect)) <= np.finfo(float).eps * cond * np.max(np.abs(expect))


@pytest.mark.parametrize("n", [256, 512])
def test_rod_newton_step_matches_solve_banded(n):
    # gbsv on the rod's tridiagonal Hessian against scipy's gtsv route, at a
    # bent state halfway to the solution, where the gradient is not roundoff
    g = LoadProfile.constant(0.0, -0.3)
    _, dx, c, gtv, wq = _rod_setup(1.0, g, 1.0, n)
    theta = 0.5 * solve_elastica(1.0, g, 1.0, n=n).theta
    H, grad = _j2_hessian(theta, gtv, c, dx, wq), _j2_discrete(theta, gtv, c, dx, wq)[1]
    assert_steps_agree(H, newton_step(H, grad), solve_banded((1, 1), H, -grad))


def test_descent_step_matches_solveh_banded(monkeypatch):
    # minimize_J2's bending block, stored as a full symmetric band, gives
    # gbsv the step of scipy's SPD route on its upper rows
    calls = []

    def recording(K, r):
        calls.append((K.copy(), r.copy()))
        return newton_step(K, r)

    monkeypatch.setattr("striplab.elastica.newton_step", recording)
    minimize_J2(1.0, LoadProfile.constant(0.0, -0.3), 1.0, n=256)
    assert len(calls) > 1
    for K, r in calls:
        assert np.array_equal(K[2, :-1], K[0, 1:])
        assert_steps_agree(K, newton_step(K, r), -solveh_banded(K[:2], r))


def test_j2_gradient_matches_fd():
    n = 128
    _, dx, c, gtv, wq = _rod_setup(1.0, G_SMALL, 1.0, n)
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


def test_heavy_column_newton_saddle_and_descent_minimizer():
    # past Greenhill's load Newton from the straight rod stays on the straight
    # branch, a saddle of J2_h with one unstable direction; descent on the
    # same functional reaches the buckled minimizer, lower in J2
    g = LoadProfile.constant(-1.0, -1e-3)
    n = 256
    _, dx, c, gtv, wq = _rod_setup(1.0, g, 1.0, n)

    def stationarity(sol):  # grad J2_h and the eigenvalues of its Hessian
        grad = _j2_discrete(sol.theta, gtv, c, dx, wq)[1]
        H = _j2_hessian(sol.theta, gtv, c, dx, wq)
        return grad, np.linalg.eigvalsh(dia_matrix((H, [1, 0, -1]), shape=(n, n)).toarray())

    straight = solve_elastica(1.0, g, 1.0, n=n)
    grad, ev = stationarity(straight)
    assert straight.theta[-1] == pytest.approx(4.1067e-3, rel=1e-4)
    assert straight.j2 == pytest.approx(0.50000054, rel=1e-8)
    assert np.max(np.abs(grad / wq[1:])) <= ROD_TOL
    assert np.sum(ev < 0.0) == 1
    assert ev[0] == pytest.approx(-4.647e-4, rel=1e-3)

    buckled = minimize_J2(1.0, g, 1.0, n=n)
    grad, ev = stationarity(buckled)
    assert buckled.j2 == pytest.approx(0.439880, rel=1e-6)
    np.testing.assert_allclose(buckled.ybar[-1], [0.1619, -0.8496], atol=1e-4)
    assert np.max(np.abs(grad)) <= DESCENT_GTOL
    assert ev[0] == pytest.approx(7.789e-4, rel=1e-3)


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


def test_reported_j2_is_the_discrete_functional():
    # both routes report the value of the functional they make stationary
    g = LoadProfile.constant(0.2, -0.3)
    _, dx, c, gtv, wq = _rod_setup(1.3, g, 1.0, 64)
    for route in (solve_elastica, minimize_J2):
        sol = route(1.3, g, 1.0, n=64)
        assert sol.j2 == _j2_discrete(sol.theta, gtv, c, dx, wq)[0]


def test_solution_interpolators():
    sol = solve_elastica(1.0, G_SMALL, 1.0, n=64)
    np.testing.assert_allclose(sol.theta_at(sol.x), sol.theta, atol=1e-15)
    np.testing.assert_allclose(sol.ybar_at(sol.x), sol.ybar, atol=1e-15)


def test_validation_and_nonconvergence(monkeypatch):
    with raises_value_error("modulus > 0"):
        solve_elastica(0.0, G_SMALL, 1.0, n=64)
    with raises_value_error("n >= 8"):
        solve_elastica(1.0, G_SMALL, 1.0, n=4)
    with raises_value_error("modulus > 0"):
        minimize_J2(-1.0, G_SMALL, 1.0, n=64)
    monkeypatch.setattr("striplab.elastica.ROD_MAX_ITERS", 1)
    with pytest.raises(NonConvergence):
        solve_elastica(1.0, LoadProfile.constant(0.0, -5.0), 1.0, n=64)


def test_cantilever_rod_pinned():
    # the reference cantilever of configs/cantilever.cfg: the tilted load,
    # the midline and J2 must reproduce these values
    sol = solve_elastica(1.0, G_SMALL, 1.0, n=2048)
    assert sol.theta[-1] == pytest.approx(-0.0019999967898386753, rel=1e-13)
    assert sol.j2 == pytest.approx(-2.9999963533681004e-07, rel=1e-13)
