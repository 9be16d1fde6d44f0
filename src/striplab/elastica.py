"""The one-dimensional bending limit: an inextensible planar rod.

The limit functional over midlines ybar with |ybar'| = 1, ybar(0) = 0,
parametrized by the tangent angle theta (ybar' = (cos theta, sin theta)):

    J2(theta) = int_0^L [ (E/24) (theta')^2 - g . ybar ] dx1,

whose stationarity condition is the rod equation

    -(E/12) theta'' + gtilde . (-sin theta, cos theta) = 0,
    theta(0) = 0,  theta'(L) = 0,      gtilde(x1) = integral from L to x1 of g.

Two independent routes to a stationary point are provided: a damped Newton
solve of the finite-difference system (``solve_elastica``) and direct descent
on the discretized functional (``minimize_J2``).  The descent gradient is, by
construction, the quadrature-weighted finite-difference residual, so the two
routes agree at their common fixed points.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_banded, solveh_banded

from .errors import ConfigError, NonConvergence
from .loads import LoadProfile


@dataclass(eq=False)
class ElasticaSolution:
    x: np.ndarray        # (n+1,)
    theta: np.ndarray    # (n+1,), theta[0] = 0
    kappa: np.ndarray    # (n+1,) bending curvature theta'
    ybar: np.ndarray     # (n+1, 2) reconstructed midline
    j2: float
    modulus: float
    iterations: int = 0

    @property
    def L(self) -> float:
        return float(self.x[-1])

    def theta_at(self, xq) -> np.ndarray:
        return np.interp(xq, self.x, self.theta)

    def ybar_at(self, xq) -> np.ndarray:
        b1 = np.interp(xq, self.x, self.ybar[:, 0])
        b2 = np.interp(xq, self.x, self.ybar[:, 1])
        return np.stack([b1, b2], axis=-1)


def gtilde(g: LoadProfile, L: float, xs: np.ndarray) -> np.ndarray:
    """Trapezoid antiderivative of g from the free end backward, (m, 2).

    Sampled at the sorted positions ``xs``, which must end at L; the
    free-end value is exactly zero.
    """
    xs = np.asarray(xs, dtype=float)
    if xs.ndim != 1 or xs.size < 2 or np.any(np.diff(xs) <= 0):
        raise ConfigError("gtilde sample positions must be strictly increasing")
    if abs(xs[-1] - L) > 1e-12 * max(1.0, L):
        raise ConfigError(f"gtilde grid must end at L = {L!r}")
    gv = g(xs)
    seg = 0.5 * np.diff(xs)[:, None] * (gv[:-1] + gv[1:])
    vals = np.empty_like(gv)
    vals[-1] = 0.0
    vals[:-1] = -np.cumsum(seg[::-1], axis=0)[::-1]
    return vals


def _ode_residual(theta: np.ndarray, gt: np.ndarray, c: float, dx: float) -> np.ndarray:
    """Finite-difference rod equation at nodes 1..n (node 0 clamped).

    Interior rows use the centered second difference; the last row uses the
    ghost-node elimination of theta'(L) = 0.
    """
    n = theta.size - 1
    r = np.empty(n)
    lap = (theta[:-2] - 2.0 * theta[1:-1] + theta[2:]) / dx**2
    dirs = np.stack([-np.sin(theta[1:]), np.cos(theta[1:])], axis=-1)
    r[: n - 1] = -c * lap + np.sum(gt[1:-1] * dirs[:-1], axis=-1)
    r[n - 1] = -c * 2.0 * (theta[n - 1] - theta[n]) / dx**2 + np.sum(gt[n] * dirs[-1])
    return r


def _ode_jacobian(theta: np.ndarray, gt: np.ndarray, c: float, dx: float) -> np.ndarray:
    """Tridiagonal Jacobian in solve_banded layout (3, n)."""
    n = theta.size - 1
    ab = np.zeros((3, n))
    diag_load = -gt[1:, 0] * np.cos(theta[1:]) - gt[1:, 1] * np.sin(theta[1:])
    ab[1, :] = 2.0 * c / dx**2 + diag_load
    ab[0, 1:] = -c / dx**2          # superdiagonal (columns 2..n)
    ab[2, :-1] = -c / dx**2         # subdiagonal
    ab[2, n - 2] = -2.0 * c / dx**2  # ghost elimination doubles the last coupling
    return ab


def J2_eval(sol: ElasticaSolution, g: LoadProfile) -> float:
    """Composite trapezoid value of the limit functional from sol.kappa."""
    integrand = (sol.modulus / 24.0) * sol.kappa**2 - np.sum(g(sol.x) * sol.ybar, axis=-1)
    return float(np.trapezoid(integrand, sol.x))


def _finish(x, theta, modulus, g, iterations) -> ElasticaSolution:
    # curvature from centered differences (second-order one-sided at the
    # ends); midline by trapezoid integration of the unit tangent from 0
    kappa = np.gradient(theta, x, edge_order=2)
    tang = np.stack([np.cos(theta), np.sin(theta)], axis=-1)
    seg = 0.5 * np.diff(x)[:, None] * (tang[:-1] + tang[1:])
    ybar = np.vstack([np.zeros((1, 2)), np.cumsum(seg, axis=0)])
    sol = ElasticaSolution(
        x=x, theta=theta, kappa=kappa, ybar=ybar, j2=0.0, modulus=modulus,
        iterations=iterations,
    )
    sol.j2 = J2_eval(sol, g)
    return sol


def solve_elastica(
    modulus: float,
    g: LoadProfile,
    L: float,
    n: int = 256,
    tol: float = 1e-12,
    max_iters: int = 60,
) -> ElasticaSolution:
    """Damped Newton on the finite-difference rod equation.

    Load ramping engages when the dimensionless stiffness 12 |gtilde| L^2 / E
    exceeds 5.  Raises NonConvergence if Newton stalls.
    """
    if not (modulus > 0.0 and L > 0.0):
        raise ConfigError(f"need modulus > 0 and L > 0, got {modulus!r}, {L!r}")
    if n < 8:
        raise ConfigError(f"elastica grid needs n >= 8, got {n}")
    x = np.linspace(0.0, L, n + 1)
    dx = L / n
    c = modulus / 12.0
    gtv = gtilde(g, L, x)
    strength = 12.0 * float(np.max(np.abs(gtv))) * L**2 / modulus
    ramps = 1 if strength <= 5.0 else int(np.ceil(strength / 5.0))

    theta = np.zeros(n + 1)
    total_it = 0
    eps = np.finfo(float).eps
    for k in range(1, ramps + 1):
        gt = (k / ramps) * gtv
        r = _ode_residual(theta, gt, c, dx)
        rn = float(np.max(np.abs(r)))
        it = 0
        while rn > tol:
            # the second difference amplifies roundoff by c/dx^2; stop once
            # the residual sits at that floor even if tol is tighter
            floor = 32.0 * eps * (4.0 * c * max(1e-3, float(np.max(np.abs(theta)))) / dx**2)
            if rn <= floor:
                break
            if it >= max_iters:
                raise NonConvergence("rod Newton iteration cap reached", rn)
            ab = _ode_jacobian(theta, gt, c, dx)
            delta = solve_banded((1, 1), ab, -r)
            alpha = 1.0
            while True:
                trial = theta.copy()
                trial[1:] += alpha * delta
                rt = _ode_residual(trial, gt, c, dx)
                if float(np.max(np.abs(rt))) <= (1.0 - 1e-4 * alpha) * rn or alpha < 1e-12:
                    break
                alpha *= 0.5
            if alpha < 1e-12:
                if rn <= floor:
                    break
                raise NonConvergence("rod line search stalled", rn)
            theta = trial
            r = rt
            rn = float(np.max(np.abs(r)))
            it += 1
        total_it += it
    return _finish(x, theta, modulus, g, total_it)


def _j2_discrete(theta, gtv, c, dx, wq):
    """Value and exact gradient of the discretized functional.

    Bending by midpoint quadrature of (theta')^2, load work by trapezoid of
    gtilde . (cos theta, sin theta); the load-work form comes from integrating
    the -g . ybar term by parts, which removes the midline reconstruction.
    """
    d = np.diff(theta)
    tang = np.stack([np.cos(theta), np.sin(theta)], axis=-1)
    val = 0.5 * c / dx * np.sum(d * d) + np.sum(wq * np.sum(gtv * tang, axis=-1))
    grad = np.zeros_like(theta)
    grad[:-1] -= (c / dx) * d
    grad[1:] += (c / dx) * d
    grad += wq * (-gtv[:, 0] * np.sin(theta) + gtv[:, 1] * np.cos(theta))
    return val, grad[1:]  # theta(0) is constrained


def minimize_J2(
    modulus: float,
    g: LoadProfile,
    L: float,
    n: int = 256,
    gtol: float = 1e-10,
    max_iters: int = 500,
) -> ElasticaSolution:
    """Direct descent on the discretized limit functional.

    Descent direction is the gradient preconditioned by the (constant,
    positive definite) bending block, with Armijo backtracking on the
    functional value; independent of the Newton route in ``solve_elastica``.
    """
    if not (modulus > 0.0 and L > 0.0):
        raise ConfigError(f"need modulus > 0 and L > 0, got {modulus!r}, {L!r}")
    if n < 8:
        raise ConfigError(f"elastica grid needs n >= 8, got {n}")
    x = np.linspace(0.0, L, n + 1)
    dx = L / n
    c = modulus / 12.0
    wq = np.full(n + 1, dx)
    wq[0] = wq[-1] = 0.5 * dx
    gtv = gtilde(g, L, x)

    # bending Hessian on the free nodes 1..n (SPD tridiagonal)
    ab = np.zeros((2, n))
    ab[1, :] = 2.0 * c / dx
    ab[1, n - 1] = c / dx
    ab[0, 1:] = -c / dx
    theta = np.zeros(n + 1)
    val, grad = _j2_discrete(theta, gtv, c, dx, wq)
    for it in range(max_iters):
        gsup = float(np.max(np.abs(grad))) if grad.size else 0.0
        if gsup <= gtol:
            return _finish(x, theta, modulus, g, it)
        d = -solveh_banded(ab, grad)
        slope = float(grad @ d)
        alpha = 1.0
        while True:
            trial = theta.copy()
            trial[1:] += alpha * d
            tval, tgrad = _j2_discrete(trial, gtv, c, dx, wq)
            if tval <= val + 1e-4 * alpha * slope or alpha < 1e-14:
                break
            alpha *= 0.5
        if alpha < 1e-14:
            raise NonConvergence("descent line search stalled", gsup)
        theta, val, grad = trial, tval, tgrad
    raise NonConvergence(
        "descent iteration cap reached", float(np.max(np.abs(grad)))
    )


def linear_cantilever_theta(gamma: float, modulus: float, L: float, x: np.ndarray) -> np.ndarray:
    """Small-load closed form for g = (0, -gamma): the linearized rod equation
    -(E/12) theta'' + gamma (L - x1) = 0 with theta(0) = 0, theta'(L) = 0."""
    x = np.asarray(x, dtype=float)
    return (12.0 * gamma / modulus) * (L * x**2 / 2.0 - x**3 / 6.0 - L**2 * x / 2.0)
