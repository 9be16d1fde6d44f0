"""The one-dimensional bending limit: an inextensible planar rod.

The limit functional over midlines ybar with |ybar'| = 1, ybar(0) = 0,
parametrized by the tangent angle theta (ybar' = (cos theta, sin theta)):

    J2(theta) = int_0^L [ (E/24) (theta')^2 - g . ybar ] dx1,

whose stationarity condition is the rod equation

    -(E/12) theta'' + gtilde . (-sin theta, cos theta) = 0,
    theta(0) = 0,  theta'(L) = 0,      gtilde(x1) = integral from L to x1 of g.

One discrete functional, ``_j2_discrete``, stands for J2 on a uniform grid,
and two algorithms find its stationary points: damped Newton on its gradient
with its Hessian (``solve_elastica``) and descent on its value
(``minimize_J2``).  Newton follows the load ramp from the straight rod and may
stop at a saddle, such as the straight column past Greenhill's load; descent
ends at a local minimizer.  Divided by the trapezoid weights, the gradient is
the finite-difference rod equation: the centered second difference at
interior nodes and a one-sided one at the free end.  Both routes report as
``j2`` the value of ``_j2_discrete`` at the angle they return.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import newton_step
from .errors import NonConvergence
from .loads import LoadProfile

ROD_N = 512              # grid intervals of the rod that the CLI solves
ROD_TOL = 1e-12          # Newton: sup norm of the gradient over the trapezoid weights
ROD_MAX_ITERS = 60       # Newton iterations per load ramp
DESCENT_GTOL = 1e-10     # descent: sup norm of the discrete gradient
DESCENT_MAX_ITERS = 500  # descent iterations


@dataclass(eq=False)
class ElasticaSolution:
    x: np.ndarray        # (n+1,)
    theta: np.ndarray    # (n+1,), theta[0] = 0
    kappa: np.ndarray    # (n+1,) theta' by np.gradient; j2 bends with diff(theta)/dx
    ybar: np.ndarray     # (n+1, 2) reconstructed midline
    j2: float            # _j2_discrete at theta
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
        raise ValueError("gtilde sample positions must be strictly increasing")
    if abs(xs[-1] - L) > 1e-12 * max(1.0, L):
        raise ValueError(f"gtilde grid must end at L = {L!r}")
    gv = g(xs)
    seg = 0.5 * np.diff(xs)[:, None] * (gv[:-1] + gv[1:])
    vals = np.empty_like(gv)
    vals[-1] = 0.0
    vals[:-1] = -np.cumsum(seg[::-1], axis=0)[::-1]
    return vals


def midline(x: np.ndarray, theta: np.ndarray) -> np.ndarray:
    """Trapezoid integral from 0 of the unit tangent (cos theta, sin theta), (n+1, 2)."""
    tang = np.stack([np.cos(theta), np.sin(theta)], axis=-1)
    seg = 0.5 * np.diff(x)[:, None] * (tang[:-1] + tang[1:])
    return np.vstack([np.zeros((1, 2)), np.cumsum(seg, axis=0)])


def _finish(x, theta, modulus, j2, iterations) -> ElasticaSolution:
    # curvature from centered differences (second-order one-sided at the ends)
    kappa = np.gradient(theta, x, edge_order=2)
    return ElasticaSolution(
        x=x, theta=theta, kappa=kappa, ybar=midline(x, theta), j2=float(j2), modulus=modulus,
        iterations=iterations,
    )


def _rod_setup(modulus: float, g: LoadProfile, L: float, n: int):
    """Checked inputs of both rod routes: nodes x, spacing dx, c = E/12,
    gtilde at x and the trapezoid weights wq."""
    if not (modulus > 0.0 and L > 0.0):
        raise ValueError(f"need modulus > 0 and L > 0, got {modulus!r}, {L!r}")
    if n < 8:
        raise ValueError(f"elastica grid needs n >= 8, got {n}")
    x = np.linspace(0.0, L, n + 1)
    dx = L / n
    wq = np.full(n + 1, dx)
    wq[0] = wq[-1] = 0.5 * dx
    return x, dx, modulus / 12.0, gtilde(g, L, x), wq


def solve_elastica(modulus: float, g: LoadProfile, L: float, n: int) -> ElasticaSolution:
    """Damped Newton on the gradient of ``_j2_discrete``.

    Each step solves H delta = -grad with H = ``_j2_hessian``; the iteration
    stops on grad / wq, the rod equation's residual.  Load ramping engages
    when the dimensionless stiffness 12 |gtilde| L^2 / E exceeds 5.  Raises
    NonConvergence if Newton stalls.
    """
    x, dx, c, gtv, wq = _rod_setup(modulus, g, L, n)
    strength = 12.0 * float(np.max(np.abs(gtv))) * L**2 / modulus
    ramps = 1 if strength <= 5.0 else int(np.ceil(strength / 5.0))

    def gradient(theta, gt):  # and the sup norm of the residual grad / wq
        grad = _j2_discrete(theta, gt, c, dx, wq)[1]
        return grad, float(np.max(np.abs(grad / wq[1:])))

    theta = np.zeros(n + 1)
    total_it = 0
    eps = np.finfo(float).eps
    for k in range(1, ramps + 1):
        gt = (k / ramps) * gtv
        grad, rn = gradient(theta, gt)
        it = 0
        while rn > ROD_TOL:
            # the second difference amplifies roundoff by c/dx^2; stop once
            # the residual sits at that floor even if ROD_TOL is tighter
            floor = 32.0 * eps * (4.0 * c * max(1e-3, float(np.max(np.abs(theta)))) / dx**2)
            if rn <= floor:
                break
            if it >= ROD_MAX_ITERS:
                raise NonConvergence("rod Newton iteration cap reached", rn)
            delta = newton_step(_j2_hessian(theta, gt, c, dx, wq), grad)
            alpha = 1.0
            for _ in range(41):  # alpha = 1, 1/2, ..., 2**-40 < 1e-12
                trial = theta.copy()
                trial[1:] += alpha * delta
                tgrad, trn = gradient(trial, gt)
                if trn <= (1.0 - 1e-4 * alpha) * rn:
                    break
                alpha *= 0.5
            else:
                raise NonConvergence("rod line search stalled", rn)
            theta, grad, rn = trial, tgrad, trn
            it += 1
        total_it += it
    return _finish(x, theta, modulus, _j2_discrete(theta, gtv, c, dx, wq)[0], total_it)


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


def _j2_hessian(theta, gtv, c, dx, wq):
    """Hessian of ``_j2_discrete`` on the free nodes 1..n.

    The constant bending band plus the load diagonal, as the (3, n) band,
    offsets 1..-1, that ``newton_step`` takes; at zero load it is positive
    definite.
    """
    n = theta.size - 1
    ab = np.zeros((3, n))
    ab[0, 1:] = ab[2, :-1] = -c / dx
    ab[1, :] = 2.0 * c / dx
    ab[1, n - 1] = c / dx
    ab[1] -= wq[1:] * (gtv[1:, 0] * np.cos(theta[1:]) + gtv[1:, 1] * np.sin(theta[1:]))
    return ab


def minimize_J2(modulus: float, g: LoadProfile, L: float, n: int) -> ElasticaSolution:
    """Direct descent on the discretized limit functional.

    Descent direction is the gradient of ``_j2_discrete`` preconditioned by
    its Hessian at zero load, the bending band, with Armijo backtracking on
    the functional value; it ends at a local minimizer of the functional
    whose stationary points ``solve_elastica`` finds by Newton.
    """
    x, dx, c, gtv, wq = _rod_setup(modulus, g, L, n)
    theta = np.zeros(n + 1)
    ab = _j2_hessian(theta, np.zeros_like(gtv), c, dx, wq)
    val, grad = _j2_discrete(theta, gtv, c, dx, wq)
    for it in range(DESCENT_MAX_ITERS):
        gsup = float(np.max(np.abs(grad)))
        if gsup <= DESCENT_GTOL:
            return _finish(x, theta, modulus, val, it)
        d = newton_step(ab, grad)
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
