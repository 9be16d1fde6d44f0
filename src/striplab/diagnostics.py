"""Diagnostics that connect a strip solution to its one-dimensional limit.

A solution is the (nnode, 2) position array y on its mesh.  ``diagnose``
computes, once per solution, one ``Diagnosis`` record:

* per-slab rotations: polar factors of slab averages of the scaled gradient,
  on a partition of (0, L) into slabs of width in [h, 2h);
* a mollified rotation profile R(x1): the slab rotations convolved with a
  quintic bump of width h (entrywise), projected back onto SO(2), with the
  angle unwrapped along x1, sampled at the nodes and at the quadrature
  columns;
* the scaled strain G = (R^T F - Id)/h and scaled stress E = DW(Id + hG)/h
  at quadrature points, plus their zeroth and first moments in x2;
* the correction z = y/h - (1/h) int_0^x1 R e1 - x2 R e2 on the clamped
  edge, where its sup is |sin(theta_h(0)/2)|, O(h);
* residuals r1..r5 of the identities that the limit theory predicts to hold
  or to vanish with h.

``theta_error`` and ``y_error`` read a Diagnosis and measure the solution
against the rod.  Each table is defined once, as its row type: the fields
of ``ConvergenceRow`` and ``IdentityRow`` are the CSV headers, and
``cli.run_convergence`` fills one row of each per thickness as it solves.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .algebra import dist_so2, polar_angle, rot2, tmul2
from .elastica import ElasticaSolution, gtilde
from .energy import EnergyDensity
from .errors import ConfigError, DiagnosticError, DomainError
from .loads import LoadProfile
from .mesh import StripMesh

EPS_DIV = 1e-30


def _bump_cdf(t: np.ndarray) -> np.ndarray:
    """Antiderivative of the quintic bump 30 s^2 (1-s)^2 on (0, 1), clipped."""
    t = np.clip(t, 0.0, 1.0)
    return t**3 * (10.0 - 15.0 * t + 6.0 * t * t)


def _bin_sum(idx: np.ndarray, T: np.ndarray, n: int) -> np.ndarray:
    """Sum the 2x2 values T[i] into bins idx[i], in order of i, (n, 2, 2)."""
    flat = (4 * idx[:, None] + np.arange(4)).reshape(-1)
    return np.bincount(flat, weights=T.reshape(-1), minlength=4 * n).reshape(n, 2, 2)


def _slab_weights(mesh: StripMesh, k: int, xs: np.ndarray) -> np.ndarray:
    """Mollifier mass each of k equal slabs of (0, L) contributes at xs, (len, k).

    The slab profile is extended constantly beyond [0, L], which amounts
    to treating the outermost slab boundaries as infinite.
    """
    edges = np.linspace(0.0, mesh.L, k + 1)
    lo, hi = edges[:-1], edges[1:]
    lo[0], hi[-1] = -np.inf, np.inf
    a = _bump_cdf((xs[:, None] - lo[None, :]) / mesh.h)
    b = _bump_cdf((xs[:, None] - hi[None, :]) / mesh.h)
    return a - b


def slab_bins(mesh: StripMesh) -> tuple[int, np.ndarray]:
    """The slab count k = floor(L/h) and each quadrature point's slab, (nqp,).

    The k slabs of (0, L) have equal width, which lies in [h, 2h) whenever
    h <= L/2.  Raises ConfigError if k < 2 or a slab holds no quadrature point.
    """
    L, h = mesh.L, mesh.h
    k = int(np.floor(L / h))
    if k < 2:
        raise ConfigError(f"strip.h must be at most strip.L / 2 for slab rotations, got {h!r}")
    idx = np.clip((mesh.qp_x[:, 0] * (k / L)).astype(int), 0, k - 1)
    if np.any(np.bincount(idx, minlength=k) == 0):
        raise ConfigError(f"strip.nx = {mesh.nx} is too coarse for {k} slabs at h = {h!r}")
    return k, idx


def slab_rotations(mesh: StripMesh, F: np.ndarray) -> np.ndarray:
    """Unwrapped polar angles of slab averages of the scaled gradient F, (k,)."""
    k, idx = slab_bins(mesh)
    sums = _bin_sum(idx, F, k)
    means = sums / np.bincount(idx, minlength=k)[:, None, None]
    try:
        ang = polar_angle(means)
    except DomainError as exc:
        raise DiagnosticError(f"slab average is degenerate: {exc}") from exc
    return np.unwrap(ang)


def mollified_angle(mesh: StripMesh, slab_angle: np.ndarray, xs) -> np.ndarray:
    """Projected, unwrapped angle of the entrywise mollified slab rotations at sorted xs."""
    xs = np.atleast_1d(np.asarray(xs, dtype=float))
    if xs.size > 1 and np.any(np.diff(xs) < 0):
        raise DiagnosticError("rotation profile must be sampled at sorted x1")
    w = _slab_weights(mesh, slab_angle.size, xs)
    try:
        ang = polar_angle(np.einsum("xk,kij->xij", w, rot2(slab_angle)))
    except DomainError as exc:
        raise DiagnosticError(f"mollified rotation degenerate: {exc}") from exc
    return np.unwrap(ang)


def column_moments(mesh: StripMesh, T: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Zeroth and first x2-moments of a (nqp, 2, 2) field per quadrature column."""
    w = 0.5 * mesh.dy
    bar = _bin_sum(mesh.qp_col, w * T, mesh.ncol)
    hat = _bin_sum(mesh.qp_col, (w * mesh.qp_x[:, 1])[:, None, None] * T, mesh.ncol)
    return bar, hat


class IdentityRow(NamedTuple):
    """Residuals of the limit identities for one thickness: a row of identities.csv."""

    h: float
    r1: float  # |hatG11 + theta'/12| / |theta'|: 1/12 of the gap relative to theta'/12
    r2: float  # stress moment balance against the tilted load
    r3: float  # free-end first stress moment, extrapolated: O(dx^2), set by nx; h does not enter
    r4: float  # skew part of the scaled stress, L1 over h
    r5: float  # rigidity ratio: |F - R|^2 over dist^2(F, SO(2))


class ConvergenceRow(NamedTuple):
    """Errors against the rod limit for one thickness: a row of convergence.csv."""

    h: float
    theta_err_L2: float    # mollified angle against the rod angle, L2(0, L)
    y_err_W12: float       # y against the rod midline, W^{1,2}(strip)
    energy_over_h2: float  # the solver's elastic energy over h^2


@dataclass(frozen=True, eq=False)
class Diagnosis:
    """Everything the diagnostics derive from one strip solution.

    Quadrature-point arrays are (nqp, 2, 2), column arrays are indexed like
    ``mesh.col_x`` and node angles like ``mesh.x1``.
    """

    mesh: StripMesh
    F: np.ndarray                # scaled deformation gradient
    node_theta: np.ndarray       # mollified angle at mesh.x1
    G: np.ndarray                # scaled strain (R^T F - Id)/h
    E: np.ndarray                # scaled stress DW(Id + hG)/h
    Ebar: np.ndarray             # zeroth x2-moment of E per column
    Ehat: np.ndarray             # first x2-moment of E per column
    Ghat: np.ndarray             # first x2-moment of G per column
    row: IdentityRow
    z_bc_gap: float              # sup |z(0, x2)| = |sin(theta_h(0)/2)|, O(h)


def diagnose(mesh: StripMesh, y: np.ndarray, g: LoadProfile, W: EnergyDensity) -> Diagnosis:
    """Full diagnostic pipeline for the solution y on mesh."""
    h = mesh.h
    cols = mesh.col_x
    cw = mesh.col_w
    F = mesh.scaled_gradients(y - mesh.rigid)
    slab_angle = slab_rotations(mesh, F)
    node_theta = mollified_angle(mesh, slab_angle, mesh.x1)
    col_theta = mollified_angle(mesh, slab_angle, cols)
    thp = np.gradient(col_theta, cols, edge_order=2)
    Rq = rot2(col_theta[mesh.qp_col])

    G = tmul2(Rq, F)
    G[:, 0, 0] -= 1.0
    G[:, 1, 1] -= 1.0
    G /= h
    try:
        E = W.stress(np.eye(2) + h * G) / h
    except DomainError as exc:
        raise DiagnosticError(f"scaled stress undefined: {exc}") from exc
    Ebar, Ehat = column_moments(mesh, E)
    Ghat = column_moments(mesh, G)[1]

    def col_l2(v: np.ndarray) -> float:
        return float(np.sqrt(cw * np.sum(v * v)))

    r1 = col_l2(Ghat[:, 0, 0] + thp / 12.0) / (col_l2(thp) + EPS_DIV)

    gt = gtilde(g, mesh.L, np.append(cols, mesh.L))[:-1]
    mism = Ebar[:, :, 0] + h * tmul2(rot2(col_theta), gt[:, :, None])[:, :, 0]
    r2 = float(np.sqrt(cw * np.sum(mism**2)))

    Ehat11 = Ehat[:, 0, 0]
    slope = (Ehat11[-1] - Ehat11[-2]) / (cols[-1] - cols[-2])
    r3 = float(abs(Ehat11[-1] + slope * (mesh.L - cols[-1])))

    r4 = float(mesh.qp_w * np.sum(np.abs(E[:, 0, 1] - E[:, 1, 0])) / h)

    num5 = float(mesh.qp_w * np.sum((F - Rq) ** 2))
    den5 = float(mesh.qp_w * np.sum(dist_so2(F) ** 2))
    r5 = 1.0 if num5 == 0.0 and den5 == 0.0 else num5 / (den5 + EPS_DIV)

    # z on the clamped edge, where y = (0, h x2) and int_0^0 R e1 = 0
    th0 = node_theta[0]
    z0 = y[mesh.clamped_nodes()] / h - mesh.x2[:, None] * np.array([-np.sin(th0), np.cos(th0)])

    return Diagnosis(
        mesh=mesh, F=F, node_theta=node_theta, G=G, E=E, Ebar=Ebar, Ehat=Ehat, Ghat=Ghat,
        row=IdentityRow(h=h, r1=r1, r2=r2, r3=r3, r4=r4, r5=r5),
        z_bc_gap=float(np.max(np.linalg.norm(z0, axis=-1))),
    )


def theta_error(d: Diagnosis, limit: ElasticaSolution) -> float:
    """L2(0, L) gap between the mollified angle and the rod angle."""
    xs = d.mesh.x1
    diff = d.node_theta - limit.theta_at(xs)
    return float(np.sqrt(np.trapezoid(diff**2, xs)))


def y_error(d: Diagnosis, y: np.ndarray, limit: ElasticaSolution) -> float:
    """W^{1,2}(strip) distance between y and the midline (extended in x2).

    d is y's Diagnosis, whose F is the scaled gradient of y.  Gradient part:
    d1 y against the rod tangent, d2 y against zero (the unscaled transverse
    derivative of the limit vanishes).
    """
    mesh, F = d.mesh, d.F
    xq = mesh.qp_x[:, 0]
    yq = mesh.qp_values(y)
    th = limit.theta_at(xq)
    tang = np.stack([np.cos(th), np.sin(th)], axis=-1)
    err2 = np.sum((yq - limit.ybar_at(xq)) ** 2, axis=-1)
    err2 += np.sum((F[:, :, 0] - tang) ** 2, axis=-1)
    err2 += mesh.h**2 * np.sum(F[:, :, 1] ** 2, axis=-1)
    return float(np.sqrt(mesh.qp_w * np.sum(err2)))

