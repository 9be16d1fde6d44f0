"""Stationary points of the scaled strip functional.

The discrete functional on a strip mesh is

    Pi(y) = sum_qp w * W(F) - mu * f . y,   F = Id + B u_e,

with u the displacement from the rigid state, mu a load factor, h and B the
thickness and strain operator of the mesh, which is built for one h, and f
the assembled load vector, the gradient of the load work
sum_qp w * h^2 * g(x1) . y.  Zeroing f's clamped rows loses none of that
work: y1 = 0 on the clamp, and y2 = h x2 is odd in x2 while g depends on x1
only, so f . y is the quadrature sum.
Newton iteration with backtracking inside one adaptive load loop whose first
increment is the whole load, mu: 0 -> 1; a failed increment is halved and a
successful one doubled.  A trial is accepted on an Armijo decrease of the
residual sup norm or of Pi; Pi is computed only where the residual test
fails and for the returned iterate's report.  The loop starts from the rigid
state or from a given field, such as ``lift`` of the rod limit: the midline
with each cross-section rigidly rotated, the near-rigid state that
low-energy equilibria stay close to.  A determinant guard det F > DET_FLOOR
rejects steps entering the near-degenerate regime.  Newton stops one step
after its residual falls within the larger of a load-relative tolerance and
the assembly's roundoff floor, and gives up on a tangent step that is not a
descent direction.

The residual is B^T P and the tangent sum_q w B_q^T A_q B_q, each assembled
for all elements by one matrix product with an operator ``build_mesh`` made
once: P.reshape(nelem, 16) @ B.reshape(16, 8) for the residual and
A.reshape(nelem, 64) @ k_op for the element stiffnesses.  Vectors are summed
into nodes with ``np.bincount`` over the element dofs and the tangent's band
with one ``np.bincount`` over the band slots that ``build_mesh`` computed
once; couplings to clamped dofs fall into a discarded slot and the clamped
diagonal is set to 1; with the clamped residual rows zeroed, assembly alone
keeps every Newton step at exactly 0 on the clamped edge.  Summation
follows element order, and each element's product does not depend on how
BLAS splits the rows among threads, so residual and tangent are
bit-reproducible.  Each Newton step solves the band with
``algebra.newton_step``, LAPACK's banded LU.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .algebra import det2, newton_step
from .elastica import ElasticaSolution
from .energy import EnergyDensity
from .errors import NonConvergence, StepRejected
from .loads import LoadProfile
from .mesh import StripMesh

EPS = np.finfo(float).eps

ARMIJO_C = 1e-4
MAX_BACKTRACKS = 40      # Armijo halvings per Newton step
# Roundoff floor of the assembled residual, in units of eps * max|K| * max|y|:
# y carries eps * |y| of rounding, which the tangent K maps into the residual.
FLOOR_C = 2.0
NEWTON_TOL = 1e-6        # residual sup norm, relative to the load scale
MAX_ITERS = 25           # Newton iterations per load step
MIN_LOAD_STEP = 1e-4     # give up below this increment
DET_FLOOR = 0.1          # determinant guard on scaled gradients


@dataclass
class SolverReport:
    converged: bool
    iterations: int
    residual_sup: float
    elastic_energy: float
    total_energy: float
    path: list[tuple[float, int]] = field(default_factory=list)  # (load factor, iterations)
    message: str = ""


def _guard_dets(mesh: StripMesh, F: np.ndarray) -> None:
    d = det2(F)
    j = int(np.argmin(d))
    if not d[j] > DET_FLOOR:  # argmin picks a NaN, which fails every comparison
        raise StepRejected(
            f"determinant guard: det = {d[j]:.6g} <= {DET_FLOOR:g} "
            f"at quadrature point ({mesh.qp_x[j, 0]:.6g}, {mesh.qp_x[j, 1]:.6g})"
        )


def _assemble(mesh: StripMesh, ve: np.ndarray) -> np.ndarray:
    """Sum per-element dof values (nelem, 8) into nodes, clamped rows zeroed."""
    v = np.bincount(mesh.edofs.reshape(-1), weights=ve.reshape(-1), minlength=2 * mesh.nnode)
    v.reshape(-1, 2)[mesh.clamped_nodes()] = 0.0
    return v


def load_vector(mesh: StripMesh, gq: np.ndarray) -> np.ndarray:
    """Assembled load term of gq = g(mesh.qp_x[:, 0]) at unit load factor, clamped rows zeroed."""
    w = mesh.h * mesh.h * mesh.qp_w
    return _assemble(mesh, w * np.einsum("eqi,qa->eai", gq.reshape(mesh.nelem, 4, 2), mesh.shape_n))


def elastic_residual(mesh: StripMesh, W: EnergyDensity, F: np.ndarray) -> np.ndarray:
    """Gradient of the elastic part w.r.t. nodal positions, clamped rows zeroed.

    F holds the scaled gradients at the quadrature points.  Raises
    StepRejected when any of their determinants falls to DET_FLOOR or
    below; this is the solver's one determinant guard.
    """
    _guard_dets(mesh, F)
    P = W.stress(F).reshape(mesh.nelem, 16)
    return _assemble(mesh, mesh.qp_w * (P @ mesh.B.reshape(16, 8)))


def tangent(mesh: StripMesh, W: EnergyDensity, F: np.ndarray) -> np.ndarray:
    """Second derivative of the discrete functional, symmetric, band-stored.

    Returns the (2 bw + 1, ndof) band in LAPACK ``ab`` layout, with offsets
    bw..-bw and bw = ``mesh.k_bw``.  Rows and columns of clamped dofs are
    replaced by identity, so with the clamped residual rows zeroed the
    Newton step is exactly 0 there.  F holds the scaled gradients, already
    passed through ``elastic_residual``'s determinant guard.
    """
    ke = W.hessian(F).reshape(mesh.nelem, 64) @ mesh.k_op
    bw, ndof = mesh.k_bw, 2 * mesh.nnode
    size = (2 * bw + 1) * ndof
    data = np.bincount(mesh.k_slot, weights=ke.reshape(-1), minlength=size + 1)[:size]
    data[mesh.k_clamped] = 1.0
    return data.reshape(-1, ndof)


def scaled_energy(
    mesh: StripMesh,
    y: np.ndarray,
    f: np.ndarray,
    W: EnergyDensity,
    load_factor: float,
    F: np.ndarray,
) -> tuple[float, float]:
    """(elastic energy, total energy with the load work f . y) of positions y.

    f is the load vector that ``load_vector`` assembles, and F the scaled
    gradients of y.
    """
    elastic = float(mesh.qp_w * np.sum(W.energy(F)))
    return elastic, elastic - load_factor * float(f @ y.reshape(-1))


def _newton(
    mesh: StripMesh,
    y: np.ndarray,
    f: np.ndarray,
    W: EnergyDensity,
    load_factor: float,
) -> tuple[int, np.ndarray, float, float, float]:
    """Newton with Armijo backtracking at fixed load factor, from positions y.

    f is the load vector that ``load_vector`` assembles.
    The stopping bound is the larger of NEWTON_TOL times the load scale and
    the assembly's roundoff floor, FLOOR_C * eps * max|K| * max|y| with K
    the last tangent.
    A residual within the bound does not show how far the iterate still is
    from the solution (at h = 0.025 two iterates 5e-12 apart have the same
    floor-level residual), so the step taken from within the bound is the
    last: it cuts that distance quadratically.  MAX_ITERS caps the steps
    taken to reach the bound.  An exact zero residual takes no step.

    One local ``evaluate`` turns positions into F, the residual and its sup
    norm, at the start state and at every line-search trial.  A trial is
    accepted as soon as its residual sup norm falls by the Armijo factor;
    only when it does not are the (elastic, total) energies of the iterate
    and of the trial computed, once each, for the Armijo test on the total
    energy.  The returned iterate's pair is computed at the end if the loop
    never needed it, so a solve whose trials all pass the residual test
    computes one energy.  No step is masked: assembly makes it exactly 0 on
    clamped dofs.

    Writes no array it is given; returns (iterations, positions, residual
    sup norm, elastic energy, total energy) of the returned iterate, which
    is y itself if no step is taken.  Raises StepRejected (only at the
    start state, before any step) or NonConvergence, whose ``iterations``
    counts the steps taken.
    """
    tol = NEWTON_TOL * load_factor * float(np.max(np.abs(f)))
    floor = 0.0

    def evaluate(y):
        """(F, residual, its sup norm) at positions y."""
        F = mesh.scaled_gradients(y)
        r = elastic_residual(mesh, W, F) - load_factor * f
        return F, r, float(np.max(np.abs(r)))

    F, r, rsup = evaluate(y)
    en0 = None  # (elastic, total) energy of the iterate, once something reads it
    it = 0
    last = rsup == 0.0
    while not last:
        last = rsup <= max(tol, floor)
        if it >= MAX_ITERS and not last:
            raise NonConvergence("Newton iteration cap reached", rsup, it)
        K = tangent(mesh, W, F)  # F of the iterate, guarded with its residual
        floor = FLOOR_C * EPS * float(np.max(np.abs(K))) * float(np.max(np.abs(y)))
        try:
            delta = newton_step(K, r)
        except np.linalg.LinAlgError:
            raise NonConvergence("singular tangent", rsup, it) from None
        slope = float(r @ delta)
        if slope >= 0.0:
            raise NonConvergence("tangent step is not a descent direction", rsup, it)
        alpha = 1.0
        for _ in range(MAX_BACKTRACKS):
            y_new = y + alpha * delta.reshape(-1, 2)
            try:
                F_new, r_new, rsup_new = evaluate(y_new)
            except StepRejected:
                alpha *= 0.5
                continue
            # near the residual floor the energy difference drowns in
            # roundoff; accept on plain residual decrease as well, and
            # compute the energies only when that test fails
            en1 = None
            if rsup_new <= (1.0 - ARMIJO_C * alpha) * rsup:
                break
            if en0 is None:
                en0 = scaled_energy(mesh, y, f, W, load_factor, F)
            en1 = scaled_energy(mesh, y_new, f, W, load_factor, F_new)
            if en1[1] <= en0[1] + ARMIJO_C * alpha * slope:
                break
            alpha *= 0.5
        else:
            if last:
                break  # the step was a refinement of an iterate within the bound
            raise NonConvergence("line search failed", rsup, it)
        y, F, r, rsup, en0 = y_new, F_new, r_new, rsup_new, en1
        it += 1
    if en0 is None:
        en0 = scaled_energy(mesh, y, f, W, load_factor, F)
    return it, y, rsup, *en0


def solve_stationary(
    mesh: StripMesh,
    g: LoadProfile,
    W: EnergyDensity,
    start: np.ndarray | None = None,
) -> tuple[np.ndarray, SolverReport]:
    """Solve the clamped strip problem at the mesh's thickness h.

    One load loop from ``start``, a position array that is never mutated,
    or from the rigid state if it is None.  No Newton step moves a clamped
    dof, so a start of another shape than ``mesh.rigid``, or whose clamped
    nodes differ from ``mesh.rigid``'s, raises ValueError.  The first
    increment is the whole load; an increment on which Newton raises
    StepRejected or NonConvergence (a start that fails the determinant guard
    included) is halved, and the loop stalls once it falls below
    MIN_LOAD_STEP.  After each success the increment doubles.
    Increments are powers of two, so every load factor is exact and the path
    ends on 1.0.  Nothing is raised for a failed solve: the report's message
    says why the first step failed and where the loop stalled,
    ``iterations`` counts the Newton steps of rejected increments too, and
    ``residual_sup`` is NaN if no increment was accepted.  The reported
    energies are those Newton measured on the last accepted iterate, at its
    load factor; with none accepted they are taken at load factor 0.  The
    solve returns a new position array.
    """
    c = mesh.clamped_nodes()
    if start is not None and not (
        np.shape(start) == mesh.rigid.shape and np.array_equal(start[c], mesh.rigid[c])
    ):
        raise ValueError(f"start must be a {mesh.rigid.shape} array on the clamp (0, h x2)")
    f = load_vector(mesh, g(mesh.qp_x[:, 0]))

    what = "cold start" if start is None else "given start"
    y = mesh.rigid if start is None else start
    path: list[tuple[float, int]] = []
    message = ""
    mu, step, iterations, rsup = 0.0, 1.0, 0, float("nan")
    while mu < 1.0:
        s = min(step, 1.0 - mu)
        try:
            it, y_new, rsup, el, tot = _newton(mesh, y, f, W, mu + s)
        except (StepRejected, NonConvergence) as exc:
            iterations += getattr(exc, "iterations", 0)  # StepRejected takes no step
            if s == 1.0:  # only the first step spans the whole load
                message = f"{what} at full load failed: {exc}"
            step = 0.5 * s
            if step < MIN_LOAD_STEP:
                message += f"; continuation stalled at load factor {mu:.6g}: {exc}"
                break
            continue
        iterations += it
        y, mu = y_new, mu + s
        path.append((mu, it))
        step = 2.0 * s
    if not path:
        el, tot = scaled_energy(mesh, y, f, W, mu, mesh.scaled_gradients(y))
    return y.copy(), SolverReport(
        converged=mu == 1.0, iterations=iterations, residual_sup=rsup,
        elastic_energy=el, total_energy=tot, path=path, message=message,
    )


def lift(rod: ElasticaSolution, mesh: StripMesh) -> np.ndarray:
    """The rod's midline with each cross-section rotated by the rod angle.

    y(x1, x2) = ybar(x1) + h x2 (-sin theta(x1), cos theta(x1)) at every
    node, ybar and theta interpolated linearly from the rod grid.  Since
    ybar(0) = 0 and theta(0) = 0, the clamped edge gets (0, h x2) exactly.
    """
    x1 = mesh.nodes[:, 0]
    theta = rod.theta_at(x1)
    normal = np.stack([-np.sin(theta), np.cos(theta)], axis=-1)
    return rod.ybar_at(x1) + mesh.rigid[:, 1:] * normal
