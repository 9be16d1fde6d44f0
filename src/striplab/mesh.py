"""Bilinear quadrilateral mesh of the fixed strip (0, L) x (-1/2, 1/2).

The strip is meshed with a uniform nx-by-ny grid of rectangles, 2x2 Gauss
quadrature per element.  Node n = ix*(ny+1) + iy, so each x1-column is
contiguous, and node n carries the displacement dofs 2n and 2n+1.
A deformation is its (nnode, 2) array y of nodal positions.
``scaled_gradients`` takes y and differentiates the displacement
u = y - rigid, which makes the rigid state an exact fixed point in floating
point.

A mesh is built for one thickness h, and everything that depends only on
the grid and h is built once in ``build_mesh``: the element dof map, the
band slots of the stiffness matrix (element 0's 64 slots, translated to
every element by its dof shift), the strain operator B (the only place h
and the element enter), the (64, 64) element-stiffness operator k_op made
from B and the quadrature weight, the rigid state (x1, h*x2), and the slab
partition of (0, L) into floor(L/h) equal slabs with each quadrature
point's slab.  ``config.mesh_from`` checks the bounds these need.  With
these, gradients, residual and tangent of all elements are each one matrix
product.  The node numbering keeps every coupling within 2*ny + 5 dofs of
the diagonal, so the stiffness is stored as a band.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

_GP = 1.0 / np.sqrt(3.0)
# reference corner coordinates, counterclockwise from (-1, -1)
_XI = np.array([-1.0, 1.0, 1.0, -1.0])
_ETA = np.array([-1.0, -1.0, 1.0, 1.0])


@dataclass(eq=False)
class StripMesh:
    L: float
    h: float
    nx: int
    ny: int
    x1: np.ndarray = field(repr=False)
    x2: np.ndarray = field(repr=False)
    nodes: np.ndarray = field(repr=False)        # (nnode, 2)
    conn: np.ndarray = field(repr=False)         # (nelem, 4) corner node ids
    edofs: np.ndarray = field(repr=False)        # (nelem, 8) dofs 2*conn + (0, 1)
    shape_n: np.ndarray = field(repr=False)      # (4 qp, 4 a)
    B: np.ndarray = field(repr=False)            # (4 qp, 4, 8) strain operator
    k_op: np.ndarray = field(repr=False)         # (64, 64) element stiffness operator
    rigid: np.ndarray = field(repr=False)        # (nnode, 2) rigid state (x1, h x2)
    qp_x: np.ndarray = field(repr=False)         # (nqp, 2)
    qp_col: np.ndarray = field(repr=False)       # (nqp,) quadrature column id
    col_x: np.ndarray = field(repr=False)        # (2 nx,) column positions
    nslab: int                                   # slab count floor(L/h)
    qp_slab: np.ndarray = field(repr=False)      # (nqp,) quadrature point's slab
    # stiffness band: half-bandwidth, the flat slot in the (2 k_bw + 1, ndof)
    # band array of each entry of each element matrix (its size for
    # couplings to clamped dofs, which are discarded), and the slots of the
    # clamped diagonal
    k_bw: int
    k_slot: np.ndarray = field(repr=False)       # (nelem * 64,) int32
    k_clamped: np.ndarray = field(repr=False)    # (2 (ny+1),) int32

    @property
    def dx(self) -> float:
        return self.L / self.nx

    @property
    def dy(self) -> float:
        return 1.0 / self.ny

    @property
    def nnode(self) -> int:
        return (self.nx + 1) * (self.ny + 1)

    @property
    def nelem(self) -> int:
        return self.nx * self.ny

    @property
    def nqp(self) -> int:
        return 4 * self.nelem

    @property
    def qp_w(self) -> float:
        """Quadrature weight per point (all equal on a uniform rectangle mesh)."""
        return 0.25 * self.dx * self.dy

    @property
    def ncol(self) -> int:
        return 2 * self.nx

    @property
    def col_w(self) -> float:
        """x1-quadrature weight per column (two Gauss abscissae per element)."""
        return 0.5 * self.dx

    def clamped_nodes(self) -> np.ndarray:
        """Node ids on the clamped edge x1 = 0."""
        return np.arange(self.ny + 1)

    def qp_values(self, nodal: np.ndarray) -> np.ndarray:
        """Interpolate a nodal field to quadrature points, flat (nqp, ...)."""
        elem = np.asarray(nodal)[self.conn]
        out = np.moveaxis(np.tensordot(elem, self.shape_n, axes=(1, 1)), -1, 1)
        return out.reshape((self.nqp,) + elem.shape[2:])

    def scaled_gradients(self, y: np.ndarray) -> np.ndarray:
        """F = Id + (d1 u, d2 u / h) at quadrature points, shape (nqp, 2, 2).

        y holds nodal positions and u = y - rigid is the displacement, so
        the rigid state returns the identity exactly.
        """
        ue = (np.asarray(y, dtype=float) - self.rigid).reshape(-1)[self.edofs]
        D = (ue @ self.B.reshape(16, 8).T).reshape(self.nqp, 2, 2)
        D[:, 0, 0] += 1.0
        D[:, 1, 1] += 1.0
        return D


def build_mesh(L: float, h: float, nx: int, ny: int) -> StripMesh:
    """The mesh at thickness h; L > 0, 0 < h <= min(0.5, L/2), nx >= 4, ny >= 2."""
    nx, ny = int(nx), int(ny)
    x1 = np.linspace(0.0, L, nx + 1)
    x2 = np.linspace(-0.5, 0.5, ny + 1)
    nodes = np.empty(((nx + 1) * (ny + 1), 2))
    nodes[:, 0] = np.repeat(x1, ny + 1)
    nodes[:, 1] = np.tile(x2, nx + 1)

    ex = np.repeat(np.arange(nx), ny)
    ey = np.tile(np.arange(ny), nx)
    n00 = ex * (ny + 1) + ey
    conn = np.stack([n00, n00 + (ny + 1), n00 + (ny + 2), n00 + 1], axis=1)
    edofs = (2 * conn[:, :, None] + np.arange(2)).reshape(-1, 8)

    dx = L / nx
    dy = 1.0 / ny
    # quadrature order: q = 2*ixi + ieta with abscissae (-g, +g)
    qxi = np.array([-_GP, -_GP, _GP, _GP])
    qeta = np.array([-_GP, _GP, -_GP, _GP])
    shape_n = 0.25 * (1.0 + np.outer(qxi, _XI)) * (1.0 + np.outer(qeta, _ETA))
    grad_n = np.empty((4, 4, 2))
    grad_n[:, :, 0] = 0.25 * _XI[None, :] * (1.0 + np.outer(qeta, _ETA)) * (2.0 / dx)
    grad_n[:, :, 1] = 0.25 * _ETA[None, :] * (1.0 + np.outer(qxi, _XI)) * (2.0 / dy)
    # B[q, 2i+k, 2a+j] = delta_ij d_k N_a(q), with d_2 carrying 1/h, so
    # F = Id + B u_e on each element
    B = np.einsum("qak,ij->qikaj", grad_n / np.array([1.0, h]), np.eye(2)).reshape(4, 4, 8)
    # k_op[(q, g, m), (d, f)] = w B[q, g, d] B[q, m, f] with w the quadrature
    # weight, so the element stiffness sum_q w B_q^T A_q B_q of a Hessian A
    # at the points is A.reshape(nelem, 64) @ k_op
    k_op = (0.25 * dx * dy) * np.einsum("qgd,qmf->qgmdf", B, B).reshape(64, 64)
    rigid = np.array(nodes, copy=True)
    rigid[:, 1] *= h

    xe = x1[ex]
    ye = x2[ey]
    qp_x = np.empty((nx * ny, 4, 2))
    qp_x[:, :, 0] = xe[:, None] + 0.5 * dx * (1.0 + qxi)[None, :]
    qp_x[:, :, 1] = ye[:, None] + 0.5 * dy * (1.0 + qeta)[None, :]
    qp_x = qp_x.reshape(-1, 2)

    ixi = np.array([0, 0, 1, 1])
    qp_col = (2 * ex[:, None] + ixi[None, :]).reshape(-1)
    col_x = np.empty(2 * nx)
    col_x[0::2] = x1[:-1] + 0.5 * dx * (1.0 - _GP)
    col_x[1::2] = x1[:-1] + 0.5 * dx * (1.0 + _GP)
    # the floor(L/h) equal slabs have width in [h, 2h) whenever h <= L/2
    nslab = int(np.floor(L / h))
    qp_slab = np.clip((qp_x[:, 0] * (nslab / L)).astype(int), 0, nslab - 1)

    k_bw = 2 * ny + 5
    k_slot, k_clamped = _stiffness_pattern(nx, ny, k_bw, edofs)
    for a in (B, k_op, rigid, qp_slab):
        a.flags.writeable = False  # shared by every field on the mesh
    return StripMesh(
        L=float(L), h=float(h), nx=nx, ny=ny, x1=x1, x2=x2, nodes=nodes, conn=conn,
        edofs=edofs, shape_n=shape_n, B=B, k_op=k_op, rigid=rigid, qp_x=qp_x,
        qp_col=qp_col, col_x=col_x, nslab=nslab, qp_slab=qp_slab, k_bw=k_bw,
        k_slot=k_slot, k_clamped=k_clamped,
    )


def _stiffness_pattern(nx: int, ny: int, bw: int, edofs: np.ndarray):
    """Band slots of the stiffness with the clamped dofs decoupled.

    Entry (r, c) lives at row bw + r - c, column c of a (2 bw + 1, ndof)
    array: scipy's DIA layout with offsets bw..-bw and LAPACK's banded
    ``ab`` layout alike.  Element e's dofs are element 0's shifted by
    edofs[e, 0] - edofs[0, 0], and so are its 64 slots, since r - c stays
    put: element 0's slots are built once and translated.  Element
    couplings to a clamped dof go to the one slot past the end; only the
    first ny elements, the clamped column, have such couplings, all at
    element 0's local positions.  A clamped dof keeps only its diagonal.
    """
    ndof = 2 * (nx + 1) * (ny + 1)
    size = (2 * bw + 1) * ndof
    d0 = edofs[0].astype(np.int32)
    slot0 = (bw + d0[:, None] - d0[None, :]) * ndof + d0[None, :]
    shift = (edofs[:, 0] - edofs[0, 0]).astype(np.int32)
    slot = slot0.reshape(1, 64) + shift[:, None]
    free = d0 >= 2 * (ny + 1)  # the clamped nodes come first
    slot[:ny, ~(free[:, None] & free[None, :]).reshape(-1)] = size
    clamped = np.arange(2 * (ny + 1), dtype=np.int32)
    pattern = (slot.reshape(-1), bw * ndof + clamped)
    for a in pattern:
        a.flags.writeable = False  # shared by every tangent matrix of the mesh
    return pattern


def mesh_rule_nx(L: float, h: float) -> int:
    """Default x1 resolution: at least 64 elements and at least 4 per width h."""
    return max(64, int(np.ceil(4.0 * L / h)))
