"""Bilinear quadrilateral mesh of the fixed strip (0, L) x (-1/2, 1/2).

The strip is meshed with a uniform nx-by-ny grid of rectangles, 2x2 Gauss
quadrature per element.  Node n = ix*(ny+1) + iy, so each x1-column is
contiguous, and node n carries the displacement dofs 2n and 2n+1.
Deformations store the full nodal positions but all gradient evaluations go
through the displacement u = y - rigid, which makes the rigid state an exact
fixed point in floating point.

Everything that depends only on the grid is built once in ``build_mesh``:
the element dof map and the band slots of the stiffness matrix.  The node
numbering keeps every coupling within 2*ny + 5 dofs of the diagonal, so the
stiffness is stored as a band.  The thickness h enters only through the
strain operator.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError

_GP = 1.0 / np.sqrt(3.0)
# reference corner coordinates, counterclockwise from (-1, -1)
_XI = np.array([-1.0, 1.0, 1.0, -1.0])
_ETA = np.array([-1.0, -1.0, 1.0, 1.0])


@dataclass(eq=False)
class StripMesh:
    L: float
    nx: int
    ny: int
    x1: np.ndarray = field(repr=False)
    x2: np.ndarray = field(repr=False)
    nodes: np.ndarray = field(repr=False)        # (nnode, 2)
    conn: np.ndarray = field(repr=False)         # (nelem, 4) corner node ids
    edofs: np.ndarray = field(repr=False)        # (nelem, 8) dofs 2*conn + (0, 1)
    shape_n: np.ndarray = field(repr=False)      # (4 qp, 4 a)
    dshape: np.ndarray = field(repr=False)       # (4 qp, 4 a, 2) d/dx1, d/dx2
    qp_x: np.ndarray = field(repr=False)         # (nqp, 2)
    qp_col: np.ndarray = field(repr=False)       # (nqp,) quadrature column id
    col_x: np.ndarray = field(repr=False)        # (2 nx,) column positions
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

    def free_dofs(self) -> np.ndarray:
        """Boolean mask over the 2*nnode displacement dofs."""
        free = np.ones((self.nnode, 2), dtype=bool)
        free[self.clamped_nodes()] = False
        return free.reshape(-1)

    def qp_values(self, nodal: np.ndarray) -> np.ndarray:
        """Interpolate a nodal field to quadrature points, flat (nqp, ...)."""
        elem = np.asarray(nodal)[self.conn]
        out = np.einsum("qa,ea...->eq...", self.shape_n, elem)
        return out.reshape((self.nqp,) + elem.shape[2:])

    def strain_operator(self, h: float) -> np.ndarray:
        """Scaled gradient of the element shape functions, (4 qp, 4, 8).

        B[q, 2i+k, 2a+j] = delta_ij d_k N_a(q), with d_2 carrying 1/h, so
        F = Id + B u_e on each element.  The only place h scales d_2.
        """
        d = self.dshape / np.array([1.0, h])
        return np.einsum("qak,ij->qikaj", d, np.eye(2)).reshape(4, 4, 8)

    def scaled_gradients(self, u: np.ndarray, h: float) -> np.ndarray:
        """F = Id + (d1 u, d2 u / h) at quadrature points, shape (nqp, 2, 2).

        u is the displacement from the rigid state, so u = 0 returns the
        identity exactly.
        """
        ue = np.asarray(u, dtype=float).reshape(-1)[self.edofs]
        D = np.einsum("qgd,ed->eqg", self.strain_operator(h), ue)
        D = D.reshape(self.nqp, 2, 2)
        D[:, 0, 0] += 1.0
        D[:, 1, 1] += 1.0
        return D

    def interpolate(self, nodal: np.ndarray, pts: np.ndarray) -> np.ndarray:
        """Bilinear interpolation of a nodal field at arbitrary strip points."""
        pts = np.asarray(pts, dtype=float)
        vals = np.asarray(nodal)
        fx = np.clip(pts[..., 0] / self.dx, 0.0, self.nx - 1e-12)
        fy = np.clip((pts[..., 1] + 0.5) / self.dy, 0.0, self.ny - 1e-12)
        ix = np.minimum(fx.astype(int), self.nx - 1)
        iy = np.minimum(fy.astype(int), self.ny - 1)
        sx = fx - ix
        sy = fy - iy
        nyy = self.ny + 1
        n00 = ix * nyy + iy
        v = (
            vals[n00] * ((1 - sx) * (1 - sy))[..., None]
            + vals[n00 + nyy] * (sx * (1 - sy))[..., None]
            + vals[n00 + nyy + 1] * (sx * sy)[..., None]
            + vals[n00 + 1] * ((1 - sx) * sy)[..., None]
        )
        return v


def build_mesh(L: float, nx: int, ny: int) -> StripMesh:
    if not (L > 0.0):
        raise ConfigError(f"strip.L must be positive, got {L!r}")
    if nx < 4 or ny < 2:
        raise ConfigError(f"mesh needs nx >= 4 and ny >= 2, got nx={nx}, ny={ny}")
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
    dshape = np.empty((4, 4, 2))
    dshape[:, :, 0] = 0.25 * _XI[None, :] * (1.0 + np.outer(qeta, _ETA)) * (2.0 / dx)
    dshape[:, :, 1] = 0.25 * _ETA[None, :] * (1.0 + np.outer(qxi, _XI)) * (2.0 / dy)

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

    k_bw = 2 * ny + 5
    k_slot, k_clamped = _stiffness_pattern(nx, ny, k_bw, edofs)
    return StripMesh(
        L=float(L), nx=nx, ny=ny, x1=x1, x2=x2, nodes=nodes, conn=conn,
        edofs=edofs, shape_n=shape_n, dshape=dshape, qp_x=qp_x, qp_col=qp_col,
        col_x=col_x, k_bw=k_bw, k_slot=k_slot, k_clamped=k_clamped,
    )


def _stiffness_pattern(nx: int, ny: int, bw: int, edofs: np.ndarray):
    """Band slots of the stiffness with the clamped dofs decoupled.

    Entry (r, c) lives at row bw + r - c, column c of a (2 bw + 1, ndof)
    array: scipy's DIA layout with offsets bw..-bw and LAPACK's banded
    ``ab`` layout alike.  Element couplings to a clamped dof go to the one
    slot past the end; a clamped dof keeps only its diagonal.
    """
    ndof = 2 * (nx + 1) * (ny + 1)
    size = (2 * bw + 1) * ndof
    r = edofs[:, :, None]
    c = edofs[:, None, :]
    slot = (bw + r - c) * ndof + c
    free = edofs >= 2 * (ny + 1)  # the clamped nodes come first
    slot = np.where(free[:, :, None] & free[:, None, :], slot, size)
    clamped = np.arange(2 * (ny + 1))
    pattern = (slot.reshape(-1).astype(np.int32), (bw * ndof + clamped).astype(np.int32))
    for a in pattern:
        a.flags.writeable = False  # shared by every tangent matrix of the mesh
    return pattern


def mesh_rule_nx(L: float, h: float) -> int:
    """Default x1 resolution: at least 64 elements and at least 4 per width h."""
    return max(64, int(np.ceil(4.0 * L / h)))


@dataclass(eq=False)
class DeformationField:
    """Nodal deformation y of the strip at thickness h.

    The clamped edge carries y(0, x2) = (0, h*x2); ``displacement`` is the
    offset from the rigid state (x1, h*x2).
    """

    mesh: StripMesh
    h: float
    y: np.ndarray  # (nnode, 2)

    def rigid(self) -> np.ndarray:
        out = np.array(self.mesh.nodes, copy=True)
        out[:, 1] *= self.h
        return out

    def displacement(self) -> np.ndarray:
        return self.y - self.rigid()

    def gradients(self) -> np.ndarray:
        """Scaled deformation gradients at quadrature points, (nqp, 2, 2)."""
        return self.mesh.scaled_gradients(self.displacement(), self.h)


def rigid_state(mesh: StripMesh, h: float) -> DeformationField:
    fld = DeformationField(mesh=mesh, h=float(h), y=np.empty((mesh.nnode, 2)))
    fld.y[:] = fld.rigid()
    return fld
