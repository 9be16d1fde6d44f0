"""Diagnostics that connect a strip solution to its one-dimensional limit.

From a deformation y at thickness h the module builds:

* per-slab rotations: polar factors of slab averages of the scaled gradient,
  on a partition of (0, L) into slabs of width in [h, 2h);
* a mollified rotation profile R(x1): the slab rotations convolved with a
  quintic bump of width h (entrywise), projected back onto SO(2), with the
  angle unwrapped along x1;
* the scaled strain G = (R^T F - Id)/h and scaled stress E = DW(Id + hG)/h
  at quadrature points, plus their zeroth and first moments in x2;
* residuals r1..r5 of the identities that the limit theory predicts to hold
  or to vanish with h, and a convergence table against the rod solution.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import dist_so2, polar_angle, rot2
from .elastica import ElasticaSolution, gtilde
from .energy import EnergyDensity
from .errors import ConfigError, DiagnosticError, DomainError
from .loads import LoadProfile
from .mesh import DeformationField
from .solver import scaled_energy

EPS_DIV = 1e-30


def _bump_cdf(t: np.ndarray) -> np.ndarray:
    """Antiderivative of the quintic bump 30 s^2 (1-s)^2 on (0, 1), clipped."""
    t = np.clip(t, 0.0, 1.0)
    return t**3 * (10.0 - 15.0 * t + 6.0 * t * t)


@dataclass(eq=False)
class RotationProfile:
    """Slab rotations and their mollification for one strip solution."""

    h: float
    L: float
    edges: np.ndarray        # (k+1,) slab boundaries
    slab_angle: np.ndarray   # (k,) unwrapped polar angles of slab means
    node_x: np.ndarray | None = None
    node_theta: np.ndarray | None = None

    @property
    def nslabs(self) -> int:
        return self.slab_angle.size

    @property
    def width(self) -> float:
        return float(self.edges[1] - self.edges[0])

    def piecewise_angle(self, xs) -> np.ndarray:
        xs = np.asarray(xs, dtype=float)
        idx = np.clip(
            np.searchsorted(self.edges, xs, side="right") - 1, 0, self.nslabs - 1
        )
        return self.slab_angle[idx]

    def _weights(self, xs: np.ndarray) -> np.ndarray:
        """Mollifier mass each slab contributes at the points xs, (len, k).

        The slab profile is extended constantly beyond [0, L], which amounts
        to treating the outermost slab boundaries as infinite.
        """
        lo = self.edges[:-1].copy()
        hi = self.edges[1:].copy()
        lo[0] = -np.inf
        hi[-1] = np.inf
        a = _bump_cdf((xs[:, None] - lo[None, :]) / self.h)
        b = _bump_cdf((xs[:, None] - hi[None, :]) / self.h)
        return a - b

    def smoothed_matrix_at(self, xs) -> np.ndarray:
        """Entrywise mollified rotation matrices, before projection."""
        xs = np.atleast_1d(np.asarray(xs, dtype=float))
        w = self._weights(xs)
        return np.einsum("xk,kij->xij", w, rot2(self.slab_angle))

    def angle_at(self, xs) -> np.ndarray:
        """Projected, unwrapped angle of the mollified profile at sorted xs."""
        xs = np.atleast_1d(np.asarray(xs, dtype=float))
        if xs.size > 1 and np.any(np.diff(xs) < 0):
            raise DiagnosticError("rotation profile must be sampled at sorted x1")
        M = self.smoothed_matrix_at(xs)
        try:
            ang = polar_angle(M)
        except DomainError as exc:
            raise DiagnosticError(f"mollified rotation degenerate: {exc}") from exc
        return np.unwrap(ang)

    def matrix_at(self, xs) -> np.ndarray:
        return rot2(self.angle_at(xs))

    def theta_prime_at(self, xs) -> np.ndarray:
        xs = np.atleast_1d(np.asarray(xs, dtype=float))
        return np.gradient(self.angle_at(xs), xs, edge_order=2)


def slab_rotations(fld: DeformationField) -> RotationProfile:
    """Polar factors of slab averages of the scaled deformation gradient.

    The strip (0, L) splits into k = floor(L/h) slabs of equal width, which
    lies in [h, 2h) whenever h <= L/2.
    """
    mesh = fld.mesh
    h, L = fld.h, mesh.L
    k = int(np.floor(L / h))
    if k < 2:
        raise ConfigError(f"need h <= L/2 for slab rotations, got h={h!r}, L={L!r}")
    edges = np.linspace(0.0, L, k + 1)
    F = fld.gradients()
    idx = np.clip((mesh.qp_x[:, 0] * (k / L)).astype(int), 0, k - 1)
    sums = np.zeros((k, 2, 2))
    np.add.at(sums, idx, F)
    counts = np.bincount(idx, minlength=k).astype(float)
    if np.any(counts == 0):
        raise DiagnosticError("a slab contains no quadrature points; refine the mesh")
    means = sums / counts[:, None, None]
    try:
        ang = polar_angle(means)
    except DomainError as exc:
        raise DiagnosticError(f"slab average is degenerate: {exc}") from exc
    return RotationProfile(h=h, L=L, edges=edges, slab_angle=np.unwrap(ang))


def smooth_rotations(profile: RotationProfile, fld: DeformationField) -> RotationProfile:
    """Fill the per-node mollified angle for the solution's mesh."""
    xs = fld.mesh.x1
    profile.node_x = xs.copy()
    profile.node_theta = profile.angle_at(xs)
    return profile


@dataclass(eq=False)
class TensorField:
    """A 2x2-valued field sampled at the quadrature points of a strip mesh."""

    mesh: object
    h: float
    values: np.ndarray  # (nqp, 2, 2)
    name: str = ""

    def bar(self) -> np.ndarray:
        """Zeroth x2-moment per quadrature column, (ncol, 2, 2)."""
        out = np.zeros((self.mesh.ncol, 2, 2))
        np.add.at(out, self.mesh.qp_col, 0.5 * self.mesh.dy * self.values)
        return out

    def hat(self) -> np.ndarray:
        """First x2-moment per quadrature column, (ncol, 2, 2)."""
        out = np.zeros((self.mesh.ncol, 2, 2))
        weighted = (0.5 * self.mesh.dy * self.mesh.qp_x[:, 1])[:, None, None] * self.values
        np.add.at(out, self.mesh.qp_col, weighted)
        return out


def strain_field(fld: DeformationField, profile: RotationProfile) -> TensorField:
    """Scaled strain G = (R(x1)^T F - Id)/h at quadrature points."""
    mesh = fld.mesh
    F = fld.gradients()
    col_angle = profile.angle_at(mesh.col_x)
    R = rot2(col_angle[mesh.qp_col])
    G = np.einsum("qji,qjk->qik", R, F)
    G[:, 0, 0] -= 1.0
    G[:, 1, 1] -= 1.0
    G /= fld.h
    return TensorField(mesh=mesh, h=fld.h, values=G, name="scaled strain")


def stress_field(G: TensorField, W: EnergyDensity) -> TensorField:
    """Scaled stress E = DW(Id + hG)/h."""
    h = G.h
    Fh = np.eye(2) + h * G.values
    try:
        E = W.stress(Fh) / h
    except DomainError as exc:
        raise DiagnosticError(f"scaled stress undefined: {exc}") from exc
    return TensorField(mesh=G.mesh, h=h, values=E, name="scaled stress")


@dataclass(eq=False)
class ZField:
    """Normalized correction z = y/h - (1/h) int_0^x1 R e1 - x2 R e2 at nodes."""

    mesh: object
    h: float
    z: np.ndarray       # (nnode, 2)
    bc_gap: float       # sup |z(0, x2)|, expected O(sqrt(h))


def z_field(fld: DeformationField, profile: RotationProfile) -> ZField:
    mesh = fld.mesh
    h = fld.h
    ang = profile.angle_at(mesh.x1)
    e1 = np.stack([np.cos(ang), np.sin(ang)], axis=-1)
    e2 = np.stack([-np.sin(ang), np.cos(ang)], axis=-1)
    seg = 0.5 * np.diff(mesh.x1)[:, None] * (e1[:-1] + e1[1:])
    integral = np.vstack([np.zeros((1, 2)), np.cumsum(seg, axis=0)])
    ygrid = fld.y.reshape(mesh.nx + 1, mesh.ny + 1, 2)
    z = (
        ygrid / h
        - integral[:, None, :] / h
        - mesh.x2[None, :, None] * e2[:, None, :]
    )
    bc_gap = float(np.max(np.linalg.norm(z[0], axis=-1)))
    return ZField(mesh=mesh, h=h, z=z.reshape(-1, 2), bc_gap=bc_gap)


def z_identity_error(
    fld: DeformationField, profile: RotationProfile, G: TensorField
) -> float:
    """Relative L2 mismatch of the scaled z-gradient against R (G + x2 th' e11).

    Both sides are discrete: the left uses the finite-element gradient of the
    nodal z, the right the quadrature-point strain; the gap shrinks at the
    interpolation order of the mesh.
    """
    mesh = fld.mesh
    zf = z_field(fld, profile)
    Dz = mesh.scaled_gradients(zf.z, fld.h)
    Dz[:, 0, 0] -= 1.0
    Dz[:, 1, 1] -= 1.0
    col_angle = profile.angle_at(mesh.col_x)
    col_thp = profile.theta_prime_at(mesh.col_x)
    R = rot2(col_angle[mesh.qp_col])
    rhs = np.array(G.values, copy=True)
    rhs[:, 0, 0] += mesh.qp_x[:, 1] * col_thp[mesh.qp_col]
    rhs = np.einsum("qij,qjk->qik", R, rhs)
    num = np.sqrt(mesh.qp_w * np.sum((Dz - rhs) ** 2))
    den = np.sqrt(mesh.qp_w * np.sum(rhs**2))
    return float(num / max(den, EPS_DIV))


@dataclass
class IdentityRow:
    """Residuals of the limit identities for one thickness."""

    h: float
    r1: float  # first strain moment against -theta'/12, relative
    r2: float  # stress moment balance against the tilted load
    r3: float  # free-end first stress moment
    r4: float  # skew part of the scaled stress, L1 over h
    r5: float  # rigidity ratio: |F - R|^2 over dist^2(F, SO(2))

    def as_tuple(self) -> tuple[float, ...]:
        return (self.h, self.r1, self.r2, self.r3, self.r4, self.r5)


def identity_report(
    fld: DeformationField,
    profile: RotationProfile,
    G: TensorField,
    E: TensorField,
    g: LoadProfile,
) -> IdentityRow:
    mesh = fld.mesh
    h = fld.h
    cols = mesh.col_x
    theta = profile.angle_at(cols)
    thp = profile.theta_prime_at(cols)
    cw = mesh.col_w

    def col_l2(v: np.ndarray) -> float:
        return float(np.sqrt(cw * np.sum(v * v)))

    Ghat = G.hat()
    num = col_l2(Ghat[:, 0, 0] + thp / 12.0)
    r1 = num / (col_l2(thp) + EPS_DIV)

    gt = gtilde(g, mesh.L, xs=np.append(cols, mesh.L))(cols)
    R = rot2(theta)
    Ebar = E.bar()
    mism = Ebar[:, :, 0] + h * np.einsum("cji,cj->ci", R, gt)
    r2 = float(np.sqrt(cw * np.sum(mism**2)))

    Ehat11 = E.hat()[:, 0, 0]
    slope = (Ehat11[-1] - Ehat11[-2]) / (cols[-1] - cols[-2])
    r3 = float(abs(Ehat11[-1] + slope * (mesh.L - cols[-1])))

    r4 = float(mesh.qp_w * np.sum(np.abs(E.values[:, 0, 1] - E.values[:, 1, 0])) / h)

    F = fld.gradients()
    Rq = rot2(theta[mesh.qp_col])
    num5 = float(mesh.qp_w * np.sum((F - Rq) ** 2))
    den5 = float(mesh.qp_w * np.sum(dist_so2(F) ** 2))
    if num5 == 0.0 and den5 == 0.0:
        r5 = 1.0
    else:
        r5 = num5 / (den5 + EPS_DIV)
    return IdentityRow(h=h, r1=r1, r2=r2, r3=float(r3), r4=r4, r5=r5)


def rotation_vs_slab_gap(profile: RotationProfile, samples_per_slab: int = 16) -> float:
    """L2(0, L) distance between the mollified and the piecewise profiles."""
    xs = np.linspace(0.0, profile.L, samples_per_slab * profile.nslabs + 1)
    a = profile.angle_at(xs)
    b = profile.piecewise_angle(xs)
    gap2 = np.sum((rot2(a) - rot2(b)) ** 2, axis=(-2, -1))
    return float(np.sqrt(np.trapezoid(gap2, xs)))


def mean_gap_bound(values: np.ndarray, xs: np.ndarray) -> tuple[float, float]:
    """Evaluate sup |f - mean f|^2 and its product bound 2 ||f|| ||f'||.

    Norms are taken for the piecewise-linear interpolant (trapezoid for f,
    exact midpoint sums for f'), under which the inequality is exact.
    """
    values = np.asarray(values, dtype=float)
    xs = np.asarray(xs, dtype=float)
    L = xs[-1] - xs[0]
    mean = np.trapezoid(values, xs) / L
    lhs = float(np.max(np.abs(values - mean)) ** 2)
    nf = float(np.sqrt(np.trapezoid(values**2, xs)))
    slopes = np.diff(values) / np.diff(xs)
    nfp = float(np.sqrt(np.sum(np.diff(xs) * slopes**2)))
    return lhs, 2.0 * nf * nfp


@dataclass(eq=False)
class ConvergenceTable:
    """Per-thickness errors against the rod limit plus identity residuals."""

    h: np.ndarray
    theta_err: np.ndarray
    y_err: np.ndarray
    energy_over_h2: np.ndarray
    residuals: list[IdentityRow]

    def rows(self):
        for i in range(self.h.size):
            yield (
                float(self.h[i]),
                float(self.theta_err[i]),
                float(self.y_err[i]),
                float(self.energy_over_h2[i]),
            )


def diagnose(
    fld: DeformationField, g: LoadProfile, W: EnergyDensity
) -> tuple[RotationProfile, TensorField, TensorField, IdentityRow]:
    """Full diagnostic pipeline for one solution."""
    prof = smooth_rotations(slab_rotations(fld), fld)
    G = strain_field(fld, prof)
    E = stress_field(G, W)
    row = identity_report(fld, prof, G, E, g)
    return prof, G, E, row


def theta_error(fld: DeformationField, prof: RotationProfile, limit: ElasticaSolution) -> float:
    """L2(0, L) gap between the mollified angle and the rod angle."""
    xs = fld.mesh.x1
    diff = prof.angle_at(xs) - limit.theta_at(xs)
    return float(np.sqrt(np.trapezoid(diff**2, xs)))


def y_error(fld: DeformationField, limit: ElasticaSolution) -> float:
    """W^{1,2}(strip) distance between y and the midline (extended in x2).

    Gradient part: d1 y against the rod tangent, d2 y against zero (the
    unscaled transverse derivative of the limit vanishes).
    """
    mesh = fld.mesh
    xq = mesh.qp_x[:, 0]
    yq = mesh.qp_values(fld.y)
    F = fld.gradients()
    th = limit.theta_at(xq)
    tang = np.stack([np.cos(th), np.sin(th)], axis=-1)
    err2 = np.sum((yq - limit.ybar_at(xq)) ** 2, axis=-1)
    err2 += np.sum((F[:, :, 0] - tang) ** 2, axis=-1)
    err2 += fld.h**2 * np.sum(F[:, :, 1] ** 2, axis=-1)
    return float(np.sqrt(mesh.qp_w * np.sum(err2)))


def convergence_study(
    fields: list[DeformationField],
    limit: ElasticaSolution,
    g: LoadProfile,
    W: EnergyDensity,
) -> ConvergenceTable:
    if not fields:
        raise ConfigError("convergence study needs at least one solution")
    for fld in fields:
        if abs(fld.mesh.L - limit.L) > 1e-12 * max(1.0, limit.L):
            raise ConfigError(
                f"strip length {fld.mesh.L!r} does not match rod length {limit.L!r}"
            )
    hs, terr, yerr, esc, rows = [], [], [], [], []
    for fld in fields:
        prof, G, E, row = diagnose(fld, g, W)
        elastic, _ = scaled_energy(fld, g, W)
        hs.append(fld.h)
        terr.append(theta_error(fld, prof, limit))
        yerr.append(y_error(fld, limit))
        esc.append(elastic / fld.h**2)
        rows.append(row)
    return ConvergenceTable(
        h=np.array(hs),
        theta_err=np.array(terr),
        y_err=np.array(yerr),
        energy_over_h2=np.array(esc),
        residuals=rows,
    )
