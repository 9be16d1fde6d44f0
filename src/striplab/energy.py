"""Stored-energy densities for planar deformations and their linearization.

Two built-in models:

* ``HalfDistSquared``: half the squared Frobenius distance to SO(2).  The
  canonical density; its linearization at the identity is the symmetrizer and
  its effective stretching modulus is exactly 1.
* ``IsotropicQuadratic``: a quadratic in the Green strain with Lame-type
  parameters ``mu`` and ``lam``.  Exercises a nontrivial modulus
  4*mu*(mu+lam)/(2*mu+lam).  Vanishes on reflections, so its quadratic lower
  bound in the distance to SO(2) fails off the orientation-preserving branch;
  this is documented by ``coercive_globally = False``.

Densities expose value, first derivative (``stress``) and second derivative
(``hessian``) at arbitrary F, vectorized over leading axes, each in closed
form; a subclass of ``EnergyDensity`` must implement all three.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import (
    ID2,
    det2,
    dist_so2,
    frob,
    polar_angle,
    trace2,
    trans2,
)
from .errors import ConfigError, DomainError

# orthonormal basis of 2x2 matrices: two diagonal directions, the normalized
# symmetric off-diagonal direction, the normalized skew direction
_S = 1.0 / np.sqrt(2.0)
BASIS = np.array(
    [
        [[1.0, 0.0], [0.0, 0.0]],
        [[0.0, 0.0], [0.0, 1.0]],
        [[0.0, _S], [_S, 0.0]],
        [[0.0, _S], [-_S, 0.0]],
    ]
)


class EnergyDensity:
    """Base class: frame-indifferent stored energy W(F) on 2x2 matrices."""

    kind = "custom"
    # whether W >= c * dist(F, SO(2))^2 is expected to hold for all F,
    # not just on the orientation-preserving branch
    coercive_globally = True

    def energy(self, F: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def stress(self, F: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def hessian(self, F: np.ndarray) -> np.ndarray:
        """Second derivative as a (..., 2, 2, 2, 2) array, d2W/dF_ik dF_jl."""
        raise NotImplementedError


class HalfDistSquared(EnergyDensity):
    """W(F) = dist(F, SO(2))^2 / 2."""

    kind = "half-dist-squared"
    coercive_globally = True

    def energy(self, F: np.ndarray) -> np.ndarray:
        return 0.5 * dist_so2(F) ** 2

    def stress(self, F: np.ndarray) -> np.ndarray:
        # gradient of the half squared distance: F minus the nearest rotation;
        # polar_angle raises DomainError when det F <= 0
        F = np.asarray(F, dtype=float)
        a = polar_angle(F)
        c, s = np.cos(a), np.sin(a)
        out = np.array(F, copy=True)
        out[..., 0, 0] -= c
        out[..., 0, 1] += s
        out[..., 1, 0] -= s
        out[..., 1, 1] -= c
        return out

    def hessian(self, F: np.ndarray) -> np.ndarray:
        # DW(F) = F - R(F) and the rotation factor varies only through its
        # angle, giving the rank-one correction I - (RJ x RJ)/r with
        # r = sqrt((F11+F22)^2 + (F21-F12)^2)
        F = np.asarray(F, dtype=float)
        d = det2(F)
        if np.any(d <= 0.0):
            raise DomainError(
                f"second derivative undefined: min det F = {float(np.min(d)):.6g} <= 0"
            )
        u = F[..., 0, 0] + F[..., 1, 1]
        v = F[..., 1, 0] - F[..., 0, 1]
        r = np.hypot(u, v)
        c, s = u / r, v / r
        T = np.empty(F.shape)  # R(F) @ J2, the tangent direction to SO(2)
        T[..., 0, 0] = -s
        T[..., 0, 1] = -c
        T[..., 1, 0] = c
        T[..., 1, 1] = -s
        eye = np.einsum("ij,kl->ikjl", ID2, ID2)
        out = np.broadcast_to(eye, F.shape[:-2] + (2, 2, 2, 2)).copy()
        out -= np.einsum("...ik,...jl->...ikjl", T, T) / r[..., None, None, None, None]
        return out


class IsotropicQuadratic(EnergyDensity):
    """W(F) = mu |Eg|^2 + (lam/2) (tr Eg)^2 with Eg = (F^T F - Id)/2."""

    kind = "isotropic-quadratic"
    coercive_globally = False  # vanishes on reflections

    def __init__(self, mu: float = 1.0, lam: float = 0.0):
        if not (mu > 0.0):
            raise ConfigError(f"energy.mu must be positive, got {mu!r}")
        if not (lam >= 0.0):
            raise ConfigError(f"energy.lambda must be nonnegative, got {lam!r}")
        self.mu = float(mu)
        self.lam = float(lam)

    def green(self, F: np.ndarray) -> np.ndarray:
        F = np.asarray(F, dtype=float)
        return 0.5 * (trans2(F) @ F - ID2)

    def energy(self, F: np.ndarray) -> np.ndarray:
        Eg = self.green(F)
        return self.mu * frob(Eg, Eg) + 0.5 * self.lam * trace2(Eg) ** 2

    def _second_pk(self, Eg: np.ndarray) -> np.ndarray:
        return 2.0 * self.mu * Eg + self.lam * trace2(Eg)[..., None, None] * ID2

    def stress(self, F: np.ndarray) -> np.ndarray:
        F = np.asarray(F, dtype=float)
        return F @ self._second_pk(self.green(F))

    def hessian(self, F: np.ndarray) -> np.ndarray:
        F = np.asarray(F, dtype=float)
        S = self._second_pk(self.green(F))
        FFt = F @ trans2(F)
        out = np.einsum("ij,...kl->...ikjl", ID2, S)
        out = out + self.mu * np.einsum("...ij,kl->...ikjl", FFt, ID2)
        out = out + self.mu * np.einsum("...il,...jk->...ikjl", F, F)
        out = out + self.lam * np.einsum("...ik,...jl->...ikjl", F, F)
        return out


def make_density(kind: str, mu: float = 1.0, lam: float = 0.0) -> EnergyDensity:
    norm = kind.strip().lower().replace("_", "-")
    if norm == "half-dist-squared":
        return HalfDistSquared()
    if norm == "isotropic-quadratic":
        return IsotropicQuadratic(mu=mu, lam=lam)
    raise ConfigError(f"unknown energy.kind {kind!r}")


@dataclass(frozen=True)
class Linearization:
    """Second derivative of W at the identity, as a 4x4 matrix in BASIS.

    The first three basis elements span the symmetric matrices; the effective
    stretching modulus is the reciprocal of the (e1 x e1)-component of the
    inverse of that symmetric block applied to e1 x e1.
    """

    matrix: np.ndarray  # (4, 4)
    modulus: float

    def apply(self, A: np.ndarray) -> np.ndarray:
        A = np.asarray(A, dtype=float)
        coeff = np.tensordot(A, BASIS, axes=([-2, -1], [1, 2]))
        out_coeff = coeff @ self.matrix.T
        return np.tensordot(out_coeff, BASIS, axes=([-1], [0]))


def linearize(W: EnergyDensity) -> Linearization:
    """Build the linearization of a density at the identity.

    Uses the density's closed-form ``hessian`` and computes the modulus by
    inverting the symmetric 3x3 block.
    """
    H = W.hessian(ID2)
    M = np.einsum("pik,ikjl,qjl->pq", BASIS, H, BASIS)
    Msym = M[:3, :3]
    b = np.array([1.0, 0.0, 0.0])  # coordinates of e1 x e1
    try:
        scomp = np.linalg.solve(Msym, b)
    except np.linalg.LinAlgError as exc:
        raise ConfigError(
            "linearization is singular on symmetric matrices; no modulus"
        ) from exc
    einv = float(scomp @ b)
    if not (einv > 0.0):
        raise ConfigError(
            f"linearization gives nonpositive compliance {einv:.6g}; no modulus"
        )
    return Linearization(matrix=M, modulus=1.0 / einv)


def taylor_remainder(W: EnergyDensity, A: np.ndarray, lin: Linearization | None = None) -> np.ndarray:
    """First-derivative remainder DW(Id + A) - L[A]; o(|A|) near the identity."""
    if lin is None:
        lin = linearize(W)
    A = np.asarray(A, dtype=float)
    return W.stress(ID2 + A) - lin.apply(A)


def modulus_closed_form(W: EnergyDensity) -> float:
    """Reference modulus values: 1, or 4 mu (mu + lam) / (2 mu + lam)."""
    if isinstance(W, HalfDistSquared):
        return 1.0
    if isinstance(W, IsotropicQuadratic):
        return 4.0 * W.mu * (W.mu + W.lam) / (2.0 * W.mu + W.lam)
    raise ConfigError(f"no closed-form modulus for density kind {W.kind!r}")
