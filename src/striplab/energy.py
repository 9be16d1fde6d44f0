"""Stored-energy densities for planar deformations and their tension modulus.

Two built-in models:

* ``HalfDistSquared``: half the squared Frobenius distance to SO(2).  The
  canonical density; its second derivative at the identity, D2W(Id), is the
  symmetrizer and its effective stretching modulus is exactly 1.
* ``IsotropicQuadratic``: a quadratic in the Green strain with Lame-type
  parameters ``mu`` and ``lam``.  Exercises a nontrivial modulus
  4*mu*(mu+lam)/(2*mu+lam).  Vanishes on reflections, so its quadratic lower
  bound in the distance to SO(2) fails off the orientation-preserving branch;
  this is documented by ``coercive_globally = False``.

Densities expose value, first derivative (``stress``) and second derivative
(``hessian``), vectorized over leading axes, each in closed form; a subclass
of ``EnergyDensity`` must implement all three.  ``IsotropicQuadratic``
defines all three at every F.  ``HalfDistSquared`` defines its value at
every F, but its derivatives go through the nearest rotation, so they need
det F > 0 and raise DomainError elsewhere.

``tension_modulus`` inverts D2W(Id), which is ``hessian`` at the identity, on
the symmetric matrices; ``taylor_remainder`` is how far the stress departs
from it.
"""

from __future__ import annotations

import numpy as np

from .algebra import ID2, dist_so2, frob, polar_uv, trace2, trans2

# orthonormal basis of the symmetric 2x2 matrices: two diagonal directions and
# the normalized symmetric off-diagonal direction
_S = 1.0 / np.sqrt(2.0)
BASIS = np.array(
    [
        [[1.0, 0.0], [0.0, 0.0]],
        [[0.0, 0.0], [0.0, 1.0]],
        [[0.0, _S], [_S, 0.0]],
    ]
)

# delta_ij delta_kl at ikjl, the identity on 2x2 matrices in the (..., 2, 2,
# 2, 2) layout of ``hessian``.  Outer products are broadcast products, one
# multiplication per entry as in an einsum, so they give the same bits.
_EYE4 = ID2[:, None, :, None] * ID2[None, :, None, :]


class EnergyDensity:
    """Base class: frame-indifferent stored energy W(F) on 2x2 matrices."""

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

    coercive_globally = True

    def energy(self, F: np.ndarray) -> np.ndarray:
        return 0.5 * dist_so2(F) ** 2

    @staticmethod
    def _nearest(F):
        """Cosine and sine of the rotation nearest to F, and r = hypot(u, v)."""
        u, v = polar_uv(F)
        r = np.hypot(u, v)
        return u / r, v / r, r

    def stress(self, F: np.ndarray) -> np.ndarray:
        # gradient of the half squared distance: F minus the nearest rotation
        c, s, _ = self._nearest(F)
        out = np.array(F, dtype=float, copy=True)
        out[..., 0, 0] -= c
        out[..., 0, 1] += s
        out[..., 1, 0] -= s
        out[..., 1, 1] -= c
        return out

    def hessian(self, F: np.ndarray) -> np.ndarray:
        # DW(F) = F - R(F) and the rotation factor varies only through its
        # angle, giving the rank-one correction I - (RJ x RJ)/r
        c, s, r = self._nearest(F)
        # R(F) J, with J = [[0, -1], [1, 0]] the rotation generator, is the
        # tangent direction to SO(2); flattened row-major with the points
        # last, so that the outer product runs along them
        T = np.stack([-s, -c, c, -s]).reshape(4, -1)
        out = _EYE4.reshape(4, 4, 1) - T[:, None] * T[None, :] / r.reshape(-1)
        return out.transpose(2, 0, 1).reshape(c.shape + (2, 2, 2, 2))


class IsotropicQuadratic(EnergyDensity):
    """W(F) = mu |Eg|^2 + (lam/2) (tr Eg)^2 with Eg = (F^T F - Id)/2."""

    coercive_globally = False  # vanishes on reflections

    def __init__(self, mu: float, lam: float):
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
        # at ikjl: delta_ij S_kl + mu ((F F^T)_ij delta_kl + F_il F_jk) + lam F_ik F_jl
        out = ID2[:, None, :, None] * S[..., None, :, None, :]
        out = out + self.mu * (FFt[..., :, None, :, None] * ID2[None, :, None, :])
        out = out + self.mu * (F[..., :, None, None, :] * trans2(F)[..., None, :, :, None])
        out = out + self.lam * (F[..., :, :, None, None] * F[..., None, None, :, :])
        return out


def tension_modulus(W: EnergyDensity) -> float:
    """Effective stretching modulus of W at the identity.

    The reciprocal of the (e1 x e1)-component of the inverse of D2W(Id),
    restricted to the symmetric matrices in BASIS, applied to e1 x e1.
    """
    M = np.einsum("pik,ikjl,qjl->pq", BASIS, W.hessian(ID2), BASIS)
    b = np.array([1.0, 0.0, 0.0])  # coordinates of e1 x e1
    try:
        scomp = np.linalg.solve(M, b)
    except np.linalg.LinAlgError as exc:
        raise ValueError(
            "linearization is singular on symmetric matrices; no modulus"
        ) from exc
    einv = float(scomp @ b)
    if not (einv > 0.0):
        raise ValueError(
            f"linearization gives nonpositive compliance {einv:.6g}; no modulus"
        )
    return 1.0 / einv


def taylor_remainder(W: EnergyDensity, A: np.ndarray) -> np.ndarray:
    """First-derivative remainder DW(Id + A) - D2W(Id)[A]; o(|A|) at Id."""
    A = np.asarray(A, dtype=float)
    return W.stress(ID2 + A) - np.einsum("ikjl,...jl->...ik", W.hessian(ID2), A)
