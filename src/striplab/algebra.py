"""2x2 matrix helpers: rotations, polar factors, and distance to SO(2).

All operations broadcast over leading axes; matrices live in arrays of shape
(..., 2, 2).  Singular values come from the hypotenuses of the conformal and
anticonformal parts of F, so they are branch-free and free of cancellation.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError

ID2 = np.eye(2)


def det2(F: np.ndarray) -> np.ndarray:
    F = np.asarray(F)
    return F[..., 0, 0] * F[..., 1, 1] - F[..., 0, 1] * F[..., 1, 0]


def trans2(F: np.ndarray) -> np.ndarray:
    return np.swapaxes(np.asarray(F), -1, -2)


def trace2(F: np.ndarray) -> np.ndarray:
    F = np.asarray(F)
    return F[..., 0, 0] + F[..., 1, 1]


def frob(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Frobenius inner product A:B summed over the trailing 2x2 axes."""
    return np.sum(np.asarray(A) * np.asarray(B), axis=(-2, -1))


def tmul2(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """A^T B for A of shape (..., 2, 2) and B of shape (..., 2, m).

    The same bits as np.einsum("...ji,...jk->...ik", A, B), in an eighth of
    its time for thousands of matrices.  einsum adds the products into a
    zeroed output, so a zero entry is never -0.0; the trailing + 0.0 does the
    same.
    """
    out = np.empty(np.broadcast_shapes(A.shape[:-2], B.shape[:-2]) + (2, B.shape[-1]))
    for i in (0, 1):
        for k in range(B.shape[-1]):
            out[..., i, k] = A[..., 0, i] * B[..., 0, k] + A[..., 1, i] * B[..., 1, k] + 0.0
    return out


def rot2(angle) -> np.ndarray:
    """Counterclockwise rotation matrices, shape angle.shape + (2, 2)."""
    a = np.asarray(angle, dtype=float)
    c, s = np.cos(a), np.sin(a)
    out = np.empty(a.shape + (2, 2))
    out[..., 0, 0] = c
    out[..., 0, 1] = -s
    out[..., 1, 0] = s
    out[..., 1, 1] = c
    return out


def polar_angle(F: np.ndarray) -> np.ndarray:
    """Angle of the rotation nearest to F.  Requires det F > 0 everywhere.

    The nearest rotation maximizes tr(R^T F); for 2x2 matrices the maximizer
    has angle atan2(F21 - F12, F11 + F22), well defined whenever det F > 0
    because (F11 + F22)^2 + (F21 - F12)^2 = |F|^2 + 2 det F.
    """
    F = np.asarray(F, dtype=float)
    d = det2(F)
    if np.any(d <= 0.0):
        raise DomainError(
            f"nearest rotation undefined: min det F = {float(np.min(d)):.6g} <= 0"
        )
    u = F[..., 0, 0] + F[..., 1, 1]
    v = F[..., 1, 0] - F[..., 0, 1]
    ang = np.arctan2(v, u)
    # arctan2 may return exactly -pi; fold onto the canonical branch
    return np.where(ang <= -np.pi, ang + 2.0 * np.pi, ang)


def svd2_vals(F: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Singular values (s1 >= s2 >= 0), closed form.

    F splits into a conformal part of norm p/sqrt(2) and an anticonformal part
    of norm q/sqrt(2), with s1 = (p + q)/2 and s2 = |p - q|/2.  Taking p, q as
    hypotenuses of the entries avoids sqrt(|F|^2 - 2|det F|), which cancels to
    half precision when s1 is close to s2.
    """
    F = np.asarray(F, dtype=float)
    a, b = F[..., 0, 0], F[..., 0, 1]
    c, d = F[..., 1, 0], F[..., 1, 1]
    p = np.hypot(a + d, c - b)
    q = np.hypot(a - d, b + c)
    return 0.5 * (p + q), 0.5 * np.abs(p - q)


def dist_so2(F: np.ndarray) -> np.ndarray:
    """Frobenius distance from F to the rotation group.

    With singular values s1, s2: sqrt((s1-1)^2 + (s2-1)^2) when det F >= 0,
    sqrt((s1-1)^2 + (s2+1)^2) when det F < 0.  Continuous across det F = 0.
    """
    F = np.asarray(F, dtype=float)
    s1, s2 = svd2_vals(F)
    d = det2(F)
    return np.where(
        d >= 0.0,
        np.hypot(s1 - 1.0, s2 - 1.0),
        np.hypot(s1 - 1.0, s2 + 1.0),
    )
