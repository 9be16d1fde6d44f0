"""2x2 matrix helpers (rotations, polar factors, distance to SO(2)) and the banded solve.

The 2x2 operations broadcast over leading axes; matrices live in arrays of
shape (..., 2, 2).  The rotation nearest to F is read off its conformal
part, the pair (u, v) = (F11 + F22, F21 - F12), with r = hypot(u, v); the
distance to SO(2) is the hypotenuse of r - 2 and q = hypot(F11 - F22,
F12 + F21), read off the anticonformal part, so it is branch-free and free
of cancellation.

``newton_step`` solves every banded system, the strip's tangent and both rod
routes, by LAPACK's gbsv called directly: scipy's banded-solve wrapper
validates its arguments, looks gbsv up and pads the band into a C-order copy
on every call, which on the strip's 64x8 band costs more than the
factorization.  On the strip's band the step is bit for bit the wrapper's;
on a tridiagonal one, which the wrapper hands to gtsv, it agrees to
roundoff.

gbsv comes from scipy's Fortran LAPACK extension, ``scipy.linalg._flapack``,
which ``_flapack`` loads on its own: importing the ``scipy.linalg`` package
would run its array-API layer, which imports numpy's f2py, testing, ma,
random and ctypeslib submodules, and take 0.24-0.31 s on a 2-core host,
against 8-11 ms for the extension.  This is the only place striplab touches
scipy.
"""

from __future__ import annotations

import functools
import importlib.machinery
import importlib.util
import sys
from pathlib import Path
from types import ModuleType

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


def polar_uv(F: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The pair (u, v) = (F11 + F22, F21 - F12) that points at the rotation nearest to F.

    The nearest rotation maximizes tr(R^T F) = u cos a + v sin a, so its angle
    is atan2(v, u) and its cosine and sine are u/r and v/r, r = hypot(u, v).
    Raises DomainError unless det F > 0 everywhere, where r > 0 because
    u^2 + v^2 = |F|^2 + 2 det F.
    """
    F = np.asarray(F, dtype=float)
    d = det2(F)
    if np.any(d <= 0.0):
        raise DomainError(
            f"nearest rotation undefined: min det F = {float(np.min(d)):.6g} <= 0"
        )
    return F[..., 0, 0] + F[..., 1, 1], F[..., 1, 0] - F[..., 0, 1]


def polar_angle(F: np.ndarray) -> np.ndarray:
    """Angle of the rotation nearest to F, in (-pi, pi].  Requires det F > 0 everywhere."""
    u, v = polar_uv(F)
    ang = np.arctan2(v, u)
    # arctan2 may return exactly -pi; fold onto the canonical branch
    return np.where(ang <= -np.pi, ang + 2.0 * np.pi, ang)


def dist_so2(F: np.ndarray) -> np.ndarray:
    """Frobenius distance from F to the rotation group, for every F.

    tr(R^T F) peaks at r over SO(2), so dist^2 = |F|^2 + 2 - 2r, and
    |F|^2 = (r^2 + q^2)/2 with q = hypot(F11 - F22, F12 + F21), so
    dist = hypot(r - 2, q)/sqrt(2).  The sum |F|^2 + 2 - 2r would cancel to
    half precision near SO(2); this form does not.
    """
    F = np.asarray(F, dtype=float)
    a, b = F[..., 0, 0], F[..., 0, 1]
    c, d = F[..., 1, 0], F[..., 1, 1]
    r = np.hypot(a + d, c - b)
    q = np.hypot(a - d, b + c)
    return np.hypot(r - 2.0, q) / np.sqrt(2.0)


@functools.cache
def _flapack() -> ModuleType:
    """scipy's LAPACK extension module, loaded without the scipy.linalg package.

    It is registered in sys.modules, so a later ``import scipy.linalg``
    reuses this very module (``from scipy.linalg import _flapack`` finds it,
    though the package gets no attribute of that name), and one already
    loaded is returned as is.
    """
    name = "scipy.linalg._flapack"
    if name in sys.modules:
        return sys.modules[name]
    scipy = importlib.util.find_spec("scipy")  # locates scipy without importing it
    dirs = [str(Path(d, "linalg")) for d in scipy.submodule_search_locations] if scipy else []
    spec = importlib.machinery.PathFinder.find_spec(name, dirs)
    if spec is None:
        raise ImportError(f"{name} not found: striplab needs scipy>=1.13 for LAPACK's gbsv")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    sys.modules[name] = module
    return module


def newton_step(K: np.ndarray, r: np.ndarray) -> np.ndarray:
    """The step delta with K delta = -r.

    K is a (2 bw + 1, n) band in LAPACK ``ab`` layout, offsets bw..-bw.  gbsv
    factors it in place below bw rows that hold the LU's fill, in Fortran
    order so that its wrapper copies nothing.  Raises np.linalg.LinAlgError
    if K is singular.
    """
    # loaded on the first solve, so truncate and energy-check never load it
    dgbsv = _flapack().dgbsv

    bw = K.shape[0] // 2
    ab = np.zeros((3 * bw + 1, K.shape[1]), order="F")
    ab[bw:] = K
    _, _, delta, info = dgbsv(bw, bw, ab, -r, overwrite_ab=True, overwrite_b=True)
    if info > 0:
        raise np.linalg.LinAlgError("singular matrix")
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of gbsv")
    return delta
