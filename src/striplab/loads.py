"""Transverse load profiles g(x1) acting on the strip midline direction.

A profile is either a constant 2-vector or linear interpolation of samples;
outside the sample range it extends constantly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError


@dataclass(frozen=True, eq=False)
class LoadProfile:
    xs: np.ndarray | None  # None for a constant profile
    vals: np.ndarray       # (2,) constant, or (m, 2) samples

    @classmethod
    def constant(cls, g1: float, g2: float) -> "LoadProfile":
        vals = np.array([float(g1), float(g2)])
        if not np.all(np.isfinite(vals)):
            raise ConfigError(f"load.g1 and load.g2 must be finite, got {g1!r} and {g2!r}")
        return cls(xs=None, vals=vals)

    @classmethod
    def from_samples(cls, xs, vals) -> "LoadProfile":
        xs = np.asarray(xs, dtype=float)
        vals = np.asarray(vals, dtype=float)
        if xs.ndim != 1 or vals.shape != (xs.size, 2):
            raise ConfigError(
                f"load samples need shapes (m,) and (m, 2), got {xs.shape} and {vals.shape}"
            )
        if xs.size < 2 or np.any(np.diff(xs) <= 0):
            raise ConfigError("load sample positions must be strictly increasing, length >= 2")
        if not (np.all(np.isfinite(xs)) and np.all(np.isfinite(vals))):
            raise ConfigError("load samples must be finite")
        return cls(xs=xs, vals=vals)

    def __call__(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if self.xs is None:
            out = np.empty(x.shape + (2,))
            out[...] = self.vals
            return out
        g1 = np.interp(x, self.xs, self.vals[:, 0])
        g2 = np.interp(x, self.xs, self.vals[:, 1])
        return np.stack([g1, g2], axis=-1)
