"""Transverse load profiles g(x1) acting on the strip midline direction.

A profile is linear interpolation of samples, extended constantly outside
their range; a constant profile is two equal samples at x = 0 and 1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError


@dataclass(frozen=True, eq=False)
class LoadProfile:
    xs: np.ndarray    # (m,) increasing sample positions
    vals: np.ndarray  # (m, 2) samples

    @classmethod
    def constant(cls, g1: float, g2: float) -> "LoadProfile":
        vals = np.array([float(g1), float(g2)])
        if not np.all(np.isfinite(vals)):
            raise ConfigError(f"load.g1 and load.g2 must be finite, got {g1!r} and {g2!r}")
        return cls(xs=np.array([0.0, 1.0]), vals=np.array([vals, vals]))

    @classmethod
    def from_samples(cls, xs, vals) -> "LoadProfile":
        """Interpolate samples vals (m, 2) at increasing positions xs.

        Errors name the key: `load.samples_x`, `load.samples_g1` or `_g2`."""
        xs = np.asarray(xs, dtype=float)
        vals = np.asarray(vals, dtype=float)
        if xs.ndim != 1 or vals.shape != (xs.size, 2):
            raise ConfigError(
                f"load.samples_x: load samples need shapes (m,) and (m, 2), "
                f"got {xs.shape} and {vals.shape}"
            )
        if xs.size < 2 or np.any(np.diff(xs) <= 0):
            raise ConfigError(
                "load.samples_x: load sample positions must be strictly increasing, length >= 2"
            )
        for key, v in (("load.samples_x", xs), ("load.samples_g1", vals[:, 0]),
                       ("load.samples_g2", vals[:, 1])):
            if not np.all(np.isfinite(v)):
                raise ConfigError(f"{key}: load samples must be finite")
        return cls(xs=xs, vals=vals)

    def __call__(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        g1 = np.interp(x, self.xs, self.vals[:, 0])
        g2 = np.interp(x, self.xs, self.vals[:, 1])
        return np.stack([g1, g2], axis=-1)
