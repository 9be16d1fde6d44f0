"""Transverse load profiles g(x1) acting on the strip midline direction.

A profile is linear interpolation of samples, extended constantly outside
their range; a constant profile is two equal samples at x = 0 and 1.  It
checks nothing: `config.load_from` is where load values are checked.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True, eq=False)
class LoadProfile:
    xs: np.ndarray    # (m,) increasing sample positions
    vals: np.ndarray  # (m, 2) samples

    @classmethod
    def constant(cls, g1: float, g2: float) -> "LoadProfile":
        vals = np.array([float(g1), float(g2)])
        return cls(xs=np.array([0.0, 1.0]), vals=np.array([vals, vals]))

    def __call__(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        g1 = np.interp(x, self.xs, self.vals[:, 0])
        g2 = np.interp(x, self.xs, self.vals[:, 1])
        return np.stack([g1, g2], axis=-1)
