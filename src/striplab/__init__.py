"""Thin elastic strips, their rod limit, and the supporting truncation step.

The package solves the clamped planar strip problem at finite thickness h,
solves the limit bending problem for the midline angle, and measures every
identity connecting the two: per-slab rotations, scaled strain and stress
moments, rigidity ratios, and the Lipschitz truncation used to justify the
passage to the limit.
"""

__version__ = "0.1.0"
