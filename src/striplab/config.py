"""Line-oriented experiment configuration.

Format: one `section.key = value` per line, `#` starts a comment, blank
lines ignored.  The hash is taken over the sorted canonical key=value pairs,
so comments, whitespace, and key order do not affect it.  Each key family
has one gate, a `*_from` function that reads its keys and checks them.
"""

from __future__ import annotations

import hashlib
import re
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .energy import EnergyDensity, HalfDistSquared, IsotropicQuadratic
from .errors import ConfigError
from .loads import LoadProfile
from .mesh import build_mesh, mesh_rule_nx
from .truncation import square_cells

_KEY_RE = re.compile(r"^[a-zA-Z][a-zA-Z0-9_]*\.[a-zA-Z][a-zA-Z0-9_]*$")

DEFAULT_SWEEP = (0.2, 0.1, 0.05, 0.025)


def parse_config_text(text: str) -> dict[str, str]:
    out: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'section.key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if not _KEY_RE.match(key):
            raise ConfigError(f"line {lineno}: malformed key {key!r}")
        if key in out:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        out[key] = value
    return out


def config_hash(raw: dict[str, str]) -> str:
    canon = "\n".join(f"{k}={v}" for k, v in sorted(raw.items()))
    return hashlib.sha256(canon.encode()).hexdigest()[:16]


@dataclass
class ExperimentConfig:
    raw: dict[str, str]
    source: str = "<memory>"
    used: set = field(default_factory=set)

    @classmethod
    def load(cls, path) -> "ExperimentConfig":
        path = Path(path)
        try:
            text = path.read_text()
        except FileNotFoundError:
            raise ConfigError(f"config file not found: {path}") from None
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"cannot read config file {path}: {exc}") from None
        return cls(raw=parse_config_text(text), source=str(path))

    @property
    def hash(self) -> str:
        return config_hash(self.raw)

    def _get(self, key: str, default, parse, what: str):
        if key not in self.raw:
            if default is _REQUIRED:
                raise ConfigError(f"missing required config key {key!r} in {self.source}")
            return default
        self.used.add(key)
        val = self.raw[key]
        try:
            return parse(val)
        except ValueError as exc:
            raise ConfigError(f"config key {key!r}: not {what}: {val!r}") from exc

    def get_str(self, key: str, default=None):
        return self._get(key, default, str, "a string")

    def get_float(self, key: str, default=None):
        return self._get(key, default, float, "a number")

    def get_int(self, key: str, default=None):
        return self._get(key, default, int, "an integer")

    def get_floats(self, key: str, default=None):
        def parse(text):
            # an empty value is the empty list; float rejects an empty entry
            return tuple(float(p) for p in text.split(",")) if text.strip() else ()

        return self._get(key, default, parse, "a number list")

    def unread(self) -> list[str]:
        """Keys present in the config that no getter has read, sorted."""
        return sorted(set(self.raw) - self.used)


_REQUIRED = object()


def energy_from(cfg: ExperimentConfig) -> EnergyDensity:
    """The `energy.kind` density (any case, `_` for `-`), built once.

    Only isotropic-quadratic reads `energy.mu` and `energy.lambda`, default 1.
    """
    kind = cfg.get_str("energy.kind", "half-dist-squared")
    norm = kind.strip().lower().replace("_", "-")
    if norm == "half-dist-squared":
        return HalfDistSquared()
    if norm == "isotropic-quadratic":
        mu, lam = cfg.get_float("energy.mu", 1.0), cfg.get_float("energy.lambda", 1.0)
        if not 0.0 < mu < np.inf:
            raise ConfigError(f"energy.mu must be finite and positive, got {mu!r}")
        if not 0.0 <= lam < np.inf:
            raise ConfigError(f"energy.lambda must be finite and nonnegative, got {lam!r}")
        return IsotropicQuadratic(mu=mu, lam=lam)
    raise ConfigError(f"unknown energy.kind {kind!r}")


def load_from(cfg: ExperimentConfig) -> LoadProfile:
    """The `load.samples_*` profile if `load.samples_x` is given, else the
    constant `load.g1`, `load.g2` (default 0); each error names its key."""
    xs = cfg.get_floats("load.samples_x", None)
    if xs is None:
        g1, g2 = cfg.get_float("load.g1", 0.0), cfg.get_float("load.g2", 0.0)
        if not np.all(np.isfinite([g1, g2])):
            raise ConfigError(f"load.g1 and load.g2 must be finite, got {g1!r} and {g2!r}")
        return LoadProfile.constant(g1, g2)
    g1 = cfg.get_floats("load.samples_g1", None)
    g2 = cfg.get_floats("load.samples_g2", None)
    if g1 is None or g2 is None:
        raise ConfigError("load.samples_x requires load.samples_g1 and load.samples_g2")
    if len(g1) != len(g2):
        raise ConfigError(
            f"load.samples_g1 and load.samples_g2 differ in length: {len(g1)} and {len(g2)}"
        )
    xs, vals = np.array(xs, dtype=float), np.column_stack([g1, g2])
    if vals.shape != (xs.size, 2):
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
    return LoadProfile(xs=xs, vals=vals)


def _positive(cfg: ExperimentConfig, key: str, default: float) -> float:
    val = cfg.get_float(key, default)
    if not 0 < val < np.inf:
        raise ConfigError(f"{key} must be finite and positive, got {val!r}")
    return val


def _at_least(cfg: ExperimentConfig, key: str, default: int, least: int) -> int:
    val = cfg.get_int(key, default)
    if val < least:
        raise ConfigError(f"{key} must be at least {least}, got {val!r}")
    return val


def mesh_from(cfg: ExperimentConfig, h: float | None = None):
    """The mesh at thickness h, default `strip.h`; `strip.nx` overrides the nx rule.

    The one check of a strip mesh's bounds: h in (0, min(0.5, L/2)], so
    that two slabs fit, named `sweep.h` when h is given; the nx and ny
    minimums; and a quadrature point in every slab.
    """
    L = _positive(cfg, "strip.L", 1.0)
    key = "strip.h" if h is None else "sweep.h"
    if h is None:
        h = cfg.get_float("strip.h", _REQUIRED)
    h_max = min(0.5, L / 2)
    if not 0 < h <= h_max:
        raise ConfigError(f"{key} must lie in (0, {h_max!r}], h <= strip.L / 2, got {h!r}")
    ny = _at_least(cfg, "strip.ny", 8, 2)
    nx = _at_least(cfg, "strip.nx", mesh_rule_nx(L, h), 4)
    mesh = build_mesh(L, h, nx, ny)
    if np.any(np.bincount(mesh.qp_slab, minlength=mesh.nslab) == 0):
        raise ConfigError(f"strip.nx = {nx} is too coarse for {mesh.nslab} slabs at h = {h!r}")
    return mesh


def sweep_from(cfg: ExperimentConfig) -> tuple[float, ...]:
    """The `sweep.h` list; `mesh_from` checks each thickness in it."""
    hs = cfg.get_floats("sweep.h", DEFAULT_SWEEP)
    if len(hs) < 1:
        raise ConfigError("sweep.h must list at least one thickness")
    if any(b >= a for a, b in zip(hs, hs[1:])):
        raise ConfigError(f"sweep.h must be strictly decreasing, got {hs!r}")
    return tuple(hs)


def truncation_from(cfg: ExperimentConfig):
    """The `truncation.*` keys as (level_min, level_max, fields, height, [(n1, n2), ...])."""
    a = _positive(cfg, "truncation.level_min", 14.0)
    A = _positive(cfg, "truncation.level_max", 28.0)
    if a >= A:
        raise ConfigError(
            f"truncation.level_min must be below truncation.level_max, got {a!r} and {A!r}"
        )
    nfields = _at_least(cfg, "truncation.fields", 50, 1)
    height = _positive(cfg, "truncation.height", 0.125)
    res = cfg.get_str("truncation.resolutions", "64x8,128x16,256x32")
    grids = []
    for token in res.split(","):
        try:
            n1, n2 = (int(part) for part in token.lower().split("x"))
        except ValueError as exc:
            raise ConfigError(f"bad truncation.resolutions entry {token!r}") from exc
        if n1 < 1 or n2 < 1:
            raise ConfigError(f"truncation.resolutions entry {token!r} needs positive cells")
        try:
            square_cells(n2, height / n2)  # the spacing sample_on_strip gives
        except ValueError as exc:
            raise ConfigError(
                f"truncation.resolutions entry {token!r} at truncation.height = {height!r}: {exc}"
            ) from None
        grids.append((n1, n2))
    return a, A, nfields, height, grids


def seed_from(cfg: ExperimentConfig, seed: int | None) -> int:
    """The --seed value if given, else `run.seed`; either must be non-negative."""
    if seed is None:
        return _at_least(cfg, "run.seed", 1234, 0)
    if seed < 0:
        raise ConfigError(f"--seed must be at least 0, got {seed!r}")
    return seed
