"""Line-oriented experiment configuration.

Format: one `section.key = value` per line, `#` starts a comment, blank
lines ignored.  The hash is taken over the sorted canonical key=value pairs,
so comments, whitespace, and key order do not affect it.
"""

from __future__ import annotations

import hashlib
import re
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .elastica import solve_elastica
from .energy import EnergyDensity, linearize, make_density
from .errors import ConfigError
from .loads import LoadProfile
from .mesh import build_mesh, mesh_rule_nx
from .solver import SolverConfig

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
        if not path.exists():
            raise ConfigError(f"config file not found: {path}")
        return cls(raw=parse_config_text(path.read_text()), source=str(path))

    @classmethod
    def from_text(cls, text: str) -> "ExperimentConfig":
        return cls(raw=parse_config_text(text))

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
            return tuple(float(p) for p in text.split(",") if p.strip())

        return self._get(key, default, parse, "a number list")

    def unread(self) -> list[str]:
        """Keys present in the config that no getter has read, sorted."""
        return sorted(set(self.raw) - self.used)


_REQUIRED = object()


def energy_from(cfg: ExperimentConfig) -> EnergyDensity:
    kind = cfg.get_str("energy.kind", "half-dist-squared")
    mu = cfg.get_float("energy.mu", 1.0)
    lam = cfg.get_float("energy.lambda", 1.0)
    return make_density(kind, mu=mu, lam=lam)


def load_from(cfg: ExperimentConfig) -> LoadProfile:
    xs = cfg.get_floats("load.samples_x", None)
    if xs is not None:
        g1 = cfg.get_floats("load.samples_g1", None)
        g2 = cfg.get_floats("load.samples_g2", None)
        if g1 is None or g2 is None:
            raise ConfigError(
                "load.samples_x requires load.samples_g1 and load.samples_g2"
            )
        if len(g1) != len(g2):
            raise ConfigError(
                f"load.samples_g1 and load.samples_g2 differ in length: {len(g1)} and {len(g2)}"
            )
        vals = np.column_stack([g1, g2])
        return LoadProfile.from_samples(np.asarray(xs), vals)
    return LoadProfile.constant(
        cfg.get_float("load.g1", 0.0), cfg.get_float("load.g2", 0.0)
    )


def solver_from(cfg: ExperimentConfig) -> SolverConfig:
    base = SolverConfig()
    return SolverConfig(
        newton_tol=cfg.get_float("solver.newton_tol", base.newton_tol),
        max_iters=cfg.get_int("solver.max_iters", base.max_iters),
        min_load_step=cfg.get_float("solver.min_load_step", base.min_load_step),
        det_floor=cfg.get_float("solver.det_floor", base.det_floor),
    )


def _length(cfg: ExperimentConfig) -> float:
    L = cfg.get_float("strip.L", 1.0)
    if not 0 < L < np.inf:
        raise ConfigError(f"strip.L must be finite and positive, got {L!r}")
    return L


def mesh_from(cfg: ExperimentConfig, h: float | None = None):
    """(mesh, h) at thickness h, default `strip.h`; `strip.nx` overrides the nx rule."""
    L = _length(cfg)
    if h is None:
        h = cfg.get_float("strip.h", _REQUIRED)
        if not 0 < h <= 0.5:
            raise ConfigError(f"strip.h must lie in (0, 0.5], got {h!r}")
    ny = cfg.get_int("strip.ny", 8)
    nx = cfg.get_int("strip.nx", mesh_rule_nx(L, h))
    return build_mesh(L, nx, ny), h


def sweep_from(cfg: ExperimentConfig) -> tuple[float, ...]:
    hs = cfg.get_floats("sweep.h", DEFAULT_SWEEP)
    if len(hs) < 1:
        raise ConfigError("sweep.h must list at least one thickness")
    if any(not 0 < h <= 0.5 for h in hs):
        raise ConfigError(f"sweep.h values must lie in (0, 0.5], got {hs!r}")
    if any(b >= a for a, b in zip(hs, hs[1:])):
        raise ConfigError(f"sweep.h must be strictly decreasing, got {hs!r}")
    return tuple(hs)


def elastica_from(cfg: ExperimentConfig, W: EnergyDensity, g: LoadProfile):
    L = _length(cfg)
    n = cfg.get_int("elastica.n", 2048)
    tol = cfg.get_float("elastica.tol", 1e-12)
    modulus = linearize(W).modulus
    return solve_elastica(modulus, g, L, n=n, tol=tol)
