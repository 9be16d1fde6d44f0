"""Readers and oracles that only the tests use; the CLI writes, never reads, CSV."""

import csv
from contextlib import contextmanager

import numpy as np
import pytest

from striplab.config import ExperimentConfig, parse_config_text
from striplab.errors import ConfigError


def config_from_text(text: str) -> ExperimentConfig:
    """An in-memory config, source ``<memory>``."""
    return ExperimentConfig(raw=parse_config_text(text))


@contextmanager
def raises_value_error(match: str):
    """pytest.raises(ValueError, match=match) that refuses a ConfigError: a
    library argument error is a bug in the caller, never a config error."""
    with pytest.raises(ValueError, match=match) as info:
        yield info
    assert not isinstance(info.value, ConfigError)


def read_table(path) -> tuple[list[str], list[list[str]]]:
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        rows = [row for row in reader if row]
    if not rows:
        raise ConfigError(f"empty CSV file: {path}")
    return rows[0], rows[1:]


def read_keyvalue(path) -> dict[str, str]:
    header, rows = read_table(path)
    if header != ["key", "value"]:
        raise ConfigError(f"not a key/value CSV: {path}")
    return {k: v for k, v in rows}


def linear_cantilever_theta(gamma: float, modulus: float, L: float, x: np.ndarray) -> np.ndarray:
    """Small-load closed form for g = (0, -gamma): the linearized rod equation
    -(E/12) theta'' + gamma (L - x1) = 0 with theta(0) = 0, theta'(L) = 0."""
    x = np.asarray(x, dtype=float)
    return (12.0 * gamma / modulus) * (L * x**2 / 2.0 - x**3 / 6.0 - L**2 * x / 2.0)
