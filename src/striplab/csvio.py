"""Deterministic CSV emission for all artifact files.

Floats are written with repr, which round-trips and is stable across runs,
so identical inputs produce byte-identical files.  Float-array tables
(solution, elastica, rotations, moments) format each distinct 64-bit
pattern of a table once and join the cells' reprs directly, since no repr
(nan, inf, -0.0 too) needs csv quoting.
"""

from __future__ import annotations

import csv
import io
from collections.abc import Sequence
from pathlib import Path

import numpy as np


def fmt(x) -> str:
    if isinstance(x, (bool, np.bool_)):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, float) or isinstance(x, np.floating):
        return repr(float(x))
    return str(x)


def _write_lines(path, header: Sequence[str], lines) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(lines)
    return path


def write_table(path, header: Sequence[str], rows) -> Path:
    """One row per tuple; a NamedTuple row type's ``_fields`` is its header."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    for row in rows:
        if len(row) != len(header):
            raise ValueError(
                f"row width {len(row)} does not match header width {len(header)}"
            )
        writer.writerow([fmt(x) for x in row])
    return _write_lines(path, header, [buf.getvalue()])


def write_keyvalue(path, items: dict) -> Path:
    return write_table(path, ["key", "value"], [(k, v) for k, v in items.items()])


def _float_lines(*columns):
    """Newline-ended CSV lines of the column-stacked float64 arrays, as write_table writes them.

    repr is most of a table's cost, and a solution table's x1 and x2
    columns repeat a value, so each table formats its distinct cells once.
    They are keyed by bit pattern: 0.0 == -0.0, yet they print apart.
    """
    table = np.column_stack(columns)
    if table.dtype != np.float64:
        raise TypeError(f"float table columns must be float64, not {table.dtype}")
    bits, inverse = np.unique(table.view(np.int64), return_inverse=True)
    text = np.array([repr(x) for x in bits.view(np.float64).tolist()], dtype=object)
    cells = text[inverse.ravel()].reshape(table.shape)  # inverse's shape varies in numpy 2.x
    return (",".join(row) + "\n" for row in cells.tolist())


def write_solution(path, mesh, y) -> Path:
    """Strip solution y at the mesh's nodes: node_id,x1,x2,y1,y2."""
    coords = _float_lines(mesh.nodes, y)
    lines = (f"{i},{line}" for i, line in enumerate(coords))
    return _write_lines(path, ["node_id", "x1", "x2", "y1", "y2"], lines)


def write_elastica(path, sol) -> Path:
    lines = _float_lines(sol.x, sol.theta, sol.kappa, sol.ybar)
    return _write_lines(path, ["x1", "theta", "kappa", "ybar1", "ybar2"], lines)


def write_rotations(path, d) -> Path:
    """Mollified angle of a Diagnosis at the mesh's node columns."""
    return _write_lines(path, ["x1", "theta_h"], _float_lines(d.mesh.x1, d.node_theta))


def write_moments(path, d) -> Path:
    """x2-moments of a Diagnosis, one row per quadrature column."""
    ncol = d.mesh.ncol
    header = ["x1"]
    header += [f"barE{i}{j}" for i in (1, 2) for j in (1, 2)]
    header += [f"hatE{i}{j}" for i in (1, 2) for j in (1, 2)]
    header += ["hatG11"]
    lines = _float_lines(
        d.mesh.col_x, d.Ebar.reshape(ncol, 4), d.Ehat.reshape(ncol, 4), d.Ghat[:, 0, 0]
    )
    return _write_lines(path, header, lines)

