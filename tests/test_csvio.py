"""Artifact CSV writers: round trips, determinism, layout validation."""

from types import SimpleNamespace

import numpy as np
import pytest

from striplab.csvio import (
    fmt,
    write_elastica,
    write_keyvalue,
    write_moments,
    write_rotations,
    write_solution,
    write_table,
)
from striplab.diagnostics import ConvergenceRow, IdentityRow, diagnose
from striplab.elastica import solve_elastica
from striplab.energy import HalfDistSquared
from striplab.errors import ConfigError
from striplab.loads import LoadProfile
from striplab.mesh import build_mesh

from helpers import raises_value_error, read_keyvalue, read_table

W = HalfDistSquared()
G0 = LoadProfile.constant(0.0, 0.0)


def random_field(mesh, seed):
    """Rigid state plus a seeded random displacement that keeps det F > 0."""
    rng = np.random.default_rng(seed)
    du = 1e-3 * rng.standard_normal(mesh.rigid.shape)
    du[mesh.clamped_nodes()] = 0.0
    return mesh.rigid + du


def test_fmt_is_type_stable():
    assert fmt(True) == "true"
    assert fmt(np.bool_(False)) == "false"
    assert fmt(3) == "3"
    assert fmt(np.int64(-7)) == "-7"
    assert fmt(0.1) == "0.1"
    assert fmt(np.float64(1.0) / 3.0) == "0.3333333333333333"
    assert fmt("plain") == "plain"


def test_float_format_round_trips():
    rng = np.random.default_rng(2)
    for x in rng.standard_normal(50) * 10.0 ** rng.integers(-12, 12, 50):
        assert float(fmt(float(x))) == x


def test_table_round_trip_with_quoted_comma(tmp_path):
    p = tmp_path / "t.csv"
    rows = [("a, with comma", 1, 0.5), ("plain", 2, -0.25)]
    write_table(p, ["name", "count", "value"], rows)
    header, data = read_table(p)
    assert header == ["name", "count", "value"]
    assert data == [["a, with comma", "1", "0.5"], ["plain", "2", "-0.25"]]


def test_table_rejects_ragged_rows(tmp_path):
    # a ragged row is a bug in the caller, never a config error (exit 2)
    with pytest.raises(ValueError, match="width") as info:
        write_table(tmp_path / "t.csv", ["a", "b"], [(1, 2, 3)])
    assert not isinstance(info.value, ConfigError)


def test_table_write_is_deterministic(tmp_path):
    rows = [(0.1, 1.0 / 3.0), (2.0**-40, -1e300)]
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    write_table(a, ["x", "y"], rows)
    write_table(b, ["x", "y"], rows)
    assert a.read_bytes() == b.read_bytes()


def test_read_table_empty_file(tmp_path):
    p = tmp_path / "empty.csv"
    p.write_text("")
    with raises_value_error("empty"):
        read_table(p)


def test_keyvalue_round_trip(tmp_path):
    p = tmp_path / "kv.csv"
    write_keyvalue(p, {"h": 0.1, "converged": True, "iters": 3})
    assert read_keyvalue(p) == {"h": "0.1", "converged": "true", "iters": "3"}
    other = tmp_path / "not_kv.csv"
    write_table(other, ["a", "b"], [(1, 2)])
    with raises_value_error("key/value"):
        read_keyvalue(other)


def test_write_solution_layout(tmp_path):
    mesh = build_mesh(1.0, 0.2, 4, 2)
    header, rows = read_table(write_solution(tmp_path / "sol.csv", mesh, mesh.rigid))
    assert header == ["node_id", "x1", "x2", "y1", "y2"]
    assert len(rows) == mesh.nnode
    assert rows[0][:3] == ["0", "0.0", "-0.5"]
    # rigid state: y1 = x1, y2 = h x2
    assert float(rows[-1][3]) == mesh.x1[-1]
    assert float(rows[-1][4]) == pytest.approx(0.2 * 0.5)


def test_write_elastica_layout(tmp_path):
    sol = solve_elastica(1.0, LoadProfile.constant(0.0, -1e-3), 1.0, n=16)
    header, rows = read_table(write_elastica(tmp_path / "rod.csv", sol))
    assert header == ["x1", "theta", "kappa", "ybar1", "ybar2"]
    assert len(rows) == 17
    assert float(rows[0][0]) == 0.0 and float(rows[0][1]) == 0.0


def test_write_rotations_layout(tmp_path):
    mesh = build_mesh(1.0, 0.25, 16, 2)
    d = diagnose(mesh, mesh.rigid, G0, W)
    header, rows = read_table(write_rotations(tmp_path / "rot.csv", d))
    assert header == ["x1", "theta_h"]
    assert len(rows) == mesh.nx + 1


def test_write_moments_layout(tmp_path):
    mesh = build_mesh(1.0, 0.2, 4, 2)
    d = diagnose(mesh, random_field(mesh, seed=6), G0, W)
    header, rows = read_table(write_moments(tmp_path / "m.csv", d))
    assert header[0] == "x1"
    assert header[-1] == "hatG11"
    assert len(rows) == mesh.ncol
    assert float(rows[0][1]) == d.Ebar[0, 0, 0]
    assert float(rows[0][-1]) == d.Ghat[0, 0, 0]


def test_array_rows_format_like_per_cell_rows(tmp_path):
    # the reference rows pass every cell as a numpy scalar, row by row
    mesh = build_mesh(1.0, 0.2, 320, 2)
    y = random_field(mesh, seed=9)
    d = diagnose(mesh, y, G0, W)

    ids = np.arange(mesh.nnode)
    ix, iy = np.divmod(ids, mesh.ny + 1)
    ref = zip(ids, mesh.x1[ix], mesh.x2[iy], y[:, 0], y[:, 1])
    header = ["node_id", "x1", "x2", "y1", "y2"]
    expect = write_table(tmp_path / "ref_solution.csv", header, ref).read_bytes()
    assert write_solution(tmp_path / "solution.csv", mesh, y).read_bytes() == expect

    header, _ = read_table(write_moments(tmp_path / "moments.csv", d))
    ref = (
        (mesh.col_x[c], *d.Ebar[c].ravel(), *d.Ehat[c].ravel(), d.Ghat[c, 0, 0])
        for c in range(mesh.ncol)
    )
    expect = write_table(tmp_path / "ref_moments.csv", header, ref).read_bytes()
    assert (tmp_path / "moments.csv").read_bytes() == expect

    ref = zip(mesh.x1, d.node_theta)
    expect = write_table(tmp_path / "ref_rot.csv", ["x1", "theta_h"], ref).read_bytes()
    assert write_rotations(tmp_path / "rot.csv", d).read_bytes() == expect

    sol = solve_elastica(1.0, LoadProfile.constant(0.0, -1e-3), 1.0, n=16)
    ref = zip(sol.x, sol.theta, sol.kappa, sol.ybar[:, 0], sol.ybar[:, 1])
    header = ["x1", "theta", "kappa", "ybar1", "ybar2"]
    expect = write_table(tmp_path / "ref_rod.csv", header, ref).read_bytes()
    assert write_elastica(tmp_path / "rod.csv", sol).read_bytes() == expect


def test_float_tables_write_edge_values_like_per_cell_rows(tmp_path):
    # every float column of every float table cycles through the edge values,
    # shifted per column; the reference passes each cell to write_table as a
    # numpy scalar, row by row.  0.0 and -0.0 are equal but print apart, and
    # both NaNs print as nan
    nan_neg = np.copysign(np.nan, -1.0)
    edge = np.array([np.nan, nan_neg, np.inf, -np.inf, 0.0, -0.0, 5e-324, 1e-7, 1e16, 1e22])
    shift = iter(range(100))

    def column(*shape):
        idx = np.arange(int(np.prod(shape))).reshape(shape) + 3 * next(shift)
        return edge[idx % edge.size]

    def same_bytes(written, header, ref):
        expect = write_table(tmp_path / f"ref_{written.name}", header, ref).read_bytes()
        assert written.read_bytes() == expect
        return written.read_text()

    nx, ny, ncol = 7, 2, 10
    mesh = SimpleNamespace(
        nnode=(nx + 1) * (ny + 1), ny=ny, ncol=ncol, x1=column(nx + 1), x2=column(ny + 1),
        col_x=column(ncol),
    )
    y = column(mesh.nnode, 2)
    ids = np.arange(mesh.nnode)
    ix, iy = np.divmod(ids, ny + 1)
    mesh.nodes = np.column_stack([mesh.x1[ix], mesh.x2[iy]])  # build_mesh's node order
    ref = zip(ids, mesh.x1[ix], mesh.x2[iy], y[:, 0], y[:, 1])
    text = same_bytes(
        write_solution(tmp_path / "solution.csv", mesh, y), ["node_id", "x1", "x2", "y1", "y2"], ref
    )
    cells = ("nan", "inf", "-inf", "0.0", "-0.0", "5e-324", "1e-07", "1e+16", "1e+22")
    for cell in cells:
        assert f",{cell}," in text or f",{cell}\n" in text

    sol = SimpleNamespace(
        x=column(9), theta=column(9), kappa=column(9), ybar=column(9, 2)
    )
    ref = zip(sol.x, sol.theta, sol.kappa, sol.ybar[:, 0], sol.ybar[:, 1])
    header = ["x1", "theta", "kappa", "ybar1", "ybar2"]
    same_bytes(write_elastica(tmp_path / "rod.csv", sol), header, ref)

    d = SimpleNamespace(
        mesh=mesh, node_theta=column(nx + 1), Ebar=column(ncol, 2, 2), Ehat=column(ncol, 2, 2),
        Ghat=column(ncol, 2, 2),
    )
    ref = zip(mesh.x1, d.node_theta)
    same_bytes(write_rotations(tmp_path / "rot.csv", d), ["x1", "theta_h"], ref)

    written = write_moments(tmp_path / "moments.csv", d)
    ref = (
        (mesh.col_x[c], *d.Ebar[c].ravel(), *d.Ehat[c].ravel(), d.Ghat[c, 0, 0])
        for c in range(ncol)
    )
    same_bytes(written, read_table(written)[0], ref)
    # the barE columns alone, reshaped from 2x2 arrays, hold every edge value
    barE = {cell for row in read_table(written)[1] for cell in row[1:5]}
    assert barE.issuperset(cells)


@pytest.mark.parametrize("dtype", [np.int64, np.float32])
def test_float_tables_reject_other_dtypes(tmp_path, dtype):
    # the bit-pattern key reads 8-byte floats only
    d = SimpleNamespace(mesh=SimpleNamespace(x1=np.arange(4, dtype=dtype)))
    d.node_theta = np.zeros(4, dtype=dtype)
    with pytest.raises(TypeError, match=np.dtype(dtype).name):
        write_rotations(tmp_path / "rot.csv", d)


def test_identity_table_layout(tmp_path):
    rows_in = [
        IdentityRow(h=0.2, r1=0.1, r2=0.01, r3=1e-8, r4=1e-7, r5=5.0),
        IdentityRow(h=0.1, r1=0.05, r2=0.02, r3=1e-8, r4=1e-7, r5=5.5),
    ]
    header, rows = read_table(write_table(tmp_path / "ids.csv", IdentityRow._fields, rows_in))
    assert header == ["h", "r1", "r2", "r3", "r4", "r5"]
    assert [float(r[0]) for r in rows] == [0.2, 0.1]
    assert float(rows[1][1]) == 0.05


def test_convergence_table_layout(tmp_path):
    rows_in = [
        ConvergenceRow(h=0.2, theta_err_L2=2e-4, y_err_W12=0.2, energy_over_h2=3e-7),
        ConvergenceRow(h=0.1, theta_err_L2=1e-4, y_err_W12=0.1, energy_over_h2=3e-7),
    ]
    header, rows = read_table(write_table(tmp_path / "conv.csv", ConvergenceRow._fields, rows_in))
    assert header == ["h", "theta_err_L2", "y_err_W12", "energy_over_h2"]
    assert [float(r[1]) for r in rows] == [2e-4, 1e-4]
