"""2x2 helper verification against numpy/scipy factorizations."""

import importlib.util
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.linalg import polar as scipy_polar

from striplab import algebra
from striplab.algebra import det2, dist_so2, frob, polar_angle, rot2, trace2, trans2
from striplab.errors import DomainError

# entries bounded away from the degenerate cone so det F > 0 is decidable
finite_entry = st.floats(-3.0, 3.0, allow_nan=False, allow_infinity=False)


def random_posdet(seed, n=64):
    """Matrices Id + 0.4 N(0,1), conditioned on det > 0.05."""
    rng = np.random.default_rng(seed)
    F = np.eye(2) + 0.4 * rng.standard_normal((4 * n, 2, 2))
    F = F[det2(F) > 0.05]
    assert F.shape[0] >= n
    return F[:n]


def test_rot2_orthogonal_and_composes():
    a = np.linspace(-3.0, 3.0, 17)
    R = rot2(a)
    np.testing.assert_allclose(trans2(R) @ R, np.broadcast_to(np.eye(2), R.shape), atol=1e-15)
    np.testing.assert_allclose(rot2(0.3) @ rot2(0.5), rot2(0.8), atol=1e-15)
    assert det2(R) == pytest.approx(1.0, abs=1e-15)


def test_polar_angle_recovers_rotation_angle():
    phi = np.linspace(-np.pi + 1e-6, np.pi, 23)
    np.testing.assert_allclose(polar_angle(rot2(phi)), phi, atol=1e-14)


def test_polar_angle_rejects_nonpositive_det():
    with pytest.raises(DomainError):
        polar_angle(np.diag([1.0, -1.0]))
    with pytest.raises(DomainError):
        polar_angle(np.diag([1.0, 0.0]))


def test_polar_rotation_against_scipy():
    for F in random_posdet(1, n=32):
        R, _ = scipy_polar(F)
        np.testing.assert_allclose(rot2(polar_angle(F)), R, atol=1e-12)


def test_polar_rotation_maximizes_trace():
    # tr(R^T F) over sampled rotations never beats the polar factor
    F = random_posdet(2, n=8)
    angles = np.linspace(-np.pi, np.pi, 720)
    best = rot2(polar_angle(F))
    val = frob(best, F)
    grid = np.einsum("aij,nij->na", rot2(angles), F)
    assert np.all(val >= grid.max(axis=1) - 1e-10)


def test_dist_so2_against_svd_formula():
    rng = np.random.default_rng(3)
    F = 1.5 * rng.standard_normal((128, 2, 2))  # both det signs
    s = np.linalg.svd(F, compute_uv=False)
    d = det2(F)
    ref = np.where(
        d >= 0.0,
        np.hypot(s[:, 0] - 1.0, s[:, 1] - 1.0),
        np.hypot(s[:, 0] - 1.0, s[:, 1] + 1.0),
    )
    np.testing.assert_allclose(dist_so2(F), ref, rtol=1e-12, atol=1e-14)


def test_dist_so2_vanishes_exactly_on_rotations():
    assert dist_so2(np.eye(2)) == 0.0
    assert np.all(dist_so2(rot2(np.linspace(-3, 3, 9))) < 1e-7)


def test_dist_so2_keeps_full_precision_near_the_identity():
    # the distance is O(1e-5) while F is O(1); sqrt(|F|^2 + 2 - 2r) would
    # miss by about 2e-4 relative, the closed form must not
    rng = np.random.default_rng(5)
    F = np.eye(2) + 1e-5 * rng.standard_normal((4096, 2, 2))
    G = F.astype(np.longdouble)
    r = np.hypot(G[:, 0, 0] + G[:, 1, 1], G[:, 1, 0] - G[:, 0, 1])
    q = np.hypot(G[:, 0, 0] - G[:, 1, 1], G[:, 0, 1] + G[:, 1, 0])
    ref = np.hypot(r - 2, q) / np.sqrt(np.longdouble(2))
    np.testing.assert_allclose(dist_so2(F), ref.astype(float), rtol=1e-9, atol=0.0)


def test_dist_so2_continuous_across_singular_set():
    eps = 1e-9
    lo = dist_so2(np.diag([1.0, -eps]))
    hi = dist_so2(np.diag([1.0, eps]))
    assert abs(lo - hi) < 1e-8


@settings(max_examples=60, deadline=None)
@given(
    st.tuples(finite_entry, finite_entry, finite_entry, finite_entry),
    st.floats(-3.1, 3.1, allow_nan=False),
)
# equal singular values: the closed form must not cancel to half precision here
@example(entries=(-1 / 3, -1 / 3, -1 / 3, 1 / 3), angle=0.5)
def test_dist_so2_frame_indifferent(entries, angle):
    F = np.array(entries).reshape(2, 2)
    np.testing.assert_allclose(dist_so2(rot2(angle) @ F), dist_so2(F), rtol=1e-10, atol=1e-10)


@settings(max_examples=60, deadline=None)
@given(st.tuples(finite_entry, finite_entry, finite_entry, finite_entry))
def test_sym_skew_split(entries):
    F = np.array(entries).reshape(2, 2)
    assert trace2(F) == pytest.approx(F[0, 0] + F[1, 1])
    assert det2(F) == pytest.approx(np.linalg.det(F), rel=1e-10, abs=1e-12)


def test_missing_lapack_extension_raises_naming_it_and_the_scipy_floor(monkeypatch):
    # scipy.linalg, imported above, holds the extension; without it and
    # without scipy, the loader must say what is missing
    monkeypatch.delitem(sys.modules, "scipy.linalg._flapack")
    monkeypatch.setattr(importlib.util, "find_spec", lambda name: None)
    algebra._flapack.cache_clear()
    with pytest.raises(ImportError, match=r"scipy\.linalg\._flapack.*scipy>=1\.13"):
        algebra._flapack()
