"""Density values, derivatives, and the effective stretching modulus."""

import re

import numpy as np
import pytest

from striplab.algebra import ID2, det2, rot2
from striplab.energy import (
    HalfDistSquared,
    IsotropicQuadratic,
    taylor_remainder,
    tension_modulus,
)
from striplab.errors import ConfigError, DomainError

DENSITIES = [HalfDistSquared(), IsotropicQuadratic(1.0, 1.0), IsotropicQuadratic(2.0, 0.5)]


def density_id(W):
    """The class name spelled as `energy.kind`: HalfDistSquared -> half-dist-squared."""
    return re.sub(r"(?<!^)(?=[A-Z])", "-", type(W).__name__).lower()


def sample_states(seed, n=32, spread=0.4):
    rng = np.random.default_rng(seed)
    F = np.eye(2) + spread * rng.standard_normal((4 * n, 2, 2))
    F = F[det2(F) > 0.2]
    return F[:n]


def fd_stress(W, F, step=1e-7):
    out = np.empty_like(F)
    for i in range(2):
        for k in range(2):
            dF = np.zeros((2, 2))
            dF[i, k] = step
            out[..., i, k] = (W.energy(F + dF) - W.energy(F - dF)) / (2 * step)
    return out


def test_half_dist_values():
    W = HalfDistSquared()
    assert W.energy(np.eye(2)) == 0.0
    assert np.all(W.energy(rot2(np.linspace(-3, 3, 7))) < 1e-13)
    # uniaxial stretch by t: singular values (1+t, 1), so W = t^2 / 2
    for t in (0.1, 0.02, -0.05):
        assert W.energy(np.diag([1.0 + t, 1.0])) == pytest.approx(0.5 * t * t, rel=1e-12)


def test_isotropic_values():
    W = IsotropicQuadratic(1.0, 1.0)
    assert W.energy(np.eye(2)) == 0.0
    assert np.all(W.energy(rot2(np.linspace(-3, 3, 7))) < 1e-28)
    # vanishes on the reflection diag(1, -1): the documented coercivity gap
    assert W.energy(np.diag([1.0, -1.0])) == 0.0
    # Green strain of diag(1+t, 1) is diag(t + t^2/2, 0)
    t = 0.3
    e = t + 0.5 * t * t
    expect = 1.0 * e * e + 0.5 * 1.0 * e * e
    assert W.energy(np.diag([1.0 + t, 1.0])) == pytest.approx(expect, rel=1e-12)


@pytest.mark.parametrize("W", DENSITIES, ids=density_id)
def test_stress_matches_fd(W):
    F = sample_states(10, n=16)
    np.testing.assert_allclose(W.stress(F), fd_stress(W, F), rtol=2e-6, atol=2e-7)


@pytest.mark.parametrize("W", DENSITIES, ids=density_id)
def test_hessian_matches_fd_of_stress(W):
    F = sample_states(11, n=8)
    H = W.hessian(F)
    step = 1e-6
    for j in range(2):
        for l in range(2):
            dF = np.zeros((2, 2))
            dF[j, l] = step
            fd = (W.stress(F + dF) - W.stress(F - dF)) / (2 * step)
            np.testing.assert_allclose(H[..., :, :, j, l], fd, rtol=5e-5, atol=5e-6)


@pytest.mark.parametrize("W", DENSITIES, ids=density_id)
def test_frame_indifference(W):
    F = sample_states(12, n=16)
    for a in (0.3, -1.2, 2.9):
        np.testing.assert_allclose(W.energy(rot2(a) @ F), W.energy(F), rtol=1e-10, atol=1e-12)


@pytest.mark.parametrize("W", DENSITIES[1:], ids=lambda W: f"mu={W.mu},lam={W.lam}")
def test_isotropic_hessian_is_bitwise_the_einsum_form(W):
    F = np.eye(2) + 0.4 * np.random.default_rng(13).standard_normal((3, 5, 2, 2))
    S = W._second_pk(W.green(F))
    FFt = F @ np.swapaxes(F, -1, -2)
    eye = np.eye(2)
    expect = np.einsum("ij,...kl->...ikjl", eye, S)
    expect = expect + W.mu * np.einsum("...ij,kl->...ikjl", FFt, eye)
    expect = expect + W.mu * np.einsum("...il,...jk->...ikjl", F, F)
    expect = expect + W.lam * np.einsum("...ik,...jl->...ikjl", F, F)
    assert np.array_equal(W.hessian(F), expect)


def test_half_dist_hessian_is_bitwise_the_einsum_form():
    W = HalfDistSquared()
    F = sample_states(14, n=24).reshape(3, 8, 2, 2)
    u = F[..., 0, 0] + F[..., 1, 1]
    v = F[..., 1, 0] - F[..., 0, 1]
    r = np.hypot(u, v)
    c, s = u / r, v / r
    T = np.stack([np.stack([-s, -c], -1), np.stack([c, -s], -1)], -2)
    eye = np.einsum("ij,kl->ikjl", np.eye(2), np.eye(2))
    expect = np.broadcast_to(eye, F.shape + (2, 2)).copy()
    expect -= np.einsum("...ik,...jl->...ikjl", T, T) / r[..., None, None, None, None]
    assert np.array_equal(W.hessian(F), expect)
    assert W.hessian(np.eye(2)).shape == (2, 2, 2, 2)


def test_half_dist_stress_is_bitwise_f_minus_the_nearest_rotation():
    W = HalfDistSquared()
    F = sample_states(15, n=24).reshape(3, 8, 2, 2)
    u = F[..., 0, 0] + F[..., 1, 1]
    v = F[..., 1, 0] - F[..., 0, 1]
    r = np.hypot(u, v)
    c, s = u / r, v / r
    R = np.stack([np.stack([c, -s], -1), np.stack([s, c], -1)], -2)
    assert np.array_equal(W.stress(F), F - R)
    assert np.array_equal(W.stress(np.eye(2)), np.zeros((2, 2)))


def test_half_dist_rejects_nonpositive_det():
    W = HalfDistSquared()
    with pytest.raises(DomainError):
        W.stress(np.diag([1.0, -1.0]))
    with pytest.raises(DomainError):
        W.hessian(np.diag([1.0, 0.0]))


def test_modulus_half_dist_is_one():
    assert tension_modulus(HalfDistSquared()) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("mu,lam", [(1.0, 1.0), (2.0, 0.5), (0.7, 3.0), (1.0, 0.0)])
def test_modulus_isotropic_closed_form(mu, lam):
    W = IsotropicQuadratic(mu, lam)
    expect = 4.0 * mu * (mu + lam) / (2.0 * mu + lam)
    assert tension_modulus(W) == pytest.approx(expect, rel=1e-12)


def test_modulus_isotropic_unit_parameters():
    assert tension_modulus(IsotropicQuadratic(1.0, 1.0)) == pytest.approx(8.0 / 3.0, rel=1e-12)


def test_linearization_annihilates_skew_for_half_dist():
    H = HalfDistSquared().hessian(ID2)
    skew = np.array([[0.0, -1.0], [1.0, 0.0]])
    np.testing.assert_allclose(np.einsum("ikjl,jl->ik", H, skew), np.zeros((2, 2)), atol=1e-9)
    sym = np.array([[0.2, 0.1], [0.1, -0.3]])
    np.testing.assert_allclose(np.einsum("ikjl,jl->ik", H, sym), sym, atol=1e-9)


@pytest.mark.parametrize("W", DENSITIES, ids=density_id)
def test_taylor_remainder_superlinear(W):
    rng = np.random.default_rng(21)
    A = rng.standard_normal((2, 2))
    ts = np.array([1e-2, 5e-3, 2.5e-3])
    rem = taylor_remainder(W, ts[:, None, None] * A)
    rnorm = np.sqrt(np.sum(rem**2, axis=(-2, -1)))
    if rnorm.max() >= 1e-14:
        ratios = rnorm[:-1] / rnorm[1:]
        # o(t): halving t must shrink the remainder faster than linearly
        assert np.all(ratios > 2.5)
