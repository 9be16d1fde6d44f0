"""Density values, derivatives, and the effective stretching modulus."""

import numpy as np
import pytest

from striplab import (
    HalfDistSquared,
    IsotropicQuadratic,
    linearize,
    make_density,
    modulus_closed_form,
    rot2,
)
from striplab.algebra import det2
from striplab.energy import BASIS, taylor_remainder
from striplab.errors import ConfigError, DomainError

DENSITIES = [HalfDistSquared(), IsotropicQuadratic(1.0, 1.0), IsotropicQuadratic(2.0, 0.5)]


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


@pytest.mark.parametrize("W", DENSITIES, ids=lambda W: W.kind)
def test_stress_matches_fd(W):
    F = sample_states(10, n=16)
    np.testing.assert_allclose(W.stress(F), fd_stress(W, F), rtol=2e-6, atol=2e-7)


@pytest.mark.parametrize("W", DENSITIES, ids=lambda W: W.kind)
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


@pytest.mark.parametrize("W", DENSITIES, ids=lambda W: W.kind)
def test_frame_indifference(W):
    F = sample_states(12, n=16)
    for a in (0.3, -1.2, 2.9):
        np.testing.assert_allclose(W.energy(rot2(a) @ F), W.energy(F), rtol=1e-10, atol=1e-12)


def test_half_dist_rejects_nonpositive_det():
    W = HalfDistSquared()
    with pytest.raises(DomainError):
        W.stress(np.diag([1.0, -1.0]))
    with pytest.raises(DomainError):
        W.hessian(np.diag([1.0, 0.0]))


def test_modulus_half_dist_is_one():
    assert linearize(HalfDistSquared()).modulus == pytest.approx(1.0, abs=1e-12)
    assert modulus_closed_form(HalfDistSquared()) == 1.0


@pytest.mark.parametrize("mu,lam", [(1.0, 1.0), (2.0, 0.5), (0.7, 3.0), (1.0, 0.0)])
def test_modulus_isotropic_closed_form(mu, lam):
    W = IsotropicQuadratic(mu, lam)
    expect = 4.0 * mu * (mu + lam) / (2.0 * mu + lam)
    assert modulus_closed_form(W) == pytest.approx(expect, rel=1e-15)
    assert linearize(W).modulus == pytest.approx(expect, rel=1e-12)


def test_modulus_isotropic_unit_parameters():
    assert modulus_closed_form(IsotropicQuadratic(1.0, 1.0)) == pytest.approx(8.0 / 3.0, rel=1e-15)


def test_linearization_apply_matches_matrix():
    lin = linearize(IsotropicQuadratic(1.3, 0.4))
    out = lin.apply(BASIS)  # (4, 2, 2)
    coeff = np.einsum("pij,qij->pq", out, BASIS)
    np.testing.assert_allclose(coeff, lin.matrix.T @ np.eye(4), atol=1e-12)


def test_linearization_annihilates_skew_for_half_dist():
    lin = linearize(HalfDistSquared())
    skew = np.array([[0.0, -1.0], [1.0, 0.0]])
    np.testing.assert_allclose(lin.apply(skew), np.zeros((2, 2)), atol=1e-9)
    sym = np.array([[0.2, 0.1], [0.1, -0.3]])
    np.testing.assert_allclose(lin.apply(sym), sym, atol=1e-9)


@pytest.mark.parametrize("W", DENSITIES, ids=lambda W: W.kind)
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


def test_make_density_spelling_and_errors():
    assert isinstance(make_density("half-dist-squared"), HalfDistSquared)
    assert isinstance(make_density("half_dist_squared"), HalfDistSquared)
    W = make_density("isotropic_quadratic", mu=2.0, lam=1.0)
    assert isinstance(W, IsotropicQuadratic) and W.mu == 2.0
    with pytest.raises(ConfigError):
        make_density("neo-hookean")
    with pytest.raises(ConfigError):
        IsotropicQuadratic(mu=-1.0)
    with pytest.raises(ConfigError):
        IsotropicQuadratic(mu=1.0, lam=-0.5)
