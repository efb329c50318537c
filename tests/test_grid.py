import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nlslab import (
    RadialField,
    RadialGrid,
    gaussian_field,
    lp_norm,
    make_spectral_grid,
)
from nlslab.functionals import energy
from nlslab.grid import GridError, sphere_area
from nlslab.transform import get_transform


# ---------------------------------------------------------------------------
# quadrature


@pytest.mark.parametrize("make", [make_spectral_grid])
def test_integrate_gaussian_n3(make):
    # int exp(-r^2) dx over R^3 = pi^{3/2}
    g = make(3, 1024, 8.0)
    val = np.sum(g.weights * np.exp(-g.nodes**2))
    assert abs(val - math.pi**1.5) < 1e-8


@pytest.mark.parametrize("make", [make_spectral_grid])
def test_integrate_exponential_n3(make):
    # int exp(-r) dx = 4 pi Gamma(3) = 8 pi
    g = make(3, 2048, 40.0)
    val = np.sum(g.weights * np.exp(-g.nodes))
    assert abs(val - 8 * math.pi) < 1e-6


def test_weights_sum_to_ball_volume():
    for n in (3, 5):
        g = make_spectral_grid(n, 512, 10.0)
        vol = sphere_area(n) * g.r_max**n / n
        assert abs(g.weights.sum() - vol) / vol < 5.0 / g.n_points


# ---------------------------------------------------------------------------
# lp norms


def test_lp_zero(g3):
    assert lp_norm(g3.field(np.zeros(g3.n_points)), 2) == 0.0


def test_l2_gaussian(g3):
    # ||e^{-r^2}||_{L^2}: int e^{-2r^2} dx = (pi/2)^{3/2}
    u = g3.field(np.exp(-g3.nodes**2))
    assert abs(lp_norm(u, 2) - (math.pi / 2) ** 0.75) < 1e-8


def test_linf_gaussian(g3):
    u = g3.field(np.exp(-g3.nodes**2))
    assert abs(lp_norm(u, math.inf) - np.exp(-g3.nodes[0] ** 2)) == 0.0
    # with an origin node the supremum of exp(-r^2) is exactly 1
    r = np.linspace(0.0, 8.0, 64)
    gu = RadialGrid(3, r, np.ones_like(r), 8.0)
    assert lp_norm(gu.field(np.exp(-gu.nodes**2)), math.inf) == 1.0


def test_lp_invalid_exponent(g3):
    with pytest.raises(ValueError):
        lp_norm(g3.field(np.zeros(g3.n_points)), 0.5)


# ---------------------------------------------------------------------------
# laplacian (spectral: lap = -|grad|^2)


def test_laplacian_gaussian_n5():
    # lap e^{-r^2} = (4r^2 - 2n) e^{-r^2}
    g = make_spectral_grid(5, 512, 12.0)
    r = g.nodes
    tr = get_transform(g)
    out = tr.backward(tr.coefficients(np.exp(-(r**2))) * tr.frequencies**2)
    exact = (4 * r**2 - 10) * np.exp(-(r**2))
    assert np.abs(-out - exact).max() < 1e-7


# ---------------------------------------------------------------------------
# grid construction


def test_laplacian_needs_three_nodes():
    with pytest.raises(GridError):
        RadialGrid(3, np.array([0.0, 1.0]), np.ones(2), 1.0)


# ---------------------------------------------------------------------------
# critical scaling  u -> lam^{-(n-2)/2} u(x / lam), of exp(-r^2) in closed form


def scaled_gaussian(grid, lam):
    return gaussian_field(grid, lam ** (-(grid.dimension - 2) / 2.0), lam)


@pytest.mark.parametrize("lam", [0.5, 0.8, 1.3, 2.0])
def test_rescale_energy_invariance(lam):
    g = make_spectral_grid(3, 1024, 32.0)
    k0 = energy(scaled_gaussian(g, 1.0), 1).kinetic
    k1 = energy(scaled_gaussian(g, lam), 1).kinetic
    assert abs(k1 - k0) / k0 < 1e-12


@pytest.mark.parametrize("lam", [0.5, 2.0])
def test_rescale_critical_norm_invariance(lam):
    g = make_spectral_grid(3, 1024, 32.0)
    p = 2.0 * 3 / (3 - 2)
    c0 = lp_norm(scaled_gaussian(g, 1.0), p)
    c1 = lp_norm(scaled_gaussian(g, lam), p)
    assert abs(c1 - c0) / c0 < 1e-12


@given(st.floats(min_value=0.6, max_value=1.6))
@settings(max_examples=20, deadline=None)
def test_rescale_l2_scaling_law(lam):
    # ||lam^{-1/2} u(x / lam)||_2 = lam ||u||_2 in n = 3  (L^2 is not critical)
    g = make_spectral_grid(3, 256, 16.0)
    u = g.field(np.exp(-g.nodes**2))
    assert abs(lp_norm(scaled_gaussian(g, lam), 2) - lam * lp_norm(u, 2)) < 1e-12


def test_field_length_mismatch(g3):
    with pytest.raises(GridError):
        RadialField(g3, np.zeros(3))
