import itertools
import math

import numpy as np
import pytest

from nlslab import (
    gaussian_field,
    get_propagator,
    lp_norm,
    make_spectral_grid,
)
from nlslab.grid import TimeRangeError, UnresolvedGridError

from tests.conftest import free_evolve


def gaussian_oracle(grid, t, width=1.0, amplitude=1.0):
    """Independent closed form for the free flow of a Gaussian: completing
    the square gives A (1 + 4it/w^2)^{-n/2} exp(-r^2/(w^2 + 4it))."""
    n = grid.dimension
    z = 1.0 + 4.0j * t / width**2
    return amplitude * z ** (-n / 2.0) * np.exp(-grid.nodes**2 / (width**2 * z))


def test_identity_at_zero(g3):
    u = gaussian_field(g3)
    out = free_evolve(u, 0.0)
    assert np.abs(out.values - u.values).max() < 1e-10


@pytest.mark.parametrize("t", [0.1, 0.35, -0.5, 1.0])
def test_l2_unitarity(g3, t):
    u = gaussian_field(g3, amplitude=1.3, width=0.8)
    assert abs(lp_norm(g3, free_evolve(u, t).values, 2) - lp_norm(g3, u.values, 2)) < 1e-9


@pytest.mark.parametrize("n", [3, 4, 5])
def test_gaussian_closed_form(n):
    g = make_spectral_grid(n, 512, 24.0)
    u = gaussian_field(g)
    for t in (0.25, 0.5, 1.0):
        out = free_evolve(u, t)
        assert np.abs(out.values - gaussian_oracle(g, t)).max() < 1e-6


def test_group_law(g3):
    u = gaussian_field(g3)
    for s, t in ((0.2, 0.3), (0.5, -0.2), (-0.1, -0.3)):
        two = free_evolve(free_evolve(u, s), t)
        one = free_evolve(u, s + t)
        assert np.abs(two.values - one.values).max() < 1e-8


def test_refuses_beyond_validated_span(g3):
    tr = get_propagator(g3)
    u = gaussian_field(g3)
    with pytest.raises(TimeRangeError, match="enlarge r_max"):
        free_evolve(u, 4.0 * tr.validated_t_max)


def test_evolve_coeffs_refuses_beyond_validated_span(g3):
    tr = get_propagator(g3)
    coeffs = tr.forward(gaussian_field(g3))
    for t in (tr.validated_t_max, -tr.validated_t_max):
        tr.evolve_coeffs(coeffs, t)  # the certified span itself is accepted
        with pytest.raises(TimeRangeError, match="enlarge r_max"):
            tr.evolve_coeffs(coeffs, 1.01 * t)


def test_evolve_coeffs_column_of_times_equals_per_time_calls(g3):
    tr = get_propagator(g3)
    coeffs = tr.forward(gaussian_field(g3))
    t_max = tr.validated_t_max
    times = np.linspace(-t_max, t_max, 9)
    stack = tr.evolve_coeffs(coeffs, times[:, None])
    assert stack.shape == (times.size, coeffs.size)
    for row, t in zip(stack, times):
        assert np.array_equal(row, tr.evolve_coeffs(coeffs, t))
        assert np.array_equal(row, tr.evolve_coeffs(coeffs, float(t)))
    for late in (1.01 * t_max, -1.01 * t_max):
        with pytest.raises(TimeRangeError, match="enlarge r_max"):
            tr.evolve_coeffs(coeffs, np.array([[0.0], [late], [0.5 * t_max]]))


@pytest.mark.parametrize(
    "n,n_points,r_max",
    [(4, 16, 16.0), (3, 16, 1e-6), (60, 64, 16.0), (10, 512, 8.0), (200, 32, 16.0)],
)
def test_unresolvable_grid_raises_grid_error(n, n_points, r_max):
    """Oracle, round-trip and Bessel-zero failures all name a remedy."""
    hint = "raise n_points, enlarge r_max or lower dimension"
    with pytest.raises(UnresolvedGridError, match=hint):
        get_propagator(make_spectral_grid(n, n_points, r_max))


@pytest.mark.parametrize(
    "n,n_points,r_max",
    list(itertools.product(range(3, 13), (16, 64, 256), (1e-3, 1.0, 16.0, 1e3))),
)
def test_every_grid_builds_or_is_unresolved(n, n_points, r_max):
    """Across dimensions, sizes and radii, a grid either builds its
    transform and certified propagator or raises UnresolvedGridError with
    a remedy; nothing else escapes."""
    try:
        tr = get_propagator(make_spectral_grid(n, n_points, r_max))
    except UnresolvedGridError as exc:
        assert "raise n_points, enlarge r_max or lower dimension" in str(exc)
        return
    kernel = tr.kernel
    assert np.abs(kernel.T @ kernel - np.eye(n_points)).max() < 1e-12
    assert tr.validated_t_max > 0


def test_validated_span_covers_unit_time(g3):
    assert get_propagator(g3).validated_t_max >= 1.0


def free_sup_norms(u, times):
    """sup |e^{i t lap} u| at each of the times, a row each."""
    tr = get_propagator(u.grid)
    evolved = tr.backward(tr.evolve_coeffs(tr.forward(u), np.asarray(times)[:, None]))
    return np.abs(evolved).max(axis=1)


def dispersive_slope(times, sups):
    """Least-squares slope of log sup|u(t)| against log t."""
    return float(np.polyfit(np.log(times), np.log(sups), 1)[0])


def dispersive_oracle_slope(n, times, width=1.0):
    """Least-squares slope computed from the closed form alone."""
    times = np.asarray(times)
    return dispersive_slope(times, (1.0 + (4 * times / width**2) ** 2) ** (-n / 4.0))


def test_dispersive_slope_n3_example():
    g = make_spectral_grid(3, 768, 96.0)
    times = np.geomspace(1.0, 4.0, 6)
    slope = dispersive_slope(times, free_sup_norms(gaussian_field(g), times))
    assert abs(slope - (-1.5)) < 0.05
    # and the measured slope agrees tightly with the closed-form oracle
    assert abs(slope - dispersive_oracle_slope(3, times)) < 5e-3


def test_dispersive_constant_n3():
    # max_t sup|u(t)| t^{n/2} / ||u||_{L^1} against (4 pi)^{-n/2}
    g = make_spectral_grid(3, 768, 96.0)
    u = gaussian_field(g)
    times = np.geomspace(1.0, 4.0, 6)
    l1 = float(np.sum(g.weights * np.abs(u.values)))
    constant = float((free_sup_norms(u, times) * times**1.5).max()) / l1
    assert constant <= (4 * math.pi) ** (-1.5) * 1.05
