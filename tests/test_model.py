"""Grids, fields, potentials and observables."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diracsplit.model import (
    PhysParams,
    SpinorField,
    constant_potential,
    current,
    custom_sampled_potential,
    density,
    gaussian_ic,
    honeycomb_potential,
    make_grid,
    mass,
    rational_potential_1d,
    zero_potential,
)

from conftest import random_field


def dense_honeycomb(theta, t, grid):
    """The honeycomb V by its defining formula, one dense cos per node and k."""
    kappa = 4.0 * math.pi / math.sqrt(3.0)
    X, Y = grid.nodes()
    out = np.zeros(grid.shape)
    for k in range(3):
        ang = theta(t) + 2.0 * k * math.pi / 3.0
        out += np.cos(kappa * (math.cos(ang) * X + math.sin(ang) * Y))
    return out


THETAS = {
    "constant": lambda t: math.pi,
    "linear": lambda t: math.pi + math.pi * t,
    "cosine": lambda t: math.pi + math.pi * math.cos(math.pi * t),
}


class TestPhysParams:
    def test_defaults_are_unit(self):
        p = PhysParams()
        assert (p.delta, p.nu, p.epsilon) == (1.0, 1.0, 1.0)

    @pytest.mark.parametrize("name", ["delta", "nu", "epsilon"])
    @pytest.mark.parametrize("bad", [0.0, -0.5, 1.5, float("nan"), float("inf")])
    def test_rejects_out_of_range(self, name, bad):
        with pytest.raises(ValueError):
            PhysParams(**{name: bad})

    def test_accepts_open_interval(self):
        p = PhysParams(delta=0.25, nu=1e-6, epsilon=1.0)
        assert p.epsilon == 1.0


class TestGrid:
    def test_spacing_and_shape(self):
        g = make_grid(1, -16.0, 16.0, 512)
        assert g.h == pytest.approx(1.0 / 16.0)
        assert g.shape == (512,)
        g2 = make_grid(2, -8.0, 8.0, 128)
        assert g2.shape == (128, 128)

    def test_nodes_exclude_right_endpoint(self):
        g = make_grid(1, 0.0, 1.0, 4)
        np.testing.assert_allclose(g.axis_nodes(), [0.0, 0.25, 0.5, 0.75])

    @pytest.mark.parametrize("M", [0, 2**0, 3, 511, -4])
    def test_rejects_bad_node_counts(self, M):
        with pytest.raises(ValueError):
            make_grid(1, -1.0, 1.0, M)

    def test_rejects_empty_interval(self):
        with pytest.raises(ValueError):
            make_grid(1, 1.0, 1.0, 8)

    def test_nearest_index_wraps(self):
        g = make_grid(1, -1.0, 1.0, 4)
        assert g.nearest_index(-1.0) == (0,)
        assert g.nearest_index(0.99) == (0,)
        g2 = make_grid(2, -1.0, 1.0, 4)
        assert g2.nearest_index((0.0, -0.5)) == (2, 1)


class TestSpinorField:
    def test_shape_checked(self, grid1d):
        with pytest.raises(ValueError):
            SpinorField(grid1d, np.zeros((2, grid1d.M + 1)))

    def test_check_finite_raises_on_nan(self, field1d):
        field1d.values[0, 3] = complex(float("nan"), 0.0)
        with pytest.raises(FloatingPointError):
            field1d.check_finite()

    def test_copy_is_deep(self, field1d):
        other = field1d.copy()
        other.values[0, 0] = 99.0
        assert field1d.values[0, 0] != 99.0


class TestGaussianInitialData:
    def test_mass_matches_quadrature_1d(self):
        # The periodic trapezoid rule on smooth decaying data is spectrally
        # accurate, so the discrete mass must match the continuum integral
        # of e^{-x^2} + e^{-(x-1)^2}, namely 2*sqrt(pi), to near round-off.
        import mpmath

        g = make_grid(1, -16.0, 16.0, 256)
        f = gaussian_ic(g, (0.0, 1.0))
        exact = 2.0 * float(mpmath.sqrt(mpmath.pi))
        assert mass(f) == pytest.approx(exact, rel=1e-14)

    def test_mass_matches_quadrature_2d(self):
        g = make_grid(2, -8.0, 8.0, 64)
        f = gaussian_ic(g, ((0.0, 0.0), (1.0, 0.0)))
        assert mass(f) == pytest.approx(2.0 * math.pi, rel=1e-13)

    def test_peaks_sit_at_centers(self):
        g = make_grid(1, -16.0, 16.0, 128)
        f = gaussian_ic(g, (0.0, 1.0))
        assert abs(f.values[0, g.nearest_index(0.0)[0]]) == pytest.approx(1.0)
        assert abs(f.values[1, g.nearest_index(1.0)[0]]) == pytest.approx(1.0)

    def test_center_count_checked(self, grid1d):
        with pytest.raises(ValueError):
            gaussian_ic(grid1d, (0.0,))

    def test_center_dimension_checked(self, grid2d):
        with pytest.raises(ValueError):
            gaussian_ic(grid2d, (0.0, 1.0))


class TestPotentials:
    def test_zero_and_constant(self, grid1d):
        assert zero_potential().sample(0.3, 2.0) == 0.0
        p = constant_potential(2.5)
        assert p.sample(0.0, -1.0) == 2.5
        np.testing.assert_array_equal(p.sample_grid(0.0, grid1d),
                                      np.full(grid1d.shape, 2.5))

    def test_rational_profile(self, grid1d):
        p = rational_potential_1d()
        assert p.sample(0.0, 0.0) == pytest.approx(1.0)
        assert p.sample(5.0, 1.0) == pytest.approx(0.0)
        assert p.sample(0.0, -1.0) == pytest.approx(1.0)
        (x,) = grid1d.nodes()
        np.testing.assert_allclose(p.sample_grid(0.0, grid1d),
                                   (1.0 - x) / (1.0 + x * x))

    def test_rational_rejects_2d(self, grid2d):
        with pytest.raises(ValueError):
            rational_potential_1d().sample_grid(0.0, grid2d)

    def test_honeycomb_point_vs_grid(self, grid2d):
        p = honeycomb_potential("constant")
        table = p.sample_grid(0.0, grid2d)
        j, l = 3, 11
        x = (grid2d.axis_nodes()[j], grid2d.axis_nodes()[l])
        assert table[j, l] == pytest.approx(p.sample(0.0, x), abs=1e-12)

    def test_honeycomb_value_at_origin(self):
        # All three cosines are 1 at x = 0 regardless of orientation.
        for mode in ("constant", "linear", "cosine"):
            p = honeycomb_potential(mode)
            assert p.sample(0.37, (0.0, 0.0)) == pytest.approx(3.0)

    def test_honeycomb_time_dependence_flags(self):
        assert honeycomb_potential("constant").time_independent
        assert not honeycomb_potential("linear").time_independent
        assert not honeycomb_potential("cosine").time_independent

    def test_honeycomb_theta_modes_differ_at_positive_time(self):
        g = make_grid(2, -4.0, 4.0, 16)
        v_const = honeycomb_potential("constant").sample_grid(0.5, g)
        v_linear = honeycomb_potential("linear").sample_grid(0.5, g)
        assert np.max(np.abs(v_const - v_linear)) > 0.1

    def test_honeycomb_theta_modes_agree_at_t0(self):
        # theta(0) = pi for all three modes (cos(0) = 1 in the cosine mode).
        g = make_grid(2, -4.0, 4.0, 16)
        v0 = honeycomb_potential("constant").sample_grid(0.0, g)
        for mode in ("linear", "cosine"):
            np.testing.assert_allclose(
                honeycomb_potential(mode).sample_grid(0.0, g), v0, atol=1e-12)

    @pytest.mark.parametrize("box", [(-8.0, 8.0), (-3.0, 5.0)], ids=["centred", "off-centre"])
    @pytest.mark.parametrize("M", [16, 256])
    @pytest.mark.parametrize("mode", sorted(THETAS))
    def test_honeycomb_grid_matches_dense_formula(self, mode, M, box):
        g = make_grid(2, *box, M)
        p = honeycomb_potential(mode)
        for t in (0.0, 0.3, 0.77, 1.0):
            np.testing.assert_allclose(p.sample_grid(t, g), dense_honeycomb(THETAS[mode], t, g),
                                       rtol=0.0, atol=1e-13)

    def test_honeycomb_rejects_unknown_mode(self):
        with pytest.raises(ValueError):
            honeycomb_potential("quadratic")

    def test_custom_sampled_round_trip(self, grid1d, rng):
        table = rng.standard_normal(grid1d.shape)
        p = custom_sampled_potential(grid1d, table)
        np.testing.assert_array_equal(p.sample_grid(0.0, grid1d), table)
        assert p.sample(0.0, grid1d.axis_nodes()[5]) == table[5]
        assert p.time_independent

    def test_custom_sampled_keeps_its_own_table(self, grid1d, rng):
        values = rng.standard_normal(grid1d.shape)
        p = custom_sampled_potential(grid1d, values)
        expected = values.copy()
        values[:] = 5.0
        np.testing.assert_array_equal(p.sample_grid(0.0, grid1d), expected)
        out = p.sample_grid(0.0, grid1d)
        with pytest.raises(ValueError, match="read-only"):
            out[0] = 5.0
        np.testing.assert_array_equal(p.sample_grid(0.0, grid1d), expected)

    def test_custom_sampled_rejects_other_grid(self, grid1d, rng):
        p = custom_sampled_potential(grid1d, rng.standard_normal(grid1d.shape))
        other = make_grid(1, -8.0, 8.0, 32)
        with pytest.raises(ValueError):
            p.sample_grid(0.0, other)

    def test_custom_sampled_rejects_nan(self, grid1d):
        table = np.zeros(grid1d.shape)
        table[0] = float("nan")
        with pytest.raises(ValueError):
            custom_sampled_potential(grid1d, table)

    def test_cache_tokens_distinguish_potentials(self):
        tokens = {
            zero_potential().cache_token,
            constant_potential(1.0).cache_token,
            constant_potential(2.0).cache_token,
            rational_potential_1d().cache_token,
            honeycomb_potential("constant").cache_token,
            honeycomb_potential("linear").cache_token,
        }
        assert len(tokens) == 6


class TestObservables:
    def test_mass_is_weighted_norm(self, grid1d, rng):
        f = random_field(grid1d, rng)
        expected = grid1d.h * np.sum(np.abs(f.values) ** 2)
        assert mass(f) == pytest.approx(expected, rel=1e-14)

    def test_density_sums_components(self, grid1d, rng):
        f = random_field(grid1d, rng)
        np.testing.assert_allclose(
            density(f), np.abs(f.values[0]) ** 2 + np.abs(f.values[1]) ** 2)

    def test_current_1d_shape_and_value(self, grid1d, rng):
        f = random_field(grid1d, rng)
        J = current(f)
        assert J.shape == (1, grid1d.M)
        np.testing.assert_allclose(
            J[0], 2.0 * np.real(np.conj(f.values[0]) * f.values[1]))

    def test_current_2d_components(self, grid2d, rng):
        f = random_field(grid2d, rng)
        J = current(f)
        assert J.shape == (2, grid2d.M, grid2d.M)
        cross = np.conj(f.values[0]) * f.values[1]
        np.testing.assert_allclose(J[0], 2.0 * cross.real)
        np.testing.assert_allclose(J[1], 2.0 * cross.imag)

    @given(phase=st.floats(-10.0, 10.0))
    @settings(max_examples=25, deadline=None)
    def test_observables_are_global_phase_invariant(self, phase):
        g = make_grid(1, -4.0, 4.0, 16)
        rng = np.random.default_rng(7)
        f = random_field(g, rng)
        rotated = SpinorField(g, f.values * np.exp(1.0j * phase))
        assert mass(rotated) == pytest.approx(mass(f), rel=1e-12)
        np.testing.assert_allclose(density(rotated), density(f), rtol=1e-12)
        np.testing.assert_allclose(current(rotated), current(f),
                                   rtol=1e-9, atol=1e-12)
