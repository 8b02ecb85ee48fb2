"""Fourier transforms and the exact split flows."""

import sys
import threading
import time
import types
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diracsplit.model import (
    PhysParams,
    SpinorBatch,
    SpinorField,
    constant_potential,
    custom_sampled_potential,
    gaussian_ic,
    honeycomb_potential,
    make_grid,
    mass,
    rational_potential_1d,
)
from diracsplit import spectral
from diracsplit.schemes import Propagator, catalog
from diracsplit.spectral import (
    SpectralCache,
    WFlowCache,
    _unit_phase,
    apply_T_flow,
    apply_W_flow,
)

from conftest import random_field


def forward_transform(field):
    """Fourier coefficients U~_l = (1/M^dim) sum_j U_j e^{-2 pi i j.l / M}.

    Output has the same shape as field.values with modes in FFT layout
    (l = 0..M/2-1, -M/2..-1 per axis).
    """
    axes = tuple(range(1, 1 + field.grid.dim))
    scale = 1.0 / field.grid.M ** field.grid.dim
    return np.fft.fftn(field.values, axes=axes) * scale


def inverse_transform(coefficients, grid):
    """Inverse of `forward_transform`: U_j = sum_l U~_l e^{2 pi i j.l / M}."""
    if coefficients.shape != (2, *grid.shape):
        raise ValueError(
            f"coefficient shape {coefficients.shape} does not match grid {(2, *grid.shape)}"
        )
    axes = tuple(range(1, 1 + grid.dim))
    scale = grid.M ** grid.dim
    return SpinorField(grid, np.fft.ifftn(coefficients, axes=axes) * scale)


def gamma(cache):
    """The per-mode generator Gamma = -i H/(delta eps^2), shape (*shape, 2, 2)."""
    scale = -1.0j * cache.phase_scale
    out = np.empty((*cache.grid.shape, 2, 2), dtype=np.complex128)
    out[..., 0, 0] = scale * cache.nz
    out[..., 0, 1] = scale * (cache.nx - 1.0j * cache.ny)
    out[..., 1, 0] = scale * (cache.nx + 1.0j * cache.ny)
    out[..., 1, 1] = -scale * cache.nz
    return out


def dense_T_matrix(params, grid):
    """The split generator T as a dense matrix on the 2*M^dim unknowns.

    Built directly from the per-mode generator Gamma = -i H/(delta eps^2)
    conjugated by the DFT, for use with scipy's expm as an oracle.
    """
    cache = SpectralCache(params, grid)
    per_mode = gamma(cache).reshape(-1, 2, 2)
    n = grid.M ** grid.dim
    F = np.fft.fft(np.eye(grid.M), axis=0) / grid.M
    if grid.dim == 2:
        F = np.kron(F, F)
    Finv = np.conj(F).T * n  # F is unitary up to 1/M^dim: F^{-1} = M^dim F*
    T = np.zeros((2 * n, 2 * n), dtype=np.complex128)
    for a in range(2):
        for b in range(2):
            T[a * n:(a + 1) * n, b * n:(b + 1) * n] = Finv @ np.diag(per_mode[:, a, b]) @ F
    return T


def plain_rotation(cache, ctau):
    """The rotation pair (A, B) from complex temporaries, the table builder's oracle."""
    ph = float(ctau) * cache.phase_scale
    s = np.sin(ph)
    return np.cos(ph) - 1.0j * s * cache.nz, (-1.0j * s) * (cache.nx - 1.0j * cache.ny)


def plain_phases(potential, grid, params, ctau):
    """The W phase table e^{-i c tau V/delta} from cos and sin of a fresh argument."""
    arg = -float(ctau) * (potential.sample_grid(0.0, grid) / params.delta)
    return np.cos(arg) + 1.0j * np.sin(arg)


def plain_T_flow(field, ctau, cache):
    """Closed-form e^{c tau T} without tables or in-place FFTs: the oracle.

    Recomputes cos/sin per call and mixes freshly allocated spectra; the
    library's table-driven, in-place flow must agree with it to round-off.
    """
    axes = tuple(range(1, 1 + field.grid.dim))
    u = np.fft.fftn(field.values, axes=axes)
    ph = float(ctau) * cache.phase_scale
    c = np.cos(ph)
    s = np.sin(ph)
    u1, u2 = u[0], u[1]
    new1 = (c - 1.0j * s * cache.nz) * u1 + (-1.0j * s) * (cache.nx - 1.0j * cache.ny) * u2
    new2 = (-1.0j * s) * (cache.nx + 1.0j * cache.ny) * u1 + (c + 1.0j * s * cache.nz) * u2
    return SpinorField(field.grid, np.fft.ifftn(np.stack((new1, new2)), axes=axes))


class TestTransforms:
    def test_round_trip_1d(self, grid1d, rng):
        f = random_field(grid1d, rng)
        back = inverse_transform(forward_transform(f), grid1d)
        np.testing.assert_allclose(back.values, f.values, atol=1e-13)

    def test_round_trip_2d(self, grid2d, rng):
        f = random_field(grid2d, rng)
        back = inverse_transform(forward_transform(f), grid2d)
        np.testing.assert_allclose(back.values, f.values, atol=1e-13)

    def test_normalization_of_constant_field(self, grid1d):
        f = SpinorField(grid1d, np.ones((2, grid1d.M)))
        coeffs = forward_transform(f)
        # 1/M^dim scaling puts the zero mode at exactly 1.
        assert coeffs[0, 0] == pytest.approx(1.0)
        np.testing.assert_allclose(coeffs[:, 1:], 0.0, atol=1e-14)

    def test_plane_wave_lands_on_single_mode(self, grid1d):
        x = grid1d.axis_nodes()
        ell = 5
        wave = np.exp(2.0j * np.pi * ell * (x - grid1d.a) / (grid1d.b - grid1d.a))
        f = SpinorField(grid1d, np.stack((wave, np.zeros_like(wave))))
        coeffs = forward_transform(f)
        assert abs(coeffs[0, ell]) == pytest.approx(1.0, abs=1e-12)
        coeffs[0, ell] = 0.0
        np.testing.assert_allclose(coeffs, 0.0, atol=1e-12)

    def test_shape_mismatch_rejected(self, grid1d):
        with pytest.raises(ValueError):
            inverse_transform(np.zeros((2, grid1d.M + 2)), grid1d)


class TestTFlow:
    @pytest.mark.parametrize("M", [4, 8, 16])
    def test_matches_dense_expm_oracle_1d(self, M, rng):
        # Criterion-grade oracle at unit scale: 5 fields x 4 steps per M.
        from scipy.linalg import expm

        grid = make_grid(1, -2.0, 2.0, M)
        params = PhysParams(delta=0.7, nu=0.9, epsilon=0.6)
        cache = SpectralCache(params, grid)
        T = dense_T_matrix(params, grid)
        for ctau in (0.3, -0.25, 1.7, 0.01):
            U = expm(ctau * T)
            for _ in range(5):
                f = random_field(grid, rng)
                expected = (U @ f.values.reshape(-1)).reshape(f.values.shape)
                got = apply_T_flow(f.copy(), ctau, cache)
                np.testing.assert_allclose(got.values, expected, atol=1e-12)

    def test_matches_dense_expm_oracle_2d(self, rng):
        from scipy.linalg import expm

        grid = make_grid(2, -1.0, 1.0, 4)
        params = PhysParams(delta=1.0, nu=0.5, epsilon=0.8)
        cache = SpectralCache(params, grid)
        U = expm(0.4 * dense_T_matrix(params, grid))
        f = random_field(grid, rng)
        expected = (U @ f.values.reshape(-1)).reshape(f.values.shape)
        got = apply_T_flow(f.copy(), 0.4, cache)
        np.testing.assert_allclose(got.values, expected, atol=1e-12)

    def test_unitary(self, grid1d, params, rng):
        cache = SpectralCache(params, grid1d)
        f = random_field(grid1d, rng)
        m0 = mass(f)
        apply_T_flow(f, 0.37, cache)
        assert mass(f) == pytest.approx(m0, rel=1e-13)

    def test_composition_additivity(self, grid1d, params, rng):
        cache = SpectralCache(params, grid1d)
        f = random_field(grid1d, rng)
        one = apply_T_flow(f.copy(), 0.7, cache)
        two = apply_T_flow(apply_T_flow(f.copy(), 0.3, cache), 0.4, cache)
        np.testing.assert_allclose(one.values, two.values, atol=1e-12)

    def test_inverse_step_restores(self, grid1d, params, rng):
        cache = SpectralCache(params, grid1d)
        f = random_field(grid1d, rng)
        g = apply_T_flow(apply_T_flow(f.copy(), 0.9, cache), -0.9, cache)
        np.testing.assert_allclose(g.values, f.values, atol=1e-12)

    def test_zero_step_is_identity(self, grid1d, params, rng):
        cache = SpectralCache(params, grid1d)
        f = random_field(grid1d, rng)
        g = apply_T_flow(f.copy(), 0.0, cache)
        np.testing.assert_allclose(g.values, f.values, atol=1e-15)

    def test_grid_mismatch_rejected(self, grid1d, params, rng):
        other = make_grid(1, -8.0, 8.0, 32)
        cache = SpectralCache(params, other)
        with pytest.raises(ValueError):
            apply_T_flow(random_field(grid1d, rng), 0.1, cache)

    @given(c1=st.floats(-2.0, 2.0), c2=st.floats(-2.0, 2.0))
    @settings(max_examples=20, deadline=None)
    def test_additivity_property(self, c1, c2):
        grid = make_grid(1, -2.0, 2.0, 8)
        params = PhysParams(delta=0.5, nu=1.0, epsilon=0.9)
        cache = SpectralCache(params, grid)
        rng = np.random.default_rng(42)
        f = random_field(grid, rng)
        combined = apply_T_flow(f.copy(), c1 + c2, cache)
        stepwise = apply_T_flow(apply_T_flow(f.copy(), c1, cache), c2, cache)
        np.testing.assert_allclose(stepwise.values, combined.values, atol=1e-11)


FAST_PATH_GRIDS = [
    pytest.param((1, 512), id="1d-M512"),
    pytest.param((2, 256), id="2d-M256"),
]
FAST_PATH_ATOL = 1e-13


@pytest.fixture(params=FAST_PATH_GRIDS)
def fast_setup(request):
    dim, M = request.param
    grid = make_grid(dim, -8.0, 8.0, M)
    params = PhysParams(delta=0.7, nu=0.9, epsilon=0.6)
    return grid, SpectralCache(params, grid)


class TestTFlowFastPath:
    """The table-driven in-place flow against the plain closed form, per flow."""

    @pytest.mark.parametrize("ctau", [0.0, -0.37, 250.0, 1.0 / 64.0])
    def test_matches_plain_flow(self, fast_setup, ctau, rng):
        grid, cache = fast_setup
        f = random_field(grid, rng)
        expected = plain_T_flow(f, ctau, cache)
        got = apply_T_flow(f.copy(), ctau, cache)
        np.testing.assert_allclose(got.values, expected.values, rtol=0, atol=FAST_PATH_ATOL)

    def test_alternating_steps_through_one_cache(self, fast_setup, rng):
        # Each flow is compared from the same input, so tables for one c*tau
        # cannot leak into another and a reused table gives the same answer.
        grid, cache = fast_setup
        f = random_field(grid, rng)
        for ctau in (0.3, -0.3, 0.3, 12.5, -0.3, 0.0, 12.5):
            expected = plain_T_flow(f, ctau, cache)
            got = apply_T_flow(f.copy(), ctau, cache)
            np.testing.assert_allclose(got.values, expected.values, rtol=0, atol=FAST_PATH_ATOL)
        assert len(cache._rotations) == 4

    def test_updates_the_field_array_in_place(self, fast_setup, rng):
        grid, cache = fast_setup
        f = random_field(grid, rng)
        before = f.values
        expected = plain_T_flow(f, 0.21, cache)
        out = apply_T_flow(f, 0.21, cache)
        assert out is f and f.values is before
        np.testing.assert_allclose(f.values, expected.values, rtol=0, atol=FAST_PATH_ATOL)

    def test_tables_are_read_only(self, fast_setup):
        _, cache = fast_setup
        a, b = cache.rotation(0.5)
        assert cache.rotation(0.5)[0] is a
        with pytest.raises(ValueError):
            a[...] = 0.0
        with pytest.raises(ValueError):
            b[...] = 0.0

    def test_threads_sharing_one_cache_match_serial(self, fast_setup, rng):
        # More threads than cores and a short switch interval: a flow that
        # kept scratch on the shared cache would mix up the threads' fields.
        grid, cache = fast_setup
        ctaus = (0.11, -0.07, 0.11, 3.0)
        starts = [random_field(grid, rng) for _ in range(4)]
        serial = []
        for f in starts:
            g = f.copy()
            for ctau in ctaus:
                plain = plain_T_flow(g, ctau, cache)
                g = apply_T_flow(g, ctau, cache)
                np.testing.assert_allclose(g.values, plain.values, rtol=0, atol=FAST_PATH_ATOL)
            serial.append(g)

        shared = SpectralCache(cache.params, grid)
        results = [None] * len(starts)
        barrier = threading.Barrier(len(starts))

        def run(k):
            barrier.wait(timeout=30)
            for _ in range(10):
                g = starts[k].copy()
                for ctau in ctaus:
                    apply_T_flow(g, ctau, shared)
            results[k] = g

        threads = [threading.Thread(target=run, args=(k,)) for k in range(len(starts))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        for got, want in zip(results, serial):
            assert got is not None
            np.testing.assert_array_equal(got.values, want.values)


def recording_np(monkeypatch, fail_on=None, failing="fftn"):
    """Put a proxy in place of spectral.np that records each transform as
    (name, input shape, axes, s, thread name).  The call `failing` (a
    transform or "conjugate") on the thread named `fail_on` raises instead,
    and on any other thread first sleeps 50 ms, so its share is still
    running when the failing one raises."""
    calls = []

    def fail_or_slow(name, thread):
        if name == failing and fail_on is not None:
            if thread == fail_on:
                raise RuntimeError(f"{name} failed on {thread}")
            time.sleep(0.05)

    def recorded(name):
        fn = getattr(np.fft, name)

        def call(a, *args, **kwargs):
            thread = threading.current_thread().name
            calls.append((name, np.shape(a), tuple(kwargs["axes"]), tuple(kwargs["s"]), thread))
            fail_or_slow(name, thread)
            return fn(a, *args, **kwargs)

        return call

    def conjugate(*args, **kwargs):
        fail_or_slow("conjugate", threading.current_thread().name)
        return np.conjugate(*args, **kwargs)

    proxy = types.ModuleType("numpy")
    proxy.__dict__.update(np.__dict__)
    proxy.fft = types.SimpleNamespace(fftn=recorded("fftn"), ifftn=recorded("ifftn"))
    proxy.conjugate = conjugate
    monkeypatch.setattr(spectral, "np", proxy)
    return calls


def shapeless_T_flow(field, ctau, cache):
    """The in-place flow with the transform shape left to numpy to infer.

    A copy of the call form before the cache carried its shape: the same
    tables and mixing, `fftn`/`ifftn` without `s=`.  Passing the shape must
    not change a single bit.
    """
    a, b = cache.rotation(ctau)
    v = field.values
    axes = tuple(range(1, 1 + field.grid.dim))
    np.fft.fftn(v, axes=axes, out=v)
    u1, u2 = v[0], v[1]
    bu2 = b * u2
    bu1c = np.conjugate(u1)
    bu1c *= b
    u1 *= a
    u1 += bu2
    np.conjugate(u2, out=u2)
    u2 *= a
    u2 -= bu1c
    np.conjugate(u2, out=u2)
    np.fft.ifftn(v, axes=axes, out=v)
    return field


class TestTFlowCallForm:
    """The transforms get the grid's shape and axes, and the result is unchanged."""

    @pytest.mark.parametrize("dim,M", [(1, 512), (1, 1024), (2, 256)])
    @pytest.mark.parametrize("ctau", [0.0, -0.37, 250.0, 1.0 / 64.0])
    def test_bitwise_equal_to_shapeless_flow(self, dim, M, ctau, rng):
        grid = make_grid(dim, -8.0, 8.0, M)
        cache = SpectralCache(PhysParams(delta=0.7, nu=0.9, epsilon=0.6), grid)
        f = random_field(grid, rng)
        expected = shapeless_T_flow(f.copy(), ctau, cache)
        got = apply_T_flow(f.copy(), ctau, cache)
        np.testing.assert_array_equal(got.values, expected.values)

    @pytest.mark.parametrize("dim,M", [(1, 64), (2, 16)])
    def test_every_transform_is_given_shape_and_axes(self, dim, M, rng, monkeypatch):
        grid = make_grid(dim, -8.0, 8.0, M)
        cache = SpectralCache(PhysParams(), grid)
        f = random_field(grid, rng)
        calls = recording_np(monkeypatch)
        for ctau in (0.2, -0.1, 0.2):
            apply_T_flow(f, ctau, cache)
        spinor = ((2, *grid.shape), tuple(range(1, 1 + dim)), grid.shape)
        assert [c[:4] for c in calls] == [("fftn", *spinor), ("ifftn", *spinor)] * 3

    def test_equal_grid_object_is_accepted(self, grid1d, params, rng):
        twin = replace(grid1d)
        assert twin is not grid1d and twin == grid1d
        cache = SpectralCache(params, twin)
        f = random_field(grid1d, rng)
        expected = apply_T_flow(f.copy(), 0.3, SpectralCache(params, grid1d))
        got = apply_T_flow(f.copy(), 0.3, cache)
        np.testing.assert_array_equal(got.values, expected.values)

    def test_grid_differing_in_one_field_raises(self, grid1d, params, rng):
        shifted = replace(grid1d, a=grid1d.a - 1.0)
        with pytest.raises(ValueError, match="does not match"):
            apply_T_flow(random_field(grid1d, rng), 0.3, SpectralCache(params, shifted))


class TestWFlow:
    def test_is_expected_phase(self, grid1d, params, rng):
        p = rational_potential_1d()
        f = random_field(grid1d, rng)
        got = apply_W_flow(f.copy(), 0.45, 0.0, p, params)
        phase = np.exp(-0.45j * p.sample_grid(0.0, grid1d) / params.delta)
        np.testing.assert_allclose(got.values, f.values * phase, atol=1e-14)

    def test_delta_scaling(self, grid1d, rng):
        p = constant_potential(1.0)
        small_delta = PhysParams(delta=0.5)
        f = random_field(grid1d, rng)
        got = apply_W_flow(f.copy(), 0.2, 0.0, p, small_delta)
        np.testing.assert_allclose(got.values, f.values * np.exp(-0.4j), atol=1e-14)

    def test_unitary(self, grid1d, params, rng):
        f = random_field(grid1d, rng)
        m0 = mass(f)
        apply_W_flow(f, 1.3, 0.0, rational_potential_1d(), params)
        assert mass(f) == pytest.approx(m0, rel=1e-13)

    def test_time_dependent_sampling(self, grid2d, params, rng):
        p = honeycomb_potential("linear")
        f = random_field(grid2d, rng)
        at_half = apply_W_flow(f.copy(), 0.3, 0.5, p, params)
        phase = np.exp(-0.3j * p.sample_grid(0.5, grid2d) / params.delta)
        np.testing.assert_allclose(at_half.values, f.values * phase, atol=1e-14)

    @pytest.mark.parametrize("ctau", [0.0, -0.37, 250.0, 1.0 / 64.0])
    def test_unit_phase_matches_complex_exp(self, ctau):
        g = make_grid(2, -8.0, 8.0, 64)
        v = honeycomb_potential("linear").sample_grid(0.3, g).reshape(-1)
        arg = v * (-ctau)
        out = np.empty(v.size, dtype=np.complex128)
        half = spectral._half(v.size)
        _unit_phase(out, v, -ctau, half, v.size)  # each range is written on its own
        _unit_phase(out, v, -ctau, 0, half)
        np.testing.assert_allclose(out, np.exp(1j * arg), rtol=0.0, atol=1e-15)

    def test_uncached_flow_leaves_the_table_alone(self, grid1d, params, rng):
        p = custom_sampled_potential(grid1d, rng.standard_normal(grid1d.shape))
        table = p.sample_grid(0.0, grid1d).copy()
        f = random_field(grid1d, rng)
        got = apply_W_flow(f.copy(), 0.45, 0.0, p, params, wcache=None)
        np.testing.assert_array_equal(p.sample_grid(0.0, grid1d), table)
        np.testing.assert_allclose(got.values, f.values * np.exp(-0.45j * table), atol=1e-14)

    def test_wcache_matches_direct(self, grid1d, params, rng):
        p = rational_potential_1d()
        wcache = WFlowCache(p, grid1d, params)
        f = random_field(grid1d, rng)
        direct = apply_W_flow(f.copy(), 0.25, 3.0, p, params)
        cached = apply_W_flow(f.copy(), 0.25, 3.0, p, params, wcache)
        np.testing.assert_array_equal(direct.values, cached.values)

    def test_wcache_phases_are_read_only(self, grid1d, params):
        wcache = WFlowCache(rational_potential_1d(), grid1d, params)
        phases = wcache.phases(0.1)
        assert wcache.phases(0.1) is phases
        with pytest.raises(ValueError):
            phases[...] = 0.0

    def test_wcache_rejects_field_on_another_grid(self, params):
        # Same M, wider box: the phases would sample V at the wrong nodes.
        built_on = make_grid(2, -8.0, 8.0, 128)
        field_grid = make_grid(2, -16.0, 16.0, 128)
        p = honeycomb_potential("constant")
        wcache = WFlowCache(p, built_on, params)
        f = gaussian_ic(field_grid, ((0.0, 0.0), (1.0, 0.0)))
        before = f.values.copy()
        with pytest.raises(ValueError, match="does not match"):
            apply_W_flow(f, 0.01, 0.0, p, params, wcache)
        np.testing.assert_array_equal(f.values, before)

    def test_wcache_rejects_time_dependent(self, grid2d, params):
        with pytest.raises(ValueError):
            WFlowCache(honeycomb_potential("linear"), grid2d, params)

    def test_commutes_with_T_for_constant_potential(self, grid1d, params, rng):
        # A spatially constant W is a global phase, so the two flows commute
        # exactly; this isolates ordering bugs from genuine splitting error.
        p = constant_potential(0.8)
        cache = SpectralCache(params, grid1d)
        f = random_field(grid1d, rng)
        tw = apply_W_flow(apply_T_flow(f.copy(), 0.3, cache), 0.4, 0.0, p, params)
        wt = apply_T_flow(apply_W_flow(f.copy(), 0.4, 0.0, p, params), 0.3, cache)
        np.testing.assert_allclose(tw.values, wt.values, atol=1e-13)


# ---------------------------------------------------------------------------
# a leading batch axis: k fields that differ only in T


BATCH_EPSILONS = (1.0, 0.5, 1.0 / 16.0)


class TestBatchedTFlow:
    """A batch of k members is the k serial flows, bit for bit."""

    @pytest.mark.parametrize("grid", [make_grid(1, -16.0, 16.0, 512),
                                      make_grid(2, -4.0, 4.0, 32)], ids=["1d-512", "2d-32"])
    def test_tables_are_the_members_tables(self, grid):
        members = [PhysParams(nu=0.9, epsilon=e) for e in BATCH_EPSILONS]
        batch = SpectralCache(members, grid)
        assert batch._axes == tuple(range(2, 2 + grid.dim))
        for i, p in enumerate(members):
            own = SpectralCache(p, grid)
            for name in ("phase_scale", "nx", "ny", "nz"):
                np.testing.assert_array_equal(getattr(batch, name)[i], getattr(own, name))
            for got, want in zip(batch.rotation(-0.37), own.rotation(-0.37)):
                assert got.shape == (len(members), *grid.shape)
                np.testing.assert_array_equal(got[i], want)

    def test_one_member_keeps_the_field_layout(self, grid2d, params):
        for cache in (SpectralCache(params, grid2d), SpectralCache([params], grid2d)):
            assert cache.params is params
            assert cache._axes == (1, 2)
            assert cache.phase_scale.shape == grid2d.shape
            assert cache.rotation(0.1)[0].shape == grid2d.shape

    @pytest.mark.parametrize("grid", [make_grid(1, -16.0, 16.0, 512),
                                      make_grid(2, -4.0, 4.0, 32)], ids=["1d-512", "2d-32"])
    def test_batched_flow_is_the_serial_flows_bitwise(self, grid, rng):
        members = [PhysParams(epsilon=e) for e in BATCH_EPSILONS]
        fields = [random_field(grid, rng) for _ in members]
        batch = SpinorBatch(fields)
        cache = SpectralCache(members, grid)
        for ctau in (0.3, -0.37):
            apply_T_flow(batch, ctau, cache)
        for p, f, got in zip(members, fields, batch.members()):
            own = SpectralCache(p, grid)
            for ctau in (0.3, -0.37):
                apply_T_flow(f, ctau, own)
            np.testing.assert_array_equal(got.values, f.values)

    def test_members_must_share_delta(self, grid1d):
        with pytest.raises(ValueError, match="share delta"):
            SpectralCache([PhysParams(delta=1.0), PhysParams(delta=0.5)], grid1d)
        with pytest.raises(ValueError, match="at least one"):
            SpectralCache([], grid1d)

    def test_members_must_share_the_grid(self, grid1d, rng):
        other = make_grid(1, -16.0, 16.0, 64)
        with pytest.raises(ValueError, match="does not match"):
            SpinorBatch([random_field(grid1d, rng), random_field(other, rng)])

    def test_batch_size_must_match_the_cache(self, grid1d, params, rng):
        fields = [random_field(grid1d, rng) for _ in range(2)]
        three = SpectralCache([params] * 3, grid1d)
        with pytest.raises(ValueError, match="do not match the cache"):
            apply_T_flow(SpinorBatch(fields), 0.3, three)
        with pytest.raises(ValueError, match="do not match the cache"):
            apply_T_flow(fields[0], 0.3, three)
        with pytest.raises(ValueError, match="do not match the cache"):
            apply_T_flow(SpinorBatch(fields), 0.3, SpectralCache(params, grid1d))

    def test_batch_of_one_is_a_plain_copy(self, field1d):
        batch = SpinorBatch([field1d])
        assert batch.values.shape == field1d.values.shape
        assert not np.shares_memory(batch.values, field1d.values)
        [member] = batch.members()
        assert member.values is batch.values

    def test_w_phase_acts_on_every_member(self, grid1d, params, rng):
        p = rational_potential_1d()
        fields = [random_field(grid1d, rng) for _ in range(3)]
        batch = SpinorBatch(fields)
        wcache = WFlowCache(p, grid1d, params)
        apply_W_flow(batch, 0.4, 0.0, p, params, wcache)
        for got, f in zip(batch.members(), fields):
            want = apply_W_flow(f, 0.4, 0.0, p, params, wcache)
            np.testing.assert_array_equal(got.values, want.values)


def on_worker_thread(fn):
    """fn() run on a thread that is not the main thread, so its T flows stay serial."""
    out = []
    worker = threading.Thread(target=lambda: out.append(fn()))
    worker.start()
    worker.join(timeout=300)
    assert not worker.is_alive() and len(out) == 1
    return out[0]


GRID_256 = make_grid(2, -8.0, 8.0, 256)
SPLIT_CTAUS = (0.3, -0.1, 250.0, 1.0 / 64.0)


class TestSplitTFlow:
    """A 2D M=256 flow on the main thread splits across the helper thread and
    equals, bit for bit, the serial flow that any other thread runs."""

    def test_single_field_equals_serial_flow(self, rng, helper_jobs):
        cache = SpectralCache(PhysParams(delta=0.7, nu=0.9, epsilon=0.6), GRID_256)
        f = random_field(GRID_256, rng)

        def flows():
            g = f.copy()
            for ctau in SPLIT_CTAUS:
                apply_T_flow(g, ctau, cache)
            return g

        split = flows()
        # each flow first builds its c*tau's rotation pair, which splits too,
        # then hands off its transform, mixing and inverse transform
        assert helper_jobs == ["MainThread"] * 4 * len(SPLIT_CTAUS)
        serial = on_worker_thread(flows)
        assert len(helper_jobs) == 4 * len(SPLIT_CTAUS)
        np.testing.assert_array_equal(split.values, serial.values)
        assert abs(mass(split) - mass(f)) / mass(f) <= 1e-12

    def test_batch_equals_serial_flow(self, rng, helper_jobs):
        members = [PhysParams(epsilon=e) for e in (1.0, 0.5)]
        cache = SpectralCache(members, GRID_256)
        fields = [random_field(GRID_256, rng) for _ in members]

        def flows():
            batch = SpinorBatch(fields)
            for ctau in SPLIT_CTAUS:
                apply_T_flow(batch, ctau, cache)
            return batch

        split = flows()
        # per c*tau a table build and the three steps of a flow
        assert len(helper_jobs) == 4 * len(SPLIT_CTAUS)
        serial = on_worker_thread(flows)
        np.testing.assert_array_equal(split.values, serial.values)
        for got, f in zip(split.members(), fields):
            assert abs(mass(got) - mass(f)) / mass(f) <= 1e-12

    @pytest.mark.parametrize("theta", ["constant", "linear"])
    def test_s6c_run_equals_serial_run(self, theta, helper_jobs):
        params = PhysParams(delta=1.0, nu=1.0, epsilon=1.0)
        start = gaussian_ic(GRID_256, ((0.0, 0.0), (1.0, 0.0)))
        potential = honeycomb_potential(theta)

        def run():
            propagator = Propagator(catalog("S6c"), 0.05, potential, SpectralCache(params, GRID_256))
            return propagator.run(start.copy(), 0.0, 4)

        split = run()
        # three steps for each of the four T flows per step, the rotation
        # pairs of their two distinct c*tau; with a constant V the phase
        # tables of the three distinct W coefficients, and with a sampled V
        # the 4n + 1 W flows of a merged 4-step run
        assert len(helper_jobs) == 3 * 16 + 2 + (17 if theta == "linear" else 3)
        serial = on_worker_thread(run)
        np.testing.assert_array_equal(split.values, serial.values)
        assert abs(mass(split) - mass(start)) / mass(start) <= 1e-12

    def test_transforms_go_per_component_through_spectral_np(self, rng, monkeypatch):
        cache = SpectralCache(PhysParams(), GRID_256)
        f = random_field(GRID_256, rng)
        calls = recording_np(monkeypatch)
        apply_T_flow(f, 0.2, cache)
        component = (GRID_256.shape, (0, 1), GRID_256.shape)
        assert sorted(c[:4] for c in calls) == [("fftn", *component)] * 2 + [("ifftn", *component)] * 2
        assert sorted(c[4] for c in calls) == ["MainThread"] * 2 + ["diracsplit-T-flow_0"] * 2
        calls.clear()
        on_worker_thread(lambda: apply_T_flow(f, 0.2, cache))
        spinor = ((2, *GRID_256.shape), (1, 2), GRID_256.shape)
        assert [c[:4] for c in calls] == [("fftn", *spinor), ("ifftn", *spinor)]

    @pytest.mark.parametrize("dim, M, k", [(1, 512, 1), (1, 1024, 1), (1, 1024, 4), (2, 32, 1),
                                           (2, 64, 1), (2, 128, 1), (1, 1024, 8)])
    def test_small_components_never_split(self, dim, M, k, rng, helper_jobs):
        grid = make_grid(dim, -8.0, 8.0, M)
        members = [PhysParams(epsilon=1.0 / (i + 1)) for i in range(k)]
        cache = SpectralCache(members, grid)
        fields = [random_field(grid, rng) for _ in members]
        batch = SpinorBatch(fields)
        for ctau in SPLIT_CTAUS:
            apply_T_flow(batch, ctau, cache)
        assert helper_jobs == []

    def test_one_usable_cpu_never_splits(self, rng, helper_jobs, monkeypatch):
        monkeypatch.setattr(spectral, "_usable_cpus", lambda: 1)
        apply_T_flow(random_field(GRID_256, rng), 0.2, SpectralCache(PhysParams(), GRID_256))
        assert helper_jobs == []

    def test_split_flows_beside_pool_threads_match_serial(self, rng, helper_jobs):
        # More threads than cores and a short switch interval: the main
        # thread's split flows and three threads' serial flows share one
        # cache, and each field must come out as its serial run.
        cache = SpectralCache(PhysParams(delta=0.7, nu=0.9, epsilon=0.6), GRID_256)
        starts = [random_field(GRID_256, rng) for _ in range(4)]

        def flows(f):
            g = f.copy()
            for ctau in SPLIT_CTAUS:
                apply_T_flow(g, ctau, cache)
            return g

        serial = [on_worker_thread(lambda f=f: flows(f)) for f in starts]
        results = [None] * len(starts)
        barrier = threading.Barrier(len(starts))

        def run(k):
            barrier.wait(timeout=30)
            for _ in range(3):
                results[k] = flows(starts[k])

        threads = [threading.Thread(target=run, args=(k,)) for k in range(1, len(starts))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            run(0)
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        # three rounds of flows, three steps each; the pool threads built the tables
        assert helper_jobs == ["MainThread"] * 3 * 3 * len(SPLIT_CTAUS)
        for got, want in zip(results, serial):
            np.testing.assert_array_equal(got.values, want.values)

    @pytest.mark.parametrize("failing, fail_on", [
        # the id is the failing thread, prefixed by the failing call unless
        # that is the forward transform
        pytest.param(failing, fail_on, id=fail_on if failing == "fftn" else f"{failing}-{fail_on}")
        for failing in ("fftn", "conjugate", "ifftn")
        for fail_on in ("MainThread", "diracsplit-T-flow_0")
    ])
    def test_a_failing_share_raises_and_the_next_flow_runs(self, failing, fail_on, rng,
                                                           monkeypatch):
        # the transform, the mixing or the inverse transform fails on one
        # thread while the other thread's share of that step runs on
        cache = SpectralCache(PhysParams(), GRID_256)
        f = random_field(GRID_256, rng)
        want = on_worker_thread(lambda: apply_T_flow(f.copy(), 0.2, cache))
        apply_T_flow(f.copy(), 0.2, cache)  # the helper thread exists and has its name
        jobs = []
        pool = spectral._helper_pool

        class Keeping:
            def submit(self, *args, **kwargs):
                jobs.append(pool().submit(*args, **kwargs))
                return jobs[-1]

        with monkeypatch.context() as patch:
            patch.setattr(spectral, "_helper_pool", Keeping)
            recording_np(patch, fail_on=fail_on, failing=failing)
            with pytest.raises(RuntimeError, match=f"{failing} failed on {fail_on}"):
                apply_T_flow(f.copy(), 0.2, cache)
            assert jobs and all(job.done() for job in jobs)  # no share outlives the call
        got = apply_T_flow(f.copy(), 0.2, cache)
        np.testing.assert_array_equal(got.values, want.values)


def recording_cos_np(monkeypatch, fail_on):
    """Put a proxy in place of spectral.np whose cos raises on the thread
    named `fail_on` and records the size and thread of every other call."""
    calls = []

    def cos(x, *args, **kwargs):
        thread = threading.current_thread().name
        if thread == fail_on:
            raise RuntimeError(f"cos failed on {thread}")
        calls.append((np.size(x), thread))
        return np.cos(x, *args, **kwargs)

    proxy = types.ModuleType("numpy")
    proxy.__dict__.update(np.__dict__)
    proxy.cos = cos
    monkeypatch.setattr(spectral, "np", proxy)
    return calls


DRIVEN = honeycomb_potential("linear")
W_FLOWS = ((0.3, 0.0), (-0.1, 0.45), (250.0, 1.3), (1.0 / 64.0, -0.2))  # (c*tau, t)


class TestSplitWFlow:
    """A sampled W flow at 2D M=256 on the main thread splits its phase and
    multiply across the helper thread and equals, bit for bit, the serial
    flow that any other thread runs."""

    @staticmethod
    def flows(field, params):
        for ctau, t in W_FLOWS:
            apply_W_flow(field, ctau, t, DRIVEN, params)
        return field

    def test_single_field_equals_serial_flow(self, rng, helper_jobs):
        params = PhysParams(delta=0.7)
        f = random_field(GRID_256, rng)
        split = self.flows(f.copy(), params)
        assert helper_jobs == ["MainThread"] * len(W_FLOWS)
        serial = on_worker_thread(lambda: self.flows(f.copy(), params))
        assert len(helper_jobs) == len(W_FLOWS)
        np.testing.assert_array_equal(split.values, serial.values)
        assert abs(mass(split) - mass(f)) / mass(f) <= 1e-12

    def test_batch_splits_on_the_grid_axis(self, rng, helper_jobs, monkeypatch):
        params = PhysParams()
        fields = [random_field(GRID_256, rng) for _ in range(2)]
        calls = recording_cos_np(monkeypatch, fail_on=None)
        split = self.flows(SpinorBatch(fields), params)
        assert len(helper_jobs) == len(W_FLOWS)
        # each thread takes half of the grid's points for both members, not
        # one member's whole grid
        half = GRID_256.M ** 2 // 2
        assert sorted(calls) == sorted([(half, "MainThread"), (half, "diracsplit-T-flow_0")]
                                       * len(W_FLOWS))
        serial = on_worker_thread(lambda: self.flows(SpinorBatch(fields), params))
        np.testing.assert_array_equal(split.values, serial.values)
        for got, f in zip(split.members(), fields):
            want = on_worker_thread(lambda f=f: self.flows(f.copy(), params))
            np.testing.assert_array_equal(got.values, want.values)

    def test_cached_flow_never_splits_once_its_table_exists(self, rng, helper_jobs):
        params = PhysParams()
        static = honeycomb_potential("constant")
        wcache = WFlowCache(static, GRID_256, params)
        wcache.phases(0.3)
        helper_jobs.clear()
        apply_W_flow(random_field(GRID_256, rng), 0.3, 0.0, static, params, wcache)
        assert helper_jobs == []

    def test_pool_threads_never_split(self, rng, helper_jobs):
        on_worker_thread(lambda: self.flows(random_field(GRID_256, rng), PhysParams()))
        assert helper_jobs == []

    def test_one_usable_cpu_never_splits(self, rng, helper_jobs, monkeypatch):
        monkeypatch.setattr(spectral, "_usable_cpus", lambda: 1)
        self.flows(random_field(GRID_256, rng), PhysParams())
        assert helper_jobs == []

    @pytest.mark.parametrize("M", [32, 64, 128])
    def test_small_grids_never_split(self, M, rng, helper_jobs):
        self.flows(random_field(make_grid(2, -8.0, 8.0, M), rng), PhysParams())
        assert helper_jobs == []

    @pytest.mark.parametrize("fail_on", ["MainThread", "diracsplit-T-flow_0"])
    def test_a_failing_share_raises_and_the_next_flow_runs(self, fail_on, rng, monkeypatch):
        params = PhysParams()
        f = random_field(GRID_256, rng)
        want = on_worker_thread(lambda: apply_W_flow(f.copy(), 0.2, 0.1, DRIVEN, params))
        apply_W_flow(f.copy(), 0.2, 0.1, DRIVEN, params)  # the helper thread exists and has its name
        with monkeypatch.context() as patch:
            recording_cos_np(patch, fail_on=fail_on)
            with pytest.raises(RuntimeError, match=f"cos failed on {fail_on}"):
                apply_W_flow(f.copy(), 0.2, 0.1, DRIVEN, params)
        got = apply_W_flow(f.copy(), 0.2, 0.1, DRIVEN, params)
        np.testing.assert_array_equal(got.values, want.values)


TABLE_CTAUS = (0.0, -0.37, 250.0, 1.0 / 64.0)
TABLE_PARAMS = PhysParams(delta=0.7, nu=0.9, epsilon=0.6)
TABLE_SETUPS = [
    pytest.param((1, 512, 1, False), id="1d-M512"),
    pytest.param((2, 64, 1, False), id="2d-M64"),
    pytest.param((2, 256, 1, False), id="2d-M256-split"),
    pytest.param((2, 256, 1, True), id="2d-M256-worker"),
    pytest.param((2, 256, 3, False), id="2d-M256-batch3"),
]


def static_potential(grid):
    return rational_potential_1d() if grid.dim == 1 else honeycomb_potential("constant")


class TestTableBuilds:
    """The rotation pair and the W phase table are built in place, split
    across the helper thread under the flows' rule, and equal, bit for bit,
    the tables formed from temporaries."""

    @pytest.mark.parametrize("setup", TABLE_SETUPS)
    def test_rotation_equals_plain_rotation(self, setup):
        dim, M, k, on_worker = setup
        grid = make_grid(dim, -8.0, 8.0, M)
        members = [replace(TABLE_PARAMS, epsilon=e) for e in (0.6, 0.3, 1.0)[:k]]
        cache = SpectralCache(members, grid)
        for ctau in TABLE_CTAUS:
            a, b = on_worker_thread(lambda: cache.rotation(ctau)) if on_worker else cache.rotation(ctau)
            want_a, want_b = plain_rotation(cache, ctau)
            np.testing.assert_array_equal(a, want_a)
            np.testing.assert_array_equal(b, want_b)
            assert not a.flags.writeable and not b.flags.writeable

    @pytest.mark.parametrize("setup", TABLE_SETUPS[:-1])  # a W table has no batch axis
    def test_phases_equal_plain_phases(self, setup):
        dim, M, _, on_worker = setup
        grid = make_grid(dim, -8.0, 8.0, M)
        potential = static_potential(grid)
        wcache = WFlowCache(potential, grid, TABLE_PARAMS)
        for ctau in TABLE_CTAUS:
            got = on_worker_thread(lambda: wcache.phases(ctau)) if on_worker else wcache.phases(ctau)
            np.testing.assert_array_equal(got, plain_phases(potential, grid, TABLE_PARAMS, ctau))
            assert not got.flags.writeable

    def test_a_first_build_hands_off_one_job_and_a_repeat_none(self, helper_jobs):
        cache = SpectralCache(PhysParams(), GRID_256)
        wcache = WFlowCache(honeycomb_potential("constant"), GRID_256, PhysParams())
        for build in (cache.rotation, wcache.phases):
            helper_jobs.clear()
            build(0.3)
            assert helper_jobs == ["MainThread"]
            build(0.3)
            assert helper_jobs == ["MainThread"]

    @pytest.mark.parametrize("M, where", [(256, "pool-thread"), (256, "one-cpu"),
                                          (32, "main"), (64, "main"), (128, "main")])
    def test_builds_that_never_split(self, M, where, helper_jobs, monkeypatch):
        grid = make_grid(2, -8.0, 8.0, M)
        cache = SpectralCache(PhysParams(), grid)
        wcache = WFlowCache(honeycomb_potential("constant"), grid, PhysParams())
        if where == "one-cpu":
            monkeypatch.setattr(spectral, "_usable_cpus", lambda: 1)
        for build in (cache.rotation, wcache.phases):
            if where == "pool-thread":
                on_worker_thread(lambda: build(0.3))
            else:
                build(0.3)
        assert helper_jobs == []

    @pytest.mark.parametrize("fail_on", ["MainThread", "diracsplit-T-flow_0"])
    def test_a_failing_half_raises_and_stores_no_table(self, fail_on, monkeypatch):
        cache = SpectralCache(TABLE_PARAMS, GRID_256)
        potential = honeycomb_potential("constant")
        wcache = WFlowCache(potential, GRID_256, TABLE_PARAMS)
        cache.rotation(0.1)  # the helper thread exists and has its name
        with monkeypatch.context() as patch:
            recording_cos_np(patch, fail_on=fail_on)
            with pytest.raises(RuntimeError, match=f"cos failed on {fail_on}"):
                cache.rotation(0.3)
            with pytest.raises(RuntimeError, match=f"cos failed on {fail_on}"):
                wcache.phases(0.3)
        assert 0.3 not in cache._rotations and 0.3 not in wcache._phases
        for got, want in zip(cache.rotation(0.3), plain_rotation(cache, 0.3)):
            np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(wcache.phases(0.3),
                                      plain_phases(potential, GRID_256, TABLE_PARAMS, 0.3))
