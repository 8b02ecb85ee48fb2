"""Fourier pseudospectral application of the two split flows.

The Dirac Hamiltonian is split as T + W, where

    T = -(1/eps) sum_j sigma_j d/dx_j - i nu/(delta eps^2) sigma_3
    W = -(i/delta) V(t, x) I_2

Both flows are applied exactly: e^{c tau T} acts mode by mode in Fourier
space through the closed-form exponential of a 2x2 Hermitian generator, and
e^{c tau W} is a pointwise scalar phase.  Either flow is unitary for any
real coefficient, which is what makes arbitrary splitting programs mass
conserving.  Both flows also act on a `SpinorBatch`, k fields that share
the grid, potential and delta and differ only in T.
"""

from __future__ import annotations

import functools
import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Optional, Sequence

import numpy as np

from .model import Grid, PhysParams, Potential, SpinorBatch, SpinorField

Field = SpinorField | SpinorBatch

__all__ = [
    "SpectralCache",
    "WFlowCache",
    "apply_T_flow",
    "apply_W_flow",
]

# Fewest points per spinor component for which a T flow, or a sampled W flow,
# splits its work with the helper thread.  Measured on a 2-core machine
# (numpy 2.4.6), one T flow: 16384 points (1D M=16384, 2D M=128) ran as fast
# split as serial, 25600 (2D M=160) and 32768 (1D M=32768) 20% faster, 65536
# (2D M=256) about 2x faster; 4096 (2D M=64, a 1D M=1024 batch of 4) took
# twice as long split.  One sampled W flow at 2D M=256, linear theta (best of
# 30, four runs), took 0.9-1.8 ms serially, about 70% of it cos/sin, and
# 0.66-0.70 ms split.  An empty hand-off (`_in_parallel` of two no-ops,
# median of 2000, five runs) takes 17-28 us, and a split T flow makes three
# of them, so the one threshold serves both flows.  The rotation and phase
# table builds split under the same rule and allocate no temporaries: at 2D
# M=256 (best of 9x20 builds, five runs) a rotation pair took 1.4 ms
# serially and 0.8-1.1 ms split, against 4.2 ms from complex temporaries,
# and a phase table 0.75 ms serially and 0.46-0.71 ms split.
_SPLIT_MIN_POINTS = 1 << 15


class SpectralCache:
    """Per-mode data of the kinetic generator T on a fixed grid.

    For each Fourier mode the Hermitian matrix

        H = delta*eps*(mu_x sigma_1 + mu_y sigma_2) + nu sigma_3

    has eigenvalues +-eta with eta = sqrt(nu^2 + delta^2 eps^2 |mu|^2), and
    T restricted to the mode is Gamma = -i H / (delta eps^2).  The cache
    stores the phase rate eta/(delta eps^2) and the unit vector n = H/eta,
    so that e^{c tau Gamma} = e^{-i phi n.sigma} with
    phi = c tau eta/(delta eps^2).  `rotation` memoizes the two SU(2)
    factors of that exponential per distinct c*tau, which is what repeated
    scheme steps at fixed tau hit.

    Built for a sequence of k > 1 `PhysParams`, the cache serves a
    `SpinorBatch`: its tables are (k, *grid.shape), one row per member, and
    the transforms run over the trailing grid axes.  The members must share
    delta, because one W phase acts on all of them; `params` is the first
    member's, which is all the W flow reads.  One `PhysParams`, or a
    sequence of one, gives tables of grid shape.
    """

    __slots__ = ("grid", "params", "phase_scale", "nx", "ny", "nz", "_axes", "_shape",
                 "_values_shape", "_component_size", "_rotations")

    def __init__(self, params: PhysParams | Sequence[PhysParams], grid: Grid):
        members = (params,) if isinstance(params, PhysParams) else tuple(params)
        if not members:
            raise ValueError("a spectral cache needs at least one PhysParams")
        if any(p.delta != members[0].delta for p in members):
            raise ValueError(
                f"batch members must share delta, got {[p.delta for p in members]!r}"
            )
        batch = (len(members),) if len(members) > 1 else ()
        self.grid = grid
        self.params = members[0]
        self._axes = tuple(range(1 + len(batch), 1 + len(batch) + grid.dim))
        self._shape = grid.shape
        self._values_shape = (2, *batch, *grid.shape)
        self._component_size = math.prod(self._values_shape[1:])
        self._rotations: dict[float, tuple[np.ndarray, np.ndarray]] = {}

        # Fourier frequencies mu_l = 2 pi l / (b - a) in FFT layout.
        length = grid.b - grid.a
        ell = np.fft.fftfreq(grid.M) * grid.M
        mu_axis = 2.0 * math.pi * ell / length
        if grid.dim == 1:
            mux, muy = mu_axis, np.zeros_like(mu_axis)
        else:
            mux, muy = np.broadcast_arrays(mu_axis[:, None], mu_axis[None, :])

        # Each member's scalars, squares included, are formed in Python as
        # for a lone field and broadcast over the modes, so every row equals
        # that member's own table bitwise.
        def per_member(f: Callable[[PhysParams], float]) -> np.ndarray:
            return np.array([f(p) for p in members]).reshape(batch + (1,) * grid.dim)

        de = per_member(lambda p: p.delta * p.epsilon)
        de_sq = per_member(lambda p: (p.delta * p.epsilon) ** 2)
        de2 = per_member(lambda p: p.delta * p.epsilon**2)
        nu = per_member(lambda p: p.nu)
        nu_sq = per_member(lambda p: p.nu**2)
        eta = np.sqrt(nu_sq + de_sq * (mux**2 + muy**2))
        self.phase_scale = eta / de2
        self.nx = de * mux / eta
        self.ny = de * muy / eta
        self.nz = nu / eta

    def rotation(self, ctau: float) -> tuple[np.ndarray, np.ndarray]:
        """Per-mode factors (A, B) of e^{c tau Gamma} = [[A, B], [-conj B, conj A]].

        A = cos(phi) - i sin(phi) n_z and B = -i sin(phi) (n_x - i n_y);
        the pair is computed once per distinct c*tau, shared by every flow
        and stored read-only.  Every pass writes straight into A or B, with
        A.imag as scratch for phi and B.real for -sin(phi), so the build
        allocates nothing beyond the pair, and it splits across the helper
        thread under the flows' rule (`_splits`).  At 2D M=256 one split
        build took 0.8-1.1 ms, against 4.2 ms from complex temporaries
        (2-core machine, best of 9x20 builds).
        """
        key = float(ctau)
        out = self._rotations.get(key)
        if out is None:
            a = np.empty(self.phase_scale.shape, dtype=np.complex128)
            b = np.empty_like(a)
            flat = [x.reshape(-1) for x in (self.phase_scale, self.nx, self.ny, self.nz)]
            a_re, a_im, b_re, b_im = (x.reshape(-1) for x in (a.real, a.imag, b.real, b.imag))

            def part(lo: int, hi: int) -> None:
                scale, nx, ny, nz = (x[lo:hi] for x in flat)
                phi, minus_sin = a_im[lo:hi], b_re[lo:hi]
                np.multiply(scale, key, out=phi)
                np.cos(phi, out=a_re[lo:hi])
                np.sin(phi, out=minus_sin)
                np.negative(minus_sin, out=minus_sin)
                np.multiply(minus_sin, nz, out=phi)
                np.multiply(minus_sin, nx, out=b_im[lo:hi])
                np.multiply(minus_sin, ny, out=minus_sin)

            _by_halves(part, a.size, _splits(a.size, a))
            a.flags.writeable = False
            b.flags.writeable = False
            out = (a, b)
            self._rotations[key] = out
        return out


def build_cache(params: PhysParams | Sequence[PhysParams], grid: Grid) -> SpectralCache:
    """Precompute the per-mode data of T for `grid` under `params` (one or a batch).

    Not exported: the benchmark's warm-up, self-test and tracer still use it."""
    return SpectralCache(params, grid)


class WFlowCache:
    """Per-node phase factors e^{-i c tau V(x)/delta} for a frozen potential.

    Valid only for time-independent potentials; the sampled V/delta table is
    computed once and a phase array is memoized per distinct c*tau value,
    which is what repeated scheme steps at fixed tau hit.  The cache records
    its grid, the `cache_token` of its potential and its delta, and
    `apply_W_flow` rejects it when any of them differs from the flow's own.
    """

    __slots__ = ("grid", "cache_token", "delta", "_v_over_delta", "_phases")

    def __init__(self, potential: Potential, grid: Grid, params: PhysParams):
        if not potential.time_independent:
            raise ValueError("WFlowCache requires a time-independent potential")
        self.grid = grid
        self.cache_token = potential.cache_token
        self.delta = params.delta
        self._v_over_delta = potential.sample_grid(0.0, grid) / params.delta
        self._phases: dict[float, np.ndarray] = {}

    def phases(self, ctau: float) -> np.ndarray:
        """The read-only table e^{-i c tau V/delta}, built once per distinct c*tau.

        The build writes the phase into the table's imaginary part, cos
        into its real part and sin in place, so it allocates nothing beyond
        the table, and it splits across the helper thread under the flows'
        rule (`_splits`).  At 2D M=256 one split build took 0.46-0.71 ms,
        against 0.74 ms from a separate argument array (2-core machine,
        best of 9x20 builds).
        """
        key = float(ctau)
        out = self._phases.get(key)
        if out is None:
            out = np.empty(self._v_over_delta.shape, dtype=np.complex128)
            flat, v = out.reshape(-1), self._v_over_delta.reshape(-1)
            _by_halves(lambda lo, hi: _unit_phase(flat, v, -key, lo, hi), flat.size,
                       _splits(flat.size, out))
            out.flags.writeable = False
            self._phases[key] = out
        return out


def _unit_phase(out: np.ndarray, values: np.ndarray, scale: float, lo: int, hi: int) -> None:
    """Write e^{i scale values} into out[lo:hi], both flat: the argument into
    the imaginary part, its cos into the real part, then its sin in place."""
    arg = out.imag[lo:hi]
    np.multiply(values[lo:hi], scale, out=arg)
    np.cos(arg, out=out.real[lo:hi])
    np.sin(arg, out=arg)


def _check_grids(field: Field, grid: Grid) -> None:
    if field.grid is not grid and field.grid != grid:
        raise ValueError(f"field grid ({field.grid}) does not match ({grid})")


@functools.cache
def _helper_pool() -> ThreadPoolExecutor:
    """The one helper thread of the split flows and table builds, started on first use."""
    return ThreadPoolExecutor(max_workers=1, thread_name_prefix="diracsplit-T-flow")


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _splits(component_size: int, values: np.ndarray) -> bool:
    """Whether a flow of `values`, `component_size` points per spinor
    component, or the build of a table `values` of `component_size`
    points, uses the helper thread.

    Only for a contiguous array with at least _SPLIT_MIN_POINTS points per
    component, called from the main thread, with at least two usable
    CPUs: a study's pool threads (workers > 1) already own the cores, so
    their flows and builds stay serial.
    """
    return (component_size >= _SPLIT_MIN_POINTS
            and values.flags.c_contiguous
            and threading.current_thread() is threading.main_thread()
            and _usable_cpus() >= 2)


def _half(n: int) -> int:
    """Where a split flow cuts n points: on a multiple of 64, so the vector
    loops see each part's elements at the offsets they have in the whole."""
    return n // 128 * 64


def _in_parallel(first: Callable[[], None], second: Callable[[], None]) -> None:
    """Run first() on the calling thread and second() on the helper thread,
    the one way work reaches the helper.  Both are always waited for, so no
    write outlives the call, and an error of either is raised here (first's,
    when both fail)."""
    job = _helper_pool().submit(second)
    try:
        first()
    finally:
        error = job.exception()
    if error is not None:
        raise error


def _by_halves(part: Callable[[int, int], None], n: int, split: bool) -> None:
    """Run part(0, n), or, when `split`, part(0, half) on the calling thread
    and part(half, n) on the helper thread, cut at `_half`.  `part` fills
    or updates points lo:hi of flat arrays."""
    if not split:
        part(0, n)
        return
    half = _half(n)
    _in_parallel(lambda: part(0, half), lambda: part(half, n))


def _mix(u1: np.ndarray, u2: np.ndarray, a: np.ndarray, b: np.ndarray) -> None:
    """Mix the spectra u1, u2 in place by [[A, B], [-conj B, conj A]]:
    new1 = A u1 + B u2 and new2 = conj(A u2* - B u1*), so conj(A) and
    conj(B) are never formed."""
    bu2 = b * u2
    bu1c = np.conjugate(u1)
    bu1c *= b
    u1 *= a
    u1 += bu2
    np.conjugate(u2, out=u2)
    u2 *= a
    u2 -= bu1c
    np.conjugate(u2, out=u2)


def apply_T_flow(field: Field, ctau: float, cache: SpectralCache) -> Field:
    """Apply e^{c tau T} in place: per-mode rotation e^{-i phi n.sigma}.

    phi = c*tau*eta/(delta eps^2).  Exact for any real c*tau and unitary,
    hence mass preserving.  The FFTs write into field.values and the 2x2
    mixing [[A, B], [-conj B, conj A]] uses the cached tables of `cache`.
    `field` may be a `SpinorBatch` whose members match the cache's.  The
    two temporaries (one component each) belong to the call, never to the
    cache, so one cache can serve several threads.

    The flow runs in three steps: transform, mix, transform back.  Called
    from the main thread, with at least two usable CPUs, on a component of
    at least _SPLIT_MIN_POINTS points (2D M=256; not 2D M=128 or the 1D
    grids of the studies), each step is one hand-off through
    `_in_parallel`: the caller transforms component 0 while the helper
    thread transforms component 1, each mixes half of the flat spectra,
    and each transforms its component back.  Every value is computed as in
    the serial flow, one `fftn` and one `ifftn` of the whole spinor, so the
    result is bitwise the same.  A flow on any other thread, such as a
    study pool's, runs serially.
    """
    _check_grids(field, cache.grid)
    v = field.values
    if v.shape != cache._values_shape:
        raise ValueError(f"field values {v.shape} do not match the cache's {cache._values_shape}")
    a, b = cache.rotation(ctau)
    shape, axes = cache._shape, cache._axes
    if not _splits(cache._component_size, v):
        # An explicit s= skips numpy's per-call shape inference; fftn/ifftn, not fft2/ifft2 (below).
        np.fft.fftn(v, s=shape, axes=axes, out=v)
        _mix(v[0], v[1], a, b)
        # ifftn, not ifft2: numpy 2.4.6's ifft2 drops out=, so ifft2(v, out=v) leaves v untouched.
        np.fft.ifftn(v, s=shape, axes=axes, out=v)
        return field
    axes = tuple(axis - 1 for axis in axes)  # the axes of one component

    def transform(fft: Callable[..., np.ndarray]) -> None:
        _in_parallel(*(functools.partial(fft, u, s=shape, axes=axes, out=u) for u in v))

    transform(np.fft.fftn)
    flat, a, b = v.reshape(2, -1), a.reshape(-1), b.reshape(-1)
    _by_halves(lambda lo, hi: _mix(flat[0, lo:hi], flat[1, lo:hi], a[lo:hi], b[lo:hi]),
               flat.shape[1], True)
    transform(np.fft.ifftn)
    return field


def apply_W_flow(
    field: Field,
    ctau: float,
    t_eval: float,
    potential: Potential,
    params: PhysParams,
    wcache: Optional[WFlowCache] = None,
) -> Field:
    """Apply e^{c tau W(t_eval)} in place: scalar phase e^{-i c tau V/delta}.

    t_eval is ignored for time-independent potentials.  The phase has grid
    shape, so it acts on every member of a `SpinorBatch`.  When `wcache` is
    supplied (time-independent potentials only) the phase table is reused
    across steps; it must have been built on the field's grid from the same
    potential and delta.

    A sampled phase (no `wcache`) splits like a T flow, under the same
    rule: V is sampled once on the calling thread, which allocates the one
    phase array, and the caller and the helper thread each write the
    argument, cos and sin of their part of the grid (the row-major points,
    cut at a row for 2D M=256) straight into it and multiply those points
    of every component and member.  Every value is
    computed as in the serial flow, so the result is bitwise the same.  A
    cached phase is one multiply and never splits.
    """
    if wcache is not None:
        _check_grids(field, wcache.grid)
        if wcache.cache_token != potential.cache_token or wcache.delta != params.delta:
            raise ValueError(
                f"W phase table of potential {wcache.cache_token!r} at delta={wcache.delta!r} "
                f"does not match {potential.cache_token!r} at delta={params.delta!r}"
            )
        field.values *= wcache.phases(ctau)
        return field
    v = field.values
    grid_v = potential.sample_grid(t_eval, field.grid).reshape(-1)
    scale = -float(ctau) / params.delta
    n = grid_v.size
    # a view: the values of a SpinorField or SpinorBatch are C-contiguous
    points = v.reshape(*v.shape[:-field.grid.dim], n)
    phase = np.empty(n, dtype=np.complex128)

    def part(lo: int, hi: int) -> None:
        _unit_phase(phase, grid_v, scale, lo, hi)
        points[..., lo:hi] *= phase[lo:hi]

    _by_halves(part, n, _splits(v.size // 2, v))
    return field
