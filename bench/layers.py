"""Per-layer spans and counters, recorded from the benchmark's own files.

`Tracer.install()` replaces public functions of diracsplit by timing
wrappers at the place where their callers look them up (a module global
or a class attribute) and `uninstall()` puts the originals back.  Nothing
in the package is edited.  Spans nest: a layer's self time is its total
time minus the time of the traced calls made inside it.

The figures are defined at today's public-function boundaries: a change
that routes steps around `apply_T_flow` / `apply_W_flow` must report what
replaces them.
"""

from __future__ import annotations

import math
import time
import types
from collections import defaultdict

import numpy as np

COMPLEX_BYTES = 16
REAL_BYTES = 8


def _fft_flops(shape: tuple[int, ...], axes) -> float:
    """5 N log2 N flops per complex transform of N points (radix-2 count)."""
    n = 1
    for ax in axes:
        n *= shape[ax]
    batches = math.prod(shape) // n
    return 5.0 * n * math.log2(n) * batches if n > 1 else 0.0


def _t_flow_bytes(values: np.ndarray) -> float:
    """Bytes moved by one T flow, computed from array sizes.

    Forward FFT, inverse FFT and the copy back into the field each read and
    write the spinor once; the 2x2 mixing reads the spectrum and the four
    real per-mode tables (phase scale, n_x, n_y, n_z) and writes both
    components.  Cache effects and temporaries are not counted.
    """
    field = values.size * COMPLEX_BYTES
    modes = values.size // 2
    return 3 * 2 * field + 2 * field + 4 * modes * REAL_BYTES


def held_bytes(obj) -> int:
    """Bytes of the distinct array buffers an object's slots hold."""
    owners: dict[int, int] = {}

    def visit(value) -> None:
        if isinstance(value, np.ndarray):
            base = value
            while isinstance(base.base, np.ndarray):
                base = base.base
            owners[id(base)] = base.nbytes
        elif isinstance(value, (tuple, list)):
            for item in value:
                visit(item)

    for name in getattr(type(obj), "__slots__", ()):
        if hasattr(obj, name):
            visit(getattr(obj, name))
    return sum(owners.values())


class Tracer:
    def __init__(self, ds) -> None:
        self.ds = ds  # the imported diracsplit package
        self._saved: list[tuple[object, str, object]] = []
        self._stack: list[list[float]] = []  # [start, child time]
        self.reset()

    def reset(self) -> None:
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.total_s: dict[str, float] = defaultdict(float)
        self.counters: dict[str, float] = defaultdict(float)
        self._tables: set[tuple[int, float]] = set()
        self._wcaches: list[object] = []  # keeps ids in _tables unique

    # -- spans ------------------------------------------------------------

    def _span(self, name: str, fn):
        stack = self._stack

        def wrapper(*args, **kwargs):
            stack.append([time.perf_counter(), 0.0])
            try:
                return fn(*args, **kwargs)
            finally:
                start, child = stack.pop()
                dur = time.perf_counter() - start
                self.calls[name] += 1
                self.total_s[name] += dur
                self.self_s[name] += dur - child
                if stack:
                    stack[-1][1] += dur

        return wrapper

    def _patch(self, owner, attr: str, new) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        ds = self.ds
        spectral, schemes, harness = ds.spectral, ds.schemes, ds.harness
        tracer = self

        t_flow = self._span("spectral.T_flow", schemes.apply_T_flow)

        def apply_T_flow(field, ctau, cache):
            tracer.counters["spectral.T_flow.bytes"] += _t_flow_bytes(field.values)
            return t_flow(field, ctau, cache)

        self._patch(schemes, "apply_T_flow", apply_T_flow)
        self._patch(schemes, "apply_W_flow", self._span("spectral.W_flow", schemes.apply_W_flow))
        self._patch(schemes, "step", self._span("schemes.step", schemes.step))

        def fft_wrapper(fn):
            timed = self._span("spectral.fft", fn)

            def call(a, *args, axes=None, **kwargs):
                arr = np.asarray(a)
                ax = range(arr.ndim) if axes is None else axes
                tracer.counters["spectral.fft.flops"] += _fft_flops(arr.shape, ax)
                return timed(a, *args, axes=axes, **kwargs)

            return call

        fft_ns = types.SimpleNamespace(**{k: getattr(np.fft, k) for k in dir(np.fft) if not k.startswith("_")})
        fft_ns.fftn = fft_wrapper(np.fft.fftn)
        fft_ns.ifftn = fft_wrapper(np.fft.ifftn)
        np_proxy = types.ModuleType("numpy")
        np_proxy.__dict__.update(np.__dict__)
        np_proxy.fft = fft_ns
        self._patch(spectral, "np", np_proxy)

        self._patch(ds.model.Potential, "sample_grid",
                    self._span("model.sample_grid", ds.model.Potential.sample_grid))

        build = self._span("spectral.build_cache", harness.build_cache)

        def build_cache(params, grid):
            cache = build(params, grid)
            bytes_held = max(tracer.counters["spectral.cache_bytes"], held_bytes(cache))
            tracer.counters["spectral.cache_bytes"] = bytes_held
            return cache

        self._patch(harness, "build_cache", build_cache)

        phases = spectral.WFlowCache.phases

        def wflow_phases(wcache, ctau):
            key = (id(wcache), float(ctau))
            if key not in tracer._tables:
                tracer._tables.add(key)
                tracer._wcaches.append(wcache)
            return phases(wcache, ctau)

        self._patch(spectral.WFlowCache, "phases", wflow_phases)

        reference = self._span("harness.reference", harness.reference_solution)

        def reference_solution(*args, **kwargs):
            steps_before = tracer.calls["schemes.step"]
            start = time.perf_counter()
            out = reference(*args, **kwargs)
            if tracer.calls["schemes.step"] == steps_before:
                tracer.counters["harness.reference.hits"] += 1
                tracer.counters["harness.reference.read_s"] += time.perf_counter() - start
            else:
                tracer.counters["harness.reference.misses"] += 1
            return out

        self._patch(harness, "reference_solution", reference_solution)
        self._patch(harness, "error_metrics",
                    self._span("harness.error_metrics", harness.error_metrics))
        self._patch(ds.cli, "parse_config", self._span("config.parse", ds.cli.parse_config))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- results ----------------------------------------------------------

    def snapshot(self) -> dict[str, float]:
        """Per-layer figures accumulated since the last reset."""
        out: dict[str, float] = {}
        for name in ("spectral.T_flow", "spectral.fft", "spectral.W_flow", "model.sample_grid",
                     "spectral.build_cache", "schemes.step"):
            out[f"{name}.calls"] = float(self.calls[name])
            out[f"{name}.self_s"] = self.self_s[name]
        out["spectral.T_flow.gb_computed"] = self.counters["spectral.T_flow.bytes"] / 1e9
        out["spectral.fft.gflop_computed"] = self.counters["spectral.fft.flops"] / 1e9
        out["spectral.cache_mb"] = self.counters["spectral.cache_bytes"] / 2**20
        out["spectral.wflow.phase_tables"] = float(len(self._tables))
        out["harness.reference.hits"] = self.counters["harness.reference.hits"]
        out["harness.reference.misses"] = self.counters["harness.reference.misses"]
        out["harness.reference.read_s"] = self.counters["harness.reference.read_s"]
        out["harness.error_metrics.self_s"] = self.self_s["harness.error_metrics"]
        n_parse = self.calls["config.parse"]
        out["config.parse_s"] = self.total_s["config.parse"] / n_parse if n_parse else 0.0
        return out
