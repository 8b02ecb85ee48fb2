"""The benchmark's per-layer trace still sees every flow of a propagation.

bench/layers.py counts work by wrapping module globals and class
attributes of diracsplit (`schemes.step`, `schemes.apply_T_flow`,
`schemes.apply_W_flow`, `harness.build_cache`, `spectral.np`,
`Potential.sample_grid`, `WFlowCache.phases`).  A propagation routed around
those names would still run but read 0 in the benchmark; these counts for
n S6c steps (4 T and 5 W flows each) catch that.
"""

import importlib.util
from pathlib import Path

import pytest

import diracsplit
import diracsplit.cli  # noqa: F401  (the tracer also wraps cli.parse_config)
from diracsplit.harness import gaussian_problem_1d, honeycomb_problem

LAYERS = Path(__file__).resolve().parents[1] / "bench" / "layers.py"
N_STEPS = 3


def _tracer():
    spec = importlib.util.spec_from_file_location("bench_layers", LAYERS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.Tracer(diracsplit)


@pytest.mark.parametrize(
    "make_problem, samplings",
    [
        (lambda: gaussian_problem_1d(M=64), 1),
        (lambda: honeycomb_problem("linear", M=16), 5 * N_STEPS),
    ],
    ids=["static-1d", "driven-2d"],
)
def test_propagator_runs_inside_the_traced_layers(make_problem, samplings):
    problem = make_problem()
    tracer = _tracer()
    tracer.install()
    try:
        field = problem.initial.copy()
        problem.propagator("S6c", 0.01).run(field, problem.t_start, N_STEPS)
        layers = tracer.snapshot()
    finally:
        tracer.uninstall()
    n = N_STEPS
    assert layers["schemes.step.calls"] == n
    assert layers["spectral.T_flow.calls"] == 4 * n
    assert layers["spectral.fft.calls"] == 8 * n
    assert layers["spectral.W_flow.calls"] == 5 * n
    assert layers["spectral.build_cache.calls"] == 1
    assert layers["model.sample_grid.calls"] == samplings
