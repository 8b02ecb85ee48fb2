"""The benchmark's per-layer trace still sees every flow of a propagation.

bench/layers.py counts work by wrapping module globals and class
attributes of diracsplit (`schemes.step`, `schemes.apply_T_flow`,
`schemes.apply_W_flow`, `harness.build_cache`, `spectral.np`,
`Potential.sample_grid`, `WFlowCache.phases`, `harness.reference_solution`,
`harness.error_metrics`, `cli.parse_config`).  A propagation routed around
those names would still run but read 0 in the benchmark; these counts for
n S6c steps, and for the CLI commands (the benchmark times `converge-time`
and `superres`), catch that.  An n-step S6c run does 4n T flows; its W
flows are 5n over a cached phase table and 4n + 1 over a sampled V, whose
step boundaries merge.
"""

import importlib.util
from pathlib import Path

import pytest

import diracsplit
import diracsplit.cli  # noqa: F401  (the tracer also wraps cli.parse_config)
from diracsplit.cli import main
from diracsplit.harness import gaussian_problem_1d, honeycomb_problem

LAYERS = Path(__file__).resolve().parents[1] / "bench" / "layers.py"
N_STEPS = 3


def _tracer():
    spec = importlib.util.spec_from_file_location("bench_layers", LAYERS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.Tracer(diracsplit)


def _traced_main(argv):
    """Run the CLI with the tracer installed: (exit code, tracer)."""
    tracer = _tracer()
    tracer.install()
    try:
        code = main(argv)
    finally:
        tracer.uninstall()
    return code, tracer


@pytest.mark.parametrize(
    "make_problem, w_flows, samplings",
    [
        (lambda: gaussian_problem_1d(M=64), 5 * N_STEPS, 1),
        (lambda: honeycomb_problem("linear", M=16), 4 * N_STEPS + 1, 4 * N_STEPS + 1),
    ],
    ids=["static-1d", "driven-2d"],
)
def test_propagator_runs_inside_the_traced_layers(make_problem, w_flows, samplings):
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
    assert layers["spectral.W_flow.calls"] == w_flows
    assert layers["spectral.build_cache.calls"] == 1
    assert layers["model.sample_grid.calls"] == samplings


def test_cli_solve_runs_inside_the_traced_layers(tmp_path, capsys):
    cfg = tmp_path / "solve.cfg"
    cfg.write_text("[model]\nM = 32\n[run]\ntau = 0.05\nt_final = 0.25\n")
    code, tracer = _traced_main(["solve", "-c", str(cfg)])
    assert code == 0
    assert tracer.calls["config.parse"] == 1
    assert tracer.calls["schemes.step"] == 5
    assert tracer.calls["spectral.build_cache"] == 1


def test_cli_converge_time_runs_inside_the_traced_layers(tmp_path, capsys):
    cfg = tmp_path / "study.cfg"
    cfg.write_text(
        "[model]\nM = 32\n"
        f"[run]\nscheme = S2\nt_final = 0.5\ncache_dir = {tmp_path / 'refs'}\n"
        "[study]\ntaus = 0.1, 0.05, 0.025\nreference_tau = 0.003125\n"
    )
    cells = 3
    code, cold = _traced_main(["converge-time", "-c", str(cfg)])
    assert code == 0
    assert cold.calls["config.parse"] == 1
    # one metric per cell, plus the reference against its 2x-coarser twin
    assert cold.calls["harness.error_metrics"] == cells + 1
    layers = cold.snapshot()
    assert (layers["harness.reference.hits"], layers["harness.reference.misses"]) == (0, 2)
    # cells 5 + 10 + 20 steps; references 160 and 80 steps
    assert cold.calls["schemes.step"] == 35 + 240
    assert cold.calls["spectral.build_cache"] == cells + 2

    code, warm = _traced_main(["converge-time", "-c", str(cfg)])
    assert code == 0
    layers = warm.snapshot()
    assert (layers["harness.reference.hits"], layers["harness.reference.misses"]) == (2, 0)
    assert warm.calls["schemes.step"] == 35
    assert warm.calls["harness.error_metrics"] == cells + 1


def test_cli_superres_runs_inside_the_traced_layers(tmp_path, capsys):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(
        "[model]\nM = 32\n"
        f"[run]\nscheme = S6c\ncache_dir = {tmp_path / 'refs'}\n"
        "[sweep]\nmode = nonresonant\ntau0 = 1/4\nfactor = 2\ncount = 3\n"
        "epsilons = 1, 1/2\nreference_tau = 1/256\nt = 1/2\n"
    )
    cells = 2 * 4  # every (epsilon, tau) cell is admissible off resonance
    columns = 4  # the two cells of each tau column are propagated as one batch
    code, cold = _traced_main(["superres", "-c", str(cfg)])
    assert code == 0
    assert cold.calls["config.parse"] == 1
    # one metric per cell; a sweep measures no reference self-distance
    assert cold.calls["harness.error_metrics"] == cells
    layers = cold.snapshot()
    assert (layers["harness.reference.hits"], layers["harness.reference.misses"]) == (0, 2)
    # cells 2 + 4 + 8 + 16 steps, once per column batch; one 128-step reference per epsilon
    assert cold.calls["schemes.step"] == 30 + 2 * 128
    assert cold.calls["spectral.build_cache"] == columns + 2

    code, warm = _traced_main(["superres", "-c", str(cfg)])
    assert code == 0
    layers = warm.snapshot()
    assert (layers["harness.reference.hits"], layers["harness.reference.misses"]) == (2, 0)
    assert warm.calls["schemes.step"] == 30
    assert warm.calls["harness.error_metrics"] == cells
    assert warm.calls["spectral.build_cache"] == columns
    # every batched S6c flow still goes through the traced names: 4 T flows
    # (2 transforms each) and 5 W flows per step
    for tracer in (cold, warm):
        layers = tracer.snapshot()
        assert layers["spectral.T_flow.calls"] == 4 * tracer.calls["schemes.step"]
        assert layers["spectral.fft.calls"] == 2 * layers["spectral.T_flow.calls"]
        assert layers["spectral.W_flow.calls"] == 5 / 4 * layers["spectral.T_flow.calls"]


def test_cli_converge_space_runs_inside_the_traced_layers(tmp_path, capsys):
    cfg = tmp_path / "space.cfg"
    cfg.write_text(
        "[model]\na = -8\nb = 8\nM = 16\n"
        f"[run]\nscheme = S2\nt_final = 0.25\ncache_dir = {tmp_path / 'refs'}\n"
        "[space]\nh_list = 1, 0.5\nreference_h = 0.25\ntau = 0.05\n"
    )
    cells = 2
    code, cold = _traced_main(["converge-space", "-c", str(cfg)])
    assert code == 0
    assert cold.calls["config.parse"] == 1
    assert cold.calls["harness.error_metrics"] == cells
    layers = cold.snapshot()
    assert (layers["harness.reference.hits"], layers["harness.reference.misses"]) == (0, 1)
    # 5 steps per cell and 5 for the fine-grid reference
    assert cold.calls["schemes.step"] == 10 + 5
    assert cold.calls["spectral.build_cache"] == cells + 1

    code, warm = _traced_main(["converge-space", "-c", str(cfg)])
    assert code == 0
    layers = warm.snapshot()
    assert (layers["harness.reference.hits"], layers["harness.reference.misses"]) == (1, 0)
    assert warm.calls["schemes.step"] == 10
    assert warm.calls["harness.error_metrics"] == cells
    assert warm.calls["spectral.build_cache"] == cells
