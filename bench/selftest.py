"""Fast self-test of the benchmark's physics checks, at tiny sizes.

Usage (from the repository root): python3 bench/selftest.py

Each check must accept a correct result and reject a wrong one:

- the dense-propagator oracle rejects a perturbed reference;
- the order window rejects a scheme whose W flows sample V(t) at the
  wrong times (a SchemeSpec built here, bypassing the catalog's checks);
- the mass check rejects a field scaled by a non-unitary factor.

Exit code 0 when every case behaves, 1 otherwise.
"""

from __future__ import annotations

import math
import sys
from pathlib import Path

import numpy as np

import checks

SRC = Path(__file__).resolve().parents[1] / "src"
sys.path.insert(0, str(SRC))

from diracsplit import harness, model, schemes, spectral  # noqa: E402

A, B, M = -8.0, 8.0, 128
T_FINAL = 1.0
TAUS = (0.125, 0.0625, 0.03125)
REF_TAU = 1.0 / 256.0


def driven_potential() -> model.Potential:
    """V(t, x) = (1 + sin 2t) (1 - x)/(1 + x^2): smooth, time dependent."""

    def on_grid(t, grid):
        (x,) = grid.nodes()
        return (1.0 + math.sin(2.0 * t)) * checks.rational_potential(x)

    def point(t, x):
        return (1.0 + math.sin(2.0 * t)) * checks.rational_potential(x[0])

    return model.Potential("selftest-driven", point, on_grid, time_independent=False,
                           cache_token="selftest-driven")


def problem(potential: model.Potential, epsilon: float = 0.5) -> harness.Problem:
    grid = model.make_grid(1, A, B, M)
    return harness.Problem(grid, model.PhysParams(epsilon=epsilon), potential,
                           model.gaussian_ic(grid, (0.0, 1.0)))


def propagate(prob: harness.Problem, spec: schemes.SchemeSpec, tau: float) -> np.ndarray:
    field = prob.initial.copy()
    cache = spectral.build_cache(prob.params, prob.grid)
    schemes.evolve(field, tau, 0.0, round(T_FINAL / tau), spec, prob.potential, cache)
    return field.values


def fitted_order(prob: harness.Problem, spec: schemes.SchemeSpec) -> float | None:
    ref = model.SpinorField(prob.grid, propagate(prob, schemes.catalog("S6c"), REF_TAU))
    errors = [
        harness.error_metrics(model.SpinorField(prob.grid, propagate(prob, spec, tau)), ref)[0]
        for tau in TAUS
    ]
    return harness.fit_order(TAUS, errors, harness.FLOOR_MIN).order


def wrong_offset_spec() -> schemes.SchemeSpec:
    """S6c with its middle W factor sampled a quarter step late.

    SchemeSpec validates offsets on construction, so the wrong program is
    assembled field by field, the way a bug past the validator would look.
    """
    good = schemes.catalog("S6c")
    steps = list(good.steps)
    mid = len(steps) // 2
    steps[mid] = schemes.SchemeStep("W", steps[mid].coeff, steps[mid].time_offset + 0.25)
    bad = object.__new__(schemes.SchemeSpec)
    for name, value in (("name", "S6c-bad-offset"), ("steps", tuple(steps)),
                        ("declared_order", 6), ("symmetric", True), ("note", None)):
        object.__setattr__(bad, name, value)
    return bad


def main() -> int:
    results: list[tuple[str, bool]] = []

    def expect(name: str, failures: list[str], should_fail: bool) -> None:
        ok = bool(failures) == should_fail
        results.append((name, ok))
        detail = failures[0] if failures else "accepted"
        print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")

    # dense-propagator oracle
    prob = problem(model.rational_potential_1d())
    protocol = harness.ReferenceProtocol("S6c", REF_TAU)
    ref = harness.reference_solution(prob, T_FINAL, protocol, use_cache=False).values
    dist = harness.reference_self_distance(prob, T_FINAL, protocol, use_cache=False)[0]
    gen = checks.dense_generator_1d(A, B, M, 1.0, 1.0, 0.5, checks.rational_potential)
    h = prob.grid.h
    expect("oracle accepts the reference",
           checks.check_oracle("ref", ref, prob.initial.values, gen, T_FINAL, h, dist)[0], False)
    rng = np.random.default_rng(0)
    perturbed = ref + 1e-6 * rng.standard_normal(ref.shape)
    expect("oracle rejects a perturbed reference",
           checks.check_oracle("ref", perturbed, prob.initial.values, gen, T_FINAL, h, dist)[0],
           True)

    # order window under a time-dependent potential
    driven = problem(driven_potential())
    expect("order window accepts S6c",
           checks.check_order("S6c", fitted_order(driven, schemes.catalog("S6c"))), False)
    expect("order window rejects a wrong W time offset",
           checks.check_order("bad", fitted_order(driven, wrong_offset_spec())), True)

    # unitarity
    final = propagate(prob, schemes.catalog("S6c"), TAUS[-1])
    expect("mass check accepts a unitary run",
           checks.check_mass("S6c", [checks.relative_mass_drift(final, prob.initial.values)]),
           False)
    scaled = final * (1.0 + 1e-9)
    expect("mass check rejects a non-unitary scaling",
           checks.check_mass("scaled", [checks.relative_mass_drift(scaled, prob.initial.values)]),
           True)

    # rate windows
    expect("rate window accepts resonant rates near 1/2",
           checks.check_rates("res", "resonant", [None, 0.56, 0.5, 0.5]), False)
    expect("rate window rejects a nonresonant rate of 4",
           checks.check_rates("non", "nonresonant", [None, 1.8, 4.0, 1.7]), True)

    bad = [name for name, ok in results if not ok]
    print(f"{'PASS' if not bad else 'FAIL'} benchmark self-test ({len(results)} cases)")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
