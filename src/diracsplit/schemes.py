"""Splitting-scheme catalog and the one interpreter of its step programs.

A scheme is an ordered program of exponential steps; each step applies
e^{c tau T} or e^{c tau W(t_n + f tau)}.  Programs are stored left to right
as the factors appear in the operator product and executed right to left
(the rightmost factor acts on the field first).  `Propagator`, the one
way to run a program, compiles it into flows at a checked tau and merges
the step boundaries of a multi-step run.

The catalog covers:

  S1     Lie-Trotter, order 1
  S2     Strang, order 2
  S4     Forest-Ruth triple jump of S2, order 4
  S4c    compact order-4 scheme (Chin's corrected-midpoint form; the
         double-commutator correction vanishes because [W,[T,W]] = 0 for a
         purely electric potential)
  S4RK   Blanes-Moan 6-stage order-4 partitioned splitting
  S6-A/B/C  Yoshida order-6 triple-jump solutions A, B, C
  S6star Suzuki order-6 fractal composition (25 Strang blocks)
  S6c    compact order-6 scheme: 9 exponentials W T W T W T W T W

All coefficient sets are frozen in data/scheme_constants.txt.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import lru_cache
from importlib import resources
from typing import Optional

from .model import Potential, SpinorField
from .spectral import Field, SpectralCache, WFlowCache, apply_T_flow, apply_W_flow

__all__ = [
    "SchemeStep",
    "SchemeSpec",
    "CATALOG_NAMES",
    "catalog",
    "op_count",
    "Propagator",
    "check_n_steps",
    "load_constants",
    "load_constant_strings",
]

_SUM_TOL = 1e-14
_OFFSET_TOL = 1e-12


@lru_cache(maxsize=1)
def load_constant_strings() -> dict[str, str]:
    """Raw decimal strings from the frozen constants file."""
    text = resources.files("diracsplit").joinpath("data/scheme_constants.txt").read_text()
    out: dict[str, str] = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        name, _, value = line.partition("=")
        out[name.strip()] = value.strip()
    return out


@lru_cache(maxsize=1)
def load_constants() -> dict[str, float]:
    """Frozen scheme coefficients rounded to nearest double."""
    consts = {name: float(value) for name, value in load_constant_strings().items()}
    # Closure relations implied by the published coefficient sets; guard
    # against transcription slips in the data file.
    a_sum = consts["blanes_moan_a1"] + consts["blanes_moan_a2"] + consts["blanes_moan_a3"]
    if abs(consts["blanes_moan_a4"] - (1.0 - 2.0 * a_sum)) > 1e-15:
        raise AssertionError("blanes_moan_a4 does not close the T coefficients to 1")
    b_sum = consts["blanes_moan_b1"] + consts["blanes_moan_b2"]
    if abs(consts["blanes_moan_b3"] - (0.5 - b_sum)) > 1e-15:
        raise AssertionError("blanes_moan_b3 does not close the W coefficients to 1/2")
    theta = consts["forest_ruth_theta"]
    if abs(theta - 1.0 / (2.0 - 2.0 ** (1.0 / 3.0))) > 1e-15:
        raise AssertionError("forest_ruth_theta is not 1/(2 - 2^(1/3))")
    return consts


@dataclass(frozen=True)
class SchemeStep:
    """One exponential factor: kind 'T' or 'W', coefficient c (multiple of
    tau), and for W steps the time offset f so V is evaluated at t_n + f*tau.

    Offsets follow the time-ordering rule: the offset of a W step equals the
    sum of the T coefficients applied before it (i.e. to its right in the
    stored program).  For compositions with coefficients outside [0, 1],
    such as S6c, offsets legitimately leave [0, 1] as well.
    """

    op_kind: str
    coeff: float
    time_offset: float = 0.0

    def __post_init__(self) -> None:
        if self.op_kind not in ("T", "W"):
            raise ValueError(f"op_kind must be 'T' or 'W', got {self.op_kind!r}")
        if not math.isfinite(self.coeff):
            raise ValueError(f"coeff must be finite, got {self.coeff!r}")
        if not math.isfinite(self.time_offset):
            raise ValueError(f"time_offset must be finite, got {self.time_offset!r}")


@dataclass(frozen=True)
class SchemeSpec:
    """A named, validated splitting program.

    Invariants checked at construction: the T coefficients and the W
    coefficients each sum to 1 (one full tau of each generator per step),
    symmetric programs are palindromic, and every W offset obeys the
    cumulative-T time-ordering rule.
    """

    name: str
    steps: tuple[SchemeStep, ...]
    declared_order: int
    symmetric: bool
    note: Optional[str] = None

    def __post_init__(self) -> None:
        t_sum = math.fsum(s.coeff for s in self.steps if s.op_kind == "T")
        w_sum = math.fsum(s.coeff for s in self.steps if s.op_kind == "W")
        if abs(t_sum - 1.0) > _SUM_TOL:
            raise ValueError(f"{self.name}: T coefficients sum to {t_sum!r}, expected 1")
        if abs(w_sum - 1.0) > _SUM_TOL:
            raise ValueError(f"{self.name}: W coefficients sum to {w_sum!r}, expected 1")
        if self.symmetric:
            n = len(self.steps)
            for i in range(n):
                a, b = self.steps[i], self.steps[n - 1 - i]
                if a.op_kind != b.op_kind or abs(a.coeff - b.coeff) > _SUM_TOL:
                    raise ValueError(f"{self.name}: declared symmetric but not palindromic")
        acc = 0.0
        for step_ in reversed(self.steps):
            if step_.op_kind == "T":
                acc += step_.coeff
            elif abs(step_.time_offset - acc) > _OFFSET_TOL:
                raise ValueError(
                    f"{self.name}: W offset {step_.time_offset!r} violates the "
                    f"time-ordering rule (expected {acc!r})"
                )


def _fuse(raw: list[tuple[str, float]]) -> list[tuple[str, float]]:
    """Merge adjacent steps of the same kind."""
    fused: list[tuple[str, float]] = []
    for kind, coeff in raw:
        if fused and fused[-1][0] == kind:
            fused[-1] = (kind, fused[-1][1] + coeff)
        else:
            fused.append((kind, coeff))
    return fused


def _with_offsets(raw: list[tuple[str, float]]) -> tuple[SchemeStep, ...]:
    """Assign W time offsets as cumulative T coefficients in execution order."""
    acc = 0.0
    out: list[SchemeStep] = []
    for kind, coeff in reversed(raw):
        if kind == "T":
            out.append(SchemeStep("T", coeff))
            acc += coeff
        else:
            out.append(SchemeStep("W", coeff, acc))
    out.reverse()
    return tuple(out)


def _strang_blocks(scales: list[float]) -> list[tuple[str, float]]:
    """Concatenate S2(s*tau) blocks for each scale s, then fuse."""
    raw: list[tuple[str, float]] = []
    for s in scales:
        raw.extend([("W", s / 2.0), ("T", s), ("W", s / 2.0)])
    return _fuse(raw)


def _build_catalog() -> dict[str, SchemeSpec]:
    c = load_constants()
    specs: dict[str, SchemeSpec] = {}

    def add(name: str, raw: list[tuple[str, float]], order: int, symmetric: bool,
            note: Optional[str] = None) -> None:
        specs[name] = SchemeSpec(name, _with_offsets(_fuse(raw)), order, symmetric, note)

    add("S1", [("T", 1.0), ("W", 1.0)], 1, False)
    add("S2", _strang_blocks([1.0]), 2, True)

    theta = c["forest_ruth_theta"]
    add("S4", _strang_blocks([theta, 1.0 - 2.0 * theta, theta]), 4, True)

    add("S4c", [("W", 1.0 / 6.0), ("T", 0.5), ("W", 2.0 / 3.0),
                ("T", 0.5), ("W", 1.0 / 6.0)], 4, True)

    a = [c["blanes_moan_a1"], c["blanes_moan_a2"], c["blanes_moan_a3"], c["blanes_moan_a4"]]
    b = [c["blanes_moan_b1"], c["blanes_moan_b2"], c["blanes_moan_b3"]]
    s4rk: list[tuple[str, float]] = [("T", a[0])]
    for i in range(3):
        s4rk += [("W", b[i]), ("T", a[i + 1])]
    for i in range(2, -1, -1):
        s4rk += [("W", b[i]), ("T", a[i])]
    add("S4RK", s4rk, 4, True)

    yoshida_note = (
        "fused composition has 7 T and 8 W exponentials; cost tables that "
        "merge only the innermost S2 endpoints list 9 and 10"
    )
    for variant in ("a", "b", "c"):
        w1 = c[f"yoshida_{variant}_w1"]
        w2 = c[f"yoshida_{variant}_w2"]
        w3 = c[f"yoshida_{variant}_w3"]
        w0 = 1.0 - 2.0 * (w1 + w2 + w3)
        add(f"S6-{variant.upper()}", _strang_blocks([w3, w2, w1, w0, w1, w2, w3]),
            6, True, yoshida_note)

    p2, p3 = c["suzuki_p2"], c["suzuki_p3"]
    outer = [p3, p3, 1.0 - 4.0 * p3, p3, p3]
    inner = [p2, p2, 1.0 - 4.0 * p2, p2, p2]
    add("S6star", _strang_blocks([o * i for o in outer for i in inner]), 6, True)

    c0, c1, c2 = c["s6c_c0"], c["s6c_c1"], c["s6c_c2"]
    c3, c4 = c["s6c_c3"], c["s6c_c4"]
    add("S6c", [("W", c4), ("T", c3), ("W", c2), ("T", c1), ("W", c0),
                ("T", c1), ("W", c2), ("T", c3), ("W", c4)], 6, True)

    return specs


@lru_cache(maxsize=1)
def _catalog() -> dict[str, SchemeSpec]:
    return _build_catalog()


CATALOG_NAMES = ("S1", "S2", "S4", "S4c", "S4RK", "S6-A", "S6-B", "S6-C", "S6star", "S6c")

# "S6" resolves to solution A, the default used by the benchmark harness.
_ALIASES = {"S6": "S6-A"}


def catalog(name: str) -> SchemeSpec:
    """Look up a scheme by name; accepts the alias S6 for S6-A."""
    resolved = _ALIASES.get(name, name)
    specs = _catalog()
    if resolved not in specs:
        raise KeyError(
            f"unknown scheme {name!r}; known schemes: {', '.join(CATALOG_NAMES)}"
        )
    return specs[resolved]


def op_count(spec: SchemeSpec) -> tuple[int, int]:
    """Counts of fused (T, W) exponentials per step."""
    n_t = sum(1 for s in spec.steps if s.op_kind == "T")
    n_w = sum(1 for s in spec.steps if s.op_kind == "W")
    return n_t, n_w


def check_n_steps(n_steps: int) -> int:
    """A step count as a plain int: any integer >= 0, numpy's included, but not a bool."""
    if isinstance(n_steps, bool) or not isinstance(n_steps, numbers.Integral) or n_steps < 0:
        raise ValueError(f"n_steps must be a nonnegative integer, got {n_steps!r}")
    return int(n_steps)


class Propagator:
    """The one interpreter of a step program: `spec` at step tau on one problem.

    Construction checks tau (finite and nonzero; negative runs backward) and
    compiles the program once into flows in execution order: kind, c*tau and
    W time offset f*tau.

    The spectral cache carries the T rotations for its (params, grid); a
    time-independent potential adds a W phase table built here from the
    same grid and params, so the two tables always belong together.  A
    cache built for a batch makes this the solve of a `SpinorBatch`, with
    one W table for all its members.

    Step boundaries are merged (first-same-as-last): when the program's
    first and last flows are of one kind, a run of n >= 2 steps applies the
    last flow of step k and the first flow of step k+1 as one flow with
    coefficient c_last + c_first, evaluated at step k's tail time
    t_k + f_last*tau.  Under the time-ordering rule both factors sample V
    at t_{k+1}, so the merged run is the unmerged one to round-off.  An
    n-step S6c run on a time-dependent V thus does 4n T flows and 4n + 1
    sampled W flows (the paper's per-step count is 4 and 5), and S4RK
    saves one T flow per boundary.  A W boundary that reads the cached
    phase table is not merged: the merged coefficient would add a second
    table (1 MB at 256^2) to save one multiply.  `run(field, t, 1)` is the
    plain, unmerged step.
    """

    __slots__ = ("tau", "potential", "cache", "wcache", "_flows", "_head", "_body", "_tail")

    def __init__(self, spec: SchemeSpec, tau: float, potential: Potential,
                 cache: SpectralCache):
        tau = float(tau)
        if not math.isfinite(tau) or tau == 0.0:
            raise ValueError(f"tau must be finite and nonzero, got {tau!r}")
        self.tau = tau
        self.potential = potential
        self.cache = cache
        self.wcache = (
            WFlowCache(potential, cache.grid, cache.params)
            if potential.time_independent
            else None
        )
        flows = tuple((s.op_kind, s.coeff * tau, s.time_offset * tau)
                      for s in reversed(spec.steps))
        self._flows = self._head = self._body = self._tail = flows
        first, last = spec.steps[-1], spec.steps[0]  # executed first and last
        if first.op_kind == last.op_kind and (first.op_kind == "T" or self.wcache is None):
            merged = (last.op_kind, (last.coeff + first.coeff) * tau, flows[-1][2])
            self._head = flows[:-1] + (merged,)
            self._body = flows[1:-1] + (merged,)
            self._tail = flows[1:]

    def run(self, field: Field, t0: float, n_steps: int) -> Field:
        """Apply `n_steps` scheme steps in place, step n starting at t0 + n*tau.

        Step boundaries are merged as the class describes; one step is the
        program's own flows."""
        n_steps = check_n_steps(n_steps)
        if n_steps == 1:
            return step(self, field, t0, self._flows)
        for n in range(n_steps):
            flows = self._head if n == 0 else self._tail if n == n_steps - 1 else self._body
            step(self, field, t0 + n * self.tau, flows)
        return field


def step(propagator: Propagator, field: Field, t_n: float,
         flows: tuple[tuple[str, float, float], ...]) -> Field:
    """One step, `flows` of `propagator`, on the field (or batch), in place, from t_n.

    A module global: the benchmark's tracer wraps it to count steps."""
    cache, wcache, potential = propagator.cache, propagator.wcache, propagator.potential
    for kind, ctau, offset in flows:
        if kind == "T":
            apply_T_flow(field, ctau, cache)
        else:
            apply_W_flow(field, ctau, t_n + offset, potential, cache.params, wcache)
    return field


def evolve(
    field: SpinorField,
    tau: float,
    t0: float,
    n_steps: int,
    spec: SchemeSpec,
    potential: Potential,
    cache: SpectralCache,
) -> SpinorField:
    """Apply `n_steps` scheme steps from t0, advancing t by tau each step.

    Not exported: only the benchmark's warm-up and self-test still call it."""
    return Propagator(spec, tau, potential, cache).run(field, t0, n_steps)
