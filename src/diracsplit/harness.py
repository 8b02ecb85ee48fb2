"""Experiment drivers: reference solutions, error metrics, convergence studies.

The drivers mirror a common benchmarking workflow for splitting methods:
generate a fine reference solution once (cached on disk), run the scheme
under study over a ladder of step sizes, and report discrete l2 errors for
the wave function and its observables together with fitted convergence
orders.  Fits never use data points within a measured noise floor.
"""

from __future__ import annotations

import hashlib
import math
import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable, Optional, Sequence

import numpy as np

from .model import (
    Grid,
    PhysParams,
    Potential,
    SpinorBatch,
    SpinorField,
    current,
    density,
    gaussian_ic,
    honeycomb_potential,
    make_grid,
    mass,
    rational_potential_1d,
)
from .schemes import Propagator, catalog, check_n_steps
from .spectral import build_cache  # a module global: the benchmark's tracer wraps it

CACHE_ENV_VAR = "DIRACSPLIT_CACHE"
DEFAULT_CACHE_DIR = ".diracsplit-cache"
CACHE_MAGIC = "diracsplit-reference-cache"
CACHE_VERSION = 1

# Absolute lower bound on the fit floor: below this the error is roundoff
# noise even when the reference self-distance is exactly zero (e.g. V = 0,
# where every splitting is exact and the study errors are pure roundoff).
FLOOR_MIN = 1e-13


# ---------------------------------------------------------------------------
# problem bundles


@dataclass(frozen=True)
class Problem:
    """A fully specified initial-value problem on a periodic box."""

    grid: Grid
    params: PhysParams
    potential: Potential
    initial: SpinorField
    t_start: float = 0.0

    def __post_init__(self) -> None:
        if self.initial.grid != self.grid:
            raise ValueError("initial data lives on a different grid")
        if not math.isfinite(self.t_start):
            raise ValueError(f"t_start must be finite, got {self.t_start!r}")

    def initial_digest(self) -> str:
        return hashlib.sha256(self.initial.values.tobytes()).hexdigest()

    def describe(self) -> list[tuple[str, str]]:
        """Key-value lines identifying the problem exactly (hex floats)."""
        g, p = self.grid, self.params
        return [
            ("dim", str(g.dim)),
            ("a", float(g.a).hex()),
            ("b", float(g.b).hex()),
            ("M", str(g.M)),
            ("delta", float(p.delta).hex()),
            ("nu", float(p.nu).hex()),
            ("epsilon", float(p.epsilon).hex()),
            ("potential", self.potential.cache_token),
            ("initial-sha256", self.initial_digest()),
            ("t-start", float(self.t_start).hex()),
        ]

    def propagator(self, scheme_name: str, tau: float) -> Propagator:
        """The flow tables for running `scheme_name` at step tau on this problem."""
        return _batch_propagator((self,), scheme_name, tau)


def _batch_key(problem: Problem) -> tuple:
    """What the problems of one batch share: all that the W flow and the clock read."""
    return (problem.grid, problem.t_start, problem.potential.cache_token, problem.params.delta)


def _batch_propagator(problems: Sequence[Problem], scheme_name: str, tau: float) -> Propagator:
    """The flow tables for running `scheme_name` at step tau on `problems` as
    one `SpinorBatch`; they may differ only in epsilon, nu and initial data."""
    first = problems[0]
    for problem in problems[1:]:
        if _batch_key(problem) != _batch_key(first):
            raise ValueError(
                "a batch needs one grid, t_start, potential and delta, got "
                f"{_batch_key(problem)!r} and {_batch_key(first)!r}"
            )
    return Propagator(catalog(scheme_name), tau, first.potential,
                      build_cache(tuple(p.params for p in problems), first.grid))


@dataclass(frozen=True)
class ReferenceProtocol:
    """How reference solutions are produced: scheme name and fine step."""

    scheme: str = "S6c"
    tau: float = 1e-3

    def __post_init__(self) -> None:
        catalog(self.scheme)
        if not (math.isfinite(self.tau) and self.tau > 0):
            raise ValueError(f"reference tau must be positive, got {self.tau!r}")


def gaussian_problem_1d(
    *,
    a: float = -16.0,
    b: float = 16.0,
    M: int = 512,
    epsilon: float = 1.0,
) -> Problem:
    """1D benchmark: V(x) = (1-x)/(1+x^2), Gaussian components at 0 and 1."""
    grid = make_grid(1, a, b, M)
    return Problem(
        grid=grid,
        params=PhysParams(delta=1.0, nu=1.0, epsilon=epsilon),
        potential=rational_potential_1d(),
        initial=gaussian_ic(grid, (0.0, 1.0)),
    )


def honeycomb_problem(
    theta_mode: str = "constant",
    *,
    a: float = -8.0,
    b: float = 8.0,
    M: int = 128,
) -> Problem:
    """2D benchmark: honeycomb potential, Gaussian components at (0,0), (1,0)."""
    grid = make_grid(2, a, b, M)
    return Problem(
        grid=grid,
        params=PhysParams(delta=1.0, nu=1.0, epsilon=1.0),
        potential=honeycomb_potential(theta_mode),
        initial=gaussian_ic(grid, ((0.0, 0.0), (1.0, 0.0))),
    )


def superres_problem(epsilon: float | Fraction, *, mode: str) -> Problem:
    """1D nonrelativistic-regime benchmark at the given epsilon.

    The resonant sweep uses the wider box (-32, 32) so the slower wave
    packet stays clear of the periodic boundary over t = 2*pi.
    """
    if mode == "resonant":
        return gaussian_problem_1d(a=-32.0, b=32.0, M=1024, epsilon=float(epsilon))
    if mode == "nonresonant":
        return gaussian_problem_1d(a=-16.0, b=16.0, M=512, epsilon=float(epsilon))
    raise ValueError(f"mode must be 'resonant' or 'nonresonant', got {mode!r}")


# ---------------------------------------------------------------------------
# error metrics and records


def error_metrics(numeric: SpinorField, reference: SpinorField) -> tuple[float, float, float]:
    """Discrete l2 errors (e_phi, e_rho, e_J) between two fields.

    e_phi is the weighted l2 norm of the spinor difference, e_rho of the
    probability-density difference and e_J of the current-density
    difference summed over all current components; the weight is h^dim.
    """
    if numeric.grid != reference.grid:
        raise ValueError("error metrics require both fields on the same grid")
    w = numeric.grid.h ** numeric.grid.dim
    diff = numeric.values - reference.values
    e_phi = math.sqrt(w * float(np.sum(diff.real**2 + diff.imag**2)))
    drho = density(numeric) - density(reference)
    e_rho = math.sqrt(w * float(np.sum(drho * drho)))
    dj = current(numeric) - current(reference)
    e_j = math.sqrt(w * float(np.sum(dj * dj)))
    return e_phi, e_rho, e_j


@dataclass(frozen=True)
class ErrorRecord:
    """One study cell: scheme and discretization, errors and timing.

    All fields except wall_time are bit-deterministic for a fixed
    configuration on one machine (fixed summation order throughout).
    """

    scheme: str
    h: float
    tau: float
    epsilon: float
    t_final: float
    e_phi: float
    e_rho: float
    e_J: float
    mass_drift: float
    wall_time: float

    def __post_init__(self) -> None:
        for name in ("e_phi", "e_rho", "e_J", "mass_drift", "wall_time"):
            v = getattr(self, name)
            if not (math.isfinite(v) and v >= 0.0):
                raise ValueError(f"{name} must be finite and >= 0, got {v!r}")


def relative_mass_drift(final: SpinorField, initial_mass: float) -> float:
    # zero field: drift defined as 0 (avoids 0/0)
    if initial_mass == 0.0:
        return 0.0
    return abs(mass(final) - initial_mass) / initial_mass


# ---------------------------------------------------------------------------
# reference-solution disk cache

_LOCKS_GUARD = threading.Lock()
_KEY_LOCKS: dict[str, threading.Lock] = {}


def _key_lock(key: str) -> threading.Lock:
    with _LOCKS_GUARD:
        return _KEY_LOCKS.setdefault(key, threading.Lock())


def resolve_cache_dir(cache_dir: str | os.PathLike | None = None) -> Path:
    """Explicit directory, else $DIRACSPLIT_CACHE, else ./.diracsplit-cache.

    None and "" both mean no explicit directory, like an empty variable.
    """
    if cache_dir:
        return Path(cache_dir)
    env = os.environ.get(CACHE_ENV_VAR)
    if env:
        return Path(env)
    return Path(DEFAULT_CACHE_DIR)


def _reference_header(problem: Problem, t_final: float, protocol: ReferenceProtocol) -> list[tuple[str, str]]:
    lines = [("version", str(CACHE_VERSION))]
    lines.extend(problem.describe())
    lines.extend(
        [
            ("t-final", float(t_final).hex()),
            ("scheme", protocol.scheme),
            ("tau", float(protocol.tau).hex()),
            ("dtype", "complex128-le"),
        ]
    )
    return lines


def _header_key(header: list[tuple[str, str]]) -> str:
    text = "\n".join(f"{k}: {v}" for k, v in header)
    return hashlib.sha256(text.encode()).hexdigest()


def reference_key(problem: Problem, t_final: float, protocol: ReferenceProtocol) -> str:
    """Content hash identifying one reference run."""
    return _header_key(_reference_header(problem, t_final, protocol))


def _reference_head(header: list[tuple[str, str]], payload: bytes) -> bytes:
    """Everything before the payload of a reference file: the magic line,
    the header lines, the payload's SHA-256 and size, and a blank line."""
    lines = [CACHE_MAGIC, *(f"{k}: {v}" for k, v in header),
             f"payload-sha256: {hashlib.sha256(payload).hexdigest()}",
             f"payload-bytes: {len(payload)}"]
    return ("\n".join(lines) + "\n\n").encode()


def _write_reference(path: Path, header: list[tuple[str, str]], values: np.ndarray) -> None:
    payload = np.ascontiguousarray(values, dtype="<c16").tobytes()
    tmp = path.with_name(f".tmp-{os.getpid()}-{path.name}")
    tmp.write_bytes(_reference_head(header, payload) + payload)
    os.replace(tmp, path)


def _read_reference(path: Path, header: list[tuple[str, str]], shape: tuple[int, ...]) -> Optional[np.ndarray]:
    """Read a cache file: a miss (None) unless its head is byte for byte the
    one `_write_reference` writes for this header and payload."""
    try:
        blob = path.read_bytes()
    except OSError:
        return None
    head, blank, payload = blob.partition(b"\n\n")
    if head + blank != _reference_head(header, payload):
        return None
    values = np.frombuffer(payload, dtype="<c16").astype(np.complex128)
    return values.reshape(shape)


def _steps_for_span(span: float, tau: float) -> int:
    n = round(span / tau)
    if n < 1 or abs(n * tau - span) > 1e-9 * max(1.0, abs(span)):
        raise ValueError(f"tau = {tau!r} does not divide the time span {span!r}")
    return n


def _solve(
    problems: Sequence[Problem], scheme_name: str, tau: float, n_steps: int
) -> list[tuple[SpinorField, float, float]]:
    """n_steps of the scheme from each problem's initial data, propagated as
    one batch: per problem, in order, (field, wall time, mass drift).

    The timer covers the propagation loop only; building the spectral plan
    and the potential phase table is setup, not stepping cost.  Each of the
    k problems is charged an equal share, 1/k, of the loop time.
    """
    # Copy before building the tables and take the masses after the loop:
    # the benchmark's figures were taken with this allocation order, and
    # another one moved its normalised timings by 17-35% (CHANGES.md).
    batch = SpinorBatch([problem.initial for problem in problems])
    propagator = _batch_propagator(problems, scheme_name, tau)
    start = time.perf_counter()
    propagator.run(batch, problems[0].t_start, n_steps)
    wall = (time.perf_counter() - start) / len(problems)
    out = []
    for problem, field in zip(problems, batch.members()):
        field.check_finite()
        out.append((field, wall, relative_mass_drift(field, mass(problem.initial))))
    return out


def _propagate(problem: Problem, t_final: float, scheme_name: str, tau: float) -> SpinorField:
    span = t_final - problem.t_start
    if span == 0.0:
        return problem.initial.copy()
    return _solve([problem], scheme_name, tau, _steps_for_span(span, tau))[0][0]


def reference_solution(
    problem: Problem,
    t_final: float,
    protocol: ReferenceProtocol,
    *,
    study_taus: Optional[Sequence[float]] = None,
    cache_dir: str | os.PathLike | None = None,
    use_cache: bool = True,
) -> SpinorField:
    """Fine-step solution at t_final under the reference protocol.

    When the study step sizes are supplied, the reference step must be at
    least 8x smaller than the smallest of them; a reference refined only
    marginally past the study would contaminate every error measurement.
    Results are cached on disk keyed by a content hash of the full
    configuration; corrupt or mismatched cache files are recomputed.
    """
    if study_taus is not None:
        tau_min = min(study_taus)
        if protocol.tau > tau_min / 8.0 * (1.0 + 1e-12):
            raise ValueError(
                f"reference tau {protocol.tau!r} must be at least 8x smaller "
                f"than the smallest study tau {tau_min!r}"
            )
    if not use_cache:
        return _propagate(problem, t_final, protocol.scheme, protocol.tau)
    header = _reference_header(problem, t_final, protocol)
    key = _header_key(header)
    directory = resolve_cache_dir(cache_dir)
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / f"{key[:32]}.ref"
    with _key_lock(key):
        cached = _read_reference(path, header, problem.initial.values.shape)
        if cached is not None:
            return SpinorField(problem.grid, cached)
        field = _propagate(problem, t_final, protocol.scheme, protocol.tau)
        _write_reference(path, header, field.values)
        return field


def reference_self_distance(
    problem: Problem,
    t_final: float,
    protocol: ReferenceProtocol,
    *,
    cache_dir: str | os.PathLike | None = None,
    use_cache: bool = True,
    fine: Optional[SpinorField] = None,
) -> tuple[float, float, float]:
    """Error metrics between references at tau_e and 2*tau_e.

    Measures how converged the reference itself is; study errors within a
    small multiple of this distance carry no order information.  A caller
    that already holds the tau_e reference passes it as `fine`, so it is
    neither propagated nor read again.
    """
    if fine is None:
        fine = reference_solution(
            problem, t_final, protocol, cache_dir=cache_dir, use_cache=use_cache
        )
    coarse_protocol = ReferenceProtocol(scheme=protocol.scheme, tau=2.0 * protocol.tau)
    coarse = reference_solution(
        problem, t_final, coarse_protocol, cache_dir=cache_dir, use_cache=use_cache
    )
    return error_metrics(coarse, fine)


# ---------------------------------------------------------------------------
# order fitting

@dataclass(frozen=True)
class OrderFit:
    """Least-squares slope of log(error) against log(tau) above a floor."""

    order: Optional[float]
    floor: float
    points_used: tuple[int, ...]
    saturated: bool


def fit_order(taus: Sequence[float], errors: Sequence[float], floor: float) -> OrderFit:
    """Fit the convergence order, ignoring points at or below the floor.

    A slope needs at least two points above the floor; with fewer the fit
    is reported as saturated and no order is claimed.
    """
    if len(taus) != len(errors):
        raise ValueError("taus and errors must have equal length")
    used = tuple(i for i, e in enumerate(errors) if e > floor)
    if len(used) < 2:
        return OrderFit(order=None, floor=floor, points_used=used, saturated=True)
    lt = np.log([taus[i] for i in used])
    le = np.log([errors[i] for i in used])
    slope = float(np.polyfit(lt, le, 1)[0])
    return OrderFit(order=slope, floor=floor, points_used=used, saturated=False)


def _successive_ratios(
    errors: Sequence[float], factor: Optional[Callable[[int], Optional[float]]] = None
) -> tuple[Optional[float], ...]:
    """Reading k compares errors k-1 and k; reading 0 is None.

    Without `factor` it is the drop e_{k-1}/e_k, None where e_k is not
    positive.  With it, the rate log(e_{k-1}/e_k) / log(factor(k)), None
    unless both errors are positive and factor(k) is not None.
    """
    out: list[Optional[float]] = [None]
    for k in range(1, len(errors)):
        prev, cur = errors[k - 1], errors[k]
        if factor is None:
            out.append(prev / cur if cur > 0 else None)
        elif prev > 0 and cur > 0 and (f := factor(k)) is not None:
            out.append(math.log(prev / cur) / math.log(f))
        else:
            out.append(None)
    return tuple(out)


def successive_rates(
    taus: Sequence[float], errors: Sequence[float]
) -> tuple[Optional[float], ...]:
    """rate_k = log(e_{k-1}/e_k) / log(tau_{k-1}/tau_k); None where undefined."""
    return _successive_ratios(
        errors, lambda k: taus[k - 1] / taus[k] if taus[k - 1] != taus[k] else None
    )


# ---------------------------------------------------------------------------
# study cells


def _run_cells(
    scheme_name: str,
    t_final: float,
    cells: Sequence[tuple[Problem, float, int, SpinorField]],
    workers: int,
) -> list[ErrorRecord]:
    """Propagate the study cells (problem, tau, n_steps, reference) and
    measure their errors and wall times.

    Cells with equal grid, tau, n_steps, t_start, potential and delta (in
    a sweep, one tau column of one mode) form a group, which `_solve`
    propagates as one batch; each member's wall_time is an equal share of
    the group's loop time.  With workers > 1 the groups run in a thread
    pool, whose T flows stay serial (only the main thread splits a flow
    across the second core).  The records keep the order of the cells.
    """
    groups: dict[tuple, list[int]] = {}
    for index, (problem, tau, n_steps, _) in enumerate(cells):
        groups.setdefault((_batch_key(problem), tau, n_steps), []).append(index)

    def run(indices: list[int]) -> list[ErrorRecord]:
        _, tau, n_steps, _ = cells[indices[0]]
        solved = _solve([cells[i][0] for i in indices], scheme_name, tau, n_steps)
        records = []
        for i, (field, wall, drift) in zip(indices, solved):
            problem, _, _, reference = cells[i]
            e_phi, e_rho, e_j = error_metrics(field, reference)
            records.append(ErrorRecord(scheme_name, problem.grid.h, tau, problem.params.epsilon,
                                       t_final, e_phi, e_rho, e_j,
                                       mass_drift=drift, wall_time=wall))
        return records

    jobs = list(groups.values())
    if workers <= 1 or len(jobs) <= 1:
        results = [run(job) for job in jobs]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(run, jobs))
    by_cell = {i: record for job, records in zip(jobs, results) for i, record in zip(job, records)}
    return [by_cell[i] for i in range(len(cells))]


# ---------------------------------------------------------------------------
# temporal convergence


@dataclass(frozen=True)
class TemporalStudy:
    """Error ladder over a tau refinement plus order fits per metric."""

    records: tuple[ErrorRecord, ...]
    fit_phi: OrderFit
    fit_rho: OrderFit
    fit_J: OrderFit
    self_distance: tuple[float, float, float]
    rates_phi: tuple[Optional[float], ...]

    @property
    def saturated(self) -> bool:
        return self.fit_phi.saturated


def temporal_convergence(
    scheme_name: str,
    taus: Sequence[float],
    problem: Problem,
    t_final: float,
    protocol: ReferenceProtocol,
    *,
    floor_factor: float = 10.0,
    cache_dir: str | os.PathLike | None = None,
    workers: int = 1,
) -> TemporalStudy:
    """Run the scheme over a ladder of time steps against a fine reference.

    Each tau must divide t_final - t_start.  Orders are least-squares
    slopes over the points above floor_factor times the measured reference
    self-distance (never below an absolute roundoff floor); if fewer than
    two points survive, the study is saturated and no order is claimed.
    """
    taus = sorted((float(t) for t in taus), reverse=True)
    if len(taus) < 3:
        raise ValueError("temporal convergence needs at least 3 step sizes")
    span = t_final - problem.t_start
    counts = [_steps_for_span(span, tau) for tau in taus]
    reference = reference_solution(problem, t_final, protocol, study_taus=taus, cache_dir=cache_dir)
    self_distance = reference_self_distance(
        problem, t_final, protocol, cache_dir=cache_dir, fine=reference
    )
    cells = [(problem, tau, n, reference) for tau, n in zip(taus, counts)]
    records = tuple(_run_cells(scheme_name, t_final, cells, workers))
    floors = [max(floor_factor * d, FLOOR_MIN) for d in self_distance]
    e_phi = [r.e_phi for r in records]
    return TemporalStudy(
        records=records,
        fit_phi=fit_order(taus, e_phi, floors[0]),
        fit_rho=fit_order(taus, [r.e_rho for r in records], floors[1]),
        fit_J=fit_order(taus, [r.e_J for r in records], floors[2]),
        self_distance=self_distance,
        rates_phi=successive_rates(taus, e_phi),
    )


# ---------------------------------------------------------------------------
# spatial convergence


@dataclass(frozen=True)
class SpatialStudy:
    """Error per mesh size at fixed fine tau, with successive drop factors."""

    records: tuple[ErrorRecord, ...]
    ratios: tuple[Optional[float], ...]


def spatial_convergence(
    scheme_name: str,
    h_list: Sequence[float],
    problem_factory: Callable[[float], Problem],
    tau: float,
    t_final: float,
    reference_h: float,
    *,
    cache_dir: str | os.PathLike | None = None,
    workers: int = 1,
) -> SpatialStudy:
    """Error against a fine-grid reference for each mesh size.

    The reference lives on the finest grid (mesh reference_h); every study
    grid must nest into it so the reference restricts to study nodes by
    pure striding.  tau is held fixed, so the temporal error is common to
    both sides and cancels from the comparison.

    Spectral convergence has no algebraic order, so the study reports
    successive error ratios instead of a fitted slope.
    """
    h_list = sorted((float(h) for h in h_list), reverse=True)
    if not h_list:
        raise ValueError("spatial convergence needs at least one mesh size")
    ref_problem = problem_factory(float(reference_h))
    protocol = ReferenceProtocol(scheme=scheme_name, tau=tau)
    m_ref = ref_problem.grid.M
    # every study mesh is checked before the reference is propagated
    studied: list[tuple[Problem, int, tuple[slice, ...]]] = []
    for h in h_list:
        problem = problem_factory(h)
        m = problem.grid.M
        if m_ref % m != 0:
            raise ValueError(f"study grid M={m} does not nest into reference M={m_ref}")
        sl = (slice(None),) + (slice(None, None, m_ref // m),) * problem.grid.dim
        studied.append((problem, _steps_for_span(t_final - problem.t_start, tau), sl))
    reference = reference_solution(ref_problem, t_final, protocol, cache_dir=cache_dir)
    cells = [
        (problem, tau, n, SpinorField(problem.grid, reference.values[sl].copy()))
        for problem, n, sl in studied
    ]
    records = tuple(_run_cells(scheme_name, t_final, cells, workers))
    return SpatialStudy(records=records, ratios=_successive_ratios([r.e_phi for r in records]))


# ---------------------------------------------------------------------------
# super-resolution sweep


SWEEP_MODES = ("resonant", "nonresonant")


@dataclass(frozen=True)
class SweepSpec:
    """A (tau, epsilon) sweep in the nonrelativistic regime.

    Step sizes are kept as exact rationals: tau_j = tau0 / factor^j in
    units of pi (resonant mode) or seconds (nonresonant mode).  In
    resonant mode a cell (epsilon, tau) is admissible only when
    tau/(epsilon^2 * pi) is an exact integer; admissibility is decided in
    rational arithmetic before any conversion to floating point.
    """

    tau0: Fraction
    factor: int
    count: int
    epsilons: tuple[Fraction, ...]
    mode: str
    reference_tau: Fraction
    reference_scheme: str = "S6c"

    def __post_init__(self) -> None:
        if self.mode not in SWEEP_MODES:
            raise ValueError(f"mode must be 'resonant' or 'nonresonant', got {self.mode!r}")
        if not isinstance(self.factor, int) or self.factor < 2:
            raise ValueError(f"refinement factor must be an integer >= 2, got {self.factor!r}")
        # order/rate readings need at least 3 refinements
        if self.count < 3:
            raise ValueError(f"refinement count must be >= 3, got {self.count!r}")
        if not self.epsilons:
            raise ValueError("epsilon list must be nonempty")
        for eps in self.epsilons:
            if not (0 < eps <= 1):
                raise ValueError(f"epsilon must lie in (0, 1], got {eps!r}")
        if self.tau0 <= 0 or self.reference_tau <= 0:
            raise ValueError("tau0 and reference_tau must be positive")
        catalog(self.reference_scheme)

    @property
    def unit(self) -> float:
        return math.pi if self.mode == "resonant" else 1.0

    def tau_fractions(self) -> tuple[Fraction, ...]:
        return tuple(self.tau0 / self.factor**j for j in range(self.count + 1))

    def taus(self) -> tuple[float, ...]:
        return tuple(float(q) * self.unit for q in self.tau_fractions())

    def admissible(self, epsilon: Fraction, tau_frac: Fraction) -> bool:
        """Exact-rational resonance test: tau/(eps^2 pi) integral."""
        if self.mode != "resonant":
            return True
        return (tau_frac / (epsilon * epsilon)).denominator == 1


@dataclass(frozen=True)
class SuperresResult:
    """Sweep output: per-cell records, column maxima over epsilon, rates."""

    taus: tuple[float, ...]
    epsilons: tuple[float, ...]
    cells: tuple[tuple[int, int, ErrorRecord], ...]  # (eps index, tau index, record)
    column_max: tuple[float, ...]
    rates: tuple[Optional[float], ...]

    def cell_map(self) -> dict[tuple[int, int], ErrorRecord]:
        return {(i, j): r for i, j, r in self.cells}


def superres_sweep(
    spec: SweepSpec,
    t_units: Fraction,
    *,
    scheme: str = "S6c",
    problem_factory: Optional[Callable[[Fraction], Problem]] = None,
    cache_dir: str | os.PathLike | None = None,
    workers: int = 1,
) -> SuperresResult:
    """Error matrix over (epsilon, tau) with column maxima and their rates.

    t_units is the final time in the sweep's tau units (multiples of pi in
    resonant mode), so step counts are exact integers by construction.
    Every epsilon gets its own fine reference under the sweep's reference
    protocol, computed one after another.  The cells of one tau column
    share grid, tau and W phases, since epsilon enters only T, so each
    column is propagated as one batch (`_run_cells`); with workers > 1 the
    columns run in a thread pool.
    """
    if problem_factory is None:
        problem_factory = lambda eps: superres_problem(eps, mode=spec.mode)
    tau_fracs = spec.tau_fractions()
    taus = spec.taus()
    t_final = float(t_units) * spec.unit
    for q in tau_fracs + (spec.reference_tau,):
        if (t_units / q).denominator != 1:
            raise ValueError(f"tau = {q} (in sweep units) does not divide t = {t_units}")
    protocol = ReferenceProtocol(
        scheme=spec.reference_scheme, tau=float(spec.reference_tau) * spec.unit
    )
    admissible = [
        (i, j)
        for i, eps in enumerate(spec.epsilons)
        for j, q in enumerate(tau_fracs)
        if spec.admissible(eps, q)
    ]
    for j in range(len(tau_fracs)):
        if not any(jj == j for _, jj in admissible):
            raise ValueError(
                f"no epsilon in the sweep admits the resonant step tau0/{spec.factor}^{j}"
            )

    # Indexed like spec.epsilons.  The references run serially: in the
    # thread pool, short 1D solves ran slower than one after another.
    problems = [problem_factory(eps) for eps in spec.epsilons]
    references = [
        reference_solution(problem, t_final, protocol, study_taus=taus, cache_dir=cache_dir)
        for problem in problems
    ]
    cells = [
        (problems[i], taus[j], int(t_units / tau_fracs[j]), references[i])
        for i, j in admissible
    ]
    records = _run_cells(scheme, t_final, cells, workers)
    matrix = tuple((i, j, r) for (i, j), r in zip(admissible, records))
    column_max = tuple(
        max(r.e_phi for i, jj, r in matrix if jj == j) for j in range(len(taus))
    )
    return SuperresResult(
        taus=taus,
        epsilons=tuple(float(e) for e in spec.epsilons),
        cells=matrix,
        column_max=column_max,
        rates=_successive_ratios(column_max, lambda j: spec.factor),
    )


# ---------------------------------------------------------------------------
# mass monitoring and step timing


def mass_series(
    scheme_name: str,
    problem: Problem,
    n_steps: int,
    tau: float,
) -> np.ndarray:
    """Relative mass deviation |m_n - m_0| / m_0 after each of n_steps steps."""
    n_steps = check_n_steps(n_steps)
    field = problem.initial.copy()
    m0 = mass(field)
    if m0 == 0.0:
        return np.zeros(n_steps)
    propagator = problem.propagator(scheme_name, tau)
    out = np.empty(n_steps)
    for n in range(n_steps):
        propagator.run(field, problem.t_start + n * tau, 1)
        out[n] = abs(mass(field) - m0) / m0
    return out


def per_step_time(
    scheme_name: str,
    problem: Problem,
    tau: float,
    *,
    n_steps: int = 20,
    repeats: int = 3,
) -> float:
    """Best-of-repeats wall time per step for the propagation loop alone.

    Each repeat is one `n_steps` run, so the time is of amortized steps,
    with the run's step boundaries merged (see `Propagator`)."""
    if n_steps < 1 or repeats < 1:
        raise ValueError("n_steps and repeats must be positive")
    propagator = problem.propagator(scheme_name, tau)
    best = math.inf
    for _ in range(repeats + 1):  # first pass warms caches and is kept only if fastest
        field = problem.initial.copy()
        start = time.perf_counter()
        propagator.run(field, problem.t_start, n_steps)
        best = min(best, (time.perf_counter() - start) / n_steps)
    return best
