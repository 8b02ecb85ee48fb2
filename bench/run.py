"""Layered, machine-normalised benchmark for diracsplit.

Usage (from the repository root):

    python3 bench/run.py --workload static-2d --seed 0 --seconds 35 --trace 0

Workloads: static-2d, driven-2d, superres-1d (see bench/README.md).  A run
repeats rounds for about --seconds seconds.  A round writes every reference
of the workload into an empty cache directory through the public API
(reference_s), then runs the workload's CLI study commands against the warm
cache, several times (study_s).  Set-up (setup_s) is timed in fresh
interpreters, one before each of the first rounds.  Every output is checked
against physical properties and, on superres-1d, a dense propagator, outside
the timed sections.

Times are normalised to machine speed: each timed call is divided by a numpy
calibration kernel timed right before and after it, and multiplied by the
kernel's fixed nominal time, so the unit stays seconds; set-up is divided by
the time of importing numpy in a fresh interpreter.  Raw times are printed
beside them.  The last stdout line is one JSON object: end-to-end metrics
with --trace 0, per-layer metrics with --trace 1.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import checks

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SETUP_PROBES = 9
MIN_ROUNDS = 3  # a per-call median needs three samples to drop one outlier
CENTER_SHIFT = 0.1  # seeds move each Gaussian centre coordinate by at most this
ORACLE_JOB = "nonresonant eps=1/16"


# ---------------------------------------------------------------------------
# calibration kernels: pure numpy, nothing from diracsplit


class Kernel:
    """A fixed numpy workload whose time tracks the machine's current speed."""

    def __init__(self, name: str, nominal_s: float, shape: tuple[int, ...], batch: int):
        rng = np.random.default_rng(12345)
        self.name = name
        self.nominal_s = nominal_s
        self.axes = tuple(range(1, len(shape)))
        self.batch = batch
        self.data = rng.standard_normal(shape) + 1.0j * rng.standard_normal(shape)

    def _body(self) -> None:
        u = self.data
        for _ in range(self.batch):
            u = np.fft.ifftn(np.fft.fftn(u, axes=self.axes) * 1.0, axes=self.axes)

    def time(self) -> float:
        """Median of 9 timings of the body."""
        samples = []
        for _ in range(9):
            start = time.perf_counter()
            self._body()
            samples.append(time.perf_counter() - start)
        return statistics.median(samples)


# Nominal times are medians measured once on the reference machine
# (2-core Xeon, numpy 2.4); they only fix the scale of the reported seconds.
KERNELS = {
    # one large transform pair on the 2D spinor shape: the T-flow character
    "fft2d": lambda: Kernel("fft2d", 0.005, (2, 256, 256), 1),
    # many small transform pairs: per-call overhead dominates, as in 1D steps
    "fft1d": lambda: Kernel("fft1d", 0.0027, (2, 512), 40),
}


# Set-up is import-bound, and most of it (about 70%) is importing numpy, so it
# is normalised by importing numpy alone in a fresh interpreter.
IMPORT_KERNEL = "import time; start = time.perf_counter(); import numpy; print(time.perf_counter() - start)"
IMPORT_KERNEL_NOMINAL_S = 0.15


def _child_seconds(args: list[str]) -> float:
    """Run a timing child process and return the seconds it prints last."""
    proc = subprocess.run(args, capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise RuntimeError(f"{args[1]} failed:\n{proc.stderr}")
    return float(proc.stdout.split()[-1])


# ---------------------------------------------------------------------------
# workloads


@dataclass(frozen=True)
class Workload:
    name: str
    command: str  # CLI study subcommand
    kernel: str
    study_repeats: int  # study sections per round
    order_metrics: tuple[str, ...]  # fitted orders checked per converge-time run


def _shift(rng: random.Random) -> float:
    return round(rng.uniform(-CENTER_SHIFT, CENTER_SHIFT), 4)


def _centres(seed: int, dim: int) -> tuple[str, str]:
    rng = random.Random(seed)
    if dim == 1:
        return f"{0.0 + _shift(rng)!r}", f"{1.0 + _shift(rng)!r}"
    c1 = (0.0 + _shift(rng), 0.0 + _shift(rng))
    c2 = (1.0 + _shift(rng), 0.0 + _shift(rng))
    return ", ".join(map(repr, c1)), ", ".join(map(repr, c2))


def _honeycomb(theta: str, scheme: str, centres, t_final: str, taus: str, ref_tau: str) -> str:
    return f"""[model]
dim = 2
a = -8.0
b = 8.0
M = 256
[potential]
kind = honeycomb
theta = {theta}
[initial]
center1 = {centres[0]}
center2 = {centres[1]}
[run]
scheme = {scheme}
t_final = {t_final}
workers = 1
[study]
taus = {taus}
reference_scheme = S6c
reference_tau = {ref_tau}
"""


def _sweep(mode: str, centres) -> str:
    box, M, tau0, ref_tau, t, epsilons = {
        "resonant": (32.0, 1024, "1/2", "1/1024", "1/2", "1/2, 1/4, 1/8, 1/16"),
        "nonresonant": (16.0, 512, "1", "1/512", "1", "1, 1/2, 1/4, 1/8, 1/16"),
    }[mode]
    return f"""[model]
dim = 1
a = {-box!r}
b = {box!r}
M = {M}
[potential]
kind = rational
[initial]
center1 = {centres[0]}
center2 = {centres[1]}
[run]
scheme = S6c
workers = 1
[study]
reference_scheme = S6c
[sweep]
mode = {mode}
tau0 = {tau0}
factor = 4
count = 3
epsilons = {epsilons}
reference_tau = {ref_tau}
t = {t}
"""


WORKLOADS = {
    "static-2d": Workload("static-2d", "converge-time", "fft2d", 2, ("e_phi",)),
    "driven-2d": Workload("driven-2d", "converge-time", "fft2d", 2, ("e_phi", "e_rho", "e_J")),
    "superres-1d": Workload("superres-1d", "superres", "fft1d", 3, ()),
}


def config_texts(name: str, seed: int) -> dict[str, str]:
    """Config file name -> text for one workload and seed."""
    if name == "superres-1d":
        centres = _centres(seed, 1)
        return {mode: _sweep(mode, centres) for mode in ("resonant", "nonresonant")}
    centres = _centres(seed, 2)
    if name == "static-2d":
        ladder = ("0.25", "0.25, 0.125, 0.0625", "0.0078125")
        return {s: _honeycomb("constant", s, centres, *ladder) for s in ("S6c", "S6-A")}
    ladder = ("0.25", "0.125, 0.0625, 0.03125", "0.00390625")
    return {"S6c": _honeycomb("linear", "S6c", centres, *ladder)}


@dataclass
class RefJob:
    """One reference the workload's studies read, with its study ladder."""

    problem: object
    t_final: float
    protocol: object
    study_taus: tuple[float, ...]
    label: str


def reference_jobs(ds, command: str, cfg) -> list[RefJob]:
    """The references the CLI study would look up, built the way it builds them."""
    if command == "converge-time":
        return [RefJob(cfg.problem(), cfg.t_final, cfg.reference_protocol(),
                       tuple(cfg.taus), "reference")]
    spec = cfg.sweep_spec()
    protocol = ds.harness.ReferenceProtocol(
        scheme=spec.reference_scheme, tau=float(spec.reference_tau) * spec.unit
    )
    t_final = float(cfg.sweep_t) * spec.unit
    return [
        RefJob(cfg.problem(epsilon=float(eps)), t_final, protocol, spec.taus(),
               f"{spec.mode} eps={eps}")
        for eps in spec.epsilons
    ]


def expected_cells(command: str, cfg) -> int:
    if command == "converge-time":
        return len(cfg.taus)
    spec = cfg.sweep_spec()
    return sum(spec.admissible(e, q) for e in spec.epsilons for q in spec.tau_fractions())


# ---------------------------------------------------------------------------
# CLI output parsing


def parse_study_csv(text: str) -> dict:
    """Cells (as dicts), fitted orders and sweep rates from a study CSV."""
    lines = text.splitlines()
    header = None
    cells, orders, rates = [], {}, None
    for line in lines:
        if line.startswith("# fitted-order "):
            name, _, rest = line[len("# fitted-order "):].partition(": ")
            value = rest.split()[0]
            orders[name] = None if value == "saturated" else float(value)
        elif line.startswith("# rates: "):
            rates = [None if v == "-" else float(v) for v in line[len("# rates: "):].split()]
        elif line.startswith("#") or not line:
            continue
        elif header is None:
            header = line.split(",")
        else:
            cells.append(dict(zip(header, line.split(","))))
    return {"cells": cells, "orders": orders, "rates": rates}


# ---------------------------------------------------------------------------
# one run


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # Linux: KiB


def normalised(raw: float, before: float, after: float, kernel: Kernel) -> float:
    return raw * kernel.nominal_s / (0.5 * (before + after))


class Run:
    def __init__(self, ds, workload: Workload, seed: int, workdir: Path):
        self.ds = ds
        self.wl = workload
        self.workdir = workdir
        self.kernel = KERNELS[workload.kernel]()
        self.config_paths: dict[str, Path] = {}
        for name, text in config_texts(workload.name, seed).items():
            path = workdir / f"{name}.cfg"
            path.write_text(text, encoding="utf-8")
            self.config_paths[name] = path
        from diracsplit.config import parse_config

        self.configs = {n: parse_config(p.read_text()) for n, p in self.config_paths.items()}
        configs = list(self.configs.values())
        if workload.command == "converge-time":
            configs = configs[:1]  # the S6c and S6-A ladders share one S6c reference
        self.ref_jobs = [job for cfg in configs for job in reference_jobs(ds, workload.command, cfg)]
        self.failures: list[str] = []
        self.attempted = 0
        self.failed = 0
        # metric -> position of the call within its section -> [(normalised, raw)]
        self.calls: dict[str, dict[int, list[tuple[float, float]]]] = {}
        self.kernel_times: list[float] = []
        self.import_kernel_times: list[float] = []
        self.step_times: dict[str, list[tuple[float, int]]] = {}  # scheme -> [(wall, steps)]
        self.layer_rounds: list[dict[str, float]] = []
        self.last_refs: list = []

    def _add(self, metric: str, position: int, norm: float, raw: float) -> None:
        self.calls.setdefault(metric, {}).setdefault(position, []).append((norm, raw))

    def value(self, metric: str, raw: bool = False) -> float:
        """Sum over the section's calls of each call's median time.

        Taking the median per call before summing drops a call that a change
        of machine speed caught half-way, without discarding the round.
        """
        return sum(statistics.median(s[int(raw)] for s in samples)
                   for samples in self.calls[metric].values())

    # -- set-up -------------------------------------------------------------

    def measure_setup(self, count: int) -> None:
        """Time `count` set-ups, each in a fresh interpreter.

        Each is followed by the numpy-import kernel, also in a fresh
        interpreter: set-up is import-bound, and the FFT kernels did not
        track it.
        """
        probe = Path(__file__).with_name("setup_probe.py")
        args = [sys.executable, str(probe), str(SRC)] + [
            f"{self.wl.command}={p}" for p in self.config_paths.values()
        ]
        for _ in range(count):
            raw = _child_seconds(args)
            kernel = _child_seconds([sys.executable, "-c", IMPORT_KERNEL])
            self._add("setup_s", 0, raw * IMPORT_KERNEL_NOMINAL_S / kernel, raw)
            self.import_kernel_times.append(kernel)

    def warm_up(self) -> None:
        """Let numpy's FFT plan caches fill for every grid (users pay it once)."""
        ds = self.ds
        seen = set()
        for job in self.ref_jobs:
            grid = job.problem.grid
            if grid in seen:
                continue
            seen.add(grid)
            field = job.problem.initial.copy()
            cache = ds.spectral.build_cache(job.problem.params, grid)
            ds.schemes.evolve(field, job.protocol.tau, 0.0, 1, ds.schemes.catalog("S6c"),
                              job.problem.potential, cache)
        self.kernel.time()

    # -- a round ------------------------------------------------------------

    def _timed(self, metric: str, position: int, fn, *args, **kwargs):
        """Call fn and record its raw and normalised time.

        Every call is bracketed by kernel timings, so a change of machine
        speed between calls is tracked call by call.
        """
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            raw = time.perf_counter() - start
            after = self.kernel.time()
            self._add(metric, position, normalised(raw, self.kernel_last, after, self.kernel), raw)
            self.kernel_last = after
            self.kernel_times.append(after)

    def _reference_section(self, cache_dir: Path) -> list:
        harness = self.ds.harness
        out = []
        for i, job in enumerate(self.ref_jobs):
            self.attempted += 2  # the reference and its 2x-coarser twin
            try:
                ref = self._timed("reference_s", 2 * i, harness.reference_solution, job.problem,
                                  job.t_final, job.protocol, study_taus=job.study_taus,
                                  cache_dir=cache_dir)
                dist = self._timed("reference_s", 2 * i + 1, harness.reference_self_distance,
                                   job.problem, job.t_final, job.protocol, cache_dir=cache_dir)
            except Exception as exc:  # counted and reported; the run goes on
                self.failed += 2
                self.failures.append(f"{job.label}: reference failed: {exc!r}")
                continue
            out.append((job, ref, dist))
        return out

    def _study_section(self, cache_dir: Path, outdir: Path) -> dict[str, str | None]:
        outputs = {}
        for i, (name, path) in enumerate(self.config_paths.items()):
            csv = outdir / f"{name}.csv"
            rc = self._timed("study_s", i, self.ds.cli.main, [
                self.wl.command, "-c", str(path), "--cache-dir", str(cache_dir), "-o", str(csv)
            ])
            outputs[name] = csv.read_text(encoding="utf-8") if rc == 0 and csv.exists() else None
        return outputs

    def _check_references(self, refs) -> None:
        for job, ref, _ in refs:
            drift = checks.relative_mass_drift(ref.values, job.problem.initial.values)
            self.failures += checks.check_mass(job.label, [drift])

    def _check_study(self, outputs: dict[str, str | None]) -> int:
        """Checks one study section and counts its cells; returns cells reported."""
        reported = 0
        for name, text in outputs.items():
            n = expected_cells(self.wl.command, self.configs[name])
            self.attempted += n
            if text is None:
                self.failed += n
                self.failures.append(f"{name}: {self.wl.command} exited with an error")
                continue
            parsed = parse_study_csv(text)
            reported += len(parsed["cells"])
            if len(parsed["cells"]) != n:
                self.failures.append(f"{name}: {len(parsed['cells'])} cells, expected {n}")
            self.failures += checks.check_mass(name, [float(c["mass_drift"]) for c in parsed["cells"]])
            for c in parsed["cells"]:
                steps = round(float(c["t_final"]) / float(c["tau"]))
                self.step_times.setdefault(c["scheme"], []).append((float(c["wall_time"]), steps))
            for metric in self.wl.order_metrics:
                self.failures += checks.check_order(f"{name} {metric}", parsed["orders"].get(metric))
            if self.wl.command == "superres":
                self.failures += checks.check_rates(name, name, parsed["rates"] or [])
        return reported

    def round(self, index: int, tracer) -> None:
        cache_dir = self.workdir / f"refs-{index}"
        outdir = self.workdir / f"out-{index}"
        outdir.mkdir()
        if tracer is not None:
            tracer.reset()
        self.kernel_last = self.kernel.time()
        refs = self._reference_section(cache_dir)
        outputs = [self._study_section(cache_dir, outdir) for _ in range(self.wl.study_repeats)]
        if tracer is not None:
            layers = tracer.snapshot()
        self._check_references(refs)
        cells = sum(self._check_study(out) for out in outputs)
        if tracer is not None:
            layers["harness.cells"] = float(cells)
            self.layer_rounds.append(layers)
        self.last_refs = refs
        shutil.rmtree(cache_dir, ignore_errors=True)
        shutil.rmtree(outdir, ignore_errors=True)

    # -- the dense oracle ----------------------------------------------------

    def oracle(self) -> None:
        """One 1D reference against exp(t(T+W)) u0 (superres-1d only).

        The smallest epsilon of the nonresonant sweep: the reference with the
        largest time error, so the comparison is not at round-off level.
        """
        for job, ref, dist in self.last_refs:
            if job.label != ORACLE_JOB:
                continue
            g, p = job.problem.grid, job.problem.params
            gen = checks.dense_generator_1d(g.a, g.b, g.M, p.delta, p.nu, p.epsilon,
                                            checks.rational_potential)
            fails, d = checks.check_oracle(job.label, ref.values, job.problem.initial.values,
                                           gen, job.t_final, g.h, dist[0])
            self.failures += fails
            print(f"oracle: |reference - exp(t(T+W)) u0| = {d:.3e} "
                  f"(self-distance {dist[0]:.3e}) for {job.label}")
            return
        self.failures.append(f"oracle: {ORACLE_JOB} reference not available")


def import_package():
    """Import diracsplit from this checkout's sources, never from elsewhere."""
    if not (SRC / "diracsplit" / "__init__.py").is_file():
        raise SystemExit(f"error: no diracsplit sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import diracsplit
    import diracsplit.cli

    if Path(diracsplit.__file__).resolve().parent != (SRC / "diracsplit").resolve():
        raise SystemExit(f"error: imported diracsplit from {diracsplit.__file__}, not {SRC}")
    return diracsplit


E2E_UNITS = {"setup_s": "s", "reference_s": "s", "study_s": "s", "peak_rss_mb": "MB"}
LAYER_UNITS = {
    "spectral.T_flow.calls": "count", "spectral.T_flow.self_s": "s",
    "spectral.fft.calls": "count", "spectral.fft.self_s": "s",
    "spectral.T_flow.gb_computed": "GB", "spectral.fft.gflop_computed": "GFLOP",
    "spectral.W_flow.calls": "count", "spectral.W_flow.self_s": "s",
    "model.sample_grid.calls": "count", "model.sample_grid.self_s": "s",
    "spectral.build_cache.calls": "count", "spectral.build_cache.self_s": "s",
    "spectral.cache_mb": "MB", "spectral.wflow.phase_tables": "count",
    "schemes.step.calls": "count", "schemes.step.self_s": "s",
    "harness.reference.hits": "count", "harness.reference.misses": "count",
    "harness.reference.read_s": "s", "harness.error_metrics.self_s": "s",
    "harness.cells": "count", "config.parse_s": "s",
    "trace.reference_s": "s", "trace.study_s": "s",
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    ds = import_package()
    from layers import Tracer

    workload = WORKLOADS[args.workload]
    workdir = WORK / f"{workload.name}-{os.getpid()}"
    workdir.mkdir(parents=True)
    tracer = Tracer(ds) if args.trace else None
    try:
        run = Run(ds, workload, args.seed, workdir)
        run.warm_up()
        if tracer is not None:
            tracer.install()
        try:
            deadline = time.perf_counter() + args.seconds
            durations = []
            while True:
                # set-up probes are spread over the run, one before each round,
                # so their median does not hang on the machine's state at start
                if len(durations) < SETUP_PROBES:
                    run.measure_setup(1)
                start = time.perf_counter()
                run.round(len(durations), tracer)
                durations.append(time.perf_counter() - start)
                if (len(durations) >= MIN_ROUNDS
                        and time.perf_counter() + statistics.median(durations) > deadline):
                    break
        finally:
            if tracer is not None:
                tracer.uninstall()
        peak = peak_rss_mb()
        run.measure_setup(SETUP_PROBES - min(len(durations), SETUP_PROBES))
        if workload.command == "superres":
            run.oracle()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    rounds = len(durations)
    if args.trace:
        names = LAYER_UNITS
        values = {k: statistics.median(r[k] for r in run.layer_rounds)
                  for k in names if not k.startswith("trace.")}
        values["trace.reference_s"] = run.value("reference_s")
        values["trace.study_s"] = run.value("study_s")
    else:
        names = E2E_UNITS
        values = {k: run.value(k) for k in run.calls}
        values["peak_rss_mb"] = peak
    print(f"workload {workload.name}, seed {args.seed}, {rounds} rounds, "
          f"{workload.study_repeats} study sections per round, trace {args.trace}")
    for key in names:
        line = f"  {key:32s} {values[key]:12.6g} {names[key]}"
        if key in run.calls:
            line += f"   (raw {run.value(key, raw=True):.6g} s)"
        print(line)
    print(f"  kernel {run.kernel.name}: median {statistics.median(run.kernel_times) * 1e3:.4g} ms, "
          f"nominal {run.kernel.nominal_s * 1e3:.4g} ms")
    print(f"  numpy-import kernel: median {statistics.median(run.import_kernel_times) * 1e3:.4g} ms, "
          f"nominal {IMPORT_KERNEL_NOMINAL_S * 1e3:.4g} ms")
    per_step = {k: sum(w for w, _ in v) / sum(n for _, n in v) for k, v in run.step_times.items()}
    for scheme, t in per_step.items():
        print(f"  {scheme} per step (CLI wall_time, raw): {t * 1e3:.4g} ms")
    if {"S6c", "S6-A"} <= per_step.keys():
        print(f"  S6c/S6-A per-step ratio: {per_step['S6c'] / per_step['S6-A']:.4f}")
    print(f"  operations: {run.attempted} attempted, {run.failed} failed")
    for msg in run.failures:
        print(f"CHECK FAILED: {msg}", file=sys.stderr)
    correct = not run.failures
    result = {
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": values[k], "unit": names[k]} for k in names},
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
