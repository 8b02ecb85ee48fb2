"""Command-line front end: experiments to CSV, coefficient and algebra reports.

Data goes to the output stream (stdout or --output), diagnostics to the
error stream, never mixed.  Exit codes: 0 success, 1 configuration or
validation error, 2 numerical failure (non-convergence or a saturated
study when an order was demanded).
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from functools import partial
from pathlib import Path
from typing import Callable, Optional, Sequence

from . import __version__
from .config import ConfigError, RunConfig, parse_config
from .harness import (
    ErrorRecord,
    ReferenceProtocol,
    SpatialStudy,
    SuperresResult,
    TemporalStudy,
    _reference_header,
    _solve,
    _steps_for_span,
    _write_reference,
    resolve_cache_dir,
    spatial_convergence,
    superres_sweep,
    temporal_convergence,
)
from .lie import (
    bracket_collapse_identity,
    compare_with_transcription,
    constants_file_text,
    default_seed,
    derivation_report,
    frozen_coefficients,
    newton_solve,
    order_conditions,
    quadruple_identity_check,
    vanishing_commutators,
)
from .lie.conditions import _RESIDUAL_TOL, _exact_residuals
from .model import mass
from .schemes import catalog, op_count

CSV_COLUMNS = ("scheme", "h", "tau", "epsilon", "t_final",
               "e_phi", "e_rho", "e_J", "mass_drift", "wall_time", "rate")


# ---------------------------------------------------------------------------
# output helpers


def _fmt(x: float) -> str:
    return "%.17g" % x


def _write(csv_path: Optional[str], cfg: RunConfig, command: str, lines: Sequence[str]) -> None:
    """Write the metadata block and then `lines` to `csv_path`, or stdout if None."""
    text = "\n".join([
        f"# diracsplit {__version__}",
        f"# command: {command}",
        f"# config-sha256: {cfg.content_hash()}",
        "# resolved config:",
        *(f"#   {line}" for line in cfg.to_text().splitlines()),
        *lines,
    ]) + "\n"
    if csv_path is None:
        sys.stdout.write(text)
    else:
        Path(csv_path).write_text(text, encoding="utf-8")


def _record_row(r: ErrorRecord, rate: Optional[float]) -> str:
    cells = [
        r.scheme, _fmt(r.h), _fmt(r.tau), _fmt(r.epsilon), _fmt(r.t_final),
        _fmt(r.e_phi), _fmt(r.e_rho), _fmt(r.e_J), _fmt(r.mass_drift),
        _fmt(r.wall_time), "" if rate is None else _fmt(rate),
    ]
    return ",".join(cells)


def _diag(message: str) -> None:
    print(message, file=sys.stderr)


# ---------------------------------------------------------------------------
# gnuplot emission


def _gnuplot_script(csv_path: str, xlabel: str, xcol: int,
                    anchor: tuple[float, float], epsilons: Sequence[float] = ()) -> str:
    """Log-log plot of the error columns with slope guides 2/4/6.

    Guides are anchored to pass through the first data point (x0, e0),
    with e0 raised to 1e-300 so a zero error still gives a finite guide.
    Without `epsilons` the three error columns are plotted over all rows.
    A superres CSV runs through the tau ladder once per epsilon, so there
    e_phi is plotted as one series per value in `epsilons`, selected on
    the epsilon column (4).  Requires gnuplot >= 5 (datafile
    commentschars, csv separator).
    """
    x0, e0 = anchor[0], max(anchor[1], 1e-300)
    if epsilons:
        series = [f"'{csv_path}' using {xcol}:($4 == {_fmt(eps)} ? $6 : 1/0) "
                  f"with linespoints title 'e_phi eps={_fmt(eps)}'" for eps in epsilons]
    else:
        series = [f"'{csv_path}' using {xcol}:{col} with linespoints title '{name}'"
                  for col, name in ((6, "e_phi"), (7, "e_rho"), (8, "e_J"))]
    series += [f"g{k}(x) with lines dashtype 2 title 'order {k}'" for k in (2, 4, 6)]
    lines = [
        "# gnuplot >= 5",
        "set datafile separator ','",
        "set datafile commentschars '#'",
        "set logscale xy",
        f"set xlabel '{xlabel}'",
        "set ylabel 'discrete l2 error'",
        "set key left top",
        *(f"g{k}(x) = {_fmt(e0)} * (x/{_fmt(x0)})**{k}" for k in (2, 4, 6)),
        "plot " + ", \\\n     ".join(series),
    ]
    return "\n".join(lines) + "\n"


def _outputs(command: str, args, cfg: RunConfig) -> tuple[Optional[str], ...]:
    """Resolve the (CSV, gnuplot, --state-out) paths; None is stdout for the
    CSV and no file for the others.

    A flag wins over its key (`--gnuplot ""` turns the plot off).  Every
    setting that would fail a write or put two outputs (a study's reference
    cache directory included) on one file is rejected here, before any work.
    """
    csv = args.output if args.output is not None else cfg.csv_path
    flag = getattr(args, "gnuplot", None)
    gnuplot = (flag if flag is not None else cfg.gnuplot_path) or None
    state = getattr(args, "state_out", None) or None
    csv_file = None if csv in ("", "-") else csv
    if gnuplot and command == "solve":
        raise ConfigError("solve writes no gnuplot script: only converge-time, "
                          "converge-space and superres read [output] gnuplot")
    if gnuplot and csv_file is None:
        raise ConfigError("--gnuplot requires --output FILE (the script references the CSV)")
    written: dict[Path, str] = {}  # resolved path -> the output there, or the config read
    if args.config is not None:
        written[Path(args.config).resolve()] = "the config file"
    if command != "solve":
        cache_dir = resolve_cache_dir(cfg.cache_dir)
        if cache_dir.resolve() in written:
            raise ConfigError(f"cannot use {cache_dir} as the reference cache directory: "
                              "it is the config file")
        written[cache_dir.resolve()] = "the reference cache directory"
    for what, path in (("the CSV", csv_file), ("the gnuplot script", gnuplot),
                       ("the state file", state)):
        if path is None:
            continue
        target = Path(path)
        if not target.parent.is_dir():
            raise ConfigError(f"cannot write {path}: directory {target.parent} does not exist")
        if target.is_dir():
            raise ConfigError(f"cannot write {path}: it is a directory")
        if target.resolve() in written:
            raise ConfigError(f"cannot write {path}: {written[target.resolve()]} and "
                              f"{what} would overwrite each other")
        written[target.resolve()] = what
    return csv_file, gnuplot, state


# ---------------------------------------------------------------------------
# subcommands


def _load_config(args) -> RunConfig:
    text = "" if args.config is None else Path(args.config).read_text(encoding="utf-8")
    overrides = {name: getattr(args, name) for name in ("workers", "cache_dir")
                 if getattr(args, name) is not None}
    return parse_config(text, **overrides)


# a run command's body takes the config and the --state-out path and hands the
# driver its data lines, its gnuplot axis (xlabel, CSV column, anchor point,
# epsilons of the per-epsilon series; None for solve) and whether it saturated
_Axis = tuple[str, int, tuple[float, float], tuple[float, ...]]
_RunOutput = tuple[list[str], Optional[_Axis], bool]


def _run(command: str, body: Callable[[RunConfig, Optional[str]], _RunOutput], args) -> int:
    """The one driver of the run commands: every output path is checked before
    `body` runs; exit code 2 marks a saturated study."""
    cfg = _load_config(args)
    csv, gnuplot, state = _outputs(command, args, cfg)
    lines, axis, saturated = body(cfg, state)
    _write(csv, cfg, command, lines)
    if gnuplot is not None:
        Path(gnuplot).write_text(_gnuplot_script(csv, *axis), encoding="utf-8")
        _diag(f"wrote gnuplot script to {gnuplot}")
    if saturated:
        _diag("saturated: every error is within the floor; no order can be claimed")
        return 2
    return 0


def _solve_once(cfg: RunConfig, state_out: Optional[str]) -> _RunOutput:
    problem = cfg.problem()
    n = _steps_for_span(cfg.t_final, cfg.tau)
    [(field, wall, drift)] = _solve([problem], cfg.scheme, cfg.tau, n)
    if state_out:
        header = _reference_header(problem, cfg.t_final,
                                   ReferenceProtocol(scheme=cfg.scheme, tau=cfg.tau))
        _write_reference(Path(state_out), header, field.values)
        _diag(f"wrote final state to {state_out}")
    return [
        f"scheme={cfg.scheme} steps={n} tau={_fmt(cfg.tau)} t_final={_fmt(cfg.t_final)} "
        f"mass={_fmt(mass(field))} mass_drift={_fmt(drift)} wall_time={_fmt(wall)}"
    ], None, False


def _converge_time(cfg: RunConfig, _state_out: None) -> _RunOutput:
    study: TemporalStudy = temporal_convergence(
        cfg.scheme, cfg.taus, cfg.problem(), cfg.t_final, cfg.reference_protocol(),
        floor_factor=cfg.floor_factor, cache_dir=cfg.cache_dir,
        workers=cfg.workers,
    )
    lines = [",".join(CSV_COLUMNS)]
    lines += [_record_row(r, rate) for r, rate in zip(study.records, study.rates_phi)]
    for name, fit in (("e_phi", study.fit_phi), ("e_rho", study.fit_rho),
                      ("e_J", study.fit_J)):
        order = "saturated" if fit.saturated else _fmt(fit.order)
        lines.append(f"# fitted-order {name}: {order} (floor {_fmt(fit.floor)}, "
                     f"points {list(fit.points_used)})")
    first = study.records[0]
    return lines, ("tau", 3, (first.tau, first.e_phi), ()), study.saturated


def _converge_space(cfg: RunConfig, _state_out: None) -> _RunOutput:
    def factory(h: float):
        return replace(cfg, M=round((cfg.b - cfg.a) / h)).problem()

    study: SpatialStudy = spatial_convergence(
        cfg.scheme, cfg.h_list, factory, cfg.space_tau, cfg.t_final, cfg.reference_h,
        cache_dir=cfg.cache_dir, workers=cfg.workers,
    )
    # the rate column carries the successive error drop e_{k-1}/e_k:
    # spectral accuracy has no algebraic order to fit
    lines = [",".join(CSV_COLUMNS)]
    lines += [_record_row(r, ratio) for r, ratio in zip(study.records, study.ratios)]
    first = study.records[0]
    return lines, ("h", 2, (first.h, first.e_phi), ()), False


def _superres(cfg: RunConfig, _state_out: None) -> _RunOutput:
    result: SuperresResult = superres_sweep(
        cfg.sweep_spec(), cfg.sweep_t, scheme=cfg.scheme,
        problem_factory=lambda eps: cfg.problem(epsilon=float(eps)),
        cache_dir=cfg.cache_dir, workers=cfg.workers,
    )
    lines = [",".join(CSV_COLUMNS)] + [_record_row(r, None) for _, _, r in result.cells]
    # paper-shaped matrix block: rows epsilon (descending), columns tau
    lines.append("# matrix e_phi: columns tau = " + "  ".join(_fmt(t) for t in result.taus))
    cell_map = result.cell_map()
    for i, eps in enumerate(result.epsilons):
        row = [
            _fmt(cell_map[(i, j)].e_phi) if (i, j) in cell_map else "."
            for j in range(len(result.taus))
        ]
        lines.append(f"# eps={_fmt(eps)}: " + "  ".join(row))
    lines.append("# max-over-eps: " + "  ".join(_fmt(v) for v in result.column_max))
    lines.append("# rates: " + "  ".join("-" if r is None else _fmt(r) for r in result.rates))
    epsilons = tuple(dict.fromkeys(r.epsilon for _, _, r in result.cells))
    return lines, ("tau", 3, (result.taus[0], result.column_max[0]), epsilons), False


def _cmd_coeffs(args) -> int:
    tol = _RESIDUAL_TOL
    if args.verify:
        names = ("c0", "c1", "c2", "c3", "c4")
        frozen = frozen_coefficients()
        exact = [abs(r) for r in _exact_residuals(order_conditions(), frozen)]
        lines = ["frozen splitting coefficients (17 significant digits):"]
        lines += [f"  {n} = {_fmt(v)}" for n, v in zip(names, frozen)]
        lines.append("residuals of the five order conditions at the frozen values:")
        lines += [f"  a{i + 1}: {r:.3e}" for i, r in enumerate(exact)]
        worst = max(exact)
        ok = worst <= tol
        lines.append(f"max |residual| = {worst:.3e} {'<=' if ok else '>'} {tol:g}: "
                     f"{'PASS' if ok else 'FAIL'}")
        print("\n".join(lines))
        return 0 if ok else 2
    result = newton_solve(default_seed())
    print(derivation_report(result))
    frozen = frozen_coefficients()
    dev = max(abs(a - b) for a, b in zip(result.root, frozen))
    print(f"max deviation from the frozen double-precision values: {dev:.3e}")
    constants_text = constants_file_text(result.root)
    print(constants_text, end="")
    if args.constants_out:
        Path(args.constants_out).write_text(constants_text, encoding="utf-8")
        _diag(f"wrote constants to {args.constants_out}")
    if not result.converged or result.max_residual() > tol or dev > tol:
        _diag("derivation failed to reproduce the frozen constants within tolerance")
        return 2
    return 0


def _cmd_opcount(args) -> int:
    spec = catalog(args.scheme)
    n_t, n_w = op_count(spec)
    print(f"T={n_t} W={n_w}")
    if spec.note:
        _diag(spec.note)
    return 0


def _cmd_verify_lie(args) -> int:
    checks: list[tuple[str, bool, str]] = []
    in_quotient = bracket_collapse_identity(in_quotient=True)
    in_free = bracket_collapse_identity(in_quotient=False)
    checks.append(("bracket collapse holds in the quotient", in_quotient, ""))
    checks.append(("bracket collapse fails in the free algebra", not in_free, ""))
    for label, vanished in vanishing_commutators().items():
        checks.append((f"commutator {label} reduces to zero", vanished, ""))
    quad = quadruple_identity_check(args.trials, seed=args.seed)
    checks.append((f"quadruple identity on {args.trials} random integer matrix sets",
                   quad, ""))
    comparisons = compare_with_transcription()
    for comp in comparisons:
        if comp.match:
            checks.append((f"table cell {comp.stage}/{comp.cell} matches exactly",
                           True, ""))
        else:
            note = f"exact discrepancy {comp.discrepancy.canonical()}"
            expected = comp.cell == "[W,T,T,T,W]"
            checks.append((f"table cell {comp.stage}/{comp.cell} differs", expected, note))
    all_ok = all(ok for _, ok, _ in checks)
    for name, ok, note in checks:
        suffix = f" ({note})" if note else ""
        print(f"{'PASS' if ok else 'FAIL'} {name}{suffix}")
    print(f"{'PASS' if all_ok else 'FAIL'} lie-engine invariant suite")
    return 0 if all_ok else 2


# ---------------------------------------------------------------------------
# argument parsing and dispatch


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="diracsplit",
        description="Time-splitting spectral solvers for the Dirac equation: "
                    "benchmarks, coefficient derivation and algebra checks.",
    )
    parser.add_argument("--version", action="version", version=f"diracsplit {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_run_args(p):
        p.add_argument("-c", "--config", help="path to a run configuration file")
        p.add_argument("--workers", type=int,
                       help="override the worker count: the threads that run a study's "
                            "cells; with 1, solves on 2D M>=256 grids use a second core "
                            "for their T flows, pool cells never do")
        p.add_argument("--cache-dir", help="override the reference cache directory")
        p.add_argument("-o", "--output", help="data output path ('-' for stdout, the default)")

    p = sub.add_parser("solve", help="propagate once and print a summary line")
    add_run_args(p)
    p.add_argument("--state-out", help="dump the final spinor field to this path")
    p.set_defaults(func=partial(_run, "solve", _solve_once))

    for name, help_text, study in (
        ("converge-time", "temporal convergence study (CSV)", _converge_time),
        ("converge-space", "spatial convergence study (CSV)", _converge_space),
        ("superres", "(epsilon, tau) error sweep (CSV + matrix)", _superres),
    ):
        p = sub.add_parser(name, help=help_text)
        add_run_args(p)
        p.add_argument("--gnuplot", nargs="?", const="plot.gp",
                       help="also write a gnuplot (>= 5) script to this path")
        p.set_defaults(func=partial(_run, name, study))

    p = sub.add_parser("coeffs", help="derive or verify the compact sixth-order constants")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--derive", action="store_true",
                       help="re-derive the constants from the order conditions")
    group.add_argument("--verify", action="store_true",
                       help="check the frozen constants against the order conditions")
    p.add_argument("--constants-out", help="also write the constants file here")
    p.set_defaults(func=_cmd_coeffs)

    p = sub.add_parser("opcount", help="print a scheme's fused exponential counts")
    p.add_argument("scheme", help="catalog scheme name, e.g. S6c")
    p.set_defaults(func=_cmd_opcount)

    p = sub.add_parser("verify-lie", help="run the algebra invariant suite")
    p.add_argument("--trials", type=int, default=100,
                   help="random trials for the quadruple identity (default 100)")
    p.add_argument("--seed", type=int, default=0, help="random seed (default 0)")
    p.set_defaults(func=_cmd_verify_lie)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except KeyError as exc:  # str() of a KeyError would quote its message
        _diag(f"error: {exc.args[0] if exc.args else exc}")
        return 1
    except (ValueError, OSError) as exc:  # ConfigError is a ValueError
        _diag(f"error: {exc}")
        return 1
    except FloatingPointError as exc:
        _diag(f"numerical failure: {exc}")
        return 2


if __name__ == "__main__":
    sys.exit(main())
