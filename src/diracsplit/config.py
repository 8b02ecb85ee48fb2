"""Run-configuration parsing: a small `key = value` format with sections.

The format is deliberately tiny: `[section]` headers, one `key = value`
per line, full-line comments starting with `#`, blank lines ignored.
The fields of `RunConfig` are the schema: each carries its section, key,
parser and default.  The schema is closed; unknown sections or keys are
errors, not warnings, and every diagnostic carries the offending line
number.  A parsed config echoes back to text losslessly: parsing the echo
reproduces it exactly.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field, fields
from fractions import Fraction
from typing import Any, Callable, Optional

from .harness import SWEEP_MODES, Problem, ReferenceProtocol, SweepSpec
from .model import (
    _THETA_FUNCS,
    PhysParams,
    Potential,
    constant_potential,
    gaussian_ic,
    honeycomb_potential,
    make_grid,
    rational_potential_1d,
    zero_potential,
)
from .schemes import catalog


class ConfigError(ValueError):
    """A validation failure with the line number it was detected on."""

    def __init__(self, message: str, line: Optional[int] = None):
        self.line = line
        prefix = f"line {line}: " if line is not None else ""
        super().__init__(prefix + message)


# ---------------------------------------------------------------------------
# value codecs: parse from text, render back to canonical text


def _parse_int(text: str) -> int:
    try:
        return int(text, 10)
    except ValueError:
        raise ValueError(f"expected an integer, got {text!r}") from None


def _parse_float(text: str) -> float:
    try:
        v = float(text)
    except ValueError:
        raise ValueError(f"expected a number, got {text!r}") from None
    if not math.isfinite(v):
        raise ValueError(f"expected a finite number, got {text!r}")
    return v


def _parse_fraction(text: str) -> Fraction:
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"expected a rational like 3, 1/2 or 0.25, got {text!r}") from None


def _parse_str(text: str) -> str:
    return text.strip()


def _split_list(text: str) -> list[str]:
    items = [part.strip() for part in text.split(",")]
    if items == [""]:
        return []
    if any(not part for part in items):
        raise ValueError(f"empty element in list {text!r}")
    return items


def _parse_floats(text: str) -> tuple[float, ...]:
    return tuple(_parse_float(part) for part in _split_list(text))


def _parse_fractions(text: str) -> tuple[Fraction, ...]:
    return tuple(_parse_fraction(part) for part in _split_list(text))


def _render(value: Any) -> str:
    if isinstance(value, bool):
        raise TypeError("no boolean keys in the schema")
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, int):
        return str(value)
    if isinstance(value, str):
        return value
    if isinstance(value, tuple):
        return ", ".join(_render(v) for v in value)
    raise TypeError(f"cannot render {value!r}")


# ---------------------------------------------------------------------------
# schema


def _key(section: str, key: str, parse: Callable[[str], Any], default: Any):
    """A config key: its `[section]`, its name there, its parser and default."""
    return field(default=default, metadata={"section": section, "key": key, "parse": parse})


@dataclass(frozen=True)
class RunConfig:
    """A fully resolved run configuration; its fields are the schema.

    Field order is the order of sections and of keys within a section in
    `to_text()`, and so part of every config echo and content hash.
    """

    dim: int = _key("model", "dim", _parse_int, 1)
    delta: float = _key("model", "delta", _parse_float, 1.0)
    nu: float = _key("model", "nu", _parse_float, 1.0)
    epsilon: float = _key("model", "epsilon", _parse_float, 1.0)
    a: float = _key("model", "a", _parse_float, -16.0)
    b: float = _key("model", "b", _parse_float, 16.0)
    M: int = _key("model", "M", _parse_int, 512)
    potential_kind: str = _key("potential", "kind", _parse_str, "rational")
    potential_value: float = _key("potential", "value", _parse_float, 0.0)
    theta: str = _key("potential", "theta", _parse_str, "constant")
    center1: tuple[float, ...] = _key("initial", "center1", _parse_floats, (0.0,))
    center2: tuple[float, ...] = _key("initial", "center2", _parse_floats, (1.0,))
    scheme: str = _key("run", "scheme", _parse_str, "S6c")
    t_final: float = _key("run", "t_final", _parse_float, 1.0)
    tau: float = _key("run", "tau", _parse_float, 1e-3)
    workers: int = _key("run", "workers", _parse_int, 1)
    cache_dir: str = _key("run", "cache_dir", _parse_str, "")
    taus: tuple[float, ...] = _key("study", "taus", _parse_floats,
                                   (0.25, 0.125, 0.0625, 0.03125, 0.015625, 0.0078125))
    reference_scheme: str = _key("study", "reference_scheme", _parse_str, "S6c")
    reference_tau: float = _key("study", "reference_tau", _parse_float, 0.0009765625)
    floor_factor: float = _key("study", "floor_factor", _parse_float, 10.0)
    h_list: tuple[float, ...] = _key("space", "h_list", _parse_floats, (1.0, 0.5, 0.25, 0.125))
    reference_h: float = _key("space", "reference_h", _parse_float, 0.03125)
    space_tau: float = _key("space", "tau", _parse_float, 1e-3)
    sweep_mode: str = _key("sweep", "mode", _parse_str, "resonant")
    sweep_tau0: Fraction = _key("sweep", "tau0", _parse_fraction, Fraction(1, 2))
    sweep_factor: int = _key("sweep", "factor", _parse_int, 4)
    sweep_count: int = _key("sweep", "count", _parse_int, 4)
    sweep_epsilons: tuple[Fraction, ...] = _key("sweep", "epsilons", _parse_fractions,
                                                tuple(Fraction(1, 2**m) for m in range(6)))
    sweep_reference_tau: Fraction = _key("sweep", "reference_tau", _parse_fraction,
                                         Fraction(1, 4096))
    sweep_t: Fraction = _key("sweep", "t", _parse_fraction, Fraction(2))
    csv_path: str = _key("output", "csv", _parse_str, "-")
    gnuplot_path: str = _key("output", "gnuplot", _parse_str, "")

    # -- rendering ---------------------------------------------------------

    def to_text(self) -> str:
        """Canonical text form; parsing it reproduces this config exactly."""
        out: list[str] = []
        for section in _SECTION_ORDER:
            out.append(f"[{section}]")
            for name, meta in _SCHEMA.items():
                if meta["section"] == section:
                    out.append(f"{meta['key']} = {_render(getattr(self, name))}")
            out.append("")
        return "\n".join(out)

    def content_hash(self) -> str:
        return hashlib.sha256(self.to_text().encode()).hexdigest()

    # -- derived objects ----------------------------------------------------

    def params(self) -> PhysParams:
        return PhysParams(delta=self.delta, nu=self.nu, epsilon=self.epsilon)

    def potential(self) -> Potential:
        _check(self.potential_kind in _POTENTIALS, _kind_message(self.potential_kind), None)
        return _POTENTIALS[self.potential_kind][1](self)

    def problem(self, epsilon: Optional[float] = None) -> Problem:
        grid = make_grid(self.dim, self.a, self.b, self.M)
        params = self.params() if epsilon is None else PhysParams(
            delta=self.delta, nu=self.nu, epsilon=float(epsilon)
        )
        centers = (
            (self.center1[0], self.center2[0])
            if self.dim == 1
            else (self.center1, self.center2)
        )
        return Problem(
            grid=grid,
            params=params,
            potential=self.potential(),
            initial=gaussian_ic(grid, centers),
        )

    def reference_protocol(self) -> ReferenceProtocol:
        return ReferenceProtocol(scheme=self.reference_scheme, tau=self.reference_tau)

    def sweep_spec(self) -> SweepSpec:
        return SweepSpec(
            tau0=self.sweep_tau0,
            factor=self.sweep_factor,
            count=self.sweep_count,
            epsilons=self.sweep_epsilons,
            mode=self.sweep_mode,
            reference_tau=self.sweep_reference_tau,
            reference_scheme=self.reference_scheme,
        )


# potential kind -> (the one dim it supports, or None for any; its factory)
_POTENTIALS: dict[str, tuple[Optional[int], Callable[[RunConfig], Potential]]] = {
    "zero": (None, lambda cfg: zero_potential()),
    "constant": (None, lambda cfg: constant_potential(cfg.potential_value)),
    "rational": (1, lambda cfg: rational_potential_1d()),
    "honeycomb": (2, lambda cfg: honeycomb_potential(cfg.theta)),
}


def _kind_message(kind: str) -> str:
    return f"potential kind must be one of {', '.join(_POTENTIALS)}, got {kind!r}"


# field name -> {"section", "key", "parse"}
_SCHEMA = {f.name: f.metadata for f in fields(RunConfig)}
_BY_SECTION_KEY = {(meta["section"], meta["key"]): name for name, meta in _SCHEMA.items()}
_SECTION_ORDER = tuple(dict.fromkeys(meta["section"] for meta in _SCHEMA.values()))


def default_config() -> RunConfig:
    return RunConfig()


# ---------------------------------------------------------------------------
# parsing


def _parse_lines(text: str) -> dict[str, tuple[Any, int]]:
    """Raw pass: returns field name -> (parsed value, line number)."""
    values: dict[str, tuple[Any, int]] = {}
    section: Optional[str] = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip()
            if section not in _SECTION_ORDER:
                raise ConfigError(f"unknown section [{section}]", lineno)
            continue
        key, eq, value = line.partition("=")
        if not eq:
            raise ConfigError(f"expected 'key = value', got {raw.strip()!r}", lineno)
        key = key.strip()
        value = value.strip()
        if section is None:
            raise ConfigError(f"key {key!r} appears before any [section]", lineno)
        name = _BY_SECTION_KEY.get((section, key))
        if name is None:
            raise ConfigError(f"unknown key {key!r} in section [{section}]", lineno)
        if name in values:
            raise ConfigError(f"duplicate key {key!r} in section [{section}]", lineno)
        try:
            values[name] = (_SCHEMA[name]["parse"](value), lineno)
        except ValueError as exc:
            raise ConfigError(f"{key}: {exc}", lineno) from None
    return values


def _check(cond: bool, message: str, line: Optional[int]) -> None:
    if not cond:
        raise ConfigError(message, line)


def parse_config(text: str, **overrides: Any) -> RunConfig:
    """Parse, apply `overrides` (field name -> value) and validate the result.

    Raises ConfigError on failure, with the line number of the offending
    key when it came from `text`.
    """
    raw = _parse_lines(text)
    values = {name: value for name, (value, _) in raw.items()}
    lines = dict.fromkeys(_SCHEMA)
    lines.update((name, lineno) for name, (_, lineno) in raw.items() if name not in overrides)
    cfg = RunConfig(**{**values, **overrides})
    _validate(cfg, lines)
    return cfg


def _validate(cfg: RunConfig, at: dict[str, Optional[int]]) -> None:
    _check(cfg.dim in (1, 2), f"dim must be 1 or 2, got {cfg.dim}", at["dim"])
    for name in ("delta", "nu", "epsilon"):
        v = getattr(cfg, name)
        _check(0.0 < v <= 1.0, f"{name} must lie in (0, 1], got {v!r}", at[name])
    _check(cfg.b > cfg.a, f"domain needs b > a, got a={cfg.a!r}, b={cfg.b!r}", at["b"])
    _check(cfg.M >= 2, f"M must be >= 2, got {cfg.M}", at["M"])
    _check(cfg.M % 2 == 0, f"M must be even, got {cfg.M}", at["M"])
    _check(cfg.potential_kind in _POTENTIALS, _kind_message(cfg.potential_kind),
           at["potential_kind"])
    _check(
        cfg.theta in _THETA_FUNCS,
        f"theta must be one of {', '.join(_THETA_FUNCS)}, got {cfg.theta!r}",
        at["theta"],
    )
    only_dim = _POTENTIALS[cfg.potential_kind][0]
    _check(only_dim in (None, cfg.dim), f"{cfg.potential_kind} potential is {only_dim}D only",
           at["potential_kind"])
    for name in ("center1", "center2"):
        c = getattr(cfg, name)
        _check(
            len(c) == cfg.dim,
            f"{name} must have {cfg.dim} coordinate(s) for dim = {cfg.dim}, got {len(c)}",
            at[name],
        )
    for name in ("scheme", "reference_scheme"):
        try:
            catalog(getattr(cfg, name))
        except KeyError as exc:
            raise ConfigError(f"{name}: {exc.args[0]}", at[name]) from None
    _check(cfg.t_final > 0, f"t_final must be positive, got {cfg.t_final!r}", at["t_final"])
    for name in ("tau", "reference_tau", "space_tau", "reference_h"):
        v = getattr(cfg, name)
        _check(v > 0, f"{name} must be positive, got {v!r}", at[name])
    _check(cfg.workers >= 1, f"workers must be >= 1, got {cfg.workers}", at["workers"])
    _check(len(cfg.taus) >= 3, "taus needs at least 3 step sizes", at["taus"])
    _check(all(t > 0 for t in cfg.taus), "every tau must be positive", at["taus"])
    _check(
        len(set(cfg.taus)) == len(cfg.taus), "taus must not contain duplicates", at["taus"]
    )
    _check(cfg.floor_factor >= 1.0, "floor_factor must be >= 1", at["floor_factor"])
    _check(len(cfg.h_list) >= 1, "h_list must be nonempty", at["h_list"])
    _check(all(h > 0 for h in cfg.h_list), "every h must be positive", at["h_list"])
    span = cfg.b - cfg.a
    for h in tuple(cfg.h_list) + (cfg.reference_h,):
        key = "h_list" if h in cfg.h_list else "reference_h"
        m = span / h
        _check(
            abs(m - round(m)) < 1e-9 and round(m) % 2 == 0,
            f"h = {h!r} must divide the domain span {span!r} into an even number of cells",
            at[key],
        )
    m_ref = round(span / cfg.reference_h)
    for h in cfg.h_list:
        m = round(span / h)
        _check(
            m_ref % m == 0,
            f"study mesh h = {h!r} does not nest into reference_h = {cfg.reference_h!r}",
            at["h_list"],
        )
    _check(
        cfg.sweep_mode in SWEEP_MODES,
        f"sweep mode must be one of {', '.join(SWEEP_MODES)}, got {cfg.sweep_mode!r}",
        at["sweep_mode"],
    )
    _check(cfg.sweep_factor >= 2, f"sweep factor must be >= 2, got {cfg.sweep_factor}", at["sweep_factor"])
    _check(cfg.sweep_count >= 3, f"sweep count must be >= 3, got {cfg.sweep_count}", at["sweep_count"])
    _check(len(cfg.sweep_epsilons) >= 1, "sweep epsilons must be nonempty", at["sweep_epsilons"])
    for eps in cfg.sweep_epsilons:
        _check(
            0 < eps <= 1, f"sweep epsilon must lie in (0, 1], got {eps}", at["sweep_epsilons"]
        )
    _check(
        len(set(cfg.sweep_epsilons)) == len(cfg.sweep_epsilons),
        "sweep epsilons must not contain duplicates",
        at["sweep_epsilons"],
    )
    _check(cfg.sweep_tau0 > 0, "sweep tau0 must be positive", at["sweep_tau0"])
    _check(cfg.sweep_reference_tau > 0, "sweep reference_tau must be positive", at["sweep_reference_tau"])
    _check(cfg.sweep_t > 0, "sweep t must be positive", at["sweep_t"])
