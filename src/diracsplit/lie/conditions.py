"""Order conditions of the nine-exponential compact scheme and their solve.

The scheme template is

    e^{c4 W} e^{c3 T} e^{c2 W} e^{c1 T} e^{c0 W} e^{c1 T} e^{c2 W} e^{c3 T} e^{c4 W}

with symbols c0..c4.  Three nested symmetric-BCH conjugations collapse it to
a single exponential through grade 5; the coefficients of T, W, [T,W,T],
[T,T,T,T,W], [W,T,T,T,W] in that exponent are the five polynomials a1..a5,
and sixth order requires a1 = a2 = 1, a3 = a4 = a5 = 0 (even grades vanish
identically by symmetry).

`TRANSCRIBED_CELLS` is an independent transcription of the commonly printed
closed forms of these polynomials, kept verbatim as a regression target.
One printed stage-5 cell contains the subexpression (c0 + 2*c2^2) where the
derivation gives (c0 + 2*c2)^2; the printed form is dimensionally
inhomogeneous (a degree-4 term inside a degree-5 polynomial), and the frozen
50-digit coefficients zero the derived version, not the printed one.
`compare_with_transcription` reports that cell as an exact discrepancy
polynomial instead of silently rewriting either side.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Optional, Sequence

import numpy as np

from ..schemes import load_constant_strings
from .algebra import LieElement, generator, symmetric_bch
from .poly import Poly

__all__ = [
    "CONDITION_BASIS",
    "CellComparison",
    "NewtonResult",
    "compare_with_transcription",
    "condition_polynomials",
    "constants_file_text",
    "default_seed",
    "derivation_report",
    "expand_scheme",
    "expansion_stages",
    "frozen_coefficient_strings",
    "frozen_coefficients",
    "newton_solve",
    "order_conditions",
    "transcribed_cells",
]

# Quotient basis elements that can carry nonzero weight in a symmetric
# composition, in table order; their exponent coefficients are a1..a5.
CONDITION_BASIS = ("T", "W", "[T,W,T]", "[T,T,T,T,W]", "[W,T,T,T,W]")

_TARGETS = (Fraction(1), Fraction(1), Fraction(0), Fraction(0), Fraction(0))

# Newton's residual bound (`coeffs` bounds the frozen constants by it too) and budget.
_RESIDUAL_TOL = 1e-13
_MAX_ITER = 100


@lru_cache(maxsize=1)
def expansion_stages() -> tuple[LieElement, LieElement, LieElement, LieElement]:
    """The four nested conjugation stages, innermost first.

    stage 1: e^{c1 T} e^{c0 W} e^{c1 T}
    stage 2: e^{c2 W} (stage 1) e^{c2 W}
    stage 3: e^{c3 T} (stage 2) e^{c3 T}
    stage 4: e^{c4 W} (stage 3) e^{c4 W}   (the full scheme)
    """
    c0, c1, c2, c3, c4 = Poly.variables()
    stage1 = symmetric_bch(generator("T", c1), generator("W", c0))
    stage2 = symmetric_bch(generator("W", c2), stage1)
    stage3 = symmetric_bch(generator("T", c3), stage2)
    stage4 = symmetric_bch(generator("W", c4), stage3)
    return stage1, stage2, stage3, stage4


def expand_scheme() -> LieElement:
    """Exponent of the full nine-exponential scheme through grade 5."""
    return expansion_stages()[3]


def condition_polynomials() -> dict[str, Poly]:
    """a1..a5 keyed by their basis element, from the derived exponent."""
    full = expand_scheme()
    return {name: full.coefficient(name) for name in CONDITION_BASIS}


def order_conditions() -> list[Poly]:
    """Residual polynomials [a1 - 1, a2 - 1, a3, a4, a5]; roots give order 6."""
    polys = condition_polynomials()
    return [polys[name] - Poly.const(t) for name, t in zip(CONDITION_BASIS, _TARGETS)]


# ---------------------------------------------------------------------------
# transcription of the printed closed forms


@lru_cache(maxsize=1)
def transcribed_cells() -> dict[str, dict[str, Poly]]:
    """Verbatim transcription of the printed stage-3 and stage-4 polynomials."""
    c0, c1, c2, c3, c4 = Poly.variables()
    F = Fraction
    plus = c0 + 2 * c2          # recurring factor (c0 + 2 c2)
    minus = c0 - 4 * c2         # recurring factor (c0 - 4 c2)
    csum = c1 + c3

    s3_twt = F(1, 6) * c1**2 * minus + F(1, 3) * c1 * c3 * plus + F(1, 6) * c3**2 * plus
    s3_t4w = (
        c1**4 * (F(7, 360) * c0 - F(2, 45) * c2)
        + F(1, 18) * c1**3 * c3 * minus
        + F(1, 36) * c1**2 * c3**2 * minus
        + F(1, 45) * c1**3 * c3 * plus
        + F(4, 45) * c1**2 * c3**2 * plus
        + F(7, 90) * c1 * c3**3 * plus
        + F(7, 360) * c3**4 * plus
    )
    # The (c0 + 2*c2^2) factor below is transcribed as printed; the derived
    # polynomial has (c0 + 2*c2)^2 there.
    s3_wt3w = (
        c1**3 * (F(1, 45) * c0**2 - F(7, 90) * c0 * c2 + F(4, 45) * c2**2)
        + F(1, 18) * c1**2 * c3 * plus * minus
        + F(1, 90) * c1**2 * c3 * plus**2
        + F(1, 45) * c3**3 * (c0 + 2 * c2**2)
        + F(1, 15) * c1 * c3**2 * plus**2
    )
    stage3 = {
        "T": 2 * csum,
        "W": plus,
        "[T,W,T]": s3_twt,
        "[T,T,T,T,W]": s3_t4w,
        "[W,T,T,T,W]": s3_wt3w,
    }
    stage4 = {
        "T": 2 * csum,
        "W": plus + 2 * c4,
        "[T,W,T]": s3_twt - F(2, 3) * csum**2 * c4,
        "[T,T,T,T,W]": s3_t4w - F(2, 45) * csum**4 * c4,
        "[W,T,T,T,W]": (
            s3_wt3w
            - F(1, 45) * plus * csum**3 * c4
            + F(4, 45) * csum**3 * c4**2
            - F(1, 18) * c1**2 * minus * c4 * csum
            - F(1, 9) * c1 * c3 * csum * plus * c4
            - F(1, 18) * c3**2 * csum * plus * c4
        ),
    }
    return {"stage3": stage3, "stage4": stage4}


@dataclass(frozen=True)
class CellComparison:
    """Outcome of one derived-vs-transcribed polynomial cell."""

    stage: str
    cell: str
    match: bool
    discrepancy: Poly  # derived minus transcribed; zero iff match


def compare_with_transcription() -> list[CellComparison]:
    """Exact canonical-form comparison of every derived cell against the
    transcription; mismatches carry the exact difference polynomial."""
    derived = {"stage3": expansion_stages()[2], "stage4": expansion_stages()[3]}
    out: list[CellComparison] = []
    for stage, cells in transcribed_cells().items():
        for cell, printed in cells.items():
            diff = derived[stage].coefficient(cell) - printed
            out.append(CellComparison(stage, cell, diff.is_zero(), diff))
    return out


# ---------------------------------------------------------------------------
# frozen coefficients and the Newton solve


@lru_cache(maxsize=1)
def frozen_coefficient_strings() -> tuple[str, ...]:
    consts = load_constant_strings()
    return tuple(consts[f"s6c_c{i}"] for i in range(5))


def frozen_coefficients() -> tuple[float, ...]:
    """The frozen 50-digit compact-scheme coefficients rounded to double."""
    return tuple(float(s) for s in frozen_coefficient_strings())


def default_seed() -> tuple[float, ...]:
    """Frozen coefficients rounded to 3 significant digits (the documented
    default Newton starting point)."""
    return tuple(float(f"{v:.3g}") for v in frozen_coefficients())


@dataclass(frozen=True)
class NewtonResult:
    root: tuple[float, ...]
    residuals: tuple[float, ...]        # compensated double evaluation
    residuals_exact: tuple[float, ...]  # exact-rational evaluation, rounded once
    iterations: int
    converged: bool
    message: str

    def max_residual(self) -> float:
        return max(abs(r) for r in self.residuals_exact)


def _residuals(polys: Sequence[Poly], x: Sequence[float]) -> list[float]:
    return [p.evaluate(x) for p in polys]


def _exact_residuals(polys: Sequence[Poly], x: Sequence[float]) -> tuple[float, ...]:
    # Fraction(float) is exact, so these residuals carry no evaluation error.
    return tuple(float(p.evaluate_exact(x)) for p in polys)


def _newton_step(jac, x: Sequence[float], f: Sequence[float]) -> Optional[np.ndarray]:
    """Solve J(x) dx = -f with the Jacobian evaluated in double; None if J is singular."""
    J = np.array([[e.evaluate(x) for e in row] for row in jac])
    try:
        return np.linalg.solve(J, -np.asarray(f))
    except np.linalg.LinAlgError:
        return None


def _polish(polys: Sequence[Poly], jac, x: list[float], max_rounds: int = 6) -> list[float]:
    """Extra Newton rounds driven by exact rational residuals.

    Compensated float evaluation bottoms out around 1e-15; exact residuals
    have no floor, so a couple of further quadratic steps park the iterate
    within an ulp or two of the true root.
    """
    best_norm = max(abs(r) for r in _exact_residuals(polys, x))
    for _ in range(max_rounds):
        if best_norm == 0.0:
            break
        dx = _newton_step(jac, x, _exact_residuals(polys, x))
        if dx is None:
            break
        trial = [xi + di for xi, di in zip(x, dx)]
        trial_norm = max(abs(r) for r in _exact_residuals(polys, trial))
        if trial_norm >= best_norm:
            break
        x, best_norm = trial, trial_norm
    return x


def newton_solve(initial: Sequence[float]) -> NewtonResult:
    """Damped Newton iteration on the five order conditions, to a maximum
    residual of _RESIDUAL_TOL within _MAX_ITER iterations.

    The Jacobian is the exact polynomial derivative evaluated in double
    precision; residuals at the final iterate are confirmed by exact
    rational evaluation.  A singular Jacobian or a failed line search is
    reported, not raised.
    """
    if len(initial) != 5:
        raise ValueError(f"initial point must have 5 components, got {len(initial)}")
    polys = order_conditions()
    jac = [[p.diff(j) for j in range(5)] for p in polys]

    x = [float(v) for v in initial]
    message = f"no convergence within {_MAX_ITER} iterations"
    converged = False
    iterations = 0
    for iterations in range(_MAX_ITER + 1):
        f = _residuals(polys, x)
        norm = max(abs(v) for v in f)
        if norm <= _RESIDUAL_TOL:
            converged = True
            message = "converged"
            break
        if iterations == _MAX_ITER:
            break
        dx = _newton_step(jac, x, f)
        if dx is None:
            message = f"singular Jacobian at iteration {iterations}"
            break
        if not np.all(np.isfinite(dx)):
            message = f"non-finite Newton step at iteration {iterations}"
            break
        lam, accepted = 1.0, False
        for _ in range(40):
            trial = [xi + lam * di for xi, di in zip(x, dx)]
            if max(abs(v) for v in _residuals(polys, trial)) < norm:
                x, accepted = trial, True
                break
            lam *= 0.5
        if not accepted:
            message = f"line search stalled at iteration {iterations}"
            break
    if converged:
        x = _polish(polys, jac, x)
    return NewtonResult(
        root=tuple(x),
        residuals=tuple(_residuals(polys, x)),
        residuals_exact=_exact_residuals(polys, x),
        iterations=iterations,
        converged=converged,
        message=message,
    )


# ---------------------------------------------------------------------------
# reports


def derivation_report(result: Optional[NewtonResult] = None) -> str:
    """Plain-text report: condition polynomials, solved constants, residuals."""
    if result is None:
        result = newton_solve(default_seed())
    lines = ["order conditions (exact polynomial coefficients of the exponent):"]
    polys = condition_polynomials()
    for i, (name, target) in enumerate(zip(CONDITION_BASIS, _TARGETS), start=1):
        lines.append(f"  a{i} [{name}] = {polys[name].canonical()} = {target}")
    lines.append("")
    lines.append(f"newton: {result.message} after {result.iterations} iterations")
    lines.append("solved coefficients:")
    for i, v in enumerate(result.root):
        lines.append(f"  c{i} = {v:.17g}")
    lines.append("residuals (compensated double / exact rational):")
    for i, (r, re_) in enumerate(zip(result.residuals, result.residuals_exact), start=1):
        lines.append(f"  a{i}: {r: .3e} / {re_: .3e}")
    return "\n".join(lines)


def constants_file_text(root: Sequence[float]) -> str:
    """Solved coefficients in the `name = value` constants-file format."""
    lines = ["# solved compact sixth-order splitting coefficients"]
    for i, v in enumerate(root):
        lines.append(f"s6c_c{i} = {v:.17g}")
    return "\n".join(lines) + "\n"
