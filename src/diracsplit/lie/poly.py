"""Multivariate polynomials in c0..c4 with exact rational coefficients.

A polynomial is a map from exponent tuples (e0..e4) to nonzero Fractions.
All arithmetic is exact; float evaluation is compensated with math.fsum so
residuals near machine precision are trustworthy.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Callable, Iterable, Mapping, Sequence, Union

NVARS = 5
VAR_NAMES = ("c0", "c1", "c2", "c3", "c4")

Monomial = tuple[int, int, int, int, int]
Scalar = Union[int, Fraction]
_ZERO_MONO: Monomial = (0, 0, 0, 0, 0)


def accumulate(acc: dict, key, value) -> None:
    """acc[key] += value, dropping the key when the sum is zero (a zero Poly is false)."""
    total = acc[key] + value if key in acc else value
    if total:
        acc[key] = total
    else:
        acc.pop(key, None)


class Poly:
    """Immutable exact-rational polynomial in the five coefficients c0..c4."""

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[Monomial, Scalar] | None = None):
        clean: dict[Monomial, Fraction] = {}
        if terms:
            for mono, coeff in terms.items():
                q = Fraction(coeff)
                if q:
                    clean[tuple(mono)] = q  # type: ignore[index]
        self.terms = clean

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls) -> "Poly":
        return cls()

    @classmethod
    def const(cls, value: Scalar) -> "Poly":
        return cls({_ZERO_MONO: Fraction(value)})

    @classmethod
    def var(cls, index: int) -> "Poly":
        if not 0 <= index < NVARS:
            raise ValueError(f"variable index must be in 0..{NVARS - 1}, got {index}")
        mono = tuple(1 if i == index else 0 for i in range(NVARS))
        return cls({mono: Fraction(1)})  # type: ignore[arg-type]

    @classmethod
    def variables(cls) -> tuple["Poly", ...]:
        return tuple(cls.var(i) for i in range(NVARS))

    # -- arithmetic ----------------------------------------------------

    def _coerce(self, other) -> "Poly":
        if isinstance(other, Poly):
            return other
        if isinstance(other, (int, Fraction)):
            return Poly.const(other)
        return NotImplemented  # type: ignore[return-value]

    def __add__(self, other) -> "Poly":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        out = dict(self.terms)
        for mono, coeff in other.terms.items():
            accumulate(out, mono, coeff)
        return Poly(out)

    __radd__ = __add__

    def __neg__(self) -> "Poly":
        return Poly({m: -q for m, q in self.terms.items()})

    def __sub__(self, other) -> "Poly":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "Poly":
        return self._coerce(other) - self

    def __mul__(self, other) -> "Poly":
        if isinstance(other, (int, Fraction)):
            q = Fraction(other)
            if not q:
                return Poly.zero()
            return Poly({m: c * q for m, c in self.terms.items()})
        if not isinstance(other, Poly):
            return NotImplemented
        out: dict[Monomial, Fraction] = {}
        for m1, q1 in self.terms.items():
            for m2, q2 in other.terms.items():
                accumulate(out, tuple(a + b for a, b in zip(m1, m2)), q1 * q2)
        return Poly(out)

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "Poly":
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("exponent must be a nonnegative integer")
        result = Poly.const(1)
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = Poly.const(other)
        if not isinstance(other, Poly):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self) -> int:
        return hash(frozenset(self.terms.items()))

    # -- queries ---------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        return max((sum(m) for m in self.terms), default=-1)

    def diff(self, index: int) -> "Poly":
        """Exact partial derivative with respect to variable `index`."""
        out: dict[Monomial, Fraction] = {}
        for mono, coeff in self.terms.items():
            e = mono[index]
            if e:
                lowered = tuple(v - 1 if i == index else v for i, v in enumerate(mono))
                accumulate(out, lowered, coeff * e)
        return Poly(out)

    # -- evaluation --------------------------------------------------------

    def _terms_at(self, values: Sequence, number: Callable) -> list:
        """Each term's value at `values`, its coefficient converted by `number`."""
        if len(values) != NVARS:
            raise ValueError(f"need {NVARS} values, got {len(values)}")
        parts = []
        for mono, coeff in self.terms.items():
            term = number(coeff)
            for v, e in zip(values, mono):
                if e:
                    term *= v**e
            parts.append(term)
        return parts

    def evaluate(self, values: Sequence[float]) -> float:
        """Compensated float evaluation: each term in double, summed by fsum."""
        return math.fsum(self._terms_at(values, float))

    def evaluate_exact(self, values: Iterable[Union[Fraction, int, str, float]]) -> Fraction:
        """Exact rational evaluation; accepts anything Fraction() accepts."""
        return sum(self._terms_at([Fraction(v) for v in values], Fraction), Fraction(0))

    # -- formatting ------------------------------------------------------

    def canonical(self) -> str:
        """Deterministic text form: graded-lexicographic term order."""
        if not self.terms:
            return "0"
        parts = []
        for mono in sorted(self.terms, key=lambda m: (sum(m), m)):
            coeff = self.terms[mono]
            factors = [
                f"{VAR_NAMES[i]}^{e}" if e > 1 else VAR_NAMES[i]
                for i, e in enumerate(mono)
                if e
            ]
            body = "*".join(factors)
            mag = abs(coeff)
            if not factors:
                text = str(mag)
            elif mag == 1:
                text = body
            else:
                text = f"{mag}*{body}"
            parts.append(("- " if coeff < 0 else "+ ") + text)
        head = parts[0].replace("+ ", "", 1).replace("- ", "-", 1)
        return " ".join([head] + parts[1:])

    def __str__(self) -> str:
        return self.canonical()

    def __repr__(self) -> str:
        return f"Poly({self.canonical()})"
