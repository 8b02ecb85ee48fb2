"""Free Lie algebra on {T, W} through grade 5 and its compact quotient.

Elements are manipulated in "word space": a Lie element is stored as an
exact-rational linear combination of associative words over the alphabet
{T, W}, with the bracket [u, v] = uv - vu computed by concatenation.  The
right-nested brackets of all words of one length span that grade of the
free Lie algebra, so their rank is its dimension.

The quotient divides by the Lie ideal generated by the relation
r = [W,[T,W]] = 0 (a purely electric potential commutes with its own
commutator with T).  Per grade the ideal span is computed once, a fixed set
of representative brackets is checked to complement it, and the structure
constants of the quotient are tabulated.  After that, all scheme-expansion
arithmetic is plain linear algebra over the 7-element quotient basis

    T, W, [T,W], [T,W,T], [T,T,W,T], [T,T,T,T,W], [W,T,T,T,W]

(comma notation is right-nested: [X1,...,Xn] = [X1,[X2,[...,Xn]]]), with
polynomial coefficients in c0..c4.  Brackets that would exceed grade 5 are
discarded and flagged via `truncated`.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import product
from typing import Mapping, Optional, Sequence, Union

from .poly import Poly, accumulate

MAX_GRADE = 5

Tree = Union[str, tuple]
WordVec = dict[str, Fraction]

# Quotient representatives, chosen to match the usual table row labels.
QUOTIENT_BASIS: tuple[tuple[str, int, Tree], ...] = (
    ("T", 1, "T"),
    ("W", 1, "W"),
    ("[T,W]", 2, ("T", "W")),
    ("[T,W,T]", 3, ("T", ("W", "T"))),
    ("[T,T,W,T]", 4, ("T", ("T", ("W", "T")))),
    ("[T,T,T,T,W]", 5, ("T", ("T", ("T", ("T", "W"))))),
    ("[W,T,T,T,W]", 5, ("W", ("T", ("T", ("T", "W"))))),
)

RELATION_TREE: Tree = ("W", ("T", "W"))


# ---------------------------------------------------------------------------
# word-space primitives


def _wv_add(u: WordVec, v: WordVec, scale: Fraction = Fraction(1)) -> WordVec:
    out = dict(u)
    for w, q in v.items():
        accumulate(out, w, scale * q)
    return out


def _wv_concat(u: WordVec, v: WordVec) -> WordVec:
    out: WordVec = {}
    for w1, q1 in u.items():
        for w2, q2 in v.items():
            accumulate(out, w1 + w2, q1 * q2)
    return out


def bracket_words(u: WordVec, v: WordVec) -> WordVec:
    """[u, v] = uv - vu in the free associative algebra."""
    return _wv_add(_wv_concat(u, v), _wv_concat(v, u), Fraction(-1))


def expand_tree(tree: Tree) -> WordVec:
    """Word-space expansion of a bracket tree (leaves 'T' or 'W')."""
    if isinstance(tree, str):
        if tree not in ("T", "W"):
            raise ValueError(f"unknown generator {tree!r}")
        return {tree: Fraction(1)}
    left, right = tree
    return bracket_words(expand_tree(left), expand_tree(right))


def comma_tree(letters: Sequence[str]) -> Tree:
    """Right-nested tree for comma notation [X1,...,Xn] = [X1,[X2,...]]."""
    if len(letters) == 1:
        return letters[0]
    return (letters[0], comma_tree(letters[1:]))


# ---------------------------------------------------------------------------
# exact linear algebra over word space


def _row_reduce(
    cols: Sequence[WordVec], rhs: Optional[WordVec] = None
) -> tuple[list[list[Fraction]], list[Fraction], list[tuple[int, int]]]:
    """Gauss-Jordan elimination of the matrix with columns `cols` (rows are
    words), applied alongside to `rhs`.  Returns the reduced rows, the
    reduced right-hand side and the (row, column) pivots in column order."""
    rhs = rhs or {}
    words = sorted(set(rhs).union(*cols))
    matrix = [[col.get(w, Fraction(0)) for col in cols] for w in words]
    vec = [rhs.get(w, Fraction(0)) for w in words]
    pivots: list[tuple[int, int]] = []
    row = 0
    for col in range(len(cols)):
        pivot_row = next((r for r in range(row, len(words)) if matrix[r][col]), None)
        if pivot_row is None:
            continue
        matrix[row], matrix[pivot_row] = matrix[pivot_row], matrix[row]
        vec[row], vec[pivot_row] = vec[pivot_row], vec[row]
        pa = matrix[row][col]
        for r in range(len(words)):
            if r != row and matrix[r][col]:
                f = matrix[r][col] / pa
                matrix[r] = [x - f * y if y else x for x, y in zip(matrix[r], matrix[row])]
                vec[r] = vec[r] - f * vec[row]
        pivots.append((row, col))
        row += 1
    return matrix, vec, pivots


def _solve_columns(cols: Sequence[WordVec], rhs: WordVec) -> Optional[list[Fraction]]:
    """Exact solve of sum_j x_j cols[j] = rhs; None if rhs is outside the span."""
    matrix, vec, pivots = _row_reduce(cols, rhs)
    if any(vec[r] for r in range(len(pivots), len(vec))):
        return None
    solution = [Fraction(0)] * len(cols)
    for r, c in pivots:
        solution[c] = vec[r] / matrix[r][c]
    return solution


def _rank(vectors: Sequence[WordVec]) -> int:
    return len(_row_reduce(vectors)[2])


def _independent_subset(vectors: Sequence[WordVec]) -> list[WordVec]:
    """The first maximal independent subset, in order: the pivot columns."""
    return [vectors[c] for _, c in _row_reduce(vectors)[2]]


def free_dimension(grade: int) -> int:
    """Dimension of the grade component of the free Lie algebra on {T, W}:
    the right-nested brackets of all words of that length span it."""
    return _rank([expand_tree(comma_tree(w)) for w in product("TW", repeat=grade)])


# ---------------------------------------------------------------------------
# quotient context


class _Quotient:
    def __init__(self) -> None:
        self.names = tuple(name for name, _, _ in QUOTIENT_BASIS)
        self.grade = {name: g for name, g, _ in QUOTIENT_BASIS}
        self.wordvec = {name: expand_tree(t) for name, _, t in QUOTIENT_BASIS}
        self.reps_by_grade: dict[int, list[str]] = {}
        for name, g, _ in QUOTIENT_BASIS:
            self.reps_by_grade.setdefault(g, []).append(name)

        # Graded span of the ideal generated by the relation: iterated
        # brackets of the generators with the relation span every component.
        relation = expand_tree(RELATION_TREE)
        gen = {"T": expand_tree("T"), "W": expand_tree("W")}
        ideal: dict[int, list[WordVec]] = {1: [], 2: [], 3: [relation]}
        for g in range(4, MAX_GRADE + 1):
            candidates = [bracket_words(gen[x], v) for x in "TW" for v in ideal[g - 1]]
            ideal[g] = _independent_subset(candidates)
        self.ideal = ideal

        # Sanity: the representatives and the ideal span are independent and
        # together exactly as many as the free dimension.  This is a
        # construction-time proof that the reduction below is a well-defined
        # linear projection.
        for g in range(1, MAX_GRADE + 1):
            reps = [self.wordvec[n] for n in self.reps_by_grade.get(g, [])]
            combined = reps + ideal.get(g, [])
            if _rank(combined) != len(combined) or len(combined) != free_dimension(g):
                raise AssertionError(f"quotient split fails at grade {g}")

        # Structure constants of the quotient bracket.
        struct: dict[tuple[str, str], tuple[tuple[str, Fraction], ...]] = {}
        for n1 in self.names:
            for n2 in self.names:
                g = self.grade[n1] + self.grade[n2]
                if g > MAX_GRADE:
                    continue
                coords = self.reduce(bracket_words(self.wordvec[n1], self.wordvec[n2]), g)
                entry = tuple((name, q) for name, q in coords.items() if q)
                if entry:
                    struct[(n1, n2)] = entry
        self.struct = struct

    def reduce(self, wv: WordVec, grade: int) -> dict[str, Fraction]:
        """Quotient coordinates of a homogeneous Lie element of given grade."""
        if not wv:
            return {}
        reps = self.reps_by_grade.get(grade, [])
        cols = [self.wordvec[n] for n in reps] + self.ideal.get(grade, [])
        solution = _solve_columns(cols, wv)
        if solution is None:
            raise ValueError(f"element is not in the grade-{grade} Lie span")
        return {n: q for n, q in zip(reps, solution[: len(reps)]) if q}


@lru_cache(maxsize=1)
def _context() -> _Quotient:
    return _Quotient()


def quotient_basis() -> tuple[tuple[str, int], ...]:
    """Names and grades of the quotient basis elements."""
    return tuple((name, g) for name, g, _ in QUOTIENT_BASIS)


def reduce_tree(tree: Tree) -> dict[str, Fraction]:
    """Quotient coordinates of a bracket tree over the generators."""
    wv = expand_tree(tree)
    if not wv:
        return {}
    grade = len(next(iter(wv)))
    return _context().reduce(wv, grade)


def ideal_dims() -> dict[int, int]:
    return {g: len(v) for g, v in _context().ideal.items()}


# ---------------------------------------------------------------------------
# quotient Lie elements with polynomial coefficients


def _as_poly(value: Union[Poly, int, Fraction]) -> Poly:
    if isinstance(value, Poly):
        return value
    return Poly.const(value)


class LieElement:
    """Exact element of the quotient algebra: {basis name -> Poly coefficient}.

    `truncated` records that some bracket of grade > 5 was discarded while
    building the element, i.e. it represents its value only through grade 5.
    """

    __slots__ = ("coords", "truncated")

    def __init__(self, coords: Mapping[str, Union[Poly, int, Fraction]] | None = None,
                 truncated: bool = False):
        ctx = _context()
        clean: dict[str, Poly] = {}
        if coords:
            for name, value in coords.items():
                if name not in ctx.grade:
                    raise ValueError(f"unknown quotient basis element {name!r}")
                p = _as_poly(value)
                if not p.is_zero():
                    clean[name] = p
        self.coords = clean
        self.truncated = bool(truncated)

    def coefficient(self, name: str) -> Poly:
        if name not in _context().grade:
            raise ValueError(f"unknown quotient basis element {name!r}")
        return self.coords.get(name, Poly.zero())

    def is_zero(self) -> bool:
        return not self.coords

    def __add__(self, other: "LieElement") -> "LieElement":
        out = dict(self.coords)
        for name, p in other.coords.items():
            accumulate(out, name, p)
        return LieElement(out, self.truncated or other.truncated)

    def __sub__(self, other: "LieElement") -> "LieElement":
        return self + other.scale(-1)

    def scale(self, factor: Union[Poly, int, Fraction]) -> "LieElement":
        f = _as_poly(factor)
        if f.is_zero():
            return LieElement({}, self.truncated)
        return LieElement({n: p * f for n, p in self.coords.items()}, self.truncated)

    def __eq__(self, other) -> bool:
        if not isinstance(other, LieElement):
            return NotImplemented
        return self.coords == other.coords

    def __repr__(self) -> str:
        if not self.coords:
            return "LieElement(0)"
        ctx = _context()
        parts = [
            f"({self.coords[n].canonical()})*{n}"
            for n in sorted(self.coords, key=lambda k: (ctx.grade[k], k))
        ]
        return "LieElement(" + " + ".join(parts) + ")"


def generator(letter: str, coefficient: Union[Poly, int, Fraction] = 1) -> LieElement:
    """`coefficient * letter` as a LieElement; letter is 'T' or 'W'."""
    if letter not in ("T", "W"):
        raise ValueError(f"generator must be 'T' or 'W', got {letter!r}")
    return LieElement({letter: _as_poly(coefficient)})


def bracket(x: LieElement, y: LieElement) -> LieElement:
    """Quotient Lie bracket, truncated at grade 5."""
    ctx = _context()
    acc: dict[str, Poly] = {}
    truncated = x.truncated or y.truncated
    for n1, p1 in x.coords.items():
        g1 = ctx.grade[n1]
        for n2, p2 in y.coords.items():
            if g1 + ctx.grade[n2] > MAX_GRADE:
                truncated = True
                continue
            entry = ctx.struct.get((n1, n2))
            if not entry:
                continue
            weight = p1 * p2
            for name, q in entry:
                accumulate(acc, name, weight * q)
    return LieElement(acc, truncated)


def symmetric_bch(x: LieElement, y: LieElement) -> LieElement:
    """U with e^x e^y e^x = e^U, exact through grade 5.

    Uses the symmetric BCH expansion (only odd total degrees survive):

      U = 2X + Y + (1/6)[Y,[Y,X]] - (1/6)[X,[X,Y]]
          + (7/360)[X,[X,[X,[X,Y]]]] - (1/360)[Y,[Y,[Y,[Y,X]]]]
          + (1/90)[X,[Y,[Y,[Y,X]]]] + (1/45)[Y,[X,[X,[X,Y]]]]
          - (1/60)[X,[X,[Y,[Y,X]]]] + (1/30)[Y,[Y,[X,[X,Y]]]]

    Substituting graded arguments and truncating brackets at grade 5 keeps
    the identity exact through grade 5, because every omitted universal term
    has degree >= 7 and substituted grades only grow.
    """
    xy = bracket(x, y)
    yx = xy.scale(-1)
    xxy = bracket(x, xy)      # [X,[X,Y]]
    yyx = bracket(y, yx)      # [Y,[Y,X]]
    out = x.scale(2) + y
    out = out + yyx.scale(Fraction(1, 6)) - xxy.scale(Fraction(1, 6))
    out = out + bracket(x, bracket(x, xxy)).scale(Fraction(7, 360))
    out = out - bracket(y, bracket(y, yyx)).scale(Fraction(1, 360))
    out = out + bracket(x, bracket(y, yyx)).scale(Fraction(1, 90))
    out = out + bracket(y, bracket(x, xxy)).scale(Fraction(1, 45))
    out = out - bracket(x, bracket(x, yyx)).scale(Fraction(1, 60))
    out = out + bracket(y, bracket(y, xxy)).scale(Fraction(1, 30))
    return out
