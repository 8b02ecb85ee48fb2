"""Standalone commutator identities validating the quotient machinery.

Comma notation is right-nested throughout: [X1,...,Xn] = [X1,[X2,[...,Xn]]].
"""

from __future__ import annotations

import random

import numpy as np

from .algebra import (
    bracket_words,
    comma_tree,
    expand_tree,
    reduce_tree,
    _wv_add,
)
from .poly import accumulate

__all__ = [
    "bracket_collapse_identity",
    "vanishing_commutators",
    "quadruple_identity_check",
    "VANISHING_BRACKETS",
]

# Brackets that vanish once [W,[T,W]] = 0 is imposed; labels in comma
# notation with the relation written as [W,T,W] = 0.
VANISHING_BRACKETS: tuple[str, ...] = (
    "[W,W,T]",
    "[T,W,W,T]",
    "[W,W,W,W,T]",
    "[T,W,W,W,T]",
    "[T,T,W,W,T]",
    "[W,W,T,T,W]",
    "[T,W,T,T,W]",
)


def _tree_from_label(label: str):
    return comma_tree(label.strip("[]").split(","))


def bracket_collapse_identity(in_quotient: bool = True) -> bool:
    """Whether [[T,T,W],T,W] equals [W,T,T,T,W].

    True in the quotient by [W,[T,W]] = 0; false in the free Lie algebra,
    where the difference is a genuine nonzero element.  The left side is
    the bracket of [T,[T,W]] with [T,W]; the right side is right-nested.
    """
    lhs = (("T", ("T", "W")), ("T", "W"))
    rhs = _tree_from_label("[W,T,T,T,W]")
    if in_quotient:
        diff = {}
        for tree, sign in ((lhs, 1), (rhs, -1)):
            for name, q in reduce_tree(tree).items():
                accumulate(diff, name, sign * q)
        return not diff
    free_diff = _wv_add(expand_tree(lhs), expand_tree(rhs), scale=-1)  # type: ignore[arg-type]
    return not free_diff


def vanishing_commutators() -> dict[str, bool]:
    """Reduce each listed bracket in the quotient; value True means it is 0."""
    out: dict[str, bool] = {}
    for label in VANISHING_BRACKETS:
        coords = reduce_tree(_tree_from_label(label))
        out[label] = not coords
    return out


def _nested_commutator(mats: list[np.ndarray]) -> np.ndarray:
    """[M1,...,Mn] right-nested with matrix commutators, exact over int64."""
    acc = mats[-1]
    for m in mats[-2::-1]:
        acc = m @ acc - acc @ m
    return acc


def quadruple_identity_check(n_trials: int, seed: int = 0, size: int = 3) -> bool:
    """Check [X,Y,Z,W]+[Y,Z,W,X]+[Z,W,X,Y]+[W,X,Y,Z] = [[X,Z],[Y,W]].

    Verified exactly in integer arithmetic on random small-integer matrices;
    entry magnitudes stay far below the int64 range for size 3 and entries
    in [-5, 5].
    """
    if n_trials < 1:
        raise ValueError("n_trials must be >= 1")
    rng = random.Random(seed)

    def rand_mat() -> np.ndarray:
        return np.array(
            [[rng.randint(-5, 5) for _ in range(size)] for _ in range(size)],
            dtype=np.int64,
        )

    for _ in range(n_trials):
        X, Y, Z, W = (rand_mat() for _ in range(4))
        lhs = (
            _nested_commutator([X, Y, Z, W])
            + _nested_commutator([Y, Z, W, X])
            + _nested_commutator([Z, W, X, Y])
            + _nested_commutator([W, X, Y, Z])
        )
        xz = X @ Z - Z @ X
        yw = Y @ W - W @ Y
        rhs = xz @ yw - yw @ xz
        if not np.array_equal(lhs, rhs):
            return False
    return True
