"""Exact commutator algebra behind the compact splitting order conditions.

Submodules:

  poly        multivariate polynomials in c0..c4 over exact rationals
  algebra     free Lie algebra on {T, W} through grade 5, its quotient by
              the ideal generated by [W,[T,W]], and the symmetric BCH
              conjugation formula
  conditions  the nested expansion of the nine-exponential scheme, the five
              order conditions, a faithful transcription of their commonly
              printed forms, and the Newton solve recovering the frozen
              coefficients
  identities  standalone commutator identities used to validate the
              machinery (quotient collapses, vanishing brackets, the
              quadruple-commutator identity on integer matrices)
"""

from .poly import Poly
from .algebra import LieElement, bracket, symmetric_bch, generator
from .conditions import (
    NewtonResult,
    compare_with_transcription,
    constants_file_text,
    default_seed,
    expand_scheme,
    expansion_stages,
    frozen_coefficient_strings,
    frozen_coefficients,
    derivation_report,
    newton_solve,
    order_conditions,
)
from .identities import (
    bracket_collapse_identity,
    quadruple_identity_check,
    vanishing_commutators,
)

__all__ = [
    "Poly",
    "LieElement",
    "bracket",
    "symmetric_bch",
    "generator",
    "NewtonResult",
    "compare_with_transcription",
    "constants_file_text",
    "default_seed",
    "derivation_report",
    "expand_scheme",
    "expansion_stages",
    "frozen_coefficient_strings",
    "frozen_coefficients",
    "newton_solve",
    "order_conditions",
    "bracket_collapse_identity",
    "quadruple_identity_check",
    "vanishing_commutators",
]
