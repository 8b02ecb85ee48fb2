"""Exact polynomial algebra, the quotient Lie engine and the Newton solve."""

from fractions import Fraction

import pytest

from diracsplit.lie import (
    LieElement,
    Poly,
    bracket,
    bracket_collapse_identity,
    compare_with_transcription,
    default_seed,
    expand_scheme,
    expansion_stages,
    frozen_coefficients,
    generator,
    newton_solve,
    order_conditions,
    quadruple_identity_check,
    symmetric_bch,
    vanishing_commutators,
)
from diracsplit.lie.algebra import (
    _context,
    free_dimension,
    ideal_dims,
    quotient_basis,
    reduce_tree,
)
from diracsplit.lie.conditions import (
    CONDITION_BASIS,
    condition_polynomials,
    derivation_report,
    frozen_coefficient_strings,
)


class TestPoly:
    def test_arithmetic_is_exact(self):
        c0, c1, c2, c3, c4 = Poly.variables()
        p = (c0 + 2 * c2) ** 2 - (c0**2 + 4 * c0 * c2 + 4 * c2**2)
        assert p.is_zero()

    def test_canonical_is_deterministic(self):
        c0, c1, *_ = Poly.variables()
        p = 3 * c1 - c0 * c1 + Fraction(1, 2)
        assert p.canonical() == "1/2 + 3*c1 - c0*c1"

    def test_degree_and_zero(self):
        c0, *_ = Poly.variables()
        assert Poly.zero().degree() == -1
        assert Poly.const(5).degree() == 0
        assert (c0**3).degree() == 3

    def test_diff(self):
        c0, c1, *_ = Poly.variables()
        p = c0**2 * c1 + 3 * c1
        assert p.diff(0) == 2 * c0 * c1
        assert p.diff(1) == c0**2 + 3

    def test_pow_matches_repeated_mul(self):
        c0, c1, *_ = Poly.variables()
        p = c0 + c1 - 1
        assert p**4 == p * p * p * p
        assert p**0 == Poly.const(1)

    def test_evaluate_matches_exact(self):
        c0, c1, c2, c3, c4 = Poly.variables()
        p = Fraction(7, 360) * c0 * c3**4 - 2 * c1 * c4 + Fraction(1, 3)
        point = [Fraction(1, 3), Fraction(-2, 7), Fraction(5, 11),
                 Fraction(9, 8), Fraction(-1, 2)]
        exact = p.evaluate_exact(point)
        approx = p.evaluate([float(v) for v in point])
        assert approx == pytest.approx(float(exact), abs=1e-15)

    def test_evaluate_requires_five_values(self):
        with pytest.raises(ValueError):
            Poly.const(1).evaluate([0.0, 0.0])


class TestFreeAlgebra:
    def test_right_nested_rank_matches_witt_formula(self):
        # Witt: dim of grade g on 2 letters is (1/g) sum_{d | g} mu(d) 2^(g/d).
        def mobius(n):
            sign, p = 1, 2
            while p * p <= n:
                if n % p == 0:
                    n //= p
                    if n % p == 0:
                        return 0
                    sign = -sign
                p += 1
            return -sign if n > 1 else sign

        for g in range(1, 6):
            witt = sum(mobius(d) * 2 ** (g // d) for d in range(1, g + 1) if g % d == 0) // g
            assert free_dimension(g) == witt, g


class TestQuotient:
    def test_dimensions(self):
        basis = quotient_basis()
        assert len(basis) == 7
        grades = sorted(g for _, g in basis)
        assert grades == [1, 1, 2, 3, 4, 5, 5]
        dims = ideal_dims()
        assert sum(dims.values()) == 14 - 7
        assert dims[3] == 1  # exactly the generating relation at grade 3

    def test_reduce_rejects_a_non_lie_element(self):
        # TW alone is an associative word, not a Lie element of grade 2.
        with pytest.raises(ValueError, match="not in the grade-2 Lie span"):
            _context().reduce({"TW": 1}, 2)

    def test_generating_relation_reduces_to_zero(self):
        from diracsplit.lie.algebra import comma_tree

        assert reduce_tree(comma_tree(["W", "T", "W"])) == {}

    def test_bracket_antisymmetry(self):
        x = generator("T") + generator("W", Fraction(2, 3))
        y = bracket(generator("T"), generator("W"))
        assert (bracket(x, y) + bracket(y, x)).is_zero()

    def test_bracket_jacobi(self):
        t, w = generator("T"), generator("W")
        tw = bracket(t, w)
        total = (bracket(t, bracket(w, tw))
                 + bracket(w, bracket(tw, t))
                 + bracket(tw, bracket(t, w)))
        assert total.is_zero()

    def test_self_bracket_vanishes(self):
        x = generator("T", 3) + generator("W", Fraction(-1, 2))
        assert bracket(x, x).is_zero()

    def test_truncation_is_flagged(self):
        t, w = generator("T"), generator("W")
        deep = bracket(t, w)
        for _ in range(3):
            deep = bracket(t, deep)  # grade 5
        assert not deep.truncated
        assert bracket(t, deep).truncated  # would be grade 6

    def test_unknown_basis_name_rejected(self):
        with pytest.raises(ValueError):
            LieElement({"[X,Y]": 1})


class TestSymmetricBch:
    def test_commuting_case_is_exact(self):
        # e^{xT} e^{yT} e^{xT} = e^{(2x+y)T}: every bracket term vanishes.
        x = generator("T", Fraction(3, 7))
        y = generator("T", Fraction(-1, 5))
        u = symmetric_bch(x, y)
        assert u == generator("T", Fraction(2 * 3, 7) + Fraction(-1, 5))

    def test_leading_terms(self):
        c0, c1, *_ = Poly.variables()
        u = symmetric_bch(generator("T", c1), generator("W", c0))
        assert u.coefficient("T") == 2 * c1
        assert u.coefficient("W") == c0

    def test_even_grades_absent(self):
        # A symmetric composition has a time-symmetric exponent: only odd
        # grades survive.
        u = expand_scheme()
        for name, grade in quotient_basis():
            if grade % 2 == 0:
                assert u.coefficient(name).is_zero(), name


class TestOrderConditions:
    def test_linear_conditions_closed_form(self):
        c0, c1, c2, c3, c4 = Poly.variables()
        polys = condition_polynomials()
        assert polys["T"] == 2 * c1 + 2 * c3
        assert polys["W"] == c0 + 2 * c2 + 2 * c4

    def test_conditions_vanish_at_frozen_coefficients(self):
        frozen = frozen_coefficients()
        for poly in order_conditions():
            assert abs(float(poly.evaluate_exact(frozen))) <= 1e-13

    def test_fifty_digit_strings_round_to_frozen_doubles(self):
        for s, v in zip(frozen_coefficient_strings(), frozen_coefficients()):
            assert float(s) == v
            digits = s.lstrip("-0.").replace(".", "")
            assert len(digits) >= 45

    def test_transcription_comparison(self):
        comparisons = compare_with_transcription()
        assert len(comparisons) == 10
        mismatches = [c for c in comparisons if not c.match]
        assert [c.cell for c in mismatches] == ["[W,T,T,T,W]"] * 2
        c0, c1, c2, c3, c4 = Poly.variables()
        expected = Fraction(1, 45) * c3**3 * ((c0 + 2 * c2) ** 2 - (c0 + 2 * c2**2))
        for c in mismatches:
            assert c.discrepancy == expected

    def test_printed_cell_is_not_a_root_of_the_frozen_values(self):
        # The discrepancy polynomial does not vanish at the frozen
        # coefficients, so the printed form and the derived form genuinely
        # disagree about which constants solve the system.
        c = compare_with_transcription()[-1]
        assert abs(float(c.discrepancy.evaluate_exact(frozen_coefficients()))) > 1e-6


class TestNewton:
    def test_recovers_frozen_constants_bitwise(self):
        result = newton_solve(default_seed())
        assert result.converged
        assert result.root == frozen_coefficients()
        assert result.max_residual() <= 1e-13
        assert result.iterations <= 10

    def test_report_mentions_solution(self):
        text = derivation_report()
        assert "converged" in text
        assert "c4 = 0.35995080879414365" in text

    def test_condition_basis_order(self):
        assert CONDITION_BASIS == ("T", "W", "[T,W,T]", "[T,T,T,T,W]",
                                   "[W,T,T,T,W]")


class TestIdentities:
    def test_bracket_collapse_quotient_vs_free(self):
        assert bracket_collapse_identity(in_quotient=True)
        assert not bracket_collapse_identity(in_quotient=False)

    def test_commutators_vanish(self):
        results = vanishing_commutators()
        assert len(results) >= 6
        assert all(results.values())

    def test_quadruple_identity_on_random_matrices(self):
        assert quadruple_identity_check(25, seed=3)
