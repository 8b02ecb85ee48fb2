"""Splitting-scheme catalog and stepper."""

import math

import numpy as np
import pytest

from diracsplit.harness import gaussian_problem_1d
from diracsplit.model import (
    PhysParams,
    SpinorBatch,
    constant_potential,
    gaussian_ic,
    honeycomb_potential,
    make_grid,
    mass,
    rational_potential_1d,
    zero_potential,
)
from diracsplit.schemes import (
    CATALOG_NAMES,
    Propagator,
    SchemeStep,
    catalog,
    evolve,
    load_constants,
    op_count,
)
from diracsplit.spectral import SpectralCache, WFlowCache, apply_T_flow, apply_W_flow

from conftest import random_field

EXPECTED_OP_COUNTS = {
    "S1": (1, 1),
    "S2": (1, 2),
    "S4": (3, 4),
    "S4c": (2, 3),
    "S4RK": (7, 6),
    "S6-A": (7, 8),
    "S6-B": (7, 8),
    "S6-C": (7, 8),
    "S6star": (25, 26),
    "S6c": (4, 5),
}


def exact_solution(problem_grid, params, potential, field, t):
    """Dense-oracle solution expm(t (T + W)) for time-independent V."""
    from scipy.linalg import expm

    from test_spectral import dense_T_matrix

    n = problem_grid.M ** problem_grid.dim
    T = dense_T_matrix(params, problem_grid)
    v = potential.sample_grid(0.0, problem_grid).reshape(-1)
    W = np.diag(np.tile(-1.0j * v / params.delta, 2))
    U = expm(t * (T + W))
    out = field.copy()
    out.values[...] = (U @ field.values.reshape(-1)).reshape(field.values.shape)
    return out


class TestCatalog:
    def test_names_frozen(self):
        assert set(EXPECTED_OP_COUNTS) == set(CATALOG_NAMES)

    @pytest.mark.parametrize("name", CATALOG_NAMES)
    def test_op_counts(self, name):
        assert op_count(catalog(name)) == EXPECTED_OP_COUNTS[name]

    def test_alias_s6(self):
        assert catalog("S6").name == "S6-A"

    def test_unknown_scheme_raises(self):
        with pytest.raises(KeyError):
            catalog("S3")

    @pytest.mark.parametrize("name", CATALOG_NAMES)
    def test_coefficients_sum_to_one(self, name):
        spec = catalog(name)
        t_sum = math.fsum(s.coeff for s in spec.steps if s.op_kind == "T")
        w_sum = math.fsum(s.coeff for s in spec.steps if s.op_kind == "W")
        assert t_sum == pytest.approx(1.0, abs=1e-13)
        assert w_sum == pytest.approx(1.0, abs=1e-13)

    @pytest.mark.parametrize("name", CATALOG_NAMES)
    def test_symmetric_schemes_are_palindromes(self, name):
        spec = catalog(name)
        if not spec.symmetric:
            return
        kinds = [s.op_kind for s in spec.steps]
        coeffs = [s.coeff for s in spec.steps]
        assert kinds == kinds[::-1]
        assert coeffs == pytest.approx(coeffs[::-1], abs=1e-15)

    @pytest.mark.parametrize("name", CATALOG_NAMES)
    def test_time_offsets_follow_cumulative_T(self, name):
        # A W factor evaluates V at t_n + f*tau where f is the total T time
        # already applied, i.e. the sum of T coefficients to its right in
        # the operator product.
        spec = catalog(name)
        for i, s in enumerate(spec.steps):
            if s.op_kind == "W":
                expected = math.fsum(
                    r.coeff for r in spec.steps[i + 1:] if r.op_kind == "T")
                assert s.time_offset == pytest.approx(expected, abs=1e-12)

    def test_strang_program_shape(self):
        spec = catalog("S2")
        assert [s.op_kind for s in spec.steps] == ["W", "T", "W"]
        assert [s.coeff for s in spec.steps] == pytest.approx([0.5, 1.0, 0.5])
        assert spec.steps[0].time_offset == pytest.approx(1.0)
        assert spec.steps[2].time_offset == pytest.approx(0.0)

    def test_compact6_program_uses_frozen_constants(self):
        from diracsplit.lie import frozen_coefficients

        c0, c1, c2, c3, c4 = frozen_coefficients()
        spec = catalog("S6c")
        assert [s.op_kind for s in spec.steps] == list("WTWTWTWTW")
        assert [s.coeff for s in spec.steps] == pytest.approx(
            [c4, c3, c2, c1, c0, c1, c2, c3, c4], abs=0.0)

    def test_compact6_offsets_leave_unit_interval(self):
        # c3 > 1, so one W evaluation time overshoots t_n + tau and another
        # undershoots t_n; the stepper must not clamp either.
        offsets = [s.time_offset for s in catalog("S6c").steps if s.op_kind == "W"]
        assert max(offsets) > 1.0
        assert min(offsets) < 0.0
        assert 0.0 in offsets

    def test_declared_orders(self):
        orders = {name: catalog(name).declared_order for name in CATALOG_NAMES}
        assert orders == {"S1": 1, "S2": 2, "S4": 4, "S4c": 4, "S4RK": 4,
                          "S6-A": 6, "S6-B": 6, "S6-C": 6, "S6star": 6, "S6c": 6}

    def test_step_validation(self):
        with pytest.raises(ValueError):
            SchemeStep("X", 1.0)
        with pytest.raises(ValueError):
            SchemeStep("T", float("inf"))

    def test_constants_pass_closure_checks(self):
        consts = load_constants()
        assert consts["forest_ruth_theta"] == pytest.approx(
            1.0 / (2.0 - 2.0 ** (1.0 / 3.0)), abs=1e-15)


def plain_step(field, tau, t_n, spec, potential, cache, wcache=None):
    """One step read straight off `spec.steps`, right to left: the plain
    interpreter that `Propagator`'s flow list must match bitwise."""
    for s in reversed(spec.steps):
        if s.op_kind == "T":
            apply_T_flow(field, s.coeff * tau, cache)
        else:
            apply_W_flow(field, s.coeff * tau, t_n + s.time_offset * tau, potential,
                         cache.params, wcache)
    return field


def plain_run(field, tau, t0, n_steps, spec, potential, cache, wcache=None):
    """`n_steps` steps read straight off `spec.steps`, right to left, with
    the first-same-as-last merge written out: when the first and last
    factors are of one kind (and a W pair samples V), the last factor of
    step k and the first of step k+1 are one flow, c_last + c_first, at
    step k's tail time.  The plain interpreter that `Propagator.run` must
    match bitwise."""
    steps = spec.steps[::-1]  # execution order
    first, last = steps[0], steps[-1]
    merge = first.op_kind == last.op_kind and (first.op_kind == "T" or wcache is None)
    for k in range(n_steps):
        t_k = t0 + k * tau
        for i, s in enumerate(steps):
            coeff = s.coeff
            if merge and n_steps > 1:
                if i == 0 and k > 0:
                    continue  # applied as the previous step's last flow
                if i == len(steps) - 1 and k < n_steps - 1:
                    coeff = last.coeff + first.coeff
            if s.op_kind == "T":
                apply_T_flow(field, coeff * tau, cache)
            else:
                apply_W_flow(field, coeff * tau, t_k + s.time_offset * tau, potential,
                             cache.params, wcache)
    return field


class TestStepping:
    def test_step_rejects_zero_or_nonfinite_tau(self, grid1d, params, rng):
        # tau is checked once, when the flows are built, so a run of no
        # steps rejects it too.
        cache = SpectralCache(params, grid1d)
        problem = gaussian_problem_1d()
        f = random_field(grid1d, rng)
        before = f.values.copy()
        for bad in (0.0, float("nan"), float("inf"), float("-inf")):
            with pytest.raises(ValueError, match="tau must be finite and nonzero"):
                Propagator(catalog("S2"), bad, zero_potential(), cache)
            with pytest.raises(ValueError, match="tau must be finite and nonzero"):
                problem.propagator("S6c", bad)
            with pytest.raises(ValueError, match="tau must be finite and nonzero"):
                evolve(f, bad, 0.0, 0, catalog("S2"), zero_potential(), cache)
        np.testing.assert_array_equal(f.values, before)

    def test_negative_tau_inverts_symmetric_step(self, grid1d, params, rng):
        # Symmetric compositions of exact flows are time reversible:
        # S(-tau) S(tau) = identity for a time-independent potential.
        cache = SpectralCache(params, grid1d)
        p = rational_potential_1d()
        for name in ("S2", "S4", "S6c"):
            spec = catalog(name)
            f = random_field(grid1d, rng)
            g = f.copy()
            Propagator(spec, 0.21, p, cache).run(g, 0.0, 1)
            Propagator(spec, -0.21, p, cache).run(g, 0.0, 1)
            np.testing.assert_allclose(g.values, f.values, atol=1e-12)

    def test_evolve_equals_repeated_step(self, grid2d, rng):
        # A 3-step run merges its two W boundaries; three 1-step runs do
        # not, so they agree to round-off.
        params = PhysParams()
        cache = SpectralCache(params, grid2d)
        p = honeycomb_potential("linear")
        f = random_field(grid2d, rng)
        propagator = Propagator(catalog("S2"), 0.05, p, cache)
        by_run = propagator.run(f.copy(), 0.3, 3)
        by_steps = f.copy()
        for k in range(3):
            propagator.run(by_steps, 0.3 + 0.05 * k, 1)
        np.testing.assert_allclose(by_run.values, by_steps.values, rtol=0, atol=1e-13)

    def test_time_dependent_offset_matters(self, grid2d, params, rng):
        # With a time-dependent potential, starting the same step at two
        # different t_n must give different results; this guards against
        # dropping the t_n + f*tau evaluation rule.
        propagator = Propagator(catalog("S2"), 0.1, honeycomb_potential("cosine"),
                                SpectralCache(params, grid2d))
        f = random_field(grid2d, rng)
        a = propagator.run(f.copy(), 0.0, 1)
        b = propagator.run(f.copy(), 0.3, 1)
        assert np.max(np.abs(a.values - b.values)) > 1e-6

    @pytest.mark.parametrize("name", CATALOG_NAMES)
    def test_mass_conserved_50_steps(self, name, grid1d, params):
        f = gaussian_ic(grid1d, (0.0, 1.0))
        m0 = mass(f)
        Propagator(catalog(name), 0.02, rational_potential_1d(),
                   SpectralCache(params, grid1d)).run(f, 0.0, 50)
        assert abs(mass(f) - m0) / m0 < 1e-13

    def test_evolve_step_count_validation(self, grid1d, params, rng):
        f = random_field(grid1d, rng)
        propagator = Propagator(catalog("S2"), 0.1, zero_potential(),
                                SpectralCache(params, grid1d))
        before = f.values.copy()
        propagator.run(f, 0.0, 0)
        np.testing.assert_array_equal(f.values, before)
        with pytest.raises(ValueError):
            propagator.run(f, 0.0, -1)

    # The W flow owns the check of its table.  One S6c step (tau = 0.1,
    # M = 64) with either foreign table puts the field 0.062 (other
    # potential) or 0.107 (other delta) off in max norm.
    @pytest.mark.parametrize("source", ["potential", "delta"])
    def test_step_rejects_foreign_w_table(self, source, grid1d, params, field1d):
        potential = rational_potential_1d()
        if source == "potential":
            foreign = WFlowCache(constant_potential(0.5), grid1d, params)
        else:
            foreign = WFlowCache(potential, grid1d, PhysParams(delta=0.5))
        before = field1d.values.copy()
        with pytest.raises(ValueError, match="does not match"):
            apply_W_flow(field1d, 0.1, 0.0, potential, params, foreign)
        np.testing.assert_array_equal(field1d.values, before)


class TestPropagator:
    def test_builds_w_table_only_for_time_independent_v(self, grid1d, grid2d, params):
        static = Propagator(catalog("S6c"), 0.1, rational_potential_1d(),
                            SpectralCache(params, grid1d))
        assert static.wcache.grid == grid1d
        assert static.wcache.cache_token == "analytic-1d:rational"
        driven = Propagator(catalog("S6c"), 0.1, honeycomb_potential("linear"),
                            SpectralCache(params, grid2d))
        assert driven.wcache is None

    def test_run_equals_steps_over_its_own_w_table(self, grid1d, grid2d, params, rng):
        # The compiled flows against the plain merged walk, bitwise: static
        # V through an explicit W table, driven V sampled in every W flow.
        for grid, p in ((grid1d, rational_potential_1d()),
                        (grid2d, honeycomb_potential("constant")),
                        (grid2d, honeycomb_potential("linear"))):
            cache = SpectralCache(params, grid)
            wcache = WFlowCache(p, grid, params) if p.time_independent else None
            f = random_field(grid, rng)
            for name in ("S6c", "S4RK", "S6-A", "S2"):
                spec = catalog(name)
                for tau in (0.05, -0.05):
                    by_run = Propagator(spec, tau, p, cache).run(f.copy(), 0.3, 4)
                    by_walk = plain_run(f.copy(), tau, 0.3, 4, spec, p, cache, wcache)
                    np.testing.assert_array_equal(by_run.values, by_walk.values)


MERGING = ("S6c", "S4RK", "S6-A", "S2")


class TestMergedBoundaries:
    """A run of n >= 2 steps merges each step boundary whose flows are of
    one kind, unless it is a W pair reading the cached phase table."""

    @pytest.mark.parametrize("n_steps", [0, 1, 2])
    @pytest.mark.parametrize("name", MERGING)
    def test_short_runs_equal_the_plain_merged_walk(self, name, n_steps, grid2d, params, rng):
        cache = SpectralCache(params, grid2d)
        p = honeycomb_potential("linear")
        f = random_field(grid2d, rng)
        for tau in (0.05, -0.05):
            by_run = Propagator(catalog(name), tau, p, cache).run(f.copy(), 0.3, n_steps)
            by_walk = plain_run(f.copy(), tau, 0.3, n_steps, catalog(name), p, cache)
            np.testing.assert_array_equal(by_run.values, by_walk.values)
            if n_steps < 2:  # nothing to merge: the plain steps, bit for bit
                by_steps = f.copy()
                for k in range(n_steps):
                    plain_step(by_steps, tau, 0.3 + k * tau, catalog(name), p, cache)
                np.testing.assert_array_equal(by_run.values, by_steps.values)

    @pytest.mark.parametrize("name", [n for n in CATALOG_NAMES if n != "S4RK"])
    def test_cached_w_boundaries_are_not_merged(self, name, grid1d, grid2d, params, rng):
        # S4RK starts and ends with T, so it merges over any V; S1 starts
        # with W and ends with T, so it runs unmerged over a sampled V too.
        cases = [(grid1d, rational_potential_1d())]
        if name == "S1":
            cases.append((grid2d, honeycomb_potential("linear")))
        for grid, p in cases:
            cache = SpectralCache(params, grid)
            wcache = WFlowCache(p, grid, params) if p.time_independent else None
            f = random_field(grid, rng)
            by_run = Propagator(catalog(name), 0.05, p, cache).run(f.copy(), 0.3, 4)
            by_steps = f.copy()
            for k in range(4):
                plain_step(by_steps, 0.05, 0.3 + k * 0.05, catalog(name), p, cache, wcache)
            np.testing.assert_array_equal(by_run.values, by_steps.values)

    @pytest.mark.parametrize("name", MERGING)
    def test_merged_run_agrees_with_the_unmerged_walk(self, name, grid1d, grid2d, params, rng):
        for grid, p in ((grid2d, honeycomb_potential("linear")),
                        (grid1d, rational_potential_1d())):
            cache = SpectralCache(params, grid)
            wcache = WFlowCache(p, grid, params) if p.time_independent else None
            f = random_field(grid, rng)
            for tau in (0.05, -0.05):
                by_run = Propagator(catalog(name), tau, p, cache).run(f.copy(), 0.3, 6)
                by_steps = f.copy()
                for k in range(6):
                    plain_step(by_steps, tau, 0.3 + k * tau, catalog(name), p, cache, wcache)
                np.testing.assert_allclose(by_run.values, by_steps.values, rtol=0, atol=1e-13)

    @pytest.mark.parametrize("name", ("S2", "S4", "S4RK", "S6c"))
    def test_negative_tau_inverts_a_merged_run(self, name, grid2d, params, rng):
        # The backward run starts where the forward one ended, so each of
        # its merged W flows samples V where the forward merged flow did.
        cache = SpectralCache(params, grid2d)
        p = honeycomb_potential("linear")
        f = random_field(grid2d, rng)
        g = Propagator(catalog(name), 0.05, p, cache).run(f.copy(), 0.3, 5)
        assert np.max(np.abs(g.values - f.values)) > 1e-3
        Propagator(catalog(name), -0.05, p, cache).run(g, 0.3 + 5 * 0.05, 5)
        np.testing.assert_allclose(g.values, f.values, rtol=0, atol=1e-12)


class TestStepCounts:
    """One check for every step count: any integer >= 0, but not a bool."""

    def test_run_rejects_a_bool(self, grid1d, params, field1d):
        propagator = Propagator(catalog("S2"), 0.1, zero_potential(), SpectralCache(params, grid1d))
        before = field1d.values.copy()
        with pytest.raises(ValueError, match="nonnegative integer, got True"):
            propagator.run(field1d, 0.0, True)
        np.testing.assert_array_equal(field1d.values, before)

    def test_run_accepts_a_numpy_integer(self, grid1d, params, field1d):
        propagator = Propagator(catalog("S6c"), 0.1, rational_potential_1d(),
                                SpectralCache(params, grid1d))
        by_numpy = propagator.run(field1d.copy(), 0.0, np.int64(3))
        by_int = propagator.run(field1d.copy(), 0.0, 3)
        np.testing.assert_array_equal(by_numpy.values, by_int.values)


class TestBatchedPropagation:
    """Each member of a batch is its own serial run, bit for bit."""

    @pytest.mark.parametrize(
        "grid, potential, epsilons",
        [
            (make_grid(1, -16.0, 16.0, 512), rational_potential_1d(), (1.0, 0.5, 1.0 / 16.0)),
            # linear theta: the W phase is sampled in every flow, not cached
            (make_grid(2, -4.0, 4.0, 32), honeycomb_potential("linear"), (1.0, 0.5)),
        ],
        ids=["1d-512", "2d-32-linear"],
    )
    def test_members_equal_their_serial_runs(self, grid, potential, epsilons, rng):
        spec = catalog("S6c")
        members = [PhysParams(epsilon=e) for e in epsilons]
        fields = [random_field(grid, rng) for _ in members]
        batch = SpinorBatch(fields)
        Propagator(spec, 0.05, potential, SpectralCache(members, grid)).run(batch, 0.3, 4)
        for p, f, got in zip(members, fields, batch.members()):
            want = Propagator(spec, 0.05, potential, SpectralCache(p, grid)).run(f.copy(), 0.3, 4)
            np.testing.assert_array_equal(got.values, want.values)
            assert abs(mass(got) - mass(f)) / mass(f) <= 1e-12

    def test_negative_tau_inverts_a_batch(self, grid1d, rng):
        members = [PhysParams(epsilon=e) for e in (1.0, 0.5, 0.25)]
        cache = SpectralCache(members, grid1d)
        p = rational_potential_1d()
        for name in ("S2", "S4", "S6c"):
            spec = catalog(name)
            fields = [random_field(grid1d, rng) for _ in members]
            batch = SpinorBatch(fields)
            Propagator(spec, 0.21, p, cache).run(batch, 0.0, 1)
            Propagator(spec, -0.21, p, cache).run(batch, 0.0, 1)
            for got, f in zip(batch.members(), fields):
                np.testing.assert_allclose(got.values, f.values, atol=1e-12)

    @pytest.mark.parametrize("source", ["potential", "delta", "grid"])
    def test_batch_rejects_foreign_w_table(self, source, grid1d, params, rng):
        potential = rational_potential_1d()
        foreign = {
            "potential": lambda: WFlowCache(constant_potential(0.5), grid1d, params),
            "delta": lambda: WFlowCache(potential, grid1d, PhysParams(delta=0.5)),
            "grid": lambda: WFlowCache(potential, make_grid(1, -16.0, 16.0, 64), params),
        }[source]()
        batch = SpinorBatch([random_field(grid1d, rng) for _ in range(2)])
        before = batch.values.copy()
        with pytest.raises(ValueError, match="does not match"):
            apply_W_flow(batch, 0.1, 0.0, potential, params, foreign)
        np.testing.assert_array_equal(batch.values, before)

    def test_propagator_builds_one_w_table_for_the_batch(self, grid1d):
        cache = SpectralCache([PhysParams(epsilon=e) for e in (1.0, 0.5)], grid1d)
        propagator = Propagator(catalog("S6c"), 0.1, rational_potential_1d(), cache)
        assert propagator.wcache.grid == grid1d
        assert propagator.wcache.phases(0.1).shape == grid1d.shape


@pytest.fixture(scope="module")
def oracle_setup():
    grid = make_grid(1, -8.0, 8.0, 128)
    params = PhysParams()
    potential = rational_potential_1d()
    field = gaussian_ic(grid, (0.0, 1.0))
    exact = exact_solution(grid, params, potential, field, 0.5)
    cache = SpectralCache(params, grid)
    return grid, params, potential, field, exact, cache


class TestConvergenceOrders:
    """Observed order against a dense matrix-exponential oracle.

    The grid must resolve the potential well: the compact schemes' order
    relies on [W,[T,W]] commuting with W, which holds for the discretized
    operators only up to aliasing, so an under-resolved grid would
    contaminate the measurement.
    """

    def observed_order(self, name, oracle_setup, tau):
        grid, params, potential, field, exact, cache = oracle_setup
        errs = []
        for k in (1, 2):
            f = field.copy()
            n = round(0.5 / (tau / k))
            Propagator(catalog(name), tau / k, potential, cache).run(f, 0.0, n)
            errs.append(math.sqrt(grid.h * np.sum(np.abs(f.values - exact.values) ** 2)))
        return math.log2(errs[0] / errs[1])

    @pytest.mark.parametrize("name,tau,window", [
        ("S1", 0.025, (0.8, 1.2)),
        ("S2", 0.05, (1.8, 2.2)),
        ("S4", 0.05, (3.6, 4.4)),
        ("S4c", 0.05, (3.6, 4.4)),
        ("S4RK", 0.05, (3.6, 4.6)),
        ("S6-A", 0.05, (5.5, 6.5)),
        # S6star's error constant is ~50x smaller, so halving from 0.05
        # would land at round-off; measure one rung higher.
        ("S6star", 0.1, (5.5, 6.5)),
        ("S6c", 0.05, (5.5, 6.5)),
    ])
    def test_order_vs_oracle(self, name, tau, window, oracle_setup):
        lo, hi = window
        assert lo <= self.observed_order(name, oracle_setup, tau) <= hi

    def test_compact4_beats_classic4_constant(self, oracle_setup):
        # Same order, smaller leading constant and one T application fewer:
        # the headline property of the compact order-4 composition.
        grid, params, potential, field, exact, cache = oracle_setup
        errs = {}
        for name in ("S4", "S4c"):
            f = field.copy()
            Propagator(catalog(name), 0.05, potential, cache).run(f, 0.0, 10)
            errs[name] = math.sqrt(
                grid.h * np.sum(np.abs(f.values - exact.values) ** 2))
        assert errs["S4c"] < errs["S4"]
