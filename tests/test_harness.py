"""Experiment harness: metrics, reference cache, order fits, studies, sweeps."""

from __future__ import annotations

import dataclasses
import hashlib
import math
import types
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import diracsplit.harness as harness_module
from diracsplit.harness import (
    CACHE_ENV_VAR,
    DEFAULT_CACHE_DIR,
    FLOOR_MIN,
    ErrorRecord,
    Problem,
    ReferenceProtocol,
    SweepSpec,
    _read_reference,
    _reference_header,
    _run_cells,
    _solve,
    _successive_ratios,
    _write_reference,
    error_metrics,
    fit_order,
    gaussian_problem_1d,
    honeycomb_problem,
    mass_series,
    per_step_time,
    reference_key,
    reference_self_distance,
    reference_solution,
    relative_mass_drift,
    resolve_cache_dir,
    spatial_convergence,
    successive_rates,
    superres_problem,
    superres_sweep,
    temporal_convergence,
)
from diracsplit.model import (
    PhysParams,
    SpinorField,
    constant_potential,
    gaussian_ic,
    make_grid,
    mass,
    zero_potential,
)


def small_problem(M: int = 64) -> Problem:
    """1D Gaussian benchmark shrunk to a cheap grid."""
    return gaussian_problem_1d(a=-16.0, b=16.0, M=M)


def silent_problem(M: int = 32) -> Problem:
    """V = 0: every splitting is exact, so study errors are pure roundoff."""
    grid = make_grid(1, -16.0, 16.0, M)
    return Problem(
        grid=grid,
        params=PhysParams(),
        potential=zero_potential(),
        initial=gaussian_ic(grid, (0.0, 1.0)),
    )


# ---------------------------------------------------------------------------
# error metrics and records


class TestErrorMetrics:
    def test_constant_offset_values(self, grid1d):
        # reference = 0, numeric = c in the first component only
        c = 0.5 + 0.25j
        zero = SpinorField(grid1d, np.zeros((2, grid1d.M), dtype=np.complex128))
        values = np.zeros((2, grid1d.M), dtype=np.complex128)
        values[0] = c
        numeric = SpinorField(grid1d, values)
        e_phi, e_rho, e_j = error_metrics(numeric, zero)
        span = grid1d.b - grid1d.a
        assert math.isclose(e_phi, abs(c) * math.sqrt(span), rel_tol=1e-13)
        assert math.isclose(e_rho, abs(c) ** 2 * math.sqrt(span), rel_tol=1e-13)
        # current needs both components; here the second is zero
        assert e_j == 0.0

    def test_identical_fields_give_zero(self, field1d):
        assert error_metrics(field1d, field1d) == (0.0, 0.0, 0.0)

    def test_grid_mismatch_rejected(self, grid1d, field2d):
        other = SpinorField(grid1d, np.zeros((2, grid1d.M), dtype=np.complex128))
        with pytest.raises(ValueError, match="same grid"):
            error_metrics(other, field2d)

    def test_density_and_current_errors_ignore_global_phase(self, grid1d, rng):
        from conftest import random_field

        numeric = random_field(grid1d, rng)
        reference = random_field(grid1d, rng)
        base = error_metrics(numeric, reference)
        rotated = SpinorField(grid1d, numeric.values * np.exp(0.7j))
        e_phi, e_rho, e_j = error_metrics(rotated, reference)
        assert math.isclose(e_rho, base[1], rel_tol=1e-12, abs_tol=1e-15)
        assert math.isclose(e_j, base[2], rel_tol=1e-12, abs_tol=1e-15)
        # the spinor error itself is phase sensitive
        assert abs(e_phi - base[0]) > 1e-6

    def test_common_phase_leaves_all_metrics(self, grid1d, rng):
        from conftest import random_field

        numeric = random_field(grid1d, rng)
        reference = random_field(grid1d, rng)
        base = error_metrics(numeric, reference)
        phase = np.exp(-1.3j)
        turned = error_metrics(
            SpinorField(grid1d, numeric.values * phase),
            SpinorField(grid1d, reference.values * phase),
        )
        for got, want in zip(turned, base):
            assert math.isclose(got, want, rel_tol=1e-12, abs_tol=1e-15)


class TestErrorRecord:
    def _record(self, **overrides) -> ErrorRecord:
        base = dict(
            scheme="S2", h=0.5, tau=0.1, epsilon=1.0, t_final=1.0,
            e_phi=1e-3, e_rho=1e-4, e_J=1e-4, mass_drift=1e-15, wall_time=0.01,
        )
        base.update(overrides)
        return ErrorRecord(**base)

    def test_valid_record(self):
        r = self._record()
        assert r.e_phi == 1e-3

    @pytest.mark.parametrize("field", ["e_phi", "e_rho", "e_J", "mass_drift", "wall_time"])
    def test_negative_rejected(self, field):
        with pytest.raises(ValueError, match=field):
            self._record(**{field: -1e-6})

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_nonfinite_rejected(self, bad):
        with pytest.raises(ValueError, match="e_phi"):
            self._record(e_phi=bad)


class TestRelativeMassDrift:
    def test_zero_initial_mass_is_zero_drift(self, grid1d):
        zero = SpinorField(grid1d, np.zeros((2, grid1d.M), dtype=np.complex128))
        assert relative_mass_drift(zero, 0.0) == 0.0

    def test_exact_and_scaled(self, field1d):
        m0 = mass(field1d)
        assert relative_mass_drift(field1d, m0) == 0.0
        assert math.isclose(relative_mass_drift(field1d, m0 / 2), 1.0, rel_tol=1e-12)


# ---------------------------------------------------------------------------
# problem bundles


class TestProblemBundles:
    def test_initial_must_live_on_the_grid(self, grid1d):
        other = make_grid(1, -8.0, 8.0, 32)
        field = gaussian_ic(other, (0.0, 1.0))
        with pytest.raises(ValueError, match="different grid"):
            Problem(grid=grid1d, params=PhysParams(), potential=zero_potential(), initial=field)

    def test_t_start_must_be_finite(self, grid1d, field1d):
        with pytest.raises(ValueError, match="t_start"):
            Problem(
                grid=grid1d, params=PhysParams(), potential=zero_potential(),
                initial=field1d, t_start=math.nan,
            )

    def test_initial_digest_tracks_values(self):
        p = small_problem(32)
        digest = p.initial_digest()
        assert len(digest) == 64 and set(digest) <= set("0123456789abcdef")
        q = silent_problem(32)
        assert q.initial_digest() == p.initial_digest()  # same initial data
        r = gaussian_problem_1d(a=-16.0, b=16.0, M=32, epsilon=0.5)
        assert r.initial_digest() == p.initial_digest()  # epsilon not in the IC
        s = gaussian_problem_1d(a=-8.0, b=8.0, M=32)
        assert s.initial_digest() != p.initial_digest()

    @pytest.mark.parametrize("dim", [1, 2])
    def test_initial_digest_is_the_sha256_of_the_value_bytes(self, dim):
        p = small_problem(32) if dim == 1 else honeycomb_problem("constant", M=32)
        want = hashlib.sha256(p.initial.values.tobytes()).hexdigest()
        assert p.initial_digest() == want

    def test_describe_is_exact_and_ordered(self):
        p = small_problem(32)
        keys = [k for k, _ in p.describe()]
        assert keys == [
            "dim", "a", "b", "M", "delta", "nu", "epsilon",
            "potential", "initial-sha256", "t-start",
        ]
        fields = dict(p.describe())
        assert fields["a"] == (-16.0).hex()
        assert fields["M"] == "32"

    def test_gaussian_problem_defaults(self):
        p = gaussian_problem_1d()
        assert p.grid.dim == 1 and p.grid.M == 512
        assert (p.grid.a, p.grid.b) == (-16.0, 16.0)
        assert p.params.epsilon == 1.0
        assert p.potential.time_independent
        assert math.isclose(mass(p.initial), 2.0 * math.sqrt(math.pi), rel_tol=1e-12)

    def test_honeycomb_problem_modes(self):
        fast = dict(a=-4.0, b=4.0, M=16)
        assert honeycomb_problem("constant", **fast).potential.time_independent
        assert not honeycomb_problem("cosine", **fast).potential.time_independent
        assert honeycomb_problem("linear", **fast).grid.dim == 2

    def test_superres_problem_boxes(self):
        res = superres_problem(Fraction(1, 2), mode="resonant")
        assert (res.grid.a, res.grid.b, res.grid.M) == (-32.0, 32.0, 1024)
        non = superres_problem(0.5, mode="nonresonant")
        assert (non.grid.a, non.grid.b, non.grid.M) == (-16.0, 16.0, 512)
        assert res.params.epsilon == 0.5
        with pytest.raises(ValueError, match="mode"):
            superres_problem(0.5, mode="chaotic")

    def test_reference_protocol_validation(self):
        proto = ReferenceProtocol()
        assert proto.scheme == "S6c" and proto.tau == 1e-3
        with pytest.raises(KeyError):
            ReferenceProtocol(scheme="S99")
        with pytest.raises(ValueError, match="positive"):
            ReferenceProtocol(tau=0.0)
        with pytest.raises(ValueError, match="positive"):
            ReferenceProtocol(tau=math.nan)


# ---------------------------------------------------------------------------
# reference-solution disk cache


class TestReferenceCache:
    def test_resolve_cache_dir_precedence(self, monkeypatch, tmp_path):
        monkeypatch.setenv(CACHE_ENV_VAR, str(tmp_path / "envcache"))
        assert resolve_cache_dir(None) == tmp_path / "envcache"
        assert resolve_cache_dir(tmp_path / "explicit") == tmp_path / "explicit"
        monkeypatch.setenv(CACHE_ENV_VAR, "")
        assert resolve_cache_dir(None) == Path(DEFAULT_CACHE_DIR)
        monkeypatch.delenv(CACHE_ENV_VAR)
        assert resolve_cache_dir(None) == Path(DEFAULT_CACHE_DIR)

    def test_reference_key_is_a_content_hash(self):
        p = small_problem(32)
        proto = ReferenceProtocol(scheme="S2", tau=0.05)
        key = reference_key(p, 0.2, proto)
        assert len(key) == 64 and set(key) <= set("0123456789abcdef")
        assert key == reference_key(p, 0.2, proto)
        assert key != reference_key(p, 0.4, proto)
        assert key != reference_key(p, 0.2, ReferenceProtocol(scheme="S4", tau=0.05))

    def test_writes_one_file_and_reads_it_back(self, tmp_path):
        p = small_problem(32)
        proto = ReferenceProtocol(scheme="S2", tau=0.05)
        first = reference_solution(p, 0.2, proto, cache_dir=tmp_path)
        files = list(tmp_path.glob("*.ref"))
        assert len(files) == 1
        # doctor the payload: if the second call really reads the disk, it
        # must return the doctored values, not a recomputation
        _write_reference(files[0], _reference_header(p, 0.2, proto), first.values * 2.0)
        again = reference_solution(p, 0.2, proto, cache_dir=tmp_path)
        np.testing.assert_array_equal(again.values, first.values * 2.0)

    def test_a_hit_is_the_written_values_and_writable(self, tmp_path):
        p = honeycomb_problem("constant", M=32)
        proto = ReferenceProtocol(scheme="S2", tau=0.05)
        header = _reference_header(p, 0.2, proto)
        written = p.initial.values * (0.5 - 2.0j)
        path = tmp_path / "one.ref"
        _write_reference(path, header, written)
        got = _read_reference(path, header, written.shape)
        np.testing.assert_array_equal(got, written)
        assert got.dtype == np.complex128 and got.flags.writeable and got.flags.aligned
        got[...] = 0.0  # the array owns its buffer: the file is untouched
        np.testing.assert_array_equal(_read_reference(path, header, written.shape), written)

    def test_corrupt_payload_is_recomputed(self, tmp_path):
        p = small_problem(32)
        proto = ReferenceProtocol(scheme="S2", tau=0.05)
        first = reference_solution(p, 0.2, proto, cache_dir=tmp_path)
        path = next(tmp_path.glob("*.ref"))
        blob = bytearray(path.read_bytes())
        blob[-1] ^= 0xFF
        path.write_bytes(bytes(blob))
        healed = reference_solution(p, 0.2, proto, cache_dir=tmp_path)
        np.testing.assert_array_equal(healed.values, first.values)
        # the file was rewritten and is valid again
        again = reference_solution(p, 0.2, proto, cache_dir=tmp_path)
        np.testing.assert_array_equal(again.values, first.values)

    def test_reordered_header_is_a_miss(self, tmp_path):
        p = small_problem(32)
        proto = ReferenceProtocol(scheme="S2", tau=0.05)
        first = reference_solution(p, 0.2, proto, cache_dir=tmp_path)
        path = next(tmp_path.glob("*.ref"))
        # a doctored payload under the right header lines, two of them swapped:
        # read as a hit, the call would return the doctored values
        _write_reference(path, _reference_header(p, 0.2, proto), first.values * 2.0)
        head, blank, payload = path.read_bytes().partition(b"\n\n")
        lines = head.split(b"\n")
        lines[1], lines[2] = lines[2], lines[1]
        path.write_bytes(b"\n".join(lines) + blank + payload)
        again = reference_solution(p, 0.2, proto, cache_dir=tmp_path)
        np.testing.assert_array_equal(again.values, first.values)

    def test_garbage_file_is_recomputed(self, tmp_path):
        p = small_problem(32)
        proto = ReferenceProtocol(scheme="S2", tau=0.05)
        first = reference_solution(p, 0.2, proto, cache_dir=tmp_path)
        path = next(tmp_path.glob("*.ref"))
        path.write_bytes(b"not a cache file")
        healed = reference_solution(p, 0.2, proto, cache_dir=tmp_path)
        np.testing.assert_array_equal(healed.values, first.values)

    def test_use_cache_false_touches_no_disk(self, tmp_path):
        p = small_problem(32)
        proto = ReferenceProtocol(scheme="S2", tau=0.05)
        target = tmp_path / "never"
        reference_solution(p, 0.2, proto, cache_dir=target, use_cache=False)
        assert not target.exists()

    @pytest.mark.parametrize("use_cache, headers", [(False, 0), (True, 1)])
    def test_header_is_built_once_and_only_for_the_cache(
        self, use_cache, headers, tmp_path, monkeypatch
    ):
        # the header hashes the initial field, so it is built at most once
        import diracsplit.harness as harness

        built = []
        original = harness._reference_header

        def counting(*args):
            built.append(args)
            return original(*args)

        monkeypatch.setattr(harness, "_reference_header", counting)
        p = small_problem(32)
        proto = ReferenceProtocol(scheme="S2", tau=0.05)
        reference_solution(p, 0.2, proto, cache_dir=tmp_path, use_cache=use_cache)
        assert len(built) == headers
        if use_cache:
            monkeypatch.setattr(harness, "_reference_header", original)
            key = reference_key(p, 0.2, proto)
            assert [f.name for f in tmp_path.iterdir()] == [f"{key[:32]}.ref"]

    def test_reference_step_must_be_8x_finer_than_study(self, tmp_path):
        p = small_problem(32)
        proto = ReferenceProtocol(scheme="S6c", tau=0.01)
        with pytest.raises(ValueError, match="8x smaller"):
            reference_solution(p, 0.2, proto, study_taus=[0.05], cache_dir=tmp_path)

    def test_reference_step_must_divide_the_span(self, tmp_path):
        p = small_problem(32)
        proto = ReferenceProtocol(scheme="S2", tau=0.3)
        with pytest.raises(ValueError, match="does not divide"):
            reference_solution(p, 1.0, proto, cache_dir=tmp_path)

    def test_self_distance_is_positive_for_a_real_potential(self, tmp_path):
        p = small_problem(32)
        proto = ReferenceProtocol(scheme="S2", tau=0.025)
        d = reference_self_distance(p, 0.2, proto, cache_dir=tmp_path)
        assert len(d) == 3
        assert all(math.isfinite(x) and x >= 0.0 for x in d)
        assert d[0] > 0.0
        # fine and coarse runs are cached under distinct keys
        assert len(list(tmp_path.glob("*.ref"))) == 2


# ---------------------------------------------------------------------------
# order fitting


class TestOrderFitting:
    def test_exact_power_law(self):
        taus = [0.1, 0.05, 0.025, 0.0125]
        errors = [3.0 * t**4 for t in taus]
        fit = fit_order(taus, errors, floor=1e-13)
        assert not fit.saturated
        assert fit.points_used == (0, 1, 2, 3)
        assert math.isclose(fit.order, 4.0, rel_tol=1e-9)

    def test_floor_excludes_saturated_points(self):
        taus = [0.1, 0.05, 0.025]
        errors = [1e-2, 1e-4, 5e-14]
        fit = fit_order(taus, errors, floor=1e-13)
        assert fit.points_used == (0, 1)
        assert not fit.saturated
        assert math.isclose(fit.order, math.log(100.0) / math.log(2.0), rel_tol=1e-12)

    def test_saturated_when_too_few_points_survive(self):
        fit = fit_order([0.1, 0.05, 0.025], [1e-15, 2e-15, 1e-16], floor=1e-13)
        assert fit.saturated
        assert fit.order is None
        assert fit.points_used == ()

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="equal length"):
            fit_order([0.1, 0.05], [1.0], floor=1e-13)

    def test_successive_rates(self):
        rates = successive_rates([0.4, 0.2, 0.1], [16e-3, 4e-3, 1e-3])
        assert rates[0] is None
        assert math.isclose(rates[1], 2.0, rel_tol=1e-12)
        assert math.isclose(rates[2], 2.0, rel_tol=1e-12)

    def test_successive_rates_skip_degenerate_pairs(self):
        rates = successive_rates([0.2, 0.1, 0.1], [1e-3, 0.0, 1e-5])
        assert rates == (None, None, None)

    def test_successive_drops_keep_a_zero_coarse_error(self):
        # the spatial drop e_{k-1}/e_k is 0.0 after an exact coarse cell and
        # None only where the finer error is not positive
        assert _successive_ratios([4.0, 2.0, 0.0, 1.0, 0.5]) == (None, 2.0, None, 0.0, 2.0)
        assert _successive_ratios([]) == (None,)

    def test_successive_rates_with_a_fixed_factor(self):
        # the sweep's rate log(prev/cur)/log(factor), None unless both are positive
        rates = _successive_ratios([16e-3, 1e-3, 0.0, 1e-4, 1e-4], lambda k: 2)
        assert rates[:4] == (None, math.log(16e-3 / 1e-3) / math.log(2), None, None)
        assert rates[4] == 0.0


# ---------------------------------------------------------------------------
# temporal convergence


STUDY_TAUS = (0.1, 0.05, 0.025)


@pytest.fixture(scope="module")
def s2_study(tmp_path_factory):
    cache = tmp_path_factory.mktemp("refcache")
    problem = small_problem()
    protocol = ReferenceProtocol(scheme="S6c", tau=0.003125)
    study = temporal_convergence(
        "S2", STUDY_TAUS, problem, 0.5, protocol, cache_dir=cache
    )
    return problem, protocol, cache, study


class TestTemporalConvergence:
    def test_strang_measures_second_order(self, s2_study):
        _, _, _, study = s2_study
        assert not study.saturated
        for fit in (study.fit_phi, study.fit_rho, study.fit_J):
            assert 1.6 < fit.order < 2.4
            assert fit.points_used == (0, 1, 2)
            assert fit.floor >= FLOOR_MIN

    def test_records_are_ordered_and_sane(self, s2_study):
        _, _, _, study = s2_study
        assert tuple(r.tau for r in study.records) == STUDY_TAUS
        e = [r.e_phi for r in study.records]
        assert e[0] > e[1] > e[2] > 0.0
        for r in study.records:
            assert r.scheme == "S2"
            assert r.mass_drift < 1e-12
            assert r.wall_time >= 0.0

    def test_successive_rates_match_the_fit(self, s2_study):
        _, _, _, study = s2_study
        assert study.rates_phi[0] is None
        assert all(1.5 < r < 2.5 for r in study.rates_phi[1:])

    def test_reruns_are_bit_deterministic(self, s2_study):
        problem, protocol, cache, study = s2_study
        again = temporal_convergence(
            "S2", STUDY_TAUS, problem, 0.5, protocol, cache_dir=cache
        )
        threaded = temporal_convergence(
            "S2", STUDY_TAUS, problem, 0.5, protocol, cache_dir=cache, workers=2
        )
        for other in (again, threaded):
            assert [r.e_phi for r in other.records] == [r.e_phi for r in study.records]
            assert [r.e_rho for r in other.records] == [r.e_rho for r in study.records]
            assert other.fit_phi.order == study.fit_phi.order

    def test_zero_potential_saturates(self, tmp_path):
        # V = 0 makes every splitting exact; errors are roundoff, below floor
        study = temporal_convergence(
            "S2", STUDY_TAUS, silent_problem(), 0.5,
            ReferenceProtocol(scheme="S6c", tau=0.003125), cache_dir=tmp_path,
        )
        assert study.saturated
        assert study.fit_phi.order is None
        assert study.fit_phi.points_used == ()

    def test_reference_is_propagated_once(self, tmp_path, monkeypatch):
        # The self-distance reuses the fine reference: one fine and one
        # coarse propagation.
        import diracsplit.harness as harness

        propagated = []
        original = harness._propagate

        def counting(problem, t_final, scheme_name, tau):
            propagated.append(tau)
            return original(problem, t_final, scheme_name, tau)

        monkeypatch.setattr(harness, "_propagate", counting)
        tau = 0.003125
        study = temporal_convergence(
            "S2", STUDY_TAUS, small_problem(32), 0.5,
            ReferenceProtocol(scheme="S6c", tau=tau),
            cache_dir=tmp_path,
        )
        assert propagated == [tau, 2 * tau]
        assert all(d > 0.0 for d in study.self_distance)

    def test_pool_cells_leave_the_helper_thread_alone(self, tmp_path, helper_jobs):
        # At 2D M=256 a T flow on the main thread splits across the helper;
        # with workers=2 the study pool owns both cores, so its cells must not.
        problem = honeycomb_problem("constant", M=256)
        taus, protocol = (0.1, 0.05, 0.025), ReferenceProtocol(scheme="S2", tau=0.003125)
        serial = temporal_convergence("S2", taus, problem, 0.1, protocol, cache_dir=tmp_path)
        assert len(helper_jobs) > 0  # the references and the serial cells split
        helper_jobs.clear()
        pooled = temporal_convergence("S2", taus, problem, 0.1, protocol, cache_dir=tmp_path,
                                      workers=2)
        assert helper_jobs == []  # the references are read from the cache
        assert [dataclasses.replace(r, wall_time=0.0) for r in pooled.records] == [
            dataclasses.replace(r, wall_time=0.0) for r in serial.records]
        assert pooled.self_distance == serial.self_distance

    def test_needs_three_step_sizes(self, tmp_path):
        with pytest.raises(ValueError, match="at least 3"):
            temporal_convergence(
                "S2", (0.1, 0.05), small_problem(32), 0.5,
                ReferenceProtocol(scheme="S6c", tau=0.003125), cache_dir=tmp_path,
            )


# ---------------------------------------------------------------------------
# spatial convergence


def spatial_factory(h: float) -> Problem:
    return gaussian_problem_1d(a=-8.0, b=8.0, M=round(16.0 / h))


class TestSpatialConvergence:
    def test_error_collapses_with_the_mesh(self, tmp_path):
        study = spatial_convergence(
            "S2", (1.0, 0.5), spatial_factory, 0.05, 0.25, 0.25, cache_dir=tmp_path
        )
        assert tuple(r.h for r in study.records) == (1.0, 0.5)
        assert study.ratios[0] is None
        assert study.ratios[1] > 5.0
        assert study.records[0].e_phi > study.records[1].e_phi > 0.0

    def test_non_nesting_grid_rejected(self, tmp_path):
        # h = 2/3 gives M = 24, an even mesh that does not divide M_ref = 64
        with pytest.raises(ValueError, match="does not nest"):
            spatial_convergence(
                "S2", (2.0 / 3.0,), spatial_factory, 0.05, 0.25, 0.25, cache_dir=tmp_path
            )

    def test_meshes_are_checked_before_the_reference_is_propagated(
        self, tmp_path, monkeypatch
    ):
        import diracsplit.harness as harness

        propagated = []
        original = harness._propagate

        def counting(problem, t_final, scheme_name, tau):
            propagated.append(tau)
            return original(problem, t_final, scheme_name, tau)

        monkeypatch.setattr(harness, "_propagate", counting)
        with pytest.raises(ValueError, match="does not nest"):
            spatial_convergence(
                "S2", (1.0, 2.0 / 3.0), spatial_factory, 0.05, 0.25, 0.25, cache_dir=tmp_path
            )
        assert propagated == []

    def test_needs_at_least_one_mesh(self, tmp_path):
        with pytest.raises(ValueError, match="at least one mesh"):
            spatial_convergence(
                "S2", (), spatial_factory, 0.05, 0.25, 0.25, cache_dir=tmp_path
            )


# ---------------------------------------------------------------------------
# super-resolution sweep


def tiny_sweep_spec(**overrides) -> SweepSpec:
    base = dict(
        tau0=Fraction(1),
        factor=2,
        count=3,
        epsilons=(Fraction(1), Fraction(1, 2), Fraction(1, 4)),
        mode="resonant",
        reference_tau=Fraction(1, 64),
    )
    base.update(overrides)
    return SweepSpec(**base)


def tiny_factory(eps: Fraction) -> Problem:
    return gaussian_problem_1d(a=-16.0, b=16.0, M=32, epsilon=float(eps))


class TestSweepSpec:
    def test_tau_ladder(self):
        spec = tiny_sweep_spec()
        assert spec.tau_fractions() == (
            Fraction(1), Fraction(1, 2), Fraction(1, 4), Fraction(1, 8)
        )
        assert spec.taus() == tuple(math.pi / 2**j for j in range(4))
        assert spec.unit == math.pi

    def test_admissibility_is_exact_rational(self):
        spec = tiny_sweep_spec()
        assert spec.admissible(Fraction(1), Fraction(1))
        assert not spec.admissible(Fraction(1), Fraction(1, 2))
        assert spec.admissible(Fraction(1, 4), Fraction(1, 8))
        # nonresonant mode admits everything
        loose = tiny_sweep_spec(mode="nonresonant")
        assert loose.admissible(Fraction(1), Fraction(1, 2))
        assert loose.unit == 1.0

    @pytest.mark.parametrize(
        "overrides, message",
        [
            (dict(mode="chaotic"), "mode"),
            (dict(factor=1), "factor"),
            (dict(factor=2.0), "factor"),
            (dict(count=2), "count"),
            (dict(epsilons=()), "nonempty"),
            (dict(epsilons=(Fraction(3, 2),)), "epsilon"),
            (dict(epsilons=(Fraction(0),)), "epsilon"),
            (dict(tau0=Fraction(0)), "positive"),
            (dict(reference_tau=Fraction(-1, 4)), "positive"),
        ],
    )
    def test_validation(self, overrides, message):
        with pytest.raises(ValueError, match=message):
            tiny_sweep_spec(**overrides)

    def test_unknown_reference_scheme(self):
        with pytest.raises(KeyError):
            tiny_sweep_spec(reference_scheme="S99")


class TestSuperresSweep:
    def test_tiny_resonant_sweep(self, tmp_path):
        spec = tiny_sweep_spec()
        result = superres_sweep(
            spec, Fraction(2), problem_factory=tiny_factory, cache_dir=tmp_path
        )
        assert result.taus == spec.taus()
        assert result.epsilons == (1.0, 0.5, 0.25)
        # admissible cells: tau_j/eps_i^2 integral
        expected = {(0, 0), (1, 0), (1, 1), (1, 2), (2, 0), (2, 1), (2, 2), (2, 3)}
        cell_map = result.cell_map()
        assert set(cell_map) == expected
        for (i, j), record in cell_map.items():
            assert record.epsilon == result.epsilons[i]
            assert record.tau == result.taus[j]
            assert record.e_phi <= result.column_max[j]
        for j in range(4):
            column = [r.e_phi for (i, jj), r in cell_map.items() if jj == j]
            assert result.column_max[j] == max(column)
        assert result.rates[0] is None
        assert len(result.rates) == 4
        assert all(math.isfinite(r) for r in result.rates[1:])

    def test_sweep_is_deterministic_across_workers(self, tmp_path):
        spec = tiny_sweep_spec()
        one = superres_sweep(
            spec, Fraction(2), problem_factory=tiny_factory, cache_dir=tmp_path
        )
        two = superres_sweep(
            spec, Fraction(2), problem_factory=tiny_factory,
            cache_dir=tmp_path, workers=2,
        )
        assert one.column_max == two.column_max
        assert [r.e_phi for _, _, r in one.cells] == [r.e_phi for _, _, r in two.cells]

    def test_every_column_needs_an_admissible_cell(self, tmp_path):
        spec = tiny_sweep_spec(epsilons=(Fraction(1), Fraction(1, 2)))
        with pytest.raises(ValueError, match="no epsilon in the sweep admits"):
            superres_sweep(
                spec, Fraction(2), problem_factory=tiny_factory, cache_dir=tmp_path
            )

    def test_steps_must_divide_the_final_time(self, tmp_path):
        spec = tiny_sweep_spec()
        with pytest.raises(ValueError, match="does not divide"):
            superres_sweep(
                spec, Fraction(1, 2), problem_factory=tiny_factory, cache_dir=tmp_path
            )


# ---------------------------------------------------------------------------
# study cells propagated in batches


def _without_wall_time(records):
    return [dataclasses.replace(r, wall_time=0.0) for r in records]


def _serial_records(scheme, t_final, cells):
    """What each cell gives when it is propagated alone."""
    records = []
    for problem, tau, n_steps, reference in cells:
        [(field, _, drift)] = _solve([problem], scheme, tau, n_steps)
        records.append(ErrorRecord(scheme, problem.grid.h, tau, problem.params.epsilon, t_final,
                                   *error_metrics(field, reference),
                                   mass_drift=drift, wall_time=0.0))
    return records


def _sweep_cells(tmp_path):
    """The cells of the tiny resonant sweep, epsilon by epsilon as the sweep lists them."""
    spec = tiny_sweep_spec()
    problems = [tiny_factory(eps) for eps in spec.epsilons]
    t_final = 2.0 * math.pi
    protocol = ReferenceProtocol("S6c", float(spec.reference_tau) * math.pi)
    cells = []
    for eps, problem in zip(spec.epsilons, problems):
        reference = reference_solution(problem, t_final, protocol, cache_dir=tmp_path)
        for q, tau in zip(spec.tau_fractions(), spec.taus()):
            if spec.admissible(eps, q):
                cells.append((problem, tau, int(Fraction(2) / q), reference))
    return t_final, cells


class TestBatchedCells:
    @pytest.mark.parametrize("differs", ["grid", "potential", "delta", "t_start"])
    def test_members_must_share_grid_potential_delta_and_t_start(self, differs):
        base = small_problem(32)
        other = {
            "grid": lambda: small_problem(64),
            "potential": lambda: dataclasses.replace(base, potential=constant_potential(0.5)),
            "delta": lambda: dataclasses.replace(base, params=PhysParams(delta=0.5)),
            "t_start": lambda: dataclasses.replace(base, t_start=0.25),
        }[differs]()
        with pytest.raises(ValueError, match="does not match|a batch needs one grid"):
            _solve([base, other], "S2", 0.05, 2)

    def test_members_may_differ_in_epsilon_nu_and_initial_data(self):
        base = small_problem(32)
        other = dataclasses.replace(
            base, params=PhysParams(nu=0.5, epsilon=0.25),
            initial=gaussian_ic(base.grid, (1.0, -2.0)),
        )
        solved = _solve([base, other], "S6c", 0.05, 3)
        for problem, (field, _, drift) in zip((base, other), solved):
            [(alone, _, alone_drift)] = _solve([problem], "S6c", 0.05, 3)
            np.testing.assert_array_equal(field.values, alone.values)
            assert drift == alone_drift <= 1e-12

    def test_records_keep_the_cell_order(self, tmp_path):
        t_final, cells = _sweep_cells(tmp_path)
        records = _run_cells("S6c", t_final, cells, workers=1)
        assert [(r.epsilon, r.tau) for r in records] == [
            (p.params.epsilon, tau) for p, tau, _, _ in cells
        ]

    @pytest.mark.parametrize("workers", [1, 2])
    def test_sweep_records_equal_the_serial_records(self, workers, tmp_path):
        t_final, cells = _sweep_cells(tmp_path)
        result = superres_sweep(tiny_sweep_spec(), Fraction(2), problem_factory=tiny_factory,
                                scheme="S6c", cache_dir=tmp_path, workers=workers)
        got = [r for _, _, r in result.cells]
        assert _without_wall_time(got) == _serial_records("S6c", t_final, cells)

    def test_group_wall_times_sum_to_the_loop_time(self, tmp_path, monkeypatch):
        t_final, cells = _sweep_cells(tmp_path)
        ticks = iter(range(0, 1000, 3))  # every loop reads 3 s on this clock
        monkeypatch.setattr(harness_module, "time", types.SimpleNamespace(
            perf_counter=lambda: float(next(ticks))))
        records = _run_cells("S6c", t_final, cells, workers=1)
        by_tau: dict[float, list[float]] = {}
        for r in records:
            by_tau.setdefault(r.tau, []).append(r.wall_time)
        assert [len(walls) for walls in by_tau.values()] == [3, 2, 2, 1]
        for walls in by_tau.values():
            assert len(set(walls)) == 1
            assert sum(walls) == pytest.approx(3.0, rel=1e-15)

    def test_convergence_studies_propagate_one_cell_at_a_time(self, tmp_path, monkeypatch):
        sizes = []
        solve = harness_module._solve

        def counting(problems, *args):
            sizes.append(len(problems))
            return solve(problems, *args)

        monkeypatch.setattr(harness_module, "_solve", counting)
        problem = small_problem()
        protocol = ReferenceProtocol(scheme="S6c", tau=0.003125)
        temporal = temporal_convergence("S2", STUDY_TAUS, problem, 0.5, protocol,
                                        cache_dir=tmp_path)
        reference = reference_solution(problem, 0.5, protocol, cache_dir=tmp_path)
        cells = [(problem, tau, round(0.5 / tau), reference) for tau in STUDY_TAUS]
        assert _without_wall_time(temporal.records) == _serial_records("S2", 0.5, cells)

        spatial = spatial_convergence("S2", [1.0, 0.5], spatial_factory, 0.05, 0.25, 0.25,
                                      cache_dir=tmp_path)
        fine = reference_solution(spatial_factory(0.25), 0.25,
                                  ReferenceProtocol(scheme="S2", tau=0.05), cache_dir=tmp_path)
        cells = [
            (p, 0.05, 5, SpinorField(p.grid, fine.values[:, :: 64 // p.grid.M].copy()))
            for p in (spatial_factory(1.0), spatial_factory(0.5))
        ]
        assert _without_wall_time(spatial.records) == _serial_records("S2", 0.25, cells)
        assert set(sizes) == {1}


# ---------------------------------------------------------------------------
# mass monitoring and step timing


class TestMonitoring:
    def test_mass_series_stays_at_roundoff(self):
        series = mass_series("S4c", small_problem(32), 6, 0.05)
        assert series.shape == (6,)
        assert np.all(series >= 0.0)
        assert np.all(series < 1e-12)

    def test_mass_series_zero_steps(self):
        assert mass_series("S2", small_problem(32), 0, 0.05).shape == (0,)

    @pytest.mark.parametrize("bad", [-1, 3.5, True])
    def test_mass_series_rejects_bad_counts(self, bad):
        with pytest.raises(ValueError, match="nonnegative integer"):
            mass_series("S2", small_problem(32), bad, 0.05)

    def test_mass_series_accepts_a_numpy_integer(self):
        by_numpy = mass_series("S4c", small_problem(32), np.int64(3), 0.05)
        np.testing.assert_array_equal(by_numpy, mass_series("S4c", small_problem(32), 3, 0.05))

    def test_per_step_time_positive(self):
        t = per_step_time("S2", small_problem(32), 0.05, n_steps=2, repeats=1)
        assert math.isfinite(t) and t > 0.0

    def test_per_step_time_rejects_bad_counts(self):
        with pytest.raises(ValueError, match="positive"):
            per_step_time("S2", small_problem(32), 0.05, n_steps=0)


def test_readme_quick_start_runs(tmp_path, monkeypatch, capsys):
    # The README's library example runs as printed and writes its reference
    # into $DIRACSPLIT_CACHE, not into the working directory.
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    after = readme.split("## Library quick start", 1)[1]
    block = after.split("```python\n", 1)[1].split("```\n", 1)[0]
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv(CACHE_ENV_VAR, str(tmp_path / "refs"))
    exec(compile(block, "README.md quick start", "exec"), {})
    conserved, order = (float(x) for x in capsys.readouterr().out.split())
    assert conserved == pytest.approx(mass(gaussian_problem_1d().initial), rel=1e-12)
    assert 5.5 <= order <= 6.5
    assert {p.parent for p in tmp_path.rglob("*") if p.is_file()} == {tmp_path / "refs"}
