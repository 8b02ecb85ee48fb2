"""Configuration parsing and the command-line interface."""

from __future__ import annotations

import math
import re
from dataclasses import fields, replace
from fractions import Fraction
from pathlib import Path

import pytest

from diracsplit import cli, harness
from diracsplit.cli import CSV_COLUMNS, _gnuplot_script, main
from diracsplit.config import ConfigError, RunConfig, default_config, parse_config
from diracsplit.harness import (
    CACHE_ENV_VAR,
    DEFAULT_CACHE_DIR,
    gaussian_problem_1d,
    resolve_cache_dir,
)
from diracsplit.lie import frozen_coefficients
from diracsplit.model import mass


# ---------------------------------------------------------------------------
# configuration


class TestConfigDefaults:
    def test_default_values(self):
        cfg = default_config()
        assert cfg.dim == 1
        assert cfg.M == 512
        assert (cfg.a, cfg.b) == (-16.0, 16.0)
        assert cfg.scheme == "S6c"
        assert cfg.potential_kind == "rational"
        assert len(cfg.taus) == 6
        assert cfg.sweep_epsilons == tuple(Fraction(1, 2**m) for m in range(6))
        assert cfg.csv_path == "-"

    def test_empty_text_parses_to_defaults(self):
        assert parse_config("") == default_config()

    def test_round_trip_is_a_fixed_point(self):
        cfg = default_config()
        assert parse_config(cfg.to_text()) == cfg
        # and the echo of the echo is byte-identical
        assert parse_config(cfg.to_text()).to_text() == cfg.to_text()

    def test_round_trip_survives_awkward_floats(self):
        cfg = replace(default_config(), tau=0.1 + 2e-17, epsilon=1.0 / 3.0)
        again = parse_config(cfg.to_text())
        assert again.tau == cfg.tau
        assert again.epsilon == cfg.epsilon

    def test_content_hash_tracks_content(self):
        cfg = default_config()
        h = cfg.content_hash()
        assert len(h) == 64 and set(h) <= set("0123456789abcdef")
        assert h == default_config().content_hash()
        assert h != replace(cfg, M=256).content_hash()

    def test_comments_and_blanks_ignored(self):
        cfg = parse_config("# comment\n\n[model]\n# another\nM = 128\n\n")
        assert cfg.M == 128

    def test_default_echo_is_pinned(self):
        # every CSV carries this echo and hash; key order is part of both
        cfg = default_config()
        keys = [line.partition(" = ")[0] for line in cfg.to_text().splitlines() if line]
        assert keys == [
            "[model]", "dim", "delta", "nu", "epsilon", "a", "b", "M",
            "[potential]", "kind", "value", "theta",
            "[initial]", "center1", "center2",
            "[run]", "scheme", "t_final", "tau", "workers", "cache_dir",
            "[study]", "taus", "reference_scheme", "reference_tau", "floor_factor",
            "[space]", "h_list", "reference_h", "tau",
            "[sweep]", "mode", "tau0", "factor", "count", "epsilons", "reference_tau", "t",
            "[output]", "csv", "gnuplot",
        ]
        assert cfg.content_hash() == (
            "07fd0e3687ab632108f6ddeaa5d9811290dfc39ef89f66d959dc7f91ed88abd6"
        )

    def test_readme_config_block_lists_the_schema(self):
        # the README's hand-written key list must name every key, in order
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        after = readme.split("## Configuration format", 1)[1]
        block = after.split("```\n", 2)[1]
        listed = []
        for section, keys in re.findall(r"^\[(\w+)\]([^[]*)", block, flags=re.M):
            listed.append(f"[{section}]")
            listed += [k.strip() for k in re.sub(r"\([^()]*\)", "", keys).split(",")]
        schema = []
        for f in fields(RunConfig):
            section = f"[{f.metadata['section']}]"
            if section not in schema:
                schema.append(section)
            schema.append(f.metadata["key"])
        assert listed == schema


class TestConfigParsing:
    def test_overrides_merge_with_defaults(self):
        cfg = parse_config("[model]\nepsilon = 0.25\n[run]\nscheme = S4c\n")
        assert cfg.epsilon == 0.25
        assert cfg.scheme == "S4c"
        assert cfg.M == 512  # untouched default

    def test_lists_and_fractions(self):
        text = (
            "[study]\ntaus = 0.2, 0.1, 0.05\n"
            "[sweep]\nepsilons = 1, 1/2, 0.25\ntau0 = 3/4\n"
        )
        cfg = parse_config(text)
        assert cfg.taus == (0.2, 0.1, 0.05)
        assert cfg.sweep_epsilons == (Fraction(1), Fraction(1, 2), Fraction(1, 4))
        assert cfg.sweep_tau0 == Fraction(3, 4)

    @pytest.mark.parametrize(
        "text, lineno, needle",
        [
            ("[magic]\n", 1, "unknown section"),
            ("M = 4\n", 1, "before any"),
            ("[model]\nM = 511\n", 2, "even"),
            ("[model]\nM = many\n", 2, "expected an integer"),
            ("[model]\nM 4\n", 2, "key = value"),
            ("[model]\nM = 4\nM = 4\n", 3, "duplicate key"),
            ("[model]\nq = 1\n", 2, "unknown key"),
            ("[model]\nepsilon = 0\n", 2, "(0, 1]"),
            ("[model]\nepsilon = inf\n", 2, "finite"),
            ("[run]\nscheme = S0\n", 2, "unknown scheme"),
            ("[run]\nworkers = 0\n", 2, "workers"),
            ("[run]\nseed = 0\n", 2, "unknown key"),
            ("[initial]\nkind = gaussian\n", 2, "unknown key"),
            ("[study]\ntaus = 0.1, 0.05\n", 2, "at least 3"),
            ("[study]\ntaus = 0.1, 0.1, 0.05\n", 2, "duplicates"),
            ("[space]\nh_list = 0.3\n", 2, "even number of cells"),
            ("[space]\nh_list = 1, 0.5\nreference_h = 0.4\n", 2, "does not nest"),
            ("[potential]\nkind = honeycomb\n", 2, "2D only"),
            ("[sweep]\nmode = upward\n", 2, "sweep mode"),
            ("[sweep]\ncount = 2\n", 2, "count"),
            ("[sweep]\nepsilons = 1, 2\n", 2, "(0, 1]"),
        ],
    )
    def test_diagnostics_carry_line_numbers(self, text, lineno, needle):
        with pytest.raises(ConfigError) as excinfo:
            parse_config(text)
        assert excinfo.value.line == lineno
        assert needle in str(excinfo.value)
        assert f"line {lineno}:" in str(excinfo.value)

    def test_default_conflicts_report_no_line(self):
        # dim = 2 clashes with the *default* rational potential
        with pytest.raises(ConfigError) as excinfo:
            parse_config("[model]\ndim = 2\n[initial]\ncenter1 = 0, 0\ncenter2 = 1, 0\n")
        assert "1D only" in str(excinfo.value)

    def test_center_dimension_checked(self):
        text = "[model]\ndim = 2\n[potential]\nkind = honeycomb\n"
        with pytest.raises(ConfigError, match="center1 must have 2"):
            parse_config(text)


class TestDerivedObjects:
    def test_default_problem(self):
        p = default_config().problem()
        assert p.grid.dim == 1 and p.grid.M == 512
        assert p.potential.time_independent
        assert math.isclose(mass(p.initial), 2.0 * math.sqrt(math.pi), rel_tol=1e-12)

    def test_default_problem_is_the_1d_benchmark(self):
        # the config's 1-tuple centers give the benchmark's initial data bitwise
        p = default_config().problem()
        assert p.initial.values.tobytes() == gaussian_problem_1d().initial.values.tobytes()
        assert p.initial_digest() == (
            "71840dcd1abcb3bef32d901b1bfef898bd406a9eaca2d987b03e88f89a44a228")

    def test_problem_with_epsilon_override(self):
        cfg = default_config()
        p = cfg.problem(epsilon=0.25)
        assert p.params.epsilon == 0.25
        assert cfg.epsilon == 1.0

    def test_2d_honeycomb_problem(self):
        text = (
            "[model]\ndim = 2\na = -4\nb = 4\nM = 16\n"
            "[potential]\nkind = honeycomb\ntheta = cosine\n"
            "[initial]\ncenter1 = 0, 0\ncenter2 = 1, 0\n"
        )
        p = parse_config(text).problem()
        assert p.grid.dim == 2
        assert p.grid.shape == (16, 16)
        assert not p.potential.time_independent

    def test_unknown_potential_kind_raises(self):
        # A config built without validation must not fall through to another potential.
        with pytest.raises(ConfigError, match="potential kind must be one of"):
            RunConfig(potential_kind="bogus").potential()

    def test_reference_protocol_and_sweep_spec(self):
        cfg = parse_config("[study]\nreference_scheme = S4\nreference_tau = 0.0001\n")
        proto = cfg.reference_protocol()
        assert (proto.scheme, proto.tau) == ("S4", 0.0001)
        spec = cfg.sweep_spec()
        assert spec.reference_scheme == "S4"
        assert spec.tau0 == Fraction(1, 2)
        assert spec.mode == "resonant"

    def test_empty_cache_dir_means_unset(self, monkeypatch, tmp_path):
        # the default cache_dir = "" falls through to the variable, then the default
        cache_dir = default_config().cache_dir
        assert cache_dir == ""
        monkeypatch.setenv(CACHE_ENV_VAR, str(tmp_path / "envcache"))
        assert resolve_cache_dir(cache_dir) == tmp_path / "envcache"
        monkeypatch.delenv(CACHE_ENV_VAR)
        assert resolve_cache_dir(cache_dir) == Path(DEFAULT_CACHE_DIR)


# ---------------------------------------------------------------------------
# command-line interface


def write_config(tmp_path, text: str):
    path = tmp_path / "run.cfg"
    path.write_text(text, encoding="utf-8")
    return path


SMALL_STUDY = (
    "[model]\nM = 64\n"
    "[run]\nscheme = S2\nt_final = 0.5\ncache_dir = {cache}\n"
    "[study]\ntaus = 0.1, 0.05, 0.025\nreference_tau = 0.003125\n"
)


class TestCliReports:
    def test_opcount_golden(self, capsys):
        assert main(["opcount", "S6c"]) == 0
        captured = capsys.readouterr()
        assert captured.out == "T=4 W=5\n"
        assert captured.err == ""

    def test_opcount_alias_note_goes_to_stderr(self, capsys):
        assert main(["opcount", "S6"]) == 0
        captured = capsys.readouterr()
        assert captured.out == "T=7 W=8\n"
        assert "9" in captured.err and "10" in captured.err

    def test_opcount_unknown_scheme(self, capsys):
        assert main(["opcount", "S0"]) == 1
        assert "unknown scheme" in capsys.readouterr().err

    def test_coeffs_verify(self, capsys):
        assert main(["coeffs", "--verify"]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out and "FAIL" not in out
        c = frozen_coefficients()
        assert ("%.17g" % c[4]) in out

    def test_coeffs_derive_writes_constants(self, capsys, tmp_path):
        target = tmp_path / "constants.txt"
        assert main(["coeffs", "--derive", "--constants-out", str(target)]) == 0
        out = capsys.readouterr().out
        assert "converged" in out
        text = target.read_text()
        values = {}
        for line in text.splitlines():
            if line.startswith("s6c_c"):
                key, _, value = line.partition(" = ")
                values[key] = float(value)
        assert values == {
            f"s6c_c{i}": c for i, c in enumerate(frozen_coefficients())
        }

    def test_verify_lie_passes(self, capsys):
        assert main(["verify-lie", "--trials", "5"]) == 0
        out = capsys.readouterr().out
        lines = out.strip().splitlines()
        assert lines[-1] == "PASS lie-engine invariant suite"
        assert all(line.startswith("PASS") for line in lines)
        assert any("exact discrepancy" in line for line in lines)

    def test_version_and_missing_command_exit_via_argparse(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        assert "diracsplit" in capsys.readouterr().out
        with pytest.raises(SystemExit):
            main([])


class TestCliSolve:
    def test_summary_line(self, capsys, tmp_path):
        cfg = write_config(tmp_path, "[model]\nM = 64\n[run]\ntau = 0.01\nt_final = 0.5\n")
        assert main(["solve", "-c", str(cfg)]) == 0
        out = capsys.readouterr().out
        assert "# diracsplit " in out
        assert "# config-sha256: " in out
        summary = out.strip().splitlines()[-1]
        assert summary.startswith("scheme=S6c steps=50 ")
        fields = dict(part.split("=", 1) for part in summary.split())
        assert float(fields["mass_drift"]) < 1e-12

    def test_state_out_is_a_cache_container(self, capsys, tmp_path):
        cfg = write_config(tmp_path, "[model]\nM = 32\n[run]\ntau = 0.05\nt_final = 0.25\n")
        state = tmp_path / "final.state"
        assert main(["solve", "-c", str(cfg), "--state-out", str(state)]) == 0
        blob = state.read_bytes()
        assert blob.startswith(b"diracsplit-reference-cache\n")
        assert b"payload-sha256: " in blob

    def test_non_dividing_tau_is_a_config_error(self, capsys, tmp_path):
        cfg = write_config(tmp_path, "[run]\ntau = 0.3\nt_final = 1.0\n")
        assert main(["solve", "-c", str(cfg)]) == 1
        assert "does not divide" in capsys.readouterr().err

    def test_missing_config_file(self, capsys, tmp_path):
        assert main(["solve", "-c", str(tmp_path / "absent.cfg")]) == 1
        assert "error:" in capsys.readouterr().err

    def test_invalid_config_reports_line(self, capsys, tmp_path):
        cfg = write_config(tmp_path, "[model]\nM = 511\n")
        assert main(["solve", "-c", str(cfg)]) == 1
        assert "line 2:" in capsys.readouterr().err

    def test_flag_overrides_are_validated(self, capsys, tmp_path):
        # the echo of an accepted run must parse back; workers = 0 would not
        cfg = write_config(tmp_path, "[model]\nM = 32\n[run]\ntau = 0.05\nt_final = 0.25\n")
        assert main(["solve", "-c", str(cfg), "--workers", "0"]) == 1
        captured = capsys.readouterr()
        assert "workers must be >= 1" in captured.err
        assert captured.out == ""

    def test_solve_has_no_gnuplot_flag(self, capsys, tmp_path):
        cfg = write_config(tmp_path, "[model]\nM = 32\n[run]\ntau = 0.05\nt_final = 0.25\n")
        with pytest.raises(SystemExit) as excinfo:
            main(["solve", "-c", str(cfg), "--gnuplot", str(tmp_path / "x.gp")])
        assert excinfo.value.code == 2
        assert "--gnuplot" in capsys.readouterr().err

    def test_solve_rejects_the_gnuplot_key(self, capsys, tmp_path):
        out = tmp_path / "out.txt"
        cfg = write_config(tmp_path, "[model]\nM = 32\n[run]\ntau = 0.05\nt_final = 0.25\n"
                                     "[output]\ngnuplot = solve.gp\n")
        assert main(["solve", "-c", str(cfg), "-o", str(out)]) == 1
        captured = capsys.readouterr()
        assert "only converge-time, converge-space and superres read" in captured.err
        assert captured.out == ""
        assert not out.exists()


class TestCliOutputPaths:
    SOLVE = "[model]\nM = 32\n[run]\ntau = 0.05\nt_final = 0.25\n"
    SWEEP = (
        "[model]\nM = 32\n[run]\nscheme = S2\ncache_dir = {cache}\n"
        "[sweep]\nmode = nonresonant\ntau0 = 1/4\nfactor = 2\ncount = 3\n"
        "epsilons = 1, 1/2\nreference_tau = 1/256\nt = 1\n"
        "[output]\ncsv = {missing}/sweep.csv\n"
    )

    @pytest.mark.parametrize("command, outputs", [
        ("solve", ["--state-out", "{missing}/s.state"]),
        ("solve", ["-o", "{missing}/run.txt"]),
        ("converge-time", ["-o", "{missing}/t.csv"]),
        ("converge-time", ["-o", "{tmp}/t.csv", "--gnuplot", "{missing}/t.gp"]),
        ("converge-space", ["-o", "{missing}/s.csv"]),
        ("superres", []),  # the CSV path comes from the [output] csv key
    ], ids=["solve-state", "solve-output", "time-csv", "time-gnuplot", "space-csv",
            "superres-csv-key"])
    def test_missing_output_directory_fails_before_any_solve(
        self, command, outputs, capsys, tmp_path, monkeypatch
    ):
        solves = []
        original = harness._solve

        def counting(*args):
            solves.append(args)
            return original(*args)

        monkeypatch.setattr(harness, "_solve", counting)
        monkeypatch.setattr(cli, "_solve", counting)
        refs, missing = tmp_path / "refs", tmp_path / "absent"
        text = {"solve": self.SOLVE, "superres": self.SWEEP}.get(command, SMALL_STUDY)
        cfg = write_config(tmp_path, text.format(cache=refs, missing=missing))
        argv = [arg.format(tmp=tmp_path, missing=missing) for arg in outputs]
        assert main([command, "-c", str(cfg), *argv]) == 1
        assert solves == []
        assert not refs.exists() and not missing.exists()
        captured = capsys.readouterr()
        assert f"cannot write {missing}/" in captured.err
        assert ".tmp-" not in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("command, outputs, keys", [
        ("solve", ["-o", "{cfg}"], ""),
        ("solve", ["--state-out", "{cfg}"], ""),
        ("converge-time", ["-o", "{cfg}"], ""),
        ("converge-time", ["-o", "{tmp}/t.csv", "--gnuplot", "{cfg}"], ""),
        ("converge-space", ["-o", "{tmp}/out/../run.cfg"], ""),
        ("superres", [], "[output]\ncsv = {cfg}\n"),
    ], ids=["solve-output", "solve-state", "time-csv", "time-gnuplot", "space-csv-dotdot",
            "superres-csv-key"])
    def test_config_file_is_never_an_output(
        self, command, outputs, keys, capsys, tmp_path, monkeypatch
    ):
        solves = []
        original = harness._solve

        def counting(*args):
            solves.append(args)
            return original(*args)

        monkeypatch.setattr(harness, "_solve", counting)
        monkeypatch.setattr(cli, "_solve", counting)
        monkeypatch.chdir(tmp_path)  # -c names the file relative, the outputs absolute
        refs, cfg = tmp_path / "refs", tmp_path / "run.cfg"
        (tmp_path / "out").mkdir()
        text = {"solve": self.SOLVE, "superres": self.SWEEP}.get(command, SMALL_STUDY)
        text = text.format(cache=refs, missing=tmp_path) + keys.format(cfg=cfg)
        if command == "superres":
            text = text.replace(f"csv = {tmp_path}/sweep.csv\n", "")
        write_config(tmp_path, text)
        argv = [arg.format(tmp=tmp_path, cfg=cfg) for arg in outputs]
        assert main([command, "-c", "run.cfg", *argv]) == 1
        assert solves == []
        assert not refs.exists()
        assert cfg.read_text(encoding="utf-8") == text
        captured = capsys.readouterr()
        assert "cannot write" in captured.err and "the config file" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("command, outputs, keys", [
        ("converge-time", ["-o", "{dir}"], ""),
        ("converge-time", [], "[output]\ncsv = {dir}\n"),
        ("converge-time", ["-o", "{tmp}/t.csv", "--gnuplot", "{dir}"], ""),
        ("solve", ["--state-out", "{dir}"], ""),
        ("converge-time", ["-o", "{file}", "--gnuplot", "{dir}/../kept.txt"], ""),
        ("solve", ["-o", "{file}", "--state-out", "{file}"], ""),
    ], ids=["csv-flag-is-dir", "csv-key-is-dir", "gnuplot-is-dir", "state-is-dir",
            "csv-is-gnuplot", "csv-is-state"])
    def test_unwritable_output_fails_before_any_solve(
        self, command, outputs, keys, capsys, tmp_path, monkeypatch
    ):
        solves = []
        original = harness._solve

        def counting(*args):
            solves.append(args)
            return original(*args)

        monkeypatch.setattr(harness, "_solve", counting)
        monkeypatch.setattr(cli, "_solve", counting)
        refs, directory, kept = tmp_path / "refs", tmp_path / "outdir", tmp_path / "kept.txt"
        directory.mkdir()
        kept.write_text("keep\n", encoding="utf-8")
        names = {"tmp": tmp_path, "dir": directory, "file": kept}
        text = self.SOLVE if command == "solve" else SMALL_STUDY.format(cache=refs)
        cfg = write_config(tmp_path, text + keys.format(**names))
        before = sorted(tmp_path.rglob("*"))
        argv = [arg.format(**names) for arg in outputs]
        assert main([command, "-c", str(cfg), *argv]) == 1
        assert solves == []
        assert sorted(tmp_path.rglob("*")) == before  # no cache dir, no new file
        assert kept.read_text(encoding="utf-8") == "keep\n"
        captured = capsys.readouterr()
        assert "cannot write" in captured.err
        assert captured.out == ""


class TestCliStudies:
    def test_converge_time_csv(self, capsys, tmp_path):
        cfg = write_config(tmp_path, SMALL_STUDY.format(cache=tmp_path / "refs"))
        assert main(["converge-time", "-c", str(cfg)]) == 0
        out = capsys.readouterr().out
        lines = out.splitlines()
        header = [line for line in lines if not line.startswith("#")]
        assert header[0] == ",".join(CSV_COLUMNS)
        rows = [line.split(",") for line in header[1:]]
        assert len(rows) == 3
        assert all(len(row) == len(CSV_COLUMNS) for row in rows)
        assert rows[0][-1] == ""  # no rate for the first rung
        assert 1.5 < float(rows[1][-1]) < 2.5
        taus = [float(row[2]) for row in rows]
        assert taus == sorted(taus, reverse=True)
        fitted = [line for line in lines if line.startswith("# fitted-order")]
        assert len(fitted) == 3
        order = float(fitted[0].split(":")[1].split("(")[0])
        assert 1.6 < order < 2.4

    def test_metadata_echo_parses_back(self, capsys, tmp_path):
        text = SMALL_STUDY.format(cache=tmp_path / "refs")
        cfg = write_config(tmp_path, text)
        assert main(["converge-time", "-c", str(cfg)]) == 0
        out = capsys.readouterr().out
        echoed = "\n".join(
            line[4:] for line in out.splitlines() if line.startswith("#   ")
        )
        assert parse_config(echoed) == parse_config(text)

    def test_output_file_and_gnuplot(self, capsys, tmp_path):
        cfg = write_config(tmp_path, SMALL_STUDY.format(cache=tmp_path / "refs"))
        csv = tmp_path / "study.csv"
        script = tmp_path / "study.gp"
        code = main([
            "converge-time", "-c", str(cfg),
            "-o", str(csv), "--gnuplot", str(script),
        ])
        assert code == 0
        assert capsys.readouterr().out == ""  # data went to the file
        assert ",".join(CSV_COLUMNS) in csv.read_text()
        plot = script.read_text()
        assert "set logscale xy" in plot
        assert f"'{csv}' using 3:6" in plot
        assert "g6(x)" in plot

    def test_gnuplot_requires_output_and_fails_fast(self, capsys, tmp_path):
        cfg = write_config(tmp_path, SMALL_STUDY.format(cache=tmp_path / "refs"))
        code = main(["converge-time", "-c", str(cfg), "--gnuplot", str(tmp_path / "p.gp")])
        assert code == 1
        captured = capsys.readouterr()
        assert "--gnuplot requires --output" in captured.err
        assert captured.out == ""  # rejected before any rows were computed

    def test_saturated_study_exits_2(self, capsys, tmp_path):
        text = (
            "[model]\nM = 32\n"
            "[potential]\nkind = zero\n"
            f"[run]\nscheme = S2\nt_final = 0.5\ncache_dir = {tmp_path / 'refs'}\n"
            "[study]\ntaus = 0.1, 0.05, 0.025\nreference_tau = 0.003125\n"
        )
        cfg = write_config(tmp_path, text)
        assert main(["converge-time", "-c", str(cfg)]) == 2
        captured = capsys.readouterr()
        assert "saturated" in captured.err
        assert "# fitted-order e_phi: saturated" in captured.out

    def test_converge_space_csv(self, capsys, tmp_path):
        text = (
            "[model]\na = -8\nb = 8\nM = 64\n"
            f"[run]\nscheme = S2\nt_final = 0.25\ncache_dir = {tmp_path / 'refs'}\n"
            "[space]\nh_list = 1, 0.5\nreference_h = 0.25\ntau = 0.05\n"
        )
        cfg = write_config(tmp_path, text)
        csv = tmp_path / "space.csv"
        script = tmp_path / "space.gp"
        code = main([
            "converge-space", "-c", str(cfg), "-o", str(csv), "--gnuplot", str(script),
        ])
        assert code == 0
        rows = [
            line.split(",")
            for line in csv.read_text().splitlines()
            if line and not line.startswith("#") and not line.startswith("scheme")
        ]
        assert len(rows) == 2
        assert [float(r[1]) for r in rows] == [1.0, 0.5]
        assert rows[0][-1] == ""
        assert float(rows[1][-1]) > 5.0  # successive error drop, not an order
        assert "using 2:6" in script.read_text()

    def test_superres_matrix_block(self, capsys, tmp_path):
        text = (
            "[model]\nM = 32\n"
            f"[run]\nscheme = S2\ncache_dir = {tmp_path / 'refs'}\n"
            "[sweep]\nmode = nonresonant\ntau0 = 1/4\nfactor = 2\ncount = 3\n"
            "epsilons = 1, 1/2\nreference_tau = 1/256\nt = 1\n"
        )
        cfg = write_config(tmp_path, text)
        assert main(["superres", "-c", str(cfg)]) == 0
        out = capsys.readouterr().out
        lines = out.splitlines()
        rows = [line for line in lines if line and not line.startswith("#")
                and not line.startswith("scheme")]
        assert len(rows) == 8  # nonresonant: every (eps, tau) cell runs
        matrix = [line for line in lines if line.startswith("# eps=")]
        assert len(matrix) == 2
        assert not any("." in line.split(":")[1].split() for line in matrix)
        rates = next(line for line in lines if line.startswith("# rates: "))
        parts = rates.split(": ")[1].split()
        assert parts[0] == "-"
        assert len(parts) == 4
        assert all(math.isfinite(float(p)) for p in parts[1:])

    def test_superres_gnuplot_plots_one_series_per_epsilon(self, capsys, tmp_path):
        text = (
            "[model]\nM = 32\n"
            f"[run]\nscheme = S2\ncache_dir = {tmp_path / 'refs'}\n"
            "[sweep]\nmode = nonresonant\ntau0 = 1/4\nfactor = 2\ncount = 3\n"
            "epsilons = 1, 1/2\nreference_tau = 1/256\nt = 1\n"
        )
        cfg = write_config(tmp_path, text)
        csv = tmp_path / "sweep.csv"
        script = tmp_path / "sweep.gp"
        assert main(["superres", "-c", str(cfg), "-o", str(csv), "--gnuplot", str(script)]) == 0
        rows = [line.split(",") for line in csv.read_text().splitlines()
                if line and not line.startswith("#") and not line.startswith("scheme")]
        plot = script.read_text()
        assert "e_rho" not in plot and "e_J" not in plot
        series = [line for line in plot.splitlines() if "with linespoints" in line]
        assert len(series) == 2
        for line, eps in zip(series, ("1", "0.5")):
            assert f"using 3:($4 == {eps} ? $6 : 1/0)" in line
            assert f"title 'e_phi eps={eps}'" in line
            # the rows a series selects walk the tau ladder once, in order
            taus = [float(r[2]) for r in rows if float(r[3]) == float(eps)]
            assert len(taus) == 4 and taus == sorted(taus, reverse=True)
        assert "g6(x) with lines dashtype 2 title 'order 6'" in plot

    def test_study_gnuplot_scripts_are_unchanged(self):
        guides = (
            "     g2(x) with lines dashtype 2 title 'order 2', \\\n"
            "     g4(x) with lines dashtype 2 title 'order 4', \\\n"
            "     g6(x) with lines dashtype 2 title 'order 6'\n"
        )
        header = (
            "# gnuplot >= 5\n"
            "set datafile separator ','\n"
            "set datafile commentschars '#'\n"
            "set logscale xy\n"
        )
        converge_time = header + (
            "set xlabel 'tau'\n"
            "set ylabel 'discrete l2 error'\n"
            "set key left top\n"
            "g2(x) = 0.0025000000000000001 * (x/0.10000000000000001)**2\n"
            "g4(x) = 0.0025000000000000001 * (x/0.10000000000000001)**4\n"
            "g6(x) = 0.0025000000000000001 * (x/0.10000000000000001)**6\n"
            "plot 't.csv' using 3:6 with linespoints title 'e_phi', \\\n"
            "     't.csv' using 3:7 with linespoints title 'e_rho', \\\n"
            "     't.csv' using 3:8 with linespoints title 'e_J', \\\n"
        ) + guides
        converge_space = header + (
            "set xlabel 'h'\n"
            "set ylabel 'discrete l2 error'\n"
            "set key left top\n"
            "g2(x) = 1e-300 * (x/1)**2\n"
            "g4(x) = 1e-300 * (x/1)**4\n"
            "g6(x) = 1e-300 * (x/1)**6\n"
            "plot 's.csv' using 2:6 with linespoints title 'e_phi', \\\n"
            "     's.csv' using 2:7 with linespoints title 'e_rho', \\\n"
            "     's.csv' using 2:8 with linespoints title 'e_J', \\\n"
        ) + guides
        assert _gnuplot_script("t.csv", "tau", 3, (0.1, 0.0025)) == converge_time
        assert _gnuplot_script("s.csv", "h", 2, (1.0, 0.0)) == converge_space

    def test_workers_override_is_deterministic(self, tmp_path, capsys):
        cfg = write_config(tmp_path, SMALL_STUDY.format(cache=tmp_path / "refs"))
        assert main(["converge-time", "-c", str(cfg), "--workers", "2"]) == 0
        threaded = capsys.readouterr().out
        assert main(["converge-time", "-c", str(cfg)]) == 0
        serial = capsys.readouterr().out

        def data(text: str) -> list[str]:
            # drop the wall-time column; it is the one nondeterministic field
            rows = [line for line in text.splitlines()
                    if line and not line.startswith("#")]
            return [",".join(r.split(",")[:9]) for r in rows]

        assert data(threaded) == data(serial)
