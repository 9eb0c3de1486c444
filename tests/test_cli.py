import csv
import json
import math
import os
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from trigroots import cli
from trigroots.cganalytic import compute_cg
from trigroots.charprobe import small_ball_mc
from trigroots.cli import main
from trigroots.diophantine import good_t
from trigroots.ensemble import gaussian, rademacher, sample
from trigroots.diophantine import build_D
from trigroots.mcstats import TABLE_COLUMNS, run_experiment, slope_rows, slope_series
from trigroots.rootcount import count_roots


def run_cli(args):
    return main(args)


def csv_rows(path):
    """The rows of a CSV artifact, its ``#`` header line skipped."""
    return list(csv.DictReader(l for l in path.read_text().splitlines()
                               if not l.startswith("#")))


class TestCg:
    def test_value_and_metadata(self, tmp_path, capsys):
        out = tmp_path / "cg.json"
        assert run_cli(["cg", "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert abs(payload["value"] - 0.55826) < 5e-4
        assert payload["meta"]["build"].startswith("trigroots-")
        assert len(payload["meta"]["config_hash"]) == 16

    def test_fields_and_defaults(self, capsys):
        """The command prints what the one ``compute_cg()`` call returns."""
        assert run_cli(["cg"]) == 0
        payload = json.loads(capsys.readouterr().out)
        res = compute_cg()
        assert sorted(payload) == ["error_estimate", "evaluations", "integral", "meta",
                                   "tail", "value"]
        assert (payload["value"], payload["evaluations"]) == (res.value, res.evaluations)


class TestSimulate:
    def test_degree_one_rademacher(self, tmp_path):
        out = tmp_path / "rec.json"
        code = run_cli(["simulate", "--dist", "rademacher", "--n", "1",
                        "--trials", "100", "--out", str(out)])
        assert code == 0
        rec = json.loads(out.read_text())["record"]
        assert rec["estimate"]["mean"] == 2.0
        assert rec["estimate"]["variance"] == 0.0

    def test_invalid_distribution_is_usage_error(self, capsys):
        assert run_cli(["simulate", "--dist", "lorentz", "--n", "4",
                        "--trials", "10"]) == 2
        err = capsys.readouterr().err
        assert json.loads(err.strip())["command"] == "simulate"


class TestSweep:
    def test_rows_and_ordering(self, tmp_path):
        out = tmp_path / "sweep.csv"
        code = run_cli(["sweep", "--dist", "gaussian", "rademacher",
                        "--n", "24", "48", "--trials", "400",
                        "--out", str(out)])
        assert code == 0
        lines = [l for l in out.read_text().splitlines() if l and not l.startswith("#")]
        header, rows = lines[0].split(","), lines[1:]
        assert len(rows) == 4
        table = {}
        for row in rows:
            d = dict(zip(header, row.split(",")))
            table[(d["dist"], int(d["n"]))] = float(d["var_over_n"])
        for n in (24, 48):
            assert table[("gaussian", n)] > table[("rademacher", n)]

    def test_config_file_merge(self, tmp_path):
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({"trials": 120, "dist": ["gaussian"]}))
        out = tmp_path / "s.csv"
        code = run_cli(["sweep", "--config", str(cfgfile), "--n", "16",
                        "--out", str(out)])
        assert code == 0
        body = [l for l in out.read_text().splitlines() if not l.startswith("#")]
        assert len(body) == 2  # header + one row

    def test_header_is_the_table_columns(self, tmp_path):
        out = tmp_path / "s.csv"
        assert run_cli(["sweep", "--dist", "gaussian", "--n", "8",
                        "--trials", "20", "--out", str(out)]) == 0
        header = [l for l in out.read_text().splitlines() if not l.startswith("#")][0]
        assert header == ("dist,n,trials,flagged_trial_count,unreliable,"
                          "mean,se_mean,variance,se_variance,var_over_n,se,var_over_n2")

    def test_var_over_n2(self, tmp_path):
        out = tmp_path / "scale.csv"
        assert run_cli(["sweep", "--dist", "rademacher", "--n", "16", "32",
                        "--trials", "200", "--out", str(out)]) == 0
        rows = csv_rows(out)
        assert [int(r["n"]) for r in rows] == [16, 32]
        for r in rows:
            assert float(r["var_over_n2"]) == float(r["variance"]) / int(r["n"])**2

    def test_row_carries_window_and_flags(self, tmp_path):
        # seed 3 flags 11 of these trials, which the row must show; the one
        # window is not a column
        out = tmp_path / "flags.csv"
        assert run_cli(["sweep", "--dist", "rademacher", "--n", "16",
                        "--trials", "2000", "--seed", "3", "--out", str(out)]) == 0
        (row,) = csv_rows(out)
        rec = run_experiment(rademacher(), 16, 2000, 3)
        assert rec.flagged_trial_count == 11
        assert "window" not in row
        assert int(row["flagged_trial_count"]) == rec.flagged_trial_count
        assert row["unreliable"] == str(rec.unreliable)

    def test_discrete_label_is_one_cell(self, tmp_path):
        """A discrete law's label holds commas; the row quotes it, so it reads
        back as the header's twelve cells."""
        law = "discrete:-2:0.125,0:0.75,2:0.125"
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({"dist": [law], "n": [4], "trials": 20}))
        out = tmp_path / "s.csv"
        assert run_cli(["sweep", "--config", str(cfgfile), "--out", str(out)]) == 0
        header, row = csv.reader(out.read_text().splitlines()[1:])
        assert len(header) == len(row) == 12
        assert row[0] == "discrete:-2.0:0.125,0.0:0.75,2.0:0.125"

    def test_plain_cells_are_not_quoted(self, tmp_path):
        """Cells without a comma are written as before: str of each value,
        a float's shortest repr, no quotes."""
        out = tmp_path / "s.csv"
        assert run_cli(["sweep", "--dist", "gaussian", "--n", "8", "16", "--trials", "50",
                        "--seed", "4", "--out", str(out)]) == 0
        rows = slope_rows(slope_series(gaussian(), [8, 16], 50, 4))
        assert out.read_text().splitlines()[2:] == [
            ",".join(str(r[c]) for c in TABLE_COLUMNS) for r in rows]


class TestConfig:
    def test_equals_form_flags_win_over_config(self, tmp_path):
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({"n": 8, "trials": 10}))
        out = tmp_path / "kr.json"
        code = run_cli(["kacrice-audit", "--config", str(cfgfile), "--n=16",
                        "--trials=3", "--out", str(out)])
        assert code == 0
        assert json.loads(out.read_text())["trials"] == 3
        out = tmp_path / "rec.json"
        assert run_cli(["simulate", "--config", str(cfgfile), "--n=16",
                        "--out", str(out)]) == 0
        rec = json.loads(out.read_text())["record"]
        assert (rec["n"], rec["trials"]) == (16, 10)

    @pytest.mark.parametrize("command, lists, flags", [
        ("sweep", {"dist": ["gaussian", "rademacher"], "n": [8, 16]},
         ["--dist", "gaussian", "rademacher", "--n", "8", "16"]),
        ("sweep", {"n": [8, 16]}, ["--n", "8", "16"]),
        ("conditions", {"n": [100, 200]}, ["--n", "100", "200"]),
        ("verify", {"only": [8, 11]}, ["--only", "8", "11"]),
        # a discrete law's label holds commas, and is one item of the list
        ("sweep", {"dist": ["gaussian", "discrete:-2:0.125,0:0.75,2:0.125"], "n": [16]},
         ["--dist", "gaussian", "discrete:-2:0.125,0:0.75,2:0.125", "--n", "16"]),
    ])
    def test_json_lists_read_as_comma_strings(self, tmp_path, command, lists, flags):
        """A list flag reads the same from a JSON list in ``--config`` as
        from its space-separated values: the same bytes, config hash included."""
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps(lists))
        trials = ["--trials", "20"] if command == "sweep" else []
        outputs = []
        for args in (["--config", str(cfgfile)], flags):
            out = tmp_path / "out.txt"
            assert run_cli([command, *args, *trials, "--out", str(out)]) == 0
            outputs.append(out.read_text())
        assert outputs[0] == outputs[1] and outputs[0].count("\n") >= 3  # a header and two rows

    def test_config_values_read_as_their_flags(self, tmp_path):
        """An int for a float flag and a JSON list for a two-value flag are
        converted as argparse converts the flags: same output, same hash."""
        cfgfile = tmp_path / "cfg.json"
        for values, flags, key in [
                ({"pair": [500, 500], "t": 1571}, ["--pair", "500", "500", "--t", "1571"],
                 '"pair"'),
                ({"eps": 2}, ["--eps", "2"], "1000,2.0,0.05,")]:
            cfgfile.write_text(json.dumps(values))
            outputs = []
            for args in (["--config", str(cfgfile)], flags):
                out = tmp_path / "out.txt"
                assert run_cli(["conditions", "--n", "1000", *args, "--out", str(out)]) == 0
                outputs.append(out.read_text())
            assert outputs[0] == outputs[1] and key in outputs[0]

    def test_abbreviated_flag_is_refused(self, tmp_path, capsys):
        """Flags are matched in full, since a prefix would change meaning
        when a flag is added; the refusal is the one JSON error line of any
        bad input."""
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({"trials": 7}))
        assert run_cli(["simulate", "--config", str(cfgfile), "--n", "4", "--tri", "5"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert json.loads(captured.err) == {"error": "unrecognized arguments: --tri 5",
                                            "command": "simulate"}


class TestConditions:
    def test_point_and_pair(self, tmp_path):
        out = tmp_path / "cond.json"
        n = 1000
        code = run_cli(["conditions", "--n", str(n),
                        "--t", str(math.pi * n / 2),
                        "--pair", "500.0", "500.0", "--out", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["pair"]["satisfied"] is False
        for report in (payload["point"], payload["pair"]):
            assert set(report) == {"satisfied", "witness", "tau", "threshold", "l_max"}

    def test_region_summary(self, tmp_path):
        """Without --t and --pair, one CSV row a region, ``build_D``'s counts."""
        out = tmp_path / "region.csv"
        assert run_cli(["conditions", "--n", "100", "200", "--eps", "1.0",
                        "--out", str(out)]) == 0
        rows = csv_rows(out)
        assert [int(r["n"]) for r in rows] == [100, 200]
        for r in rows:
            D = build_D(int(r["n"]), 1.0, 0.05)
            assert (int(r["intervals"]), int(r["bad_pairs"]), float(r["bad_fraction"])) == (
                D.interval_count, D.bad_pairs, D.bad_fraction)
            assert 0 < D.bad_fraction < 1 and (r["eps"], r["tau"]) == ("1.0", "0.05")


class TestDependencies:
    def test_runtime_loads_no_scipy(self):
        # a fresh interpreter: this one has scipy loaded by the test oracles
        src = str(Path(cli.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        code = ("import sys, trigroots.cli; "
                "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, check=True, env={**os.environ, "PYTHONPATH": path})
        assert proc.stdout.strip() == "[]"


class TestOtherCommands:
    def test_kacrice_audit(self, tmp_path):
        out = tmp_path / "kr.json"
        code = run_cli(["kacrice-audit", "--dist", "gaussian", "--n", "16",
                        "--trials", "20", "--out", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["agree"] >= 19

    def test_kacrice_audit_names_its_law_and_degree(self, capsys):
        """The audit's record names its law and n, as ``simulate``'s does: two
        audits of other laws and degrees differ in these fields alone."""
        records = []
        for args in (["--n", "4"], ["--n", "64", "--dist", "rademacher"]):
            assert run_cli(["kacrice-audit", *args, "--trials", "2"]) == 0
            records.append(json.loads(capsys.readouterr().out))
            del records[-1]["meta"]
        assert {k for k in records[0] if records[0][k] != records[1][k]} == {"distribution", "n"}
        assert [(r["distribution"], r["n"]) for r in records] == [("gaussian", 4),
                                                                 ("rademacher", 64)]

    def test_kacrice_audit_roots_csv_is_the_count(self, tmp_path):
        # the CSV comes from the roots count_kacrice refined, which are
        # those of a separate count_roots call on the same sample
        roots = tmp_path / "roots.csv"
        assert run_cli(["kacrice-audit", "--n", "16", "--trials", "4",
                        "--seed", "5", "--roots-csv", str(roots)]) == 0
        lines = [l for l in roots.read_text().splitlines() if not l.startswith("#")]
        rows = list(csv.DictReader(lines))
        expected = []
        for trial in range(4):
            r = count_roots(sample(gaussian(), 16, 5, trial))
            assert len(r.roots) == len(r.residuals) == r.count
            expected.extend((trial, float(t), float(e)) for t, e in zip(r.roots, r.residuals))
        assert [(int(r["trial_index"]), float(r["root"]), float(r["residual"]))
                for r in rows] == expected

    def test_charfn_scan(self, tmp_path):
        out = tmp_path / "decay.csv"
        assert run_cli(["charfn", "--dist", "rademacher", "--n", "100",
                        "--radii", "4", "--directions", "8",
                        "--out", str(out)]) == 0
        body = [l for l in out.read_text().splitlines() if not l.startswith("#")]
        assert len(body) == 5

    def test_smallball_scan(self, tmp_path):
        """Nine centers (a, 0), a in [-1, 1], each ``small_ball_mc``'s estimate."""
        out = tmp_path / "sb.csv"
        assert run_cli(["smallball", "--dist", "gaussian", "--n", "50",
                        "--delta", "0.2", "--trials", "5000", "--out", str(out)]) == 0
        rows = csv_rows(out)
        assert [float(r["center"]) for r in rows] == np.linspace(-1.0, 1.0, 9).tolist()
        t = good_t(50)
        for r in rows:
            est = small_ball_mc(50, t, gaussian(), np.array([float(r["center"]), 0.0]),
                                0.2, 5000, 2026, force=True)
            assert (float(r["probability"]), float(r["se"])) == (est.probability, est.se)
            assert float(r["p_over_delta2"]) == est.probability / 0.2**2


class TestErrors:
    """Bad input ends in one JSON error line on stderr and exit code 2."""

    @staticmethod
    def _error(capsys, command):
        err = json.loads(capsys.readouterr().err.strip())
        assert err["command"] == command
        return err["error"]

    @pytest.mark.parametrize("argv, command, message", [
        (["simulate", "--n", "abc"], "simulate", "argument --n: invalid int value: 'abc'"),
        (["nosuch"], None, "argument command: invalid choice: 'nosuch'"),
        ([], None, "the following arguments are required: command"),
        # the series switch is a module constant, not an option
        (["cg", "--t0", "0.1"], "cg", "unrecognized arguments: --t0 0.1"),
        # list values are space-separated; a comma string is one bad item
        (["sweep", "--n", "64,128,256"], "sweep",
         "argument --n: invalid int value: '64,128,256'"),
    ], ids=["bad-int", "unknown-command", "no-command", "cg-t0", "comma-list"])
    def test_usage_error_is_a_json_line(self, capsys, argv, command, message):
        assert run_cli(argv) == 2
        assert self._error(capsys, command).startswith(message)

    def test_help_still_exits_0(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli(["simulate", "--help"])
        assert exc.value.code == 0
        assert "--trials" in capsys.readouterr().out

    @pytest.mark.parametrize("delta", ["nan", "inf", "0"])
    def test_kacrice_audit_bad_delta(self, capsys, delta):
        assert run_cli(["kacrice-audit", "--n", "8", "--trials", "2",
                        "--delta", delta]) == 2
        assert "delta" in self._error(capsys, "kacrice-audit")

    def test_kacrice_audit_bad_delta_without_trials(self, capsys):
        assert run_cli(["kacrice-audit", "--trials", "0", "--delta", "nan"]) == 2
        assert "delta" in self._error(capsys, "kacrice-audit")

    @pytest.mark.parametrize("trials", ["0", "-3"])
    def test_kacrice_audit_needs_a_trial(self, capsys, trials):
        assert run_cli(["kacrice-audit", "--trials", trials]) == 2
        assert "trials" in self._error(capsys, "kacrice-audit")

    @pytest.mark.parametrize("args", [["--trials", "0"], ["--trials", "-5"]],
                             ids=["zero", "negative"])
    def test_smallball_needs_a_trial(self, capsys, args):
        assert run_cli(["smallball"] + args) == 2
        assert "trials must be >= 1" in self._error(capsys, "smallball")

    @pytest.mark.parametrize("command", ["conditions", "charfn", "smallball"])
    def test_degree_zero(self, capsys, command):
        assert run_cli([command, "--n", "0"]) == 2
        assert "n must be >= 1" in self._error(capsys, command)

    @pytest.mark.parametrize("flag, name", [("--radii", "radii_count"),
                                            ("--directions", "directions_per_radius")],
                             ids=["--radii", "--directions"])
    def test_charfn_needs_a_radius_and_a_direction(self, capsys, flag, name):
        assert run_cli(["charfn", "--n", "50", flag, "0"]) == 2
        assert f"{name} must be >= 1, got 0" in self._error(capsys, "charfn")

    @pytest.mark.parametrize("cstar, message", [
        ("nan", "c_star must be finite, got nan"),
        ("inf", "c_star must be finite, got inf"),
    ], ids=["nan", "inf"])
    def test_charfn_non_finite_c_star(self, capsys, cstar, message):
        assert run_cli(["charfn", "--n", "50", "--cstar", cstar]) == 2
        assert message in self._error(capsys, "charfn")

    def test_charfn_radius_bound_overflow(self, capsys):
        assert run_cli(["charfn", "--n", "500", "--cstar", "1000"]) == 2
        assert "c_star = 1000.0 puts the radius bound" in self._error(capsys, "charfn")

    def test_charfn_empty_window(self, capsys):
        assert run_cli(["charfn", "--n", "50", "--cstar", "-1"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and json.loads(err) == {
            "error": "c_star = -1.0 puts n^c_star = 0.02 below n^(5 tau - 1/2) = 0.37606 "
                     "for n = 50: the radius window is empty", "command": "charfn"}

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_simulate_negative_seed(self, capsys, threads):
        assert run_cli(["simulate", "--n", "8", "--trials", "300", "--seed", "-1",
                        "--threads", threads]) == 2
        assert ("seed must be >= 0, got -1"
                in self._error(capsys, "simulate"))

    @pytest.mark.parametrize("law", ["discrete:nan:1", "discrete:1:nan"],
                             ids=["value", "probability"])
    def test_non_finite_law(self, capsys, law):
        assert run_cli(["simulate", "--dist", law, "--n", "4", "--trials", "10"]) == 2
        assert "finite" in self._error(capsys, "simulate")

    def test_law_error_prints_plain_floats(self, capsys):
        assert run_cli(["simulate", "--dist", "discrete:1:0.5", "--n", "4",
                        "--trials", "10"]) == 2
        assert "sum to 0.5," in self._error(capsys, "simulate")

    @pytest.mark.parametrize("args", [
        ["charfn", "--n", "50", "--t", "nan"],
        ["charfn", "--n", "50", "--s", "inf"],
        ["smallball", "--n", "50", "--delta", "0.05", "--trials", "1000", "--t", "nan"],
        ["smallball", "--n", "50", "--delta", "0.05", "--trials", "1000", "--t", "inf"],
        ["conditions", "--n", "50", "--t", "nan"],
        ["conditions", "--n", "50", "--pair", "nan", "1.0"],
    ], ids=["charfn-t", "charfn-s", "smallball-2d-nan", "smallball-2d",
            "conditions-point", "conditions-pair"])
    def test_non_finite_point(self, capsys, args):
        assert run_cli(args) == 2
        error = self._error(capsys, args[0])
        assert "finite" in error and "np.float64" not in error

    @pytest.mark.parametrize("point", [["--t", "1.5"], ["--pair", "1.0", "2.0"]],
                             ids=["t", "pair"])
    def test_conditions_point_takes_one_n(self, capsys, monkeypatch, point):
        """A point or pair is checked at one n, so an n list is refused
        before anything is computed."""
        def computed(*args):
            raise AssertionError("computed before the refusal")
        for name in ("build_D", "check_condition_t", "check_condition_st"):
            monkeypatch.setattr(cli, name, computed)
        assert run_cli(["conditions", "--n", "100", "200", *point]) == 2
        out, err = capsys.readouterr()
        assert out == "" and json.loads(err) == {
            "error": "--t and --pair take one n, got 2: [100, 200]", "command": "conditions"}

    @pytest.mark.parametrize("point", [["--t", "1.5"], ["--pair", "1.0", "2.0"]],
                             ids=["t", "pair"])
    def test_conditions_point_takes_no_epsilon(self, tmp_path, capsys, point):
        """``--eps`` is the width of the bad-fraction CSV's intervals, which
        a point or pair check does not build, as a flag or a key."""
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({"eps": 1.0}))
        for args in (["--eps", "2"], ["--config", str(cfgfile)]):
            assert run_cli(["conditions", "--n", "100", *point, *args]) == 2
            out, err = capsys.readouterr()
            assert out == "" and json.loads(err) == {
                "error": "--eps sets the bad-fraction intervals; it takes no --t or --pair",
                "command": "conditions"}

    @pytest.mark.parametrize("eps", ["nan", "inf"])
    def test_conditions_non_finite_epsilon(self, capsys, eps):
        assert run_cli(["conditions", "--n", "50", "--eps", eps]) == 2
        assert (f"epsilon must be finite and > 0, got {eps}"
                in self._error(capsys, "conditions"))

    @pytest.mark.parametrize("args, message", [
        (["--n", "100", "--eps", "1e-300"], "epsilon 1e-300 at n = 100 gives 6.28e+302 intervals"),
        (["--n", "100", "--eps", "1e-13"], "epsilon 1e-13 at n = 100 gives 6.28e+15 intervals"),
        (["--n", "1" + "0" * 400, "--t", "1.5"], "int too large to convert to float"),
        (["--n", "1" + "0" * 400], "int too large to convert to float"),
    ], ids=["eps-1e-300", "eps-1e-13", "n-401-digits-point", "n-401-digits-csv"])
    def test_conditions_past_the_number_range(self, capsys, args, message):
        """Once a stack trace and exit 1 (an ``OverflowError``), or for
        1e-13 packed keys that wrap silently."""
        assert run_cli(["conditions", *args]) == 2
        out, err = capsys.readouterr()
        assert out == "" and len(err.splitlines()) == 1
        assert json.loads(err)["error"].startswith(message)

    @pytest.mark.parametrize("tol", ["nan", "-1", "0"])
    def test_cg_bad_tolerance(self, capsys, tol):
        """``compute_cg`` runs one fixed rule and takes no tolerance: once
        refused as a bad ``abs_tol``, now as an unknown flag."""
        assert run_cli(["cg", "--tol", tol]) == 2
        assert self._error(capsys, "cg") == f"unrecognized arguments: --tol {tol}"

    def test_cg_infinite_tail(self, capsys):
        # once accepted, then compute_cg failed in numpy with "Maximum
        # allowed size exceeded"; the tail start is now a module constant
        assert run_cli(["cg", "--tmax", "inf"]) == 2
        assert self._error(capsys, "cg") == "unrecognized arguments: --tmax inf"

    def test_cg_tail_start_short_of_the_series(self, capsys):
        """At tmax 10 the tail's own error estimate was 2.8e-2, once an exit
        0; a short tail start is now reachable only by moving the module
        constant (tests/test_cganalytic.py), never from the command line."""
        assert run_cli(["cg", "--tmax", "10"]) == 2
        assert self._error(capsys, "cg") == "unrecognized arguments: --tmax 10"

    def test_verify_refuses_a_bad_thread_count_up_front(self, capsys):
        """Criterion 1 runs no worker; the count is refused all the same."""
        assert run_cli(["verify", "--threads", "0", "--only", "1"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and json.loads(err) == {
            "error": "parallelism must be >= 1, got 0", "command": "verify"}

    @pytest.mark.parametrize("command", ["sweep"])
    def test_n_list_must_increase(self, tmp_path, capsys, command):
        out = tmp_path / "table.csv"
        assert run_cli([command, "--n", "128", "32", "--trials", "10",
                        "--out", str(out)]) == 2
        assert "strictly increasing" in self._error(capsys, command)
        assert not out.exists()

    def test_repeated_n_from_config_is_refused(self, tmp_path, capsys):
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({"n": [32, 32]}))
        assert run_cli(["sweep", "--config", str(cfgfile), "--trials", "10"]) == 2
        assert "strictly increasing" in self._error(capsys, "sweep")

    @pytest.mark.parametrize("only", ["99", "7,0,14"])
    def test_verify_unknown_criterion(self, capsys, only):
        assert run_cli(["verify", "--only", *only.split(",")]) == 2
        unknown = sorted(int(x) for x in only.split(",") if x != "7")
        assert (f"unknown criterion ids {unknown}: criteria are 1-13"
                in self._error(capsys, "verify"))

    @pytest.mark.parametrize("command, flag, value", [
        ("sweep", "--n", "8,abc"), ("sweep", "--n", [8, "abc"]),
        ("sweep", "--dist", ["gaussian", 3]), ("sweep", "--n", "8,16.5"),
        ("sweep", "--n", [8, 16.5]), ("conditions", "--n", "100,1e3"),
        ("conditions", "--n", ["100"]), ("verify", "--only", "abc"),
        ("verify", "--only", [8.0]),
    ])
    def test_list_flag_error_names_the_flag(self, tmp_path, capsys, command, flag, value):
        """A bad item of a list flag, given as flag values (the comma-joined
        parameter split) or as a JSON list in ``--config``, is refused with
        the flag's name."""
        if isinstance(value, list):
            cfgfile = tmp_path / "cfg.json"
            cfgfile.write_text(json.dumps({flag[2:]: value}))
            assert run_cli([command, "--config", str(cfgfile)]) == 2
            assert self._error(capsys, command).startswith(
                f"--config value {json.dumps(value)} does not fit {flag}, "
                "which takes a JSON list of")
        else:
            assert run_cli([command, flag, *value.split(",")]) == 2
            assert self._error(capsys, command).startswith(f"argument {flag}: invalid")

    @pytest.mark.parametrize("message", ["Unable to allocate 4.57 TiB for an array", ""])
    def test_memory_error(self, capsys, monkeypatch, message):
        def refuse(*args):
            raise MemoryError(message)

        monkeypatch.setattr(cli, "build_D", refuse)
        assert run_cli(["conditions", "--n", "100", "--eps", "1e-9"]) == 2
        assert self._error(capsys, "conditions") == (message or "MemoryError")

    @pytest.mark.parametrize("threads", ["0", "-3"])
    def test_bad_thread_count(self, capsys, threads):
        assert run_cli(["simulate", "--n", "4", "--trials", "10",
                        "--threads", threads]) == 2
        assert "parallelism" in self._error(capsys, "simulate")

    def test_missing_config_file(self, tmp_path, capsys):
        missing = tmp_path / "absent.json"
        assert run_cli(["simulate", "--config", str(missing)]) == 2
        assert "absent.json" in self._error(capsys, "simulate")

    def test_malformed_config_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{trials: 10")
        assert run_cli(["simulate", "--config", str(bad)]) == 2
        self._error(capsys, "simulate")

    def test_config_that_is_not_an_object(self, tmp_path, capsys):
        bad = tmp_path / "list.json"
        bad.write_text("[1, 2]")
        assert run_cli(["simulate", "--config", str(bad)]) == 2
        assert "JSON object" in self._error(capsys, "simulate")

    @pytest.mark.parametrize("command, value, flag", [
        ("simulate", {"trials": "5"}, "--trials"), ("simulate", {"seed": True}, "--seed"),
        ("simulate", {"trials": True}, "--trials"), ("simulate", {"n": 2.5}, "--n"),
        ("simulate", {"dist": 1}, "--dist"), ("conditions", {"tau": "0.05"}, "--tau"),
        ("conditions", {"pair": [500.0]}, "--pair"),
        ("sweep", {"dist": "gaussian,rademacher"}, "--dist"),
        ("sweep", {"n": []}, "--n"),
    ], ids=["trials-str", "seed-bool", "trials-bool", "n-float", "dist-int", "tau-str",
            "pair-length", "list-comma-string", "list-empty"])
    def test_config_value_of_the_wrong_type(self, tmp_path, capsys, command, value, flag):
        """A ``--config`` value has the JSON type its flag's ``type`` reads;
        a bool is no number, and a multi-value flag takes a JSON list of as
        many values as its flag does, at least one."""
        bad = tmp_path / "typed.json"
        bad.write_text(json.dumps(value))
        assert run_cli([command, "--config", str(bad), "--trials", "2"]
                       if command != "conditions" else
                       [command, "--config", str(bad), "--n", "8"]) == 2
        assert f"does not fit {flag}, which takes" in self._error(capsys, command)

    @pytest.mark.parametrize("command", ["simulate", "sweep"])
    def test_window_is_refused(self, tmp_path, capsys, command):
        """The one window, one period, has no flag: ``--window`` is an
        unknown flag and a ``window`` key an unknown config key."""
        assert run_cli([command, "--trials", "2", "--window", "full"]) == 2
        assert self._error(capsys, command) == "unrecognized arguments: --window full"
        cfgfile = tmp_path / "window.json"
        cfgfile.write_text(json.dumps({"window": "full"}))
        assert run_cli([command, "--config", str(cfgfile), "--trials", "2"]) == 2
        assert "unknown keys ['window']" in self._error(capsys, command)

    @pytest.mark.parametrize("key", ["trails", "command", "config"])
    def test_config_key_that_is_not_a_flag(self, tmp_path, capsys, key):
        bad = tmp_path / "typo.json"
        bad.write_text(json.dumps({key: 5}))
        assert run_cli(["simulate", "--config", str(bad)]) == 2
        assert f"unknown keys ['{key}']" in self._error(capsys, "simulate")


class TestFlags:
    """Each command has the flags it reads and no other."""

    @staticmethod
    def _modes(tmp_path):
        """One small run per mode of each command."""
        return {
            "cg": [[]],
            "simulate": [["--n", "4", "--trials", "20"]],
            "sweep": [["--dist", "gaussian", "--n", "4", "--trials", "20"]],
            "kacrice-audit": [["--n", "4", "--trials", "2",
                               "--roots-csv", str(tmp_path / "roots.csv")]],
            "conditions": [["--n", "50", "--t", "1.5"], ["--n", "50", "--pair", "1.0", "2.0"],
                           ["--n", "50", "100", "--eps", "2", "--tau", "0.1"]],
            "charfn": [["--n", "20", "--radii", "2", "--directions", "2"]],
            "smallball": [["--n", "20", "--trials", "50"]],
            "verify": [["--only", "7"]],
        }

    @pytest.mark.parametrize("command", sorted(cli.build_parser().commands))
    def test_every_flag_is_read(self, tmp_path, monkeypatch, capsys, command):
        """Each mode's run reads every flag set on its command line, and each
        such flag that enters the results (all but ``cli._VOLATILE_KEYS``)
        changes the run's output when it is dropped: a value looked up and
        then thrown away is not read.  Across the modes every flag but
        ``--out`` and ``--config`` is read from the resolved configuration.
        The output is stdout and the CSV files written.  ``_meta`` reads
        every key for the hash, so it is stubbed; so is the suite, which
        reports the criteria it was asked for."""
        read = set()

        class Reads(dict):
            def __getitem__(self, key):
                read.add(key)
                return super().__getitem__(key)

            def get(self, key, default=None):
                read.add(key)
                return super().get(key, default)

        class Report:
            all_passed = True

            def __init__(self, only, **kwargs):
                self.only = only

            def to_json(self):
                return json.dumps({"only": sorted(self.only or ())})

        resolve = cli._resolve
        monkeypatch.setattr(cli, "_resolve", lambda parser, argv: Reads(resolve(parser, argv)))
        monkeypatch.setattr(cli, "_meta", lambda cfg: {"build": "b", "seed": None,
                                                       "config_hash": "h"})
        monkeypatch.setattr(cli.acceptance, "run_all", Report)
        actions = {a.option_strings[0]: a for a in cli.build_parser().commands[command]._actions
                   if a.option_strings and a.dest not in ("help", "out", "config")}

        def run(args):
            """The run's stdout and the CSV files it wrote."""
            read.clear()
            for f in tmp_path.glob("*.csv"):
                f.unlink()
            assert run_cli([command, *args]) == 0
            return [capsys.readouterr().out, *(f.read_text() for f in tmp_path.glob("*.csv"))]

        read_by_any = set()
        for args in self._modes(tmp_path)[command]:
            out, read_here = run(args), set(read)
            assert {actions[a].dest for a in args if a in actions} - read_here == set(), args
            read_by_any |= read_here
            for i, a in enumerate(args):
                if a in actions and actions[a].dest not in cli._VOLATILE_KEYS:
                    # the flag and its values, up to the next flag
                    end = next((j for j in range(i + 1, len(args)) if args[j] in actions),
                               len(args))
                    dropped = args[:i] + args[end:]
                    assert run(dropped) != out, (args, a)
        assert {a.dest for a in actions.values()} - read_by_any == set()

    @pytest.mark.parametrize("command, flag", [
        ("cg", "threads"), ("cg", "seed"), ("conditions", "seed"), ("conditions", "threads"),
        ("kacrice-audit", "threads"), ("charfn", "threads"), ("smallball", "threads"),
        ("conditions", "sweep"), ("cg", "tol"), ("cg", "tmax"),
    ])
    def test_unread_flag_is_refused(self, tmp_path, capsys, command, flag):
        """``--seed`` is a flag of the commands that draw and ``--threads`` of
        those that run worker processes; elsewhere each is unknown, as a
        flag and as a ``--config`` key.  So are ``conditions --sweep``, whose
        n list is ``--n``, and ``cg --tol`` and ``--tmax``: ``compute_cg``
        runs one fixed rule."""
        assert run_cli([command, f"--{flag}", "2"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and json.loads(err) == {
            "error": f"unrecognized arguments: --{flag} 2", "command": command}
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({flag: 2}))
        assert run_cli([command, "--config", str(cfgfile)]) == 2
        assert json.loads(capsys.readouterr().err)["error"] == (
            f"--config has unknown keys ['{flag}']: not flags of {command}")

    def test_environment_sets_no_thread_count(self, capsys, monkeypatch):
        """The thread count has one input, its flag or config key; the
        environment is not read."""
        monkeypatch.setenv("TRIGROOTS_THREADS", "abc")
        assert run_cli(["conditions", "--n", "100", "--t", "1.5"]) == 0
        assert json.loads(capsys.readouterr().out)["meta"]["seed"] is None
        assert run_cli(["simulate", "--n", "4", "--trials", "10"]) == 0


class TestCsv:
    @pytest.mark.parametrize("args", [
        ["sweep", "--dist", "gaussian", "--n", "4", "--trials", "20"],
        ["conditions", "--n", "50", "100"],
        ["charfn", "--n", "20", "--radii", "2", "--directions", "2"],
        ["smallball", "--n", "20", "--trials", "50"],
    ], ids=lambda args: args[0])
    def test_header_is_the_help_columns(self, tmp_path, args):
        out = tmp_path / "table.csv"
        assert run_cli([*args, "--out", str(out)]) == 0
        header = out.read_text().splitlines()[1]
        epilog = cli.build_parser().commands[args[0]].epilog
        assert epilog.endswith("CSV columns: " + header.replace(",", ", "))

    def test_rootless_audit_still_writes_its_csv(self, tmp_path):
        """A sample of this law at n = 1 has no roots (seed 1); the roots CSV
        is then its ``#`` line and its header, in place of a stale file."""
        roots = tmp_path / "roots.csv"
        roots.write_text("stale\n")
        assert run_cli(["kacrice-audit", "--dist", "discrete:-2:0.125,0:0.75,2:0.125",
                        "--n", "1", "--trials", "1", "--seed", "1",
                        "--roots-csv", str(roots)]) == 0
        lines = roots.read_text().splitlines()
        assert len(lines) == 2 and lines[0].startswith("# build=trigroots-")
        epilog = cli.build_parser().commands["kacrice-audit"].epilog
        assert epilog == "roots CSV columns: " + lines[1].replace(",", ", ")


class TestVerify:
    def test_subset_deterministic_reruns(self, tmp_path):
        out1 = tmp_path / "r1.json"
        out2 = tmp_path / "r2.json"
        args = ["verify", "--only", "7", "11", "--seed", "99"]
        assert run_cli(args + ["--out", str(out1)]) == 0
        assert run_cli(args + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        payload = json.loads(out1.read_text())
        assert payload["all_passed"] is True
        assert {c["cid"] for c in payload["criteria"]} == {7, 11}
        assert payload["meta"]["build"].startswith("trigroots-")

    def test_report_bytes_independent_of_threads(self, tmp_path):
        out1 = tmp_path / "t1.json"
        out8 = tmp_path / "t8.json"
        base = ["verify", "--only", "13", "--seed", "7"]
        assert run_cli(base + ["--threads", "1", "--out", str(out1)]) == 0
        assert run_cli(base + ["--threads", "8", "--out", str(out8)]) == 0
        assert out1.read_bytes() == out8.read_bytes()


class TestReadme:
    @staticmethod
    def _commands():
        """The ``trigroots`` lines of README's "Command line" block, with
        continuations joined and comments dropped."""
        text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        block = text.split("## Command line", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
        lines = block.replace("\\\n", " ").splitlines()
        return [shlex.split(l, comments=True)[1:] for l in lines
                if l.strip().startswith("trigroots ")]

    def test_every_example_parses(self):
        commands = self._commands()
        assert len(commands) >= 10
        parser = cli.build_parser()
        for argv in commands:
            assert parser.parse_args(argv).command == argv[0]


class TestChanges:
    def test_every_benchmark_record_is_named(self):
        """Each ``BENCH_*.json`` at the repo root is named in CHANGES.md, so
        no measurement lands without the entry that reads it."""
        root = Path(__file__).resolve().parents[1]
        changes = (root / "CHANGES.md").read_text()
        records = sorted(p.name for p in root.glob("BENCH_*.json"))
        assert len(records) >= 29
        assert [r for r in records if r not in changes] == []
