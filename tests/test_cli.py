import json
import math

import pytest

from trigroots.cli import main


def run_cli(args):
    return main(args)


class TestCg:
    def test_value_and_metadata(self, tmp_path, capsys):
        out = tmp_path / "cg.json"
        assert run_cli(["cg", "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert abs(payload["value"] - 0.55826) < 5e-4
        assert payload["meta"]["build"].startswith("trigroots-")
        assert len(payload["meta"]["config_hash"]) == 16


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
        svg = tmp_path / "sweep.svg"
        code = run_cli(["sweep", "--dist", "gaussian,rademacher",
                        "--n", "24,48", "--trials", "400",
                        "--out", str(out), "--svg", str(svg)])
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
        assert svg.read_text().startswith("<svg")

    def test_config_file_merge(self, tmp_path):
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({"trials": 120, "dist": "gaussian"}))
        out = tmp_path / "s.csv"
        code = run_cli(["sweep", "--config", str(cfgfile), "--n", "16",
                        "--out", str(out)])
        assert code == 0
        body = [l for l in out.read_text().splitlines() if not l.startswith("#")]
        assert len(body) == 2  # header + one row


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

    def test_region_summary(self, tmp_path):
        out = tmp_path / "region.json"
        assert run_cli(["conditions", "--n", "100", "--eps", "1.0",
                        "--out", str(out)]) == 0
        region = json.loads(out.read_text())["region"]
        assert 0 < region["bad_fraction"] < 1


class TestOtherCommands:
    def test_scaling(self, tmp_path):
        out = tmp_path / "scale.csv"
        assert run_cli(["scaling", "--dist", "rademacher", "--n", "16,32",
                        "--trials", "200", "--out", str(out)]) == 0
        body = [l for l in out.read_text().splitlines() if not l.startswith("#")]
        assert len(body) == 3

    def test_kacrice_audit(self, tmp_path):
        out = tmp_path / "kr.json"
        code = run_cli(["kacrice-audit", "--dist", "gaussian", "--n", "16",
                        "--trials", "20", "--out", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["agree"] >= 19

    def test_charfn_scan(self, tmp_path):
        out = tmp_path / "decay.csv"
        assert run_cli(["charfn", "--dist", "rademacher", "--n", "100",
                        "--radii", "4", "--directions", "8",
                        "--out", str(out)]) == 0
        body = [l for l in out.read_text().splitlines() if not l.startswith("#")]
        assert len(body) == 5

    def test_smallball_1d(self, tmp_path):
        out = tmp_path / "sb.csv"
        assert run_cli(["smallball", "--dist", "gaussian", "--n", "50",
                        "--delta", "0.2", "--trials", "5000",
                        "--one-d", "--out", str(out)]) == 0
        assert out.exists()


class TestErrors:
    """Bad input ends in one JSON error line on stderr and exit code 2."""

    @staticmethod
    def _error(capsys, command):
        err = json.loads(capsys.readouterr().err.strip())
        assert err["command"] == command
        return err["error"]

    @pytest.mark.parametrize("delta", ["nan", "inf", "0"])
    def test_kacrice_audit_bad_delta(self, capsys, delta):
        assert run_cli(["kacrice-audit", "--n", "8", "--trials", "2",
                        "--delta", delta]) == 2
        assert "delta" in self._error(capsys, "kacrice-audit")

    def test_bad_thread_count_in_environment(self, capsys, monkeypatch):
        monkeypatch.setenv("TRIGROOTS_THREADS", "abc")
        assert run_cli(["simulate", "--n", "4", "--trials", "10"]) == 2
        assert "abc" in self._error(capsys, "simulate")

    def test_missing_config_file(self, tmp_path, capsys):
        missing = tmp_path / "absent.json"
        assert run_cli(["simulate", "--config", str(missing)]) == 2
        assert "absent.json" in self._error(capsys, "simulate")

    def test_malformed_config_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{trials: 10")
        assert run_cli(["simulate", "--config", str(bad)]) == 2
        self._error(capsys, "simulate")


class TestVerify:
    def test_subset_deterministic_reruns(self, tmp_path):
        out1 = tmp_path / "r1.json"
        out2 = tmp_path / "r2.json"
        args = ["verify", "--only", "7,11", "--seed", "99"]
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
