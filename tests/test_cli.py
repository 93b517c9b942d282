import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from qrabi import cli
from qrabi.model import transition_bias, ModelParams


def run(tmp_path, *args):
    out = tmp_path / "out.file"
    code = cli.main([*args, "-o", str(out)])
    return code, out


class TestParsing:
    def test_coupling_suffixes(self):
        assert cli.parse_coupling("0.5gs", 1.0, 0.04) == pytest.approx(0.05)
        assert cli.parse_coupling("0.9gT", 2.0, 0.0) == pytest.approx(0.45)
        assert cli.parse_coupling("0.125", 1.0, 0.0) == pytest.approx(0.125)

    def test_bad_coupling_text(self):
        with pytest.raises(ValueError):
            cli.parse_coupling("abc", 1.0, 0.1)

    def test_config_round_trip(self):
        ns = cli.build_parser().parse_args(
            ["qfi", "--Omega", "0.01", "--g1", "0.5gs", "--g2", "0.9gT"])
        cfg = cli.RunConfig.from_namespace(ns)
        again = cli.RunConfig.from_dict(json.loads(json.dumps(cfg.to_dict())))
        assert again == cfg

    def test_usage_error_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            cli.build_parser().parse_args(["qfi", "--lambda", "bogus"])
        assert exc.value.code == 2


    @pytest.mark.parametrize("removed", [["--step", "1e-6"], ["--edge", "shift"]])
    def test_removed_stencil_options_exit_2(self, removed):
        with pytest.raises(SystemExit) as exc:
            cli.build_parser().parse_args(["qfi", *removed])
        assert exc.value.code == 2


class TestQfiCommand:
    def test_degeneracy_lifting_json(self, tmp_path):
        code, out = run(tmp_path, "qfi", "--omega", "1", "--Omega", "0.01",
                        "--g1", "0", "--g2", "0", "--epsilon", "0",
                        "--lambda", "g2", "--format", "json")
        assert code == 0
        payload = json.loads(out.read_bytes())
        total = payload["data"]["rows"][0][0]
        expect = (0.125 + 1.0 / (4.0 * 0.01 ** 2)) / 0.0625
        assert total == pytest.approx(expect, rel=0.02)
        assert payload["meta"]["config"]["subcommand"] == "qfi"

    def test_json_round_trip_bit_exact(self, tmp_path):
        code, out = run(tmp_path, "qfi", "--Omega", "0.05", "--g2", "0.4gT",
                        "--format", "json")
        payload = json.loads(out.read_bytes())
        again = json.loads(json.dumps(payload))
        assert again == payload

    def test_numeric_failure_exits_1(self, tmp_path, capsys):
        code, _ = run(tmp_path, "qfi", "--Omega", "0.05", "--g2", "0.3")
        assert code == 1
        assert "error" in capsys.readouterr().err


class TestGapCommand:
    def test_trivial_gap_csv(self, tmp_path):
        code, out = run(tmp_path, "gap", "--g1", "0", "--g2", "0",
                        "--epsilon", "0", "--Omega", "0.3")
        assert code == 0
        lines = [l for l in out.read_text().splitlines()
                 if not l.startswith("#")]
        assert lines[0] == "gap"
        assert float(lines[1]) == pytest.approx(0.3, abs=1e-12)

    def test_identical_invocations_identical_bytes(self, tmp_path):
        _, out1 = run(tmp_path, "gap", "--Omega", "0.3")
        blob1 = out1.read_bytes()
        _, out2 = run(tmp_path, "gap", "--Omega", "0.3")
        assert out2.read_bytes() == blob1


class TestAnalyticCompare:
    def test_columns_and_tolerance(self, tmp_path):
        code, out = run(tmp_path, "analytic-compare", "--Omega", "0.001",
                        "--g1", "0.5gs", "--epsilon", "0.33",
                        "--gbar2-start", "0.5", "--gbar2-stop", "0.9",
                        "--gbar2-count", "3")
        assert code == 0
        text = out.read_text().splitlines()
        header = [l for l in text if not l.startswith("#")][0]
        assert header == "gbar2,f_ed,f_analytic,rel_err"
        meta = {l.split(":", 1)[0][2:]: l.split(":", 1)[1]
                for l in text if l.startswith("#")}
        assert json.loads(meta["max_rel_err"]) < 0.05


class TestGroundStateCommand:
    def test_levels_and_meta(self, tmp_path):
        code, out = run(tmp_path, "ground-state", "--Omega", "0.3",
                        "--levels", "3", "--format", "json")
        payload = json.loads(out.read_bytes())
        rows = payload["data"]["rows"]
        assert len(rows) == 3
        assert rows[1][1] - rows[0][1] == pytest.approx(0.3, abs=1e-10)
        assert payload["meta"]["sigma_z"] == pytest.approx(
            0.0, abs=1e-6)  # symmetric uncoupled ground


class TestWignerCommand:
    def test_long_format_columns(self, tmp_path):
        code, out = run(tmp_path, "wigner", "--Omega", "0.5", "--g2", "0.5gT",
                        "--points", "32", "--half-width", "9")
        assert code == 0
        lines = out.read_text().splitlines()
        header = [l for l in lines if not l.startswith("#")][0]
        assert header == "x,p,w_plus,w_minus"
        data = [l for l in lines if not l.startswith("#")][1:]
        assert len(data) == 32 * 32

    def test_quarter_scale_display_columns(self, tmp_path):
        code, out = run(tmp_path, "wigner", "--Omega", "0.5", "--g2", "0.5gT",
                        "--points", "24", "--half-width", "9",
                        "--display-scale", "quarter")
        header = [l for l in out.read_text().splitlines()
                  if not l.startswith("#")][0]
        assert header.endswith("w_plus_display,w_minus_display")


class TestCurveAndDiagram:
    def test_qfi_curve_analytic(self, tmp_path):
        code, out = run(tmp_path, "qfi-curve", "--Omega", "0.001",
                        "--method", "analytic", "--x-axis", "gbar2",
                        "--x-start", "0.5", "--x-stop", "0.8", "--x-count", "4")
        rows = [l.split(",") for l in out.read_text().splitlines()
                if not l.startswith("#")][1:]
        assert len(rows) == 4
        values = [float(r[1]) for r in rows]
        assert values == sorted(values)  # squeezing-only QFI grows with gbar2

    def test_phase_diagram_shape(self, tmp_path):
        code, out = run(tmp_path, "phase-diagram", "--Omega", "0.5",
                        "--epsilon", "0.33",
                        "--x-start", "0.2", "--x-stop", "1.0", "--x-count", "3",
                        "--y-start", "0.1", "--y-stop", "0.8", "--y-count", "4")
        rows = [l for l in out.read_text().splitlines()
                if not l.startswith("#")][1:]
        assert len(rows) == 12

    def test_qfi_envelope_csv(self, tmp_path):
        base = ModelParams.from_dimensionless(1.0, 0.01, 0.5, 0.9, 0.0)
        em = transition_bias(base)
        code, out = run(tmp_path, "qfi-envelope", "--Omega", "0.01",
                        "--g1", "0.5gs",
                        "--gbar2-start", "0.9", "--gbar2-stop", "0.905",
                        "--gbar2-count", "2",
                        "--eps-start", str(em - 0.01),
                        "--eps-stop", str(em + 0.01), "--eps-count", "11")
        assert code == 0
        lines = [l for l in out.read_text().splitlines() if not l.startswith("#")]
        assert lines[0] == "gbar2,f_max,eps_star,boundary_argmax"
        first = lines[1].split(",")
        assert abs(float(first[2]) - em) <= 0.002 + 1e-12


class TestPtpsCommand:
    def test_explicit_endpoint(self, tmp_path):
        code, out = run(tmp_path, "ptps", "--Omega", "0.01", "--g1", "0.1gs",
                        "--epsilon", "0.33", "--coupling", "g2",
                        "--gbar-max", "0.95", "--format", "json")
        assert code == 0
        payload = json.loads(out.read_bytes())
        assert payload["meta"]["diverged"] is False
        assert 0 < payload["meta"]["T"] < 10

    def test_unconverged_peak_scan_exits_1(self, tmp_path, monkeypatch, capsys):
        from qrabi import fockspace
        original = fockspace._ground_energy

        def energy(q, n):  # never converges above the peak (gbar2 0.99104): at the scan top
            return float(n) if q.g2 > 0.992 * q.omega / 4.0 else original(q, n)

        monkeypatch.setattr(fockspace, "_ground_energy", energy)
        code, out = run(tmp_path, "ptps", "--Omega", "0.01", "--g1", "0.1gs",
                        "--epsilon", "0.33", "--coupling", "g2")
        assert code == 1
        assert not out.exists()
        assert "cutoff ceiling 4096" in capsys.readouterr().err


class TestFitExponentCommand:
    def test_analytic_xi_exponent(self, tmp_path):
        code, out = run(tmp_path, "fit-exponent", "--Omega", "0.001",
                        "--component", "xi", "--format", "json")
        payload = json.loads(out.read_bytes())
        assert abs(payload["meta"]["gamma"] - 2.0) < 0.1


def test_serialize_nan_as_empty_csv_field():
    blob = cli.serialize(["a", "b"], [[1.0, math.nan]], {"k": 1}, "csv")
    assert b"\n1," in blob


def test_serialize_json_nan_as_null():
    blob = cli.serialize(["a"], [[math.nan]], {}, "json")
    assert json.loads(blob)["data"]["rows"][0][0] is None


def test_import_loads_neither_scipy_stats_nor_optimize():
    # Each CLI call is a fresh process, so its imports are paid on every run;
    # every benchmark process also imports qrabi.multipolaron.
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = ("import sys, qrabi.cli, qrabi.multipolaron; "
            "print([m for m in ('scipy.stats', 'scipy.optimize') if m in sys.modules])")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "[]"
