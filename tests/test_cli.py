"""Tests for the command-line interface."""

import pytest

import netlist_oracle
import repro.netlist
from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_precision_parsing(self):
        args = build_parser().parse_args(["table1", "--precisions", "6,4"])
        assert args.precisions == (6, 4)

    def test_invalid_precisions_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["table1", "--precisions", "abc"])
        with pytest.raises(SystemExit):
            build_parser().parse_args(["table1", "--precisions", "1,4"])

    def test_hardware_flags(self):
        args = build_parser().parse_args(["hardware", "--raw"])
        assert args.raw is True

    def test_accuracy_flags(self):
        args = build_parser().parse_args(
            ["accuracy", "--quick", "--no-retrain-row", "--train-size", "200"]
        )
        assert args.quick and args.no_retrain_row
        assert args.train_size == 200

    def test_activity_flags(self):
        args = build_parser().parse_args(
            ["activity", "--precision", "5", "--taps", "9"]
        )
        assert args.precision == 5 and args.taps == 9
        assert args.traces == 1
        # The simulator is packed-only: there is no backend to pick.
        with pytest.raises(SystemExit):
            build_parser().parse_args(["activity", "--backend", "packed"])

    def test_activity_traces_flag(self):
        args = build_parser().parse_args(["activity", "--traces", "8"])
        assert args.traces == 8

    def test_hardware_activity_traces_flag(self):
        args = build_parser().parse_args(["hardware", "--activity-traces", "16"])
        assert args.activity_traces == 16
        assert build_parser().parse_args(["hardware"]).activity_traces == 0


class TestCommands:
    def test_table1_command(self, capsys):
        assert main(["table1", "--precisions", "5,4"]) == 0
        out = capsys.readouterr().out
        assert "Table 1" in out
        assert "Ramp-compare" in out

    def test_table2_command(self, capsys):
        assert main(["table2", "--precisions", "5"]) == 0
        out = capsys.readouterr().out
        assert "Table 2" in out
        assert "New adder" in out

    def test_hardware_command(self, capsys):
        assert main(["hardware", "--precisions", "8,4"]) == 0
        out = capsys.readouterr().out
        assert "Energy" in out and "Area" in out
        assert "calibrated" in out

    def test_hardware_raw_command(self, capsys):
        assert main(["hardware", "--precisions", "8", "--raw"]) == 0
        assert "raw model" in capsys.readouterr().out

    @staticmethod
    def activity_output_matches_oracle(argv, capsys, monkeypatch):
        """Run ``repro activity`` as is, then with the simulator replaced by
        the per-cycle oracle in-process; the printed reports must be equal."""
        assert main(argv) == 0
        packed = capsys.readouterr().out
        monkeypatch.setattr(repro.netlist, "simulate_batch", netlist_oracle.simulate_batch)
        assert main(argv) == 0
        assert capsys.readouterr().out == packed
        return packed

    def test_activity_command_matches_oracle(self, capsys, monkeypatch):
        out = self.activity_output_matches_oracle(
            ["activity", "--precision", "4", "--taps", "4"], capsys, monkeypatch
        )
        assert "total toggles" in out
        assert "traces" not in out and "activity spread" not in out

    def test_activity_batched_command_matches_oracle(self, capsys, monkeypatch):
        out = self.activity_output_matches_oracle(
            ["activity", "--precision", "4", "--taps", "4", "--traces", "3"],
            capsys, monkeypatch,
        )
        assert "x 3 traces (batched)" in out
        assert "activity spread" in out

    def test_hardware_measured_activity_command(self, capsys):
        assert main(
            ["hardware", "--precisions", "5,4", "--activity-traces", "3"]
        ) == 0
        out = capsys.readouterr().out
        assert "measured SC activity over 3 traces" in out
        assert "Energy" in out

    def test_activity_rejects_bad_args(self):
        with pytest.raises(SystemExit):
            main(["activity", "--precision", "1"])
        with pytest.raises(SystemExit):
            main(["activity", "--taps", "1"])
        with pytest.raises(SystemExit):
            main(["activity", "--traces", "0"])
        with pytest.raises(SystemExit):
            main(["hardware", "--activity-traces", "-1"])

    def test_claims_command(self, capsys):
        assert main(["claims"]) == 0
        out = capsys.readouterr().out
        assert "energy efficiency at 4-bit" in out

    def test_accuracy_bad_eval_images_clean_error(self, monkeypatch):
        monkeypatch.setenv("REPRO_EVAL_IMAGES", "abc")
        with pytest.raises(SystemExit, match="repro: error: REPRO_EVAL_IMAGES"):
            main(["accuracy", "--quick"])

    @pytest.mark.parametrize(
        "name, value, argv",
        [
            ("REPRO_EVAL_IMAGES", "0", ["accuracy", "--quick"]),
            ("REPRO_TRAIN_SIZE", "abc", ["accuracy", "--precisions", "8"]),
            ("REPRO_TEST_SIZE", "-4", ["accuracy", "--precisions", "8"]),
        ],
    )
    def test_accuracy_bad_env_clean_error(self, monkeypatch, name, value, argv):
        # Rejected when the config is built, before any dataset or training.
        monkeypatch.setenv(name, value)
        with pytest.raises(SystemExit, match=f"repro: error: {name}"):
            main(argv)

    def test_accuracy_quick_command(self, capsys, monkeypatch):
        # Keep the quick run genuinely small for CI purposes.
        monkeypatch.setenv("REPRO_EVAL_IMAGES", "40")
        assert main(["accuracy", "--quick"]) == 0
        out = capsys.readouterr().out
        assert "Misclassification" in out
        assert "This Work" in out


class TestFaultsCommand:
    def test_parser_flags(self):
        args = build_parser().parse_args(
            ["faults", "--rates", "0,1e-3", "--precision", "6",
             "--images", "3", "--filters", "4", "--trials", "1",
             "--no-artifact"]
        )
        assert args.rates == (0.0, 1e-3)
        assert args.precision == 6 and args.images == 3
        assert args.no_artifact

    def test_parser_rejects_bad_rates(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["faults", "--rates", "abc"])
        with pytest.raises(SystemExit):
            build_parser().parse_args(["faults", "--rates", ""])

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["faults", "--help"])
        assert exc.value.code == 0
        assert "upset rates" in capsys.readouterr().out

    def test_out_of_range_rate_clean_error(self):
        # Parses fine but fails FaultSweepConfig validation: the CLI must
        # surface it as a clean SystemExit, not a traceback.
        with pytest.raises(SystemExit, match="repro: error"):
            main(["faults", "--rates", "2.0", "--no-artifact"])

    def test_quick_command_prints_table(self, capsys):
        assert main(
            ["faults", "--quick", "--precision", "5", "--no-artifact"]
        ) == 0
        out = capsys.readouterr().out
        assert "SC agree" in out and "bin agree" in out
        assert "wrote" not in out

    def test_command_writes_artifact(self, capsys, tmp_path):
        target = tmp_path / "BENCH_faults.json"
        assert main(
            ["faults", "--quick", "--precision", "5", "--rates", "0,1e-2",
             "--output", str(target)]
        ) == 0
        assert "wrote" in capsys.readouterr().out
        import json

        data = json.loads(target.read_text())
        rows = data["fault_sweep"]["rows"]
        assert [row["rate"] for row in rows] == [0.0, 1e-2]
        assert rows[0]["sc_sign_agreement"] == 1.0
