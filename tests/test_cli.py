"""Tests of the command-line interface (invoked in-process)."""

import pytest

from repro.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


class TestList:
    def test_lists_all_benchmarks(self, capsys):
        code, out = run_cli(capsys, "list")
        assert code == 0
        for name in ("gzip", "gcc", "adpcm_enc", "pegwit_dec"):
            assert name in out


class TestSimulate:
    def test_basic(self, capsys):
        code, out = run_cli(capsys, "simulate", "gzip",
                            "--instructions", "1200", "--warmup", "600")
        assert code == 0
        assert "IPC" in out
        assert "FDRT" in out

    def test_strategy_selection(self, capsys):
        code, out = run_cli(capsys, "simulate", "gzip", "--strategy", "base",
                            "--instructions", "1000", "--warmup", "400")
        assert code == 0
        assert "Base" in out

    def test_machine_variant(self, capsys):
        code, out = run_cli(capsys, "simulate", "gzip", "--machine", "mesh",
                            "--instructions", "1000", "--warmup", "400")
        assert code == 0

    def test_csv_output(self, capsys):
        code, out = run_cli(capsys, "simulate", "gzip", "--csv",
                            "--instructions", "1000", "--warmup", "400")
        assert code == 0
        assert out.startswith("benchmark,strategy,")

    def test_unknown_benchmark_exits_nonzero(self, capsys):
        code = main(["simulate", "nosuch",
                     "--instructions", "100", "--warmup", "0"])
        assert code == 2


class TestCompare:
    def test_bar_chart_output(self, capsys):
        code, out = run_cli(capsys, "compare", "gzip",
                            "--instructions", "800", "--warmup", "400")
        assert code == 0
        assert "speedup over base" in out
        assert "FDRT" in out and "#" in out


class TestUtilization:
    def test_report(self, capsys):
        code, out = run_cli(capsys, "utilization", "gzip",
                            "--instructions", "1000", "--warmup", "0")
        assert code == 0
        assert "cluster 0" in out


class TestExperiment:
    def test_table1(self, capsys):
        code, out = run_cli(capsys, "experiment", "table1",
                            "--instructions", "800", "--warmup", "800")
        assert code == 0
        assert "Table 1" in out

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])

    def test_rejects_unknown_artifact(self):
        with pytest.raises(SystemExit):
            main(["experiment", "table99"])


class TestEnergy:
    def test_report(self, capsys):
        code, out = run_cli(capsys, "energy", "gzip",
                            "--instructions", "1000", "--warmup", "400")
        assert code == 0
        assert "interconnect" in out and "units/instr" in out


class TestSweep:
    def test_hop_sweep(self, capsys):
        code, out = run_cli(capsys, "sweep", "hops",
                            "--instructions", "500", "--warmup", "500")
        assert code == 0
        assert "hop_latency" in out

    def test_tc_sweep(self, capsys):
        code, out = run_cli(capsys, "sweep", "tc",
                            "--instructions", "500", "--warmup", "500")
        assert code == 0
        assert "tc_entries" in out


class TestConfigFile:
    def test_simulate_with_config_file(self, capsys, tmp_path):
        from repro import MachineConfig
        path = str(tmp_path / "machine.json")
        MachineConfig(width=8, num_clusters=2).to_json(path)
        code, out = run_cli(capsys, "simulate", "gzip",
                            "--config-file", path,
                            "--instructions", "800", "--warmup", "400")
        assert code == 0
        assert "IPC" in out


class TestTraceGuards:
    """`repro trace` fails fast on bad arguments, before simulating."""

    def test_zero_events_rejected(self, capsys, tmp_path):
        code = main(["trace", "gzip", "--events", "0",
                     "--out", str(tmp_path / "t.json")])
        err = capsys.readouterr().err
        assert code == 2
        assert "--events must be positive" in err

    def test_negative_events_rejected(self, capsys, tmp_path):
        code = main(["trace", "gzip", "--events", "-5",
                     "--out", str(tmp_path / "t.json")])
        assert code == 2

    def test_unwritable_out_rejected(self, capsys, tmp_path):
        target = tmp_path / "no-such-dir" / "t.json"
        code = main(["trace", "gzip", "--out", str(target)])
        err = capsys.readouterr().err
        assert code == 2
        assert "cannot write --out" in err

    def test_out_probe_does_not_clobber(self, tmp_path):
        target = tmp_path / "t.json"
        target.write_text("precious")
        code = main(["trace", "gzip", "--events", "0",
                     "--out", str(target)])
        # The --events guard fires first; the probe appends nothing.
        assert code == 2
        assert target.read_text() == "precious"


class TestSweepSelection:
    def test_empty_benchmark_tokens_rejected(self, capsys):
        code = main(["sweep", "--benchmarks", ",,",
                     "--instructions", "200", "--warmup", "100"])
        err = capsys.readouterr().err
        assert code == 2
        assert "empty benchmark/strategy selection" in err

    def test_unknown_strategy_rejected(self, capsys):
        code = main(["sweep", "--strategies", "nosuch",
                     "--instructions", "200", "--warmup", "100"])
        assert code == 2


class TestDiffUsage:
    def test_requires_a_reference(self, capsys):
        code = main(["diff", "some-run"])
        err = capsys.readouterr().err
        assert code == 2
        assert "nothing to diff against" in err

    def test_rejects_both_positional_and_against(self, capsys):
        code = main(["diff", "a", "b", "--against", "c"])
        assert code == 2

    def test_missing_source_is_usage_error(self, capsys, tmp_path):
        code = main(["diff", str(tmp_path / "nope"),
                     str(tmp_path / "also-nope")])
        assert code == 2


class TestAnalyzeUsage:
    def test_missing_manifest_is_usage_error(self, capsys, tmp_path):
        code = main(["analyze", str(tmp_path / "nope")])
        err = capsys.readouterr().err
        assert code == 2
        assert "cannot read manifest" in err


class TestEngineFailureExitCode:
    def test_job_failed_error_exits_one(self, capsys, monkeypatch):
        import repro.cli as cli
        from repro.runtime.executor import JobFailedError

        def failing(_args):
            raise JobFailedError([])

        monkeypatch.setattr(cli, "_cmd_list", failing)
        assert main(["list"]) == 1
        assert "still failing" in capsys.readouterr().err

    def test_other_runtime_errors_propagate(self, monkeypatch):
        import repro.cli as cli

        def broken(_args):
            raise RuntimeError("boom")

        monkeypatch.setattr(cli, "_cmd_list", broken)
        with pytest.raises(RuntimeError, match="boom"):
            main(["list"])
