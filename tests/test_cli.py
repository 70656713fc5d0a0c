"""The command-line interface."""

import pytest

from repro.cli import main


class TestSimulate:
    def test_default_run(self, capsys):
        code = main(
            [
                "simulate",
                "--num-dcs", "3",
                "--size", "40MB",
                "--block-size", "4MB",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "completion" in out
        assert "bds" in out

    def test_each_strategy_runs(self, capsys):
        for strategy in ("gingko", "direct"):
            code = main(
                [
                    "simulate",
                    "--strategy", strategy,
                    "--num-dcs", "3",
                    "--size", "20MB",
                    "--block-size", "4MB",
                ]
            )
            assert code == 0

    def test_incomplete_run_nonzero_exit(self, capsys):
        code = main(
            [
                "simulate",
                "--num-dcs", "3",
                "--size", "1GB",
                "--max-cycles", "1",
            ]
        )
        assert code == 1

    def test_bad_strategy_rejected(self):
        with pytest.raises(SystemExit):
            main(["simulate", "--strategy", "smoke-signals"])

    def test_bad_size_raises(self):
        with pytest.raises(ValueError):
            main(["simulate", "--size", "many bytes"])


class TestWorkloadAndReplay:
    def test_workload_writes_trace(self, tmp_path, capsys):
        out = tmp_path / "trace.jsonl"
        code = main(
            ["workload", "--count", "20", "--num-dcs", "8", "--out", str(out)]
        )
        assert code == 0
        assert out.exists()
        assert "20 requests" in capsys.readouterr().out

    def test_replay_roundtrip(self, tmp_path, capsys):
        out = tmp_path / "trace.jsonl"
        main(["workload", "--count", "8", "--num-dcs", "8", "--out", str(out)])
        code = main(
            [
                "replay", str(out),
                "--num-dcs", "8",
                "--scale", "1e-6",
                "--block-size", "2MB",
            ]
        )
        text = capsys.readouterr().out
        assert code == 0
        assert "jobs completed" in text

    def test_replay_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            main(["replay", str(tmp_path / "nope.jsonl")])


class TestExperiment:
    def test_fig3(self, tmp_path, monkeypatch, capsys):
        """Every invocation simulates: nothing is read from or written
        to the working directory, and no cache line is printed."""
        monkeypatch.chdir(tmp_path)
        assert main(["experiment", "fig3"]) == 0
        out = capsys.readouterr().out
        assert "direct" in out and "bds" in out
        assert "cache:" not in out
        assert list(tmp_path.iterdir()) == []

    def test_fig4(self, capsys):
        assert main(["experiment", "fig4"]) == 0
        assert "disjoint" in capsys.readouterr().out

    def test_unknown_experiment(self):
        with pytest.raises(SystemExit):
            main(["experiment", "fig99"])

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])
