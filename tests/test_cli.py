"""The command-line interface."""

import shutil
from pathlib import Path

import pytest

from repro.analysis.experiments import (
    EXPERIMENTS,
    Experiment,
    generated_block,
    mask_wall,
)
from repro.analysis.runner import Scenario
from repro.cli import main
from tests import oracles

EXPERIMENTS_MD = Path(__file__).resolve().parents[1] / "EXPERIMENTS.md"


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

    @pytest.mark.parametrize("flag", ["--jobs"])
    def test_a_count_below_one_is_an_argparse_error(self, flag, capsys):
        # --jobs 0 used to run 1.
        with pytest.raises(SystemExit) as exit_info:
            main(["simulate", flag, "0"])
        assert exit_info.value.code == 2
        assert f"argument {flag}: " in capsys.readouterr().err

    def test_bad_size_raises(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["simulate", "--size", "many bytes"])
        assert exit_info.value.code == 2
        assert "argument --size: unparseable size" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        pytest.param(["simulate", flag, value], id=f"simulate{flag}={value}")
        for flag, value in [
            ("--num-dcs", "1"),
            ("--servers-per-dc", "0"),
            ("--cycle", "0"),
            ("--max-cycles", "0"),
            ("--wan", "abc"),
            ("--block-size", "0"),
            ("--block-size", "0MB"),
        ]
    ]
    + [
        pytest.param(
            ["workload", "--out", "TRACE", flag, value], id=f"workload{flag}={value}"
        )
        for flag, value in [
            ("--count", "0"),
            ("--num-dcs", "1"),
            ("--scale", "0"),
            ("--servers-per-dc", "0"),
        ]
    ],
)
def test_a_bad_argument_is_an_argparse_error(argv, tmp_path, capsys):
    trace = tmp_path / "trace.json"
    with pytest.raises(SystemExit) as exit_info:
        main([str(trace) if arg == "TRACE" else arg for arg in argv])
    assert exit_info.value.code == 2
    assert f"error: argument {argv[-2]}: " in capsys.readouterr().err


class TestWorkloadAndReplay:
    """``workload`` writes a scenario file and ``simulate --scenario`` runs it."""

    def test_workload_writes_trace(self, tmp_path, capsys):
        out = tmp_path / "trace.json"
        code = main(
            ["workload", "--count", "20", "--num-dcs", "8", "--out", str(out)]
        )
        assert code == 0
        assert Scenario.from_json(out.read_text()).topology_args["num_dcs"] == 8
        assert "20 requests" in capsys.readouterr().out

    def test_replay_roundtrip(self, tmp_path, capsys):
        out = tmp_path / "trace.json"
        main(
            [
                "workload", "--count", "8", "--num-dcs", "8",
                "--scale", "1e-6", "--block-size", "2MB", "--out", str(out),
            ]
        )
        capsys.readouterr()
        assert main(["simulate", "--scenario", str(out)]) == 0
        text = capsys.readouterr().out
        assert "strategy          : bds" in text and "jobs completed" in text
        assert "event engine      : " in text  # the requests arrive apart
        assert main(["simulate", "--scenario", str(out), "--strategy", "gingko"]) == 0
        assert "strategy          : gingko" in capsys.readouterr().out

    def test_replay_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            main(["simulate", "--scenario", str(tmp_path / "nope.json")])

    @pytest.mark.parametrize(
        "flag, value", [("--num-dcs", "3"), ("--size", "3MB"), ("--max-cycles", "3")]
    )
    def test_a_scenario_file_and_a_mesh_flag_are_an_argparse_error(
        self, flag, value, tmp_path, capsys
    ):
        with pytest.raises(SystemExit) as exit_info:
            main(["simulate", "--scenario", str(tmp_path / "s.json"), flag, value])
        assert exit_info.value.code == 2
        assert f"--scenario says the run; drop {flag}" in capsys.readouterr().err


class TestExperiment:
    def test_fig3(self, tmp_path, monkeypatch, capsys):
        """Every invocation simulates: nothing is read from or written
        to the working directory, and no cache line is printed."""
        monkeypatch.chdir(tmp_path)
        assert main(["experiment", "fig3"]) == 0
        out = capsys.readouterr().out
        assert "direct (no overlay)" in out and "BDS (intelligent overlay)" in out
        assert "cache:" not in out
        assert list(tmp_path.iterdir()) == []

    def test_fig4(self, capsys):
        assert main(["experiment", "fig4"]) == 0
        assert "pairs with ratio != 1" in capsys.readouterr().out

    def test_choices_are_the_table(self, capsys):
        with pytest.raises(SystemExit):
            main(["experiment", "--help"])
        usage = "".join(capsys.readouterr().out.split())
        assert "{" + ",".join(sorted(EXPERIMENTS) + ["all"]) + "}" in usage

    def test_fig5_is_the_bench_run(self, capsys):
        """One parameter set per artefact: seed 7, as the bench always ran it."""
        assert main(["experiment", "fig5"]) == 0
        assert "median gingko/ideal ratio: 4.45x" in capsys.readouterr().out
        assert main(["experiment", "fig5", "--seed", "5"]) == 0
        assert "median gingko/ideal ratio: 3.52x" in capsys.readouterr().out

    def test_unknown_experiment(self):
        with pytest.raises(SystemExit):
            main(["experiment", "fig99"])

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])


class TestExperimentAllWrite:
    """``experiment all --write`` on a copy of EXPERIMENTS.md, serving the
    session's results instead of simulating all 25 entries again."""

    @pytest.fixture
    def copy(self, tmp_path, monkeypatch, results):
        monkeypatch.setattr(
            Experiment, "run", lambda self, seed=None: results[self.id]
        )
        monkeypatch.chdir(tmp_path)
        return Path(shutil.copy(EXPERIMENTS_MD, tmp_path))

    def test_second_write_is_a_no_op(self, copy, capsys):
        copy.write_text(copy.read_text().replace("## Workload study", "## Stale"))
        assert main(["experiment", "all", "--write"]) == 0
        assert "[Table 3]" in capsys.readouterr().out  # every report is printed
        written = copy.read_text()
        assert "## Workload study" in written
        # The same results, read on another machine: only ⟨wall-clock⟩ differs.
        copy.write_text(written.replace("⟨", "⟨9"))
        assert main(["experiment", "all", "--write"]) == 0
        assert "is current" in capsys.readouterr().out
        assert copy.read_text() == written.replace("⟨", "⟨9")

    def test_a_stale_cell_is_rewritten_and_nothing_outside_the_markers(self, copy):
        before = copy.read_text()
        copy.write_text(before.replace("| 138 / 141 / 39 s", "| 1 / 1 / 1 s"))
        assert copy.read_text() != before
        assert main(["experiment", "all", "--write"]) == 0
        after = copy.read_text()
        assert mask_wall(after) == mask_wall(before)
        assert after.replace(oracles.read_generated(copy), "") == before.replace(
            oracles.read_generated(EXPERIMENTS_MD), ""
        )

    def test_an_edited_cell_is_not_current(self, copy, results):
        edited = copy.read_text().replace("(ratio 1.00–1.00)", "(ratio 1.01–1.01)")
        assert edited != copy.read_text()
        copy.write_text(edited)
        assert mask_wall(oracles.read_generated(copy)) != mask_wall(
            generated_block(results)
        )

    def test_write_needs_all_at_the_pinned_seeds(self, copy):
        for argv in (["fig3", "--write"], ["all", "--seed", "1", "--write"]):
            with pytest.raises(SystemExit):
                main(["experiment"] + argv)
