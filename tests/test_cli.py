"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_requires_dataset(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--pattern", "P1"])

    def test_run_rejects_unknown_dataset(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["run", "--dataset", "twitter", "--pattern", "P1"]
            )


class TestCommands:
    def test_datasets(self, capsys):
        assert main(["datasets"]) == 0
        out = capsys.readouterr().out
        assert "youtube" in out
        assert "friendster" in out

    def test_patterns(self, capsys):
        assert main(["patterns"]) == 0
        out = capsys.readouterr().out
        assert "P1" in out and "P22" in out
        assert "diamond" in out

    def test_plan(self, capsys):
        assert main(["plan", "P2"]) == 0
        out = capsys.readouterr().out
        assert "|Aut| = 24" in out

    def test_plan_unknown_pattern(self, capsys):
        assert main(["plan", "P99"]) == 2
        assert "error" in capsys.readouterr().err

    def test_run_basic(self, capsys):
        code = main(
            ["run", "--dataset", "dblp", "--pattern", "P1", "--warps", "8"]
        )
        assert code == 0
        assert "matches" in capsys.readouterr().out

    def test_run_reports_compile_and_match_time(self, capsys):
        code = main(
            ["run", "--dataset", "dblp", "--pattern", "P1", "--warps", "8"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "compile (host)" in out
        assert "match (virtual)" in out

    def test_run_verbose(self, capsys):
        code = main(
            ["run", "--dataset", "dblp", "--pattern", "P1",
             "--warps", "8", "-v"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "embeddings" in out
        assert "stack bytes" in out

    def test_run_engines(self, capsys):
        for engine in ("cpu", "pbe", "egsm"):
            code = main(
                ["run", "--dataset", "dblp", "--pattern", "P1",
                 "--engine", engine, "--warps", "8"]
            )
            assert code == 0, engine

    def test_run_strategy_and_tau(self, capsys):
        code = main(
            ["run", "--dataset", "dblp", "--pattern", "P1",
             "--strategy", "none", "--warps", "8"]
        )
        assert code == 0
        code = main(
            ["run", "--dataset", "dblp", "--pattern", "P1",
             "--tau-us", "5", "--warps", "8"]
        )
        assert code == 0

    def test_run_labels_override(self, capsys):
        code = main(
            ["run", "--dataset", "friendster", "--pattern", "P12",
             "--labels", "4", "--warps", "8"]
        )
        assert code == 0

    def test_serve_smoke_small(self, capsys):
        # A reduced version of the CI smoke: few requests, tiny dataset.
        code = main(
            ["serve", "--smoke", "--dataset", "dblp",
             "--patterns", "P1,P2", "--requests", "50", "--warps", "8"]
        )
        out = capsys.readouterr().out
        assert code == 0, out
        assert "verdict" in out and "OK" in out
        assert "counts match one-shot match() : yes" in out
        assert "counts match after apply_edges: yes" in out
        assert "plans kept across apply_edges : yes" in out

    def test_serve_rejects_unknown_engine(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["serve", "--engine", "cuda"]
            )

    def test_run_engine_choices_track_registry(self):
        from repro import available_engines

        parser = build_parser()
        for engine in available_engines():
            args = parser.parse_args(
                ["run", "--dataset", "dblp", "--pattern", "P1",
                 "--engine", engine]
            )
            assert args.engine == engine

    def test_engine_registry_is_built_once(self):
        from repro import available_engines
        from repro.core import engine
        from repro.core.engine import make_engine

        assert available_engines() == (
            "tdfs", "stmatch", "egsm", "pbe", "cpu"
        )
        table = engine._engine_registry()
        make_engine("cpu")
        assert engine._engine_registry() is table
        assert [make_engine(n).name for n in available_engines()] == list(table)
        assert all(engine.is_engine(n) for n in available_engines())
        assert not engine.is_engine("nope")
        assert engine._engine_registry() is table

    def test_run_failure_exit_code(self, capsys):
        # EGSM on friendster at |L|=4 OOMs (Table IV) → exit code 1.
        code = main(
            ["run", "--dataset", "friendster", "--pattern", "P8",
             "--engine", "egsm", "--labels", "4"]
        )
        assert code == 1
        assert "OOM" in capsys.readouterr().out


class TestBaselineConstants:
    """A baseline's constants (STMatch's 96-slot truncating levels and
    set-difference pass, EGSM's child-kernel fanout) pin these headlines."""

    @pytest.mark.parametrize(
        "argv, headline, overflow",
        [
            (["--engine", "stmatch", "--dataset", "pokec"], "8238 matches in 0.849 ms", True),
            (["--stack-mode", "array-fixed", "--dataset", "pokec"], "8238 matches in 0.096 ms", True),
            (["--engine", "egsm", "--dataset", "youtube"], "3664 matches in 3.098 ms", False),
        ],
        ids=["stmatch", "array-fixed", "egsm"],
    )
    def test_run_headline(self, argv, headline, overflow, capsys):
        assert main(["run", *argv, "--pattern", "P3"]) == 0
        out = capsys.readouterr().out
        assert headline in out
        assert ("[OVERFLOW" in out) is overflow


class TestInputValidation:
    """Bad list flags exit 2 with a usage message, never a traceback."""

    @pytest.mark.parametrize("command", ["serve", "top"])
    @pytest.mark.parametrize(
        "flag, value", [("--patterns", ","), ("--shard-faults", "x")]
    )
    def test_bad_list_flag_exits_2(self, command, flag, value, capsys):
        with pytest.raises(SystemExit) as exc:
            main([command, "--dataset", "dblp", flag, value])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: repro " + command)
        assert f"argument {flag}:" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "argv, what",
        [
            (["chaos", "--attempts", "0"], "max_attempts"),
            (["chaos", "--oom-rate", "5"], "oom_rate"),
            (["chaos", "--stall-rate", "-0.1"], "stall_rate"),
            (["plan", "P1", "--explain", "--beam", "0"], "beam_width"),
            (["plan", "P1", "--explain", "--top", "0"], "portfolio_size"),
            (["plan", "P1", "--explain", "--samples", "-1"], "samples"),
            (["plan", "P1", "--explain", "--descents", "-1"], "descents"),
        ],
    )
    def test_bad_setting_exits_2_with_an_error_line(self, argv, what, capsys):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and what in err
        assert "Traceback" not in err

    def test_list_flags_parse_to_values(self):
        args = build_parser().parse_args(
            ["top", "--patterns", " P1, ,P2 ", "--shard-faults", "0, 2"]
        )
        assert args.patterns == ["P1", "P2"]
        assert args.shard_faults == (0, 2)
        defaults = build_parser().parse_args(["serve"])
        assert defaults.patterns == ["P1", "P2", "P7"]
        assert defaults.shard_faults is None
