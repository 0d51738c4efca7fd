import argparse
import contextlib
import hashlib
import io
import os
import sys
import time
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from unimix import cli, models, vm
from unimix.cli import (
    EXIT_BOUND,
    EXIT_CAPACITY,
    EXIT_OK,
    EXIT_VALIDATION,
    RunArtifacts,
    ScenarioConfig,
    ValidationError,
    emit_report,
    main,
    parse_config,
    parse_horizon,
    run_scenario,
)
from unimix.core import (
    ACTION_CAP,
    EMPTY_HISTORY,
    FixedHorizon,
    GeometricDiscount,
    MovingHorizon,
    Percept,
    ProportionalHorizon,
    append_cycle,
    horizon_end,
)
from unimix.evaluate import BoundReport, CapacityError
from unimix.models import build_mixture, posterior
from unimix.planner import PLAN_MEMO_CAP, ValueQuery, value_opt
from unimix.vm import RunBudget, decode, enumerate_programs

import reference

HEAVEN = "scenario=heavenhell\nagent=informed\nlifetime=5\ni=1\n"


def trace_rows(trace_csv):
    return [ln.split(",") for ln in trace_csv.strip().splitlines()[1:]]


class TestParseConfig:
    def test_defaults_fill_in(self):
        cfg = parse_config(HEAVEN)
        assert cfg.scenario == "heavenhell"
        assert (cfg.l_max, cfg.steps, cfg.seed) == (6, 64, 0)
        assert cfg.horizon == FixedHorizon(5)
        assert cfg.extras == {"i": "1"}

    def test_comments_and_blanks_are_ignored(self):
        cfg = parse_config("# a comment\n\n" + HEAVEN)
        assert cfg.scenario == "heavenhell"

    def test_a_comment_may_end_any_line(self):
        cfg = parse_config("scenario=heavenhell  # a | b\nlifetime=5#\ni=1 # door\n")
        assert (cfg.scenario, cfg.lifetime, cfg.extras) == ("heavenhell", 5, {"i": "1"})

    def test_junk_lines_repeated_keys_and_rows_are_violations(self):
        with pytest.raises(ValidationError) as e:
            parse_config(HEAVEN + "lifetime=6\njunk\n0 | 1\n")
        assert e.value.violations == [
            "line 5: duplicate key 'lifetime'",
            "line 6: expected key=value, got 'junk'",
            "line 7: expected key=value, got '0 | 1'",
        ]

    def test_line_violations_are_listed_with_the_others(self):
        with pytest.raises(ValidationError) as e:
            parse_config("scenario=flying\nnonsense\nlifetime=0\n")
        assert len(e.value.violations) == 3

    def test_every_violation_is_reported_at_once(self):
        bad = "scenario=flying\nagent=psychic\nlifetime=0\nl=99\nt=zero\n"
        with pytest.raises(ValidationError) as e:
            parse_config(bad)
        text = "\n".join(e.value.violations)
        assert "scenario" in text
        assert "agent" in text
        assert "lifetime=0" in text
        assert "l=99" in text
        assert "t must be an integer" in text
        assert len(e.value.violations) == 5

    def test_missing_scenario_is_a_violation(self):
        with pytest.raises(ValidationError):
            parse_config("agent=informed\nlifetime=3\n")

    def test_a_missing_lifetime_is_listed_once_and_not_range_checked(self):
        with pytest.raises(ValidationError) as e:
            parse_config("scenario=heavenhell\nagent=informed\n")
        assert e.value.violations == ["missing required key 'lifetime'"]

    def test_hash_ignores_formatting_noise(self):
        a = parse_config(HEAVEN)
        b = parse_config("# noise\n" + HEAVEN + "\n")
        assert a.config_hash() == b.config_hash()

    def test_hash_sees_every_semantic_field(self):
        a = parse_config(HEAVEN)
        b = parse_config(HEAVEN.replace("lifetime=5", "lifetime=6"))
        assert a.config_hash() != b.config_hash()

    @pytest.mark.parametrize(
        "text",
        [
            HEAVEN,
            "scenario=fm\nagent=greedy\nlifetime=5\nclass=uniform16\nseed=3\n",
            "scenario=heavenhell\nagent=mixture\nlifetime=3\nl=12\nt=4096\ni=0\n",
            "scenario=sp\nlifetime=2\nsequences=0:1/2;1:1/2\nhorizon=geometric:9/10:4\n",
            "scenario=onlyone\nagent=program\nlifetime=2\nn=3\nprogram=9:088\n",
        ],
        ids=["heavenhell", "fm", "mixture", "sp-geometric", "program"],
    )
    def test_the_hash_is_the_sha256_of_the_canonical_config(self, text):
        cfg = parse_config(text)
        assert cfg.config_hash() == hashlib.sha256(cfg.canonical().encode()).hexdigest()

    @pytest.mark.parametrize(
        "extras, expected",
        [
            ("class=bogus\nenv_file=env.txt\n", [
                "unknown class 'bogus' for scenario=fm (choose from ('uniform16',))",
                "scenario=fm takes exactly one of class=uniform16 and env_file",
            ]),
            ("class=bogus\n", [
                "unknown class 'bogus' for scenario=fm (choose from ('uniform16',))",
            ]),
            ("class=uniform16\nenv_file=env.txt\n", [
                "scenario=fm takes exactly one of class=uniform16 and env_file",
            ]),
            ("", ["scenario=fm takes exactly one of class=uniform16 and env_file"]),
            ("class=Uniform16\nt=x\n", [
                "unknown class 'Uniform16' for scenario=fm (choose from ('uniform16',))",
                "t must be an integer, got 'x'",
            ]),
        ],
        ids=["unknown-class-and-file", "unknown-class", "both", "neither", "with-others"],
    )
    def test_an_fm_config_gives_one_known_class_or_an_env_file(self, extras, expected):
        with pytest.raises(ValidationError) as e:
            parse_config("scenario=fm\nlifetime=2\n" + extras)
        assert e.value.violations == expected


class TestParseHorizon:
    def test_kinds(self):
        assert parse_horizon("fixed:7") == FixedHorizon(7)
        assert parse_horizon("moving:2") == MovingHorizon(2)
        assert parse_horizon("proportional:1/2") == ProportionalHorizon(Fraction(1, 2))
        assert parse_horizon("geometric:2/3:10") == GeometricDiscount(Fraction(2, 3), 10)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            parse_horizon("psychic:3")

    def test_bad_horizon_is_collected_as_a_violation(self):
        with pytest.raises(ValidationError) as e:
            parse_config(HEAVEN + "horizon=psychic:3\n")
        assert any("horizon" in v for v in e.value.violations)

    @pytest.mark.parametrize(
        "bits, lifetime, cap, ok",
        # (2^223 - 1)^64 has 4,296 digits and (2^224 - 1)^64 4,316; a gamma is
        # judged at min(cap, lifetime) cycles
        [(223, 64, 64, True), (224, 64, 64, False), (224, 63, 64, True), (224, 64, 63, True)],
    )
    def test_a_geometric_gamma_is_judged_by_its_power_at_the_last_cycle(
        self, bits, lifetime, cap, ok
    ):
        text = f"scenario=heavenhell\nlifetime={lifetime}\nhorizon=geometric:1/{2**bits - 1}:{cap}\n"
        if ok:
            assert parse_config(text).horizon.m_cap == cap
            return
        with pytest.raises(ValidationError) as e:
            parse_config(text)
        assert e.value.violations == [
            f"bad horizon 'geometric:1/{2**bits - 1}:{cap}': "
            "gamma^64 would have more than 4300 digits"
        ]


class TestRunScenario:
    def test_heavenhell_informed_trace(self):
        art = run_scenario(parse_config(HEAVEN))
        rows = trace_rows(art.trace_csv)
        # only the first door choice matters; later ties break to action 0
        assert [r[1] for r in rows] == ["1", "0", "0", "0", "0"]
        assert [r[3] for r in rows] == ["1"] * 5
        # remaining achievable reward shrinks by one per cycle
        assert [r[4] for r in rows] == ["5", "4", "3", "2", "1"]
        assert "total_reward=5" in art.results

    def test_fm_greedy_sticks_with_a_good_first_query(self):
        cfg = parse_config(
            "scenario=fm\nagent=greedy\nlifetime=5\nclass=uniform16\nseed=0\n"
        )
        rows = trace_rows(run_scenario(cfg).trace_csv)
        assert [r[1] for r in rows] == ["0"] * 5

    def test_fm_greedy_explores_once_after_a_bad_first_query(self):
        cfg = parse_config(
            "scenario=fm\nagent=greedy\nlifetime=5\nclass=uniform16\nseed=1\n"
        )
        rows = trace_rows(run_scenario(cfg).trace_csv)
        assert [r[1] for r in rows] == ["0", "1", "0", "0", "0"]

    def test_program_agent_leaves_planner_values_blank(self):
        echo = decode((0, 1, 0, 0, 0, 1, 0, 0, 0))  # IN; OUT; END
        cfg = parse_config(HEAVEN.replace("agent=informed", "agent=program"))
        cfg.extras["program"] = echo.to_hex()
        rows = trace_rows(run_scenario(cfg).trace_csv)
        assert all(r[4] == "" for r in rows)

    def test_the_program_agent_runs_one_machine_cycle_per_cycle(self, tmp_path, monkeypatch):
        # A stepper carried from cycle to cycle; a fresh one fed the whole
        # history on every call made 1 + 2 + ... + 64 = 2,080 cycles, for
        # the same trace.
        calls = []
        run_machine = vm.run_machine

        def counting(*args, **kwargs):
            calls.append(1)
            return run_machine(*args, **kwargs)

        monkeypatch.setattr(vm, "run_machine", counting)
        cfg = tmp_path / "cfg.txt"  # INC OUT END: plays 1, 0, 1, ...
        cfg.write_text("scenario=heavenhell\nagent=program\nprogram=9:188\nlifetime=64\ni=1\n")
        out = tmp_path / "out"
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["run", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
        assert len(calls) == 64
        trace = (out / "trace.csv").read_bytes()
        assert hashlib.sha256(trace).hexdigest() == (
            "9faa22dcde6530bcb7a0b7e0e6843574f151834e4bcea94de9c40227a5e21795"
        )

    def test_program_agent_without_a_program_is_a_validation_error(self):
        cfg = parse_config(HEAVEN.replace("agent=informed", "agent=program"))
        with pytest.raises(ValidationError):
            run_scenario(cfg)

    def test_mixture_agent_reports_a_posterior_leader(self):
        cfg = parse_config(
            "scenario=heavenhell\nagent=mixture\nlifetime=2\ni=1\nl=6\n"
        )
        rows = trace_rows(run_scenario(cfg).trace_csv)
        assert all(r[5] != "" for r in rows)

    @pytest.mark.parametrize(
        "text",
        [
            "scenario=fm\nagent=greedy\nlifetime=4\nclass=uniform16\nseed=1\n",
            "scenario=fm\nagent=informed\nlifetime=3\nclass=uniform16\nseed=2\nhorizon=moving:2\n",
            "scenario=heavenhell\nagent=mixture\nlifetime=3\ni=1\nl=8\n",
            "scenario=heavenhell\nagent=informed\nlifetime=6\ni=0\n",
            "scenario=fm\nagent=informed\nlifetime=4\nclass=uniform16\nseed=5\n"
            "horizon=geometric:1/2:3\n",
        ],
    )
    def test_planner_values_equal_a_fresh_solve_at_each_prefix(self, text):
        cfg = parse_config(text)
        rows = trace_rows(run_scenario(cfg).trace_csv)
        env = cli._build_env(cfg)
        if cfg.agent == "mixture":
            pool = enumerate_programs(cfg.l_max)
            model = build_mixture(pool, RunBudget(cfg.steps), env.alphabet)
        else:
            model = env
        hor = MovingHorizon(1) if cfg.agent == "greedy" else cfg.horizon
        prefix = EMPTY_HISTORY
        for k, (_, y, o, r, value, _) in enumerate(rows, start=1):
            m_k = horizon_end(hor, k, cfg.lifetime)
            assert value == str(value_opt(ValueQuery(model, prefix, k, m_k, hor)))
            prefix = append_cycle(prefix, int(y), Percept(Fraction(r), int(o)))

    @pytest.mark.parametrize(
        "text",
        [
            "scenario=heavenhell\nagent=mixture\nlifetime=3\ni=1\nl=9\n",
            "scenario=onlyone\nagent=mixture\nlifetime=3\nn=3\ny_star=1\nl=9\n",
            # Where the first plan reaches the lifetime, the agent's mixture
            # has one component per behaviour class; the column still names
            # the heaviest program of the unmerged one.
            "scenario=heavenhell\nagent=mixture\nlifetime=4\ni=0\nl=12\n",
            "scenario=heavenhell\nagent=mixture\nlifetime=5\ni=1\nl=12\nt=3\n"
            "horizon=moving:5\n",
            "scenario=heavenhell\nagent=mixture\nlifetime=5\ni=1\nl=12\nt=3\n"
            "horizon=moving:2\n",
            "scenario=lazy\nagent=mixture\nlifetime=4\nl=12\nseed=5\n",
            "scenario=onlyone\nagent=mixture\nlifetime=4\nn=4\ny_star=2\nl=11\n",
            "scenario=heavenhell\nagent=best-vote\nlifetime=3\ni=0\nl=9\nseed=1\n",
            "scenario=onlyone\nagent=best-vote\nlifetime=3\nn=2\nl=7\n",
        ],
    )
    def test_posterior_top_equals_a_mixture_built_from_scratch(self, text):
        cfg = parse_config(text)
        rows = trace_rows(run_scenario(cfg).trace_csv)
        env = cli._build_env(cfg)
        mixture = build_mixture(
            enumerate_programs(cfg.l_max), RunBudget(cfg.steps), env.alphabet
        )
        prefix = EMPTY_HISTORY
        for _, y, o, r, _, top in rows:
            if mixture.joint(prefix) > 0:
                assert top == posterior(mixture, prefix).top()
            else:
                assert top == ""
            prefix = append_cycle(prefix, int(y), Percept(Fraction(r), int(o)))

    @pytest.mark.parametrize(
        "horizon, components",
        [("", 7), ("horizon=moving:3\n", 7), ("horizon=moving:2\n", 28)],
    )
    def test_the_mixture_agent_has_classes_when_its_first_plan_reaches_the_lifetime(
        self, horizon, components
    ):
        cfg = parse_config(f"scenario=heavenhell\nagent=mixture\nlifetime=3\nl=12\n{horizon}")
        assert len(cli._build_agent(cfg, cli._build_env(cfg))[1].components) == components

    def test_a_many_action_mixture_run_with_a_short_horizon_finishes(self):
        # Signing the programs that read the action over 64 cycles of 16
        # actions would pass CLASS_CAP; the one-cycle plans do not walk every
        # action sequence, so the build leaves each such program its own
        # class and signs the rest on one input.
        cfg = parse_config(
            "scenario=onlyone\nagent=mixture\nl=12\nlifetime=64\nn=16\nhorizon=moving:1\n"
        )
        assert len(trace_rows(run_scenario(cfg).trace_csv)) == 64

    def test_best_vote_agent_emits_a_selection_log(self):
        cfg = parse_config(
            "scenario=heavenhell\nagent=best-vote\nlifetime=2\ni=1\nl=6\n"
        )
        art = run_scenario(cfg)
        assert art.selection_csv is not None
        lines = art.selection_csv.strip().splitlines()
        assert lines[0].startswith("cycle,candidate,")
        rows = trace_rows(art.trace_csv)
        assert all(r[4] == "" for r in rows)  # no planner value for best-vote

    def test_reruns_are_byte_identical(self):
        cfg_text = "scenario=fm\nagent=informed\nlifetime=3\nclass=uniform16\nseed=7\n"
        a = run_scenario(parse_config(cfg_text))
        b = run_scenario(parse_config(cfg_text))
        assert a.trace_csv == b.trace_csv
        assert a.manifest == b.manifest
        assert a.results == b.results

    def test_manifest_pins_the_config(self):
        cfg = parse_config(HEAVEN)
        art = run_scenario(cfg)
        assert f"config_hash={cfg.config_hash()}" in art.manifest
        assert "config_begin" in art.manifest and "config_end" in art.manifest


class TestEmitReport:
    @pytest.mark.parametrize(
        "text, total",
        [
            (HEAVEN, "5"),
            ("scenario=heavenhell\nlifetime=12\n", "12"),
            # fm's rewards are 0, 1/3, 2/3 and 1; these runs earn two of them
            ("scenario=fm\nlifetime=6\nclass=uniform16\nseed=4\n", "11/3"),
            ("scenario=fm\nlifetime=6\nclass=uniform16\nseed=21\n", "16/3"),
        ],
        ids=["heavenhell-5", "heavenhell-12", "fm-seed-4", "fm-seed-21"],
    )
    def test_totals_recomputed_from_the_trace(self, text, total):
        art = run_scenario(parse_config(text))
        assert f"\ntotal_reward={total}\n" in art.results
        assert emit_report(art).endswith(f"\ntrace_total_reward={total}\n")

    def test_empty_trace_is_an_error(self):
        art = RunArtifacts(
            trace_csv="cycle,action,observation,reward,planner_value,posterior_top\n",
            manifest="",
            results="",
        )
        with pytest.raises(ValueError):
            emit_report(art)


class TestMain:
    def test_run_writes_the_artifact_set(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(HEAVEN)
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
        assert (out / "trace.csv").exists()
        assert (out / "manifest.txt").exists()
        assert "total_reward=5" in (out / "results.txt").read_text()
        assert "trace_total_reward=5" in capsys.readouterr().out

    def test_run_twice_is_byte_identical_on_disk(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("scenario=fm\nagent=greedy\nlifetime=4\nclass=uniform16\nseed=3\n")
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert main(["run", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
            outs.append(out)
        for fname in ("trace.csv", "manifest.txt", "results.txt"):
            assert (outs[0] / fname).read_bytes() == (outs[1] / fname).read_bytes()

    @pytest.mark.parametrize(
        "first, second",
        [
            ("scenario=heavenhell\nlifetime=12\n", "scenario=heavenhell\nlifetime=2\n"),
            (
                "scenario=heavenhell\nagent=best-vote\nl=8\nlifetime=3\n",
                "scenario=heavenhell\nagent=best-vote\nl=8\nlifetime=1\n",
            ),
        ],
        ids=["informed", "best-vote"],
    )
    def test_a_rerun_into_an_existing_out_overwrites_every_artifact(
        self, first, second, tmp_path, capsys
    ):
        cfg, out = tmp_path / "cfg.txt", tmp_path / "out"
        for text in (first, second):
            cfg.write_text(text)
            assert main(["run", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
        art = run_scenario(parse_config(second))
        expected = {
            "trace.csv": art.trace_csv,
            "manifest.txt": art.manifest,
            "results.txt": art.results,
        }
        if art.selection_csv is not None:
            expected["selection.csv"] = art.selection_csv
        assert {p.name: p.read_bytes() for p in out.iterdir()} == {
            name: text.encode() for name, text in expected.items()
        }
        assert ("selection.csv" in expected) == ("best-vote" in second)

    def test_seed_flag_overrides_the_config(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(HEAVEN)
        out = tmp_path / "out"
        main(["run", "--config", str(cfg), "--out", str(out), "--seed", "42"])
        assert "seed=42" in (out / "manifest.txt").read_text()

    def test_invalid_config_exits_1_and_lists_violations(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("scenario=flying\nagent=psychic\nlifetime=0\n")
        assert main(["run", "--config", str(cfg)]) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.count("validation error:") == 3

    @pytest.mark.parametrize(
        "extras, named",
        [
            ("scenario=onlyone\nn=x\n", "validation error: n must be an integer, got 'x'\n"),
            ("scenario=heavenhell\ni=x\n", "validation error: i must be an integer, got 'x'\n"),
            ("scenario=heavenhell\ni=\n", "validation error: i must be an integer, got ''\n"),
            ("scenario=onlyone\nn=abc\n", "validation error: n must be an integer, got 'abc'\n"),
            (
                "scenario=onlyone\ny_star=z\n",
                "validation error: y_star must be an integer, got 'z'\n",
            ),
            (
                "scenario=onlyone\nn=abc\ny_star=z\n",
                "validation error: n must be an integer, got 'abc'\n"
                "validation error: y_star must be an integer, got 'z'\n",
            ),
            (
                "scenario=sp\nsequences=01:1/2;1x:1/2\n",
                "validation error: sp sequence '1x': symbols must be 0 or 1\n",
            ),
            (
                "scenario=sp\nsequences=01\n",
                "validation error: sp sequence '01': no probability\n",
            ),
            ("scenario=sg\n", "'env_file'"),
            ("scenario=tabular\nenv_file=no-such-file.txt\n", "no-such-file.txt"),
            ("scenario=sp\nsequences=0:1/2;1:1/4\n", "scenario=sp: "),
            ("scenario=heavenhell\ni=5\n", "i must be 0 or 1"),
            ("scenario=tabular\nenv_file=truncated.txt\n", "truncated.txt: line 5: "),
            ("scenario=onlyone\nn=0\n", "validation error: n=0 is below 1\n"),
            ("scenario=onlyone\nn=-1\n", "validation error: n=-1 is below 1\n"),
            ("scenario=onlyone\nn=4\ny_star=4\n", "validation error: y_star=4 outside [0, n)\n"),
            (
                "scenario=fm\nenv_file=no-actions.txt\n",
                "validation error: no-actions.txt: actions 0 is below 1\n",
            ),
            (
                "scenario=tabular\nenv_file=zero-tabular.txt\n",
                "validation error: zero-tabular.txt: actions 0 is below 1\n"
                "validation error: zero-tabular.txt: observations 0 is below 1\n",
            ),
            (
                "scenario=sg\nenv_file=zero-game.txt\n",
                "validation error: zero-game.txt: rounds 0 is below 1\n"
                "validation error: zero-game.txt: moves 0 is below 1\n"
                "validation error: zero-game.txt: replies 0 is below 1\n",
            ),
        ],
        ids=[
            "n-not-int", "i-not-int", "i-empty", "n-abc", "y-star-not-int", "n-and-y-star",
            "sp-not-a-bit", "sp-no-probability", "sg-no-env-file", "missing-env-file",
            "sp-mass", "i-5", "truncated-key", "n-0", "n-negative", "y-star-n",
            "fm-no-actions", "tabular-zero-counts", "sg-zero-counts",
        ],
    )
    def test_bad_scenario_extras_exit_1_without_a_traceback(
        self, extras, named, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "truncated.txt").write_text(
            "actions=2\nobservations=1\nrewards=0,1\ndepth=1\ny:0 r:1/1 | 1/2 1/2\n"
        )
        (tmp_path / "no-actions.txt").write_text("actions=0\nz=0,1\n | 1\n")
        (tmp_path / "zero-tabular.txt").write_text(
            "actions=0\nobservations=0\nrewards=0,1\ndepth=0\n"
        )
        (tmp_path / "zero-game.txt").write_text("rounds=0\nmoves=0\nreplies=0\n0 0 | 1\n")
        (tmp_path / "cfg.txt").write_text(extras + "lifetime=2\n")
        assert main(["run", "--config", "cfg.txt"]) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.startswith("validation error: ")
        assert named in err
        assert "Traceback" not in err

    def test_the_readme_config_example_runs(self, tmp_path, capsys):
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
        after = readme.split("A config is line-oriented `key=value` text")[1]
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(after.split("```\n")[1])
        assert "# heavenhell | onlyone" in cfg.read_text()
        assert main(["run", "--config", str(cfg)]) == EXIT_OK
        assert "cycles=10" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "scenario, text, lines",
        [
            (
                "tabular",
                "actions=2\nobservations=1 oops\nrewards=0,1\ndepth=1\n"
                "y:0 | 1/2 1/2\ny:1 | 1/2 1/2\ny:0 | 1 0\n",
                (2, 7),
            ),
            (
                "sg",
                "rounds=1\nmoves=2\nturns=2\nreplies=2\n"
                "0 0 | 1\n0 1 | 1/0\n1 0 | 1\n1 1 | 0\n",
                (3, 6),
            ),
            (
                "fm",
                "actions=2\nz=1,2\nactions=2\n# a comment | with a bar\n"
                "0 1 | 1/2\n1 x | 1/2\n",
                (3, 6),
            ),
        ],
    )
    def test_an_env_file_with_two_defects_exits_1_and_names_both_lines(
        self, scenario, text, lines, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "env.txt").write_text(text)
        (tmp_path / "cfg.txt").write_text(f"scenario={scenario}\nenv_file=env.txt\nlifetime=1\n")
        assert main(["run", "--config", "cfg.txt"]) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err.count("validation error: env.txt: line ") == 2
        for n in lines:
            assert f"env.txt: line {n}: " in err

    def test_an_fm_config_with_an_unknown_class_does_not_run_its_env_file(
        self, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "env.txt").write_text("actions=2\nz=0,1\n0 0 | 1/2\n1 1 | 1/2\n")
        (tmp_path / "cfg.txt").write_text("scenario=fm\nlifetime=2\nenv_file=env.txt\n")
        assert main(["run", "--config", "cfg.txt"]) == EXIT_OK
        capsys.readouterr()
        (tmp_path / "cfg.txt").write_text("scenario=fm\nlifetime=2\nenv_file=env.txt\nclass=bogus\n")
        assert main(["run", "--config", "cfg.txt"]) == EXIT_VALIDATION
        assert "unknown class 'bogus'" in capsys.readouterr().err

    def test_a_function_class_file_with_a_negative_rmax_names_the_file_and_rmax(
        self, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "env.txt").write_text("actions=2\nz=0,1\nrmax=-1\n0 0 | 1/2\n1 1 | 1/2\n")
        (tmp_path / "cfg.txt").write_text("scenario=fm\nlifetime=2\nenv_file=env.txt\n")
        assert main(["run", "--config", "cfg.txt"]) == EXIT_VALIDATION
        assert capsys.readouterr().err == "validation error: env.txt: rmax -1 is below 0\n"

    @pytest.mark.parametrize(
        "config, env_file, violation",
        [
            (
                "scenario=heavenhell\nlifetime=2\nhorizon=proportional:1e5000\n",
                None,
                "bad horizon 'proportional:1e5000': a rational of more than 4300 digits",
            ),
            (
                "scenario=heavenhell\nlifetime=2\nhorizon=geometric:1e-10000000:2\n",
                None,
                "bad horizon 'geometric:1e-10000000:2': a rational of more than 4300 digits",
            ),
            (
                "scenario=tabular\nlifetime=1\nenv_file=env.txt\n",
                "actions=2\nobservations=1\nrewards=0,1e5000\ndepth=1\n",
                "env.txt: line 3: bad value of 'rewards': a rational of more than 4300 digits",
            ),
            (
                "scenario=tabular\nlifetime=1\nenv_file=env.txt\n",
                "actions=2\nobservations=1\nrewards=0,1\ndepth=1\n"
                "y:0 | 1e10000000 0\ny:1 | 1 0\n",
                "env.txt: line 5: bad row 'y:0': a rational of more than 4300 digits",
            ),
        ],
        ids=["proportional", "geometric", "tabular-rewards", "tabular-row"],
    )
    def test_a_rational_too_long_to_write_back_exits_1_at_once(
        self, config, env_file, violation, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.chdir(tmp_path)
        if env_file is not None:
            (tmp_path / "env.txt").write_text(env_file)
        (tmp_path / "cfg.txt").write_text(config)
        start = time.perf_counter()
        assert main(["run", "--config", "cfg.txt", "--out", "out"]) == EXIT_VALIDATION
        assert time.perf_counter() - start < 0.5  # parsing 1e10000000 took 7 s
        err = capsys.readouterr().err
        assert err == f"validation error: {violation}, its exponent counted\n"

    @pytest.mark.parametrize(
        "config, env_file, violation",
        [
            (
                "scenario=heavenhell\nlifetime=2\nhorizon=proportional:1/0\n",
                None,
                "bad horizon 'proportional:1/0'",
            ),
            (
                "scenario=heavenhell\nlifetime=2\nhorizon=geometric:1/0:3\n",
                None,
                "bad horizon 'geometric:1/0:3'",
            ),
            ("scenario=sp\nlifetime=2\nsequences=01:1/0\n", None, "sp sequence '01'"),
            (
                "scenario=tabular\nlifetime=1\nenv_file=env.txt\n",
                "actions=2\nobservations=1\nrewards=0,1/0\ndepth=1\n",
                "env.txt: line 3: bad value of 'rewards'",
            ),
        ],
        ids=["proportional", "geometric", "sp", "tabular-rewards"],
    )
    def test_a_zero_denominator_is_named_and_exits_1(
        self, config, env_file, violation, tmp_path, monkeypatch, capsys
    ):
        # the error once read only "Fraction(1, 0)"
        monkeypatch.chdir(tmp_path)
        if env_file is not None:
            (tmp_path / "env.txt").write_text(env_file)
        (tmp_path / "cfg.txt").write_text(config)
        assert main(["run", "--config", "cfg.txt", "--out", "out"]) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err == f"validation error: {violation}: zero denominator in '1/0'\n"

    def test_a_geometric_gamma_whose_power_is_too_long_to_write_exits_1(
        self, tmp_path, monkeypatch, capsys
    ):
        # gamma^64 has 6,401 digits: the run once failed with a traceback
        # when it wrote a planner value
        monkeypatch.chdir(tmp_path)
        horizon = "geometric:1/1" + "0" * 99 + "1:64"
        (tmp_path / "cfg.txt").write_text(
            f"scenario=heavenhell\nagent=informed\nlifetime=64\nhorizon={horizon}\n"
        )
        assert main(["run", "--config", "cfg.txt", "--out", "out"]) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err == (
            f"validation error: bad horizon '{horizon}': "
            "gamma^64 would have more than 4300 digits\n"
        )

    @pytest.mark.parametrize(
        "sequences, violations",
        [
            ("012:1", ["sp sequence '012': symbols must be 0 or 1"]),
            (
                "01:3/2;10:-1/2",
                ["sp sequence '10': probability -1/2 is negative"],
            ),
            (
                "02:1/2;11:1/4;30:1/4;00:-1/4",
                [
                    "sp sequence '00': probability -1/4 is negative",
                    "sp sequence '02': symbols must be 0 or 1",
                    "sp sequence '30': symbols must be 0 or 1",
                ],
            ),
            ("0:1/2;0:1/2;1:1/2", ["sp sequence '0': listed 2 times"]),
            (
                "02:1/2;11:1/4;02:-1/4;11:1/2;11:0",
                [
                    "sp sequence '02': listed 2 times",
                    "sp sequence '02': symbols must be 0 or 1",
                    "sp sequence '02': probability -1/4 is negative",
                    "sp sequence '11': listed 3 times",
                ],
            ),
        ],
        ids=["not-a-bit", "negative", "each-listed", "repeated", "repeated-and-bad"],
    )
    def test_each_bad_sp_sequence_is_its_own_violation(
        self, sequences, violations, tmp_path, capsys
    ):
        # a symbol other than 0/1 once ran (no action matches it), a
        # negative probability was reported as an overweight mixture, and a
        # repeated sequence silently replaced the earlier one
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(f"scenario=sp\nlifetime=2\nsequences={sequences}\n")
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err == "".join(f"validation error: {v}\n" for v in violations)

    def test_an_sg_episodes_key_is_an_unknown_key(self, tmp_path, capsys):
        # episodes set only an attribute no run read
        (tmp_path / "game.txt").write_text(
            "rounds=1\nmoves=2\nreplies=2\n0 0 | 1\n0 1 | 1\n1 0 | 1\n1 1 | 0\n"
        )
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(f"scenario=sg\nlifetime=2\nenv_file={tmp_path / 'game.txt'}\nepisodes=2\n")
        assert main(["run", "--config", str(cfg)]) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err == "validation error: unknown key 'episodes' for scenario=sg agent=informed\n"
        cfg.write_text(f"scenario=sg\nlifetime=2\nenv_file={tmp_path / 'game.txt'}\n")
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == EXIT_OK

    @pytest.mark.parametrize("program", ["zz", "5", "x:1f", "5:zz"])
    def test_a_malformed_program_exits_1_without_a_traceback(self, program, tmp_path, capsys):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(f"scenario=heavenhell\nagent=program\nprogram={program}\nlifetime=2\n")
        assert main(["run", "--config", str(cfg)]) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.startswith("validation error: agent=program: ")
        assert err.count("\n") == 1

    def test_unknown_keys_exit_1_and_are_each_listed(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("scenario=heavenhell\nlifetime=2\nbogus=1\nn=4\nprogram=9:088\n")
        assert main(["run", "--config", str(cfg)]) == EXIT_VALIDATION
        err = capsys.readouterr().err
        for key in ("bogus", "n", "program"):
            assert f"validation error: unknown key {key!r}" in err
        assert err.count("validation error:") == 3

    @pytest.mark.parametrize("where", ["missing", "directory"])
    def test_an_unreadable_config_exits_1_without_a_traceback(self, where, tmp_path, capsys):
        path = tmp_path / "no-such-cfg.txt" if where == "missing" else tmp_path
        assert main(["run", "--config", str(path)]) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.startswith("validation error: --config: ")
        assert str(path) in err
        assert err.count("\n") == 1

    @pytest.mark.parametrize(
        "argv",
        [
            ["run", "--config", "ok.txt", "--out", "ok.txt/sub"],
            ["run", "--config", "ok.txt", "--out", "ok.txt/a/b"],
            ["verify", "--l", "4", "--out", "ok.txt/x"],
            ["enumerate", "--l", "4", "--out", "ok.txt/x"],
        ],
        ids=["run", "run-nested", "verify", "enumerate"],
    )
    def test_an_out_path_that_cannot_be_written_exits_1_without_a_traceback(
        self, argv, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "ok.txt").write_text("scenario=heavenhell\nlifetime=2\n")
        assert main(argv) == EXIT_VALIDATION
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("validation error: --out: ")
        assert f"{argv[-1]!r}" in err
        assert err.count("\n") == 1

    @pytest.mark.parametrize("seed", ["-5", str(2**31 + 1)])
    def test_a_seed_flag_out_of_range_exits_1(self, seed, tmp_path, capsys):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(HEAVEN)
        out = tmp_path / "out"
        args = ["run", "--config", str(cfg), "--out", str(out), "--seed", seed]
        assert main(args) == EXIT_VALIDATION
        assert capsys.readouterr().err == (
            f"validation error: --seed={seed} outside [0, {2**31}]\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv", [[], ["run"], ["run", "--config"], ["run", "--seed", "x"]],
        ids=["no-command", "no-config", "config-without-path", "seed-not-int"],
    )
    def test_a_usage_error_prints_the_usage_and_exits_1(self, argv, capsys):
        with pytest.raises(SystemExit) as exit_:
            main(argv)
        assert exit_.value.code == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.startswith("usage: unimix")
        assert "error: " in err

    def test_the_threads_flag_is_gone(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(HEAVEN)
        with pytest.raises(SystemExit):
            main(["run", "--config", str(cfg), "--threads", "2"])
        assert "--threads" in capsys.readouterr().err

    def test_verify_passes_and_prints_verdicts(self, tmp_path, capsys):
        report = tmp_path / "verify.txt"
        assert main(["verify", "--l", "8", "--strict", "--out", str(report)]) == EXIT_OK
        text = report.read_text()
        assert "[holds] kraft sum at l=8" in text
        assert "FAILS" not in text

    @pytest.mark.parametrize("command", ["enumerate", "verify"])
    def test_a_pool_bound_below_1_exits_1_without_a_traceback(self, command, capsys):
        assert main([command, "--l", "0"]) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err == "validation error: --l must be at least 1, got 0\n"

    @pytest.mark.parametrize("command", ["enumerate", "verify"])
    def test_a_pool_bound_above_the_cap_exits_2_without_a_traceback(self, command, capsys):
        assert main([command, "--l", "40"]) == EXIT_CAPACITY
        err = capsys.readouterr().err
        assert err == f"capacity error: --l 40 exceeds the pool cap of {cli.L_CAP} bits\n"

    @pytest.mark.parametrize(
        "world, l_max",
        [
            ("scenario=onlyone\nlifetime=3\nn=2\n", 6),
            ("scenario=fm\nlifetime=4\nclass=uniform16\n", 10),
        ],
        ids=["onlyone", "fm"],
    )
    def test_a_world_outside_the_pool_exits_2_without_a_traceback(
        self, world, l_max, tmp_path, capsys
    ):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(f"{world}agent=mixture\nl={l_max}\n")
        assert main(["run", "--config", str(cfg)]) == EXIT_CAPACITY
        assert capsys.readouterr().err == (
            f"capacity error: no program of at most {l_max} bits reproduces "
            "the history at cycle 1\n"
        )

    def test_enumerate_lists_the_pool(self, capsys):
        assert main(["enumerate", "--l", "4"]) == EXIT_OK
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 1  # only the bare terminator fits in 4 bits
        assert lines[0].startswith("3:0")

    def test_disasm_round_trip(self, capsys):
        echo = decode((0, 1, 0, 0, 0, 1, 0, 0, 0))
        assert main(["disasm", echo.to_hex()]) == EXIT_OK
        out = capsys.readouterr().out
        for mnemonic in ("IN", "OUT", "END"):
            assert mnemonic in out

    def test_disasm_rejects_malformed_hex(self, capsys):
        assert main(["disasm", "4:f"]) == EXIT_VALIDATION
        assert "validation error" in capsys.readouterr().err

    def test_a_class_build_past_its_cap_runs_the_per_program_mixture(self, monkeypatch):
        # heavenhell at l=12 and lifetime 3 needs 506 signature entries
        cfg = parse_config("scenario=heavenhell\nagent=mixture\nlifetime=3\nl=12\n")
        classed = run_scenario(cfg)
        assert len(cli._build_agent(cfg, cli._build_env(cfg))[1].components) == 7
        monkeypatch.setattr(models, "CLASS_CAP", 100)
        assert len(cli._build_agent(cfg, cli._build_env(cfg))[1].components) == 193
        capped = run_scenario(cfg)
        assert capped.trace_csv == classed.trace_csv
        assert capped.results == classed.results

    def test_capacity_errors_exit_2(self, tmp_path, monkeypatch, capsys):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(HEAVEN)
        monkeypatch.setattr(
            cli, "run_scenario", lambda c: (_ for _ in ()).throw(CapacityError("too big"))
        )
        assert main(["run", "--config", str(cfg)]) == EXIT_CAPACITY
        assert "capacity error" in capsys.readouterr().err

    def test_a_world_past_the_action_cap_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(f"scenario=onlyone\nlifetime=2\nn={ACTION_CAP + 1}\n")
        assert main(["run", "--config", str(cfg)]) == EXIT_CAPACITY
        assert capsys.readouterr().err == (
            f"capacity error: more than {ACTION_CAP} actions in an alphabet\n"
        )

    def test_an_unmerged_expectimax_past_the_memo_cap_exits_2(self, tmp_path, capsys):
        # lazy merges no histories: a lifetime-64 decision would solve 2^64 - 1 nodes
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("scenario=lazy\nagent=informed\nlifetime=64\n")
        assert main(["run", "--config", str(cfg)]) == EXIT_CAPACITY
        assert capsys.readouterr().err == (
            f"capacity error: the decisions up to cycle 1 solved more than {PLAN_MEMO_CAP} "
            "distinct belief states\n"
        )

    def test_a_moving_horizon_past_the_run_budget_exits_2(self, tmp_path, capsys):
        # Each decision solves 2^13 - 1 nodes afresh; the fifth passes the budget.
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("scenario=lazy\nagent=informed\nlifetime=64\nhorizon=moving:13\n")
        assert main(["run", "--config", str(cfg)]) == EXIT_CAPACITY
        assert capsys.readouterr().err == (
            f"capacity error: the decisions up to cycle 5 solved more than "
            f"{PLAN_MEMO_CAP} distinct belief states\n"
        )

    def test_a_fixed_horizon_decision_just_under_the_memo_cap_runs(self, tmp_path, capsys):
        # 2^15 - 1 nodes in the first decision; the other 14 find theirs in its memo.
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("scenario=lazy\nagent=informed\nlifetime=15\n")
        assert main(["run", "--config", str(cfg)]) == EXIT_OK
        assert "cycles=15" in capsys.readouterr().out

    def test_strict_bound_failure_exits_3(self, monkeypatch, capsys):
        failing = [BoundReport(Fraction(2), Fraction(1), False, "synthetic")]
        monkeypatch.setattr(cli, "verify_invariants", lambda l: failing)
        assert main(["verify", "--strict"]) == EXIT_BOUND
        assert main(["verify"]) == EXIT_OK  # advisory without --strict


# --- The command line: read without argparse, the same output as the whole CLI's


def parsed(parse, argv):
    """(exit code or None, stdout, stderr, vars of the namespace or None)."""
    out, err = io.StringIO(), io.StringIO()
    code = args = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            args = vars(parse(argv))
        except SystemExit as e:
            code = e.code
    return code, out.getvalue(), err.getvalue(), args


_HEX = decode((0, 1, 0, 0, 0, 1, 0, 0, 0)).to_hex()


@pytest.mark.parametrize("columns", ["80", "200"])
@pytest.mark.parametrize(
    "argv",
    [
        [], ["-h"], ["--help"], ["bogus"], ["run"], ["run", "-h"], ["run", "--config"],
        ["run", "--seed", "x"], ["run", "--config", "c", "--threads", "2"], ["-x", "run"],
        ["verify", "-h"], ["verify", "--l", "x"], ["enumerate"], ["enumerate", "-h"],
        ["disasm"], ["disasm", "-h"], ["disasm", "a", "b"],
    ],
    ids=" ".join,
)
def test_usage_help_and_errors_equal_the_whole_cli_parser(argv, columns, monkeypatch):
    """Each argv exits while it is parsed, with the code, stdout and stderr of
    the parser of the whole CLI."""
    monkeypatch.setenv("COLUMNS", columns)

    def run_main(argv):
        main(argv)
        raise AssertionError("main returned")

    got = parsed(run_main, argv)
    assert got[0] is not None
    assert got == parsed(reference.parse_args, argv)


@pytest.mark.parametrize(
    "argv",
    [
        ["run", "--co", "c"], ["run", "--config=c", "--seed", "-5"],
        ["run", "--config", "c", "--out", "o"], ["verify"], ["verify", "--strict"],
        ["enumerate", "--l", "4"], ["disasm", _HEX],
    ],
    ids=" ".join,
)
def test_a_valid_argv_parses_as_the_whole_cli_parses_it(argv):
    got = parsed(cli.parse_args, argv)
    assert got[0] is None
    assert got == parsed(reference.parse_args, argv)


# Every command and flag, abbreviations, the spellings argparse reads on its
# own (--flag=value, -h, --help, --), values that start with "-", and values
# that int reads, fails on or reads after a strip.
_TOKENS = (
    *cli.COMMANDS, "bogus",
    *sorted({flag for _, arguments in cli.COMMANDS.values() for flag, _ in arguments
             if flag[0] == "-"}),
    "--co", "--o", "--s", "--st", "--config=c", "-h", "--help", "--", "-5", "-", "",
    "x", "4", " 7", "--threads",
)


@st.composite
def _argvs(draw):
    """0-6 of ``_TOKENS``.  Half of them are a command and then words, each
    a token or one of that command's flags and a token, so that some are
    read without argparse (few argvs drawn token by token are)."""
    if draw(st.booleans()):
        return draw(st.lists(st.sampled_from(_TOKENS), max_size=6))
    command = draw(st.sampled_from(tuple(cli.COMMANDS)))
    flags = [flag for flag, _ in cli.COMMANDS[command][1] if flag[0] == "-"]
    token = st.sampled_from(_TOKENS)
    word = token.map(lambda t: [t])
    if flags:
        word = st.one_of(word, st.tuples(st.sampled_from(flags), token).map(list))
    words = draw(st.lists(word, max_size=5))
    return ([command] + [t for w in words for t in w])[:6]


@settings(max_examples=400, deadline=None)
@given(_argvs())
def test_every_argv_parses_as_the_whole_cli_parses_it(argv):
    with mock.patch.dict(os.environ, {"COLUMNS": "80"}):
        assert parsed(cli.parse_args, argv) == parsed(reference.parse_args, argv)


@pytest.mark.parametrize(
    "argv",
    [["run", "--config", "cfg.txt"], ["verify", "--l", "4"], ["enumerate", "--l", "4"],
     ["disasm", _HEX]],
    ids=lambda argv: argv[0],
)
def test_a_valid_command_builds_no_parser(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "cfg.txt").write_text("scenario=heavenhell\nlifetime=2\n")
    built = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    assert main(argv) == EXIT_OK
    assert built == []


def test_main_without_argv_reads_the_process_arguments(monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", ["unimix", "disasm", _HEX])
    assert main() == EXIT_OK
    assert capsys.readouterr().out == decode((0, 1, 0, 0, 0, 1, 0, 0, 0)).disassemble() + "\n"
