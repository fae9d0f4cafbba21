"""Unified ``python -m repro`` CLI tests: subcommand smoke runs over
the app scenarios, ``--help`` snapshots, exit codes on bad arguments,
JSON output, and the run-store management subcommand."""

import json
import time

import pytest

from repro.cli import main as cli
from repro.search.store import RunStore
from repro.serve import JobRegistry
from repro.session import Session
from repro.session.request import JobSpec
from repro.util.errors import ConfigError

#: fast search arguments shared by the store-backed tests
_FAST = ["--budget", "3", "--strategies", "greedy"]


def _run_search_into(store, extra=()):
    code = cli(
        ["search", "--kernel", "kmeans", *_FAST, "--store", str(store),
         *extra]
    )
    assert code == 0
    return RunStore(store)


class TestHelp:
    def test_top_level_help_lists_subcommands(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli(["--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        for name in (
            "estimate", "sweep", "tune", "search", "plan", "runs", "serve",
        ):
            assert name in out

    def test_version_flag(self, capsys):
        from repro import __version__

        with pytest.raises(SystemExit) as exc:
            cli(["--version"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.strip() == f"repro {__version__}"

    def test_no_subcommand_prints_help(self, capsys):
        assert cli([]) == 2
        assert "usage: python -m repro" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "command,needle",
        [
            ("estimate", "--point"),
            ("sweep", "--aggregate"),
            ("tune", "--robust"),
            ("search", "--store"),
            ("plan", "--all"),
            ("runs", "--prune"),
            ("serve", "--max-queue"),
        ],
    )
    def test_subcommand_help(self, capsys, command, needle):
        with pytest.raises(SystemExit) as exc:
            cli([command, "--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert needle in out
        assert "--help" in out


class TestBadArgs:
    def test_unknown_subcommand_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli(["frobnicate"])
        assert exc.value.code == 2
        capsys.readouterr()

    def test_unknown_kernel_exits_2(self, capsys):
        assert cli(["estimate", "--kernel", "nope"]) == 2
        assert "unknown kernel" in capsys.readouterr().err

    def test_missing_kernel_lists_and_exits_2(self, capsys):
        assert cli(["tune"]) == 2
        assert "available scenarios" in capsys.readouterr().out

    def test_list_exits_0(self, capsys):
        assert cli(["search", "--list"]) == 0
        assert "kmeans" in capsys.readouterr().out

    def test_point_out_of_range_exits_2(self, capsys):
        assert cli(
            ["estimate", "--kernel", "kmeans", "--point", "99"]
        ) == 2
        assert "out of range" in capsys.readouterr().err

    def test_search_resume_requires_store(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli(["search", "--kernel", "kmeans", "--resume"])
        assert exc.value.code == 2
        capsys.readouterr()

    def test_plan_requires_plan_or_all(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            cli(["plan", "--store", str(tmp_path)])
        assert exc.value.code == 2
        capsys.readouterr()

    def test_runs_requires_store(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli(["runs"])
        assert exc.value.code == 2
        capsys.readouterr()

    def test_runs_nonexistent_store_exits_2_without_mkdir(
        self, tmp_path, capsys
    ):
        missing = tmp_path / "typo-path"
        assert cli(["runs", "--store", str(missing)]) == 2
        assert "does not exist" in capsys.readouterr().err
        assert not missing.exists()  # no side-effect mkdir

    def test_bad_flag_value_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli(["search", "--kernel", "kmeans", "--budget", "lots"])
        assert exc.value.code == 2
        capsys.readouterr()

    def test_sweep_without_samples_exits_2(self, capsys):
        # kmeans ships no input sweep
        assert cli(["sweep", "--kernel", "kmeans"]) == 2
        assert "no input sweep" in capsys.readouterr().err

    def test_robust_tune_without_samples_exits_2(self, capsys):
        assert cli(["tune", "--kernel", "kmeans", "--robust"]) == 2
        assert "no input sweep" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv,spec",
        [
            (["tune", "--kernel", "blackscholes", "--threshold", "-1"],
             {"kind": "tune", "kernel": "blackscholes", "threshold": -1}),
            (["tune", "--kernel", "blackscholes", "--threshold", "0"],
             {"kind": "tune", "kernel": "blackscholes", "threshold": 0}),
            (["search", "--kernel", "kmeans", "--budget", "0"],
             {"kind": "search", "kernel": "kmeans", "budget": 0}),
            (["tune", "--kernel", "kmeans", "--aggregate", "max"],
             {"kind": "tune", "kernel": "kmeans", "aggregate": "max"}),
        ],
    )
    def test_values_serve_rejects_exit_2(self, argv, spec, capsys):
        # the CLI rejects exactly what the job server answers 400 for,
        # with the shared spec's message
        with pytest.raises(ConfigError) as exc:
            JobSpec.from_dict(spec)
        assert cli(argv) == 2
        assert f"error: {exc.value}" in capsys.readouterr().err

    def test_bad_aggregate_is_usage_error(self, capsys):
        # ConfigError raised mid-command maps to exit 2, like argparse
        assert cli(
            ["sweep", "--kernel", "blackscholes", "--aggregate", "p999"]
        ) == 2
        assert "error:" in capsys.readouterr().err


class TestEstimate:
    def test_smoke_and_json(self, tmp_path, capsys):
        out = tmp_path / "est.json"
        assert cli(
            ["estimate", "--kernel", "kmeans", "--json", str(out)]
        ) == 0
        text = capsys.readouterr().out
        assert "total error" in text
        payload = json.loads(out.read_text())
        assert payload["kernel"] == "kmeans_cost"
        assert payload["total_error"] > 0
        assert payload["per_variable"]

    def test_adapt_model(self, capsys):
        assert cli(
            ["estimate", "--kernel", "kmeans", "--model", "adapt"]
        ) == 0
        assert "per-variable" in capsys.readouterr().out


class TestSweep:
    def test_smoke_and_json(self, tmp_path, capsys):
        out = tmp_path / "sweep.json"
        assert cli(
            ["sweep", "--kernel", "blackscholes", "--model", "adapt",
             "--aggregate", "p95", "--json", str(out)]
        ) == 0
        text = capsys.readouterr().out
        assert "total error [p95]" in text
        payload = json.loads(out.read_text())
        assert payload["n"] > 0
        assert payload["aggregate"] == "p95"


class TestTune:
    def test_point_mode(self, capsys):
        assert cli(
            ["tune", "--kernel", "kmeans", "--threshold", "1e-6"]
        ) == 0
        out = capsys.readouterr().out
        assert "configuration" in out
        assert "estimated error" in out

    def test_robust_mode_and_json(self, tmp_path, capsys):
        out = tmp_path / "tune.json"
        assert cli(
            ["tune", "--kernel", "blackscholes", "--robust",
             "--json", str(out)]
        ) == 0
        assert "robust [max]" in capsys.readouterr().out
        payload = json.loads(out.read_text())
        assert payload["kernel"] == "bs_price"
        assert isinstance(payload["demoted"], list)


class TestSearch:
    def test_smoke_with_store_and_resume(self, tmp_path, capsys):
        store = tmp_path / "runs"
        _run_search_into(store)
        out1 = capsys.readouterr().out
        assert "run store: run=" in out1
        assert "Pareto" in out1 or "front size" in out1
        assert cli(
            ["search", "--kernel", "kmeans", *_FAST,
             "--store", str(store), "--resume"]
        ) == 0
        assert "computed=0" in capsys.readouterr().out

    def test_json_result(self, tmp_path, capsys):
        out = tmp_path / "search.json"
        assert cli(
            ["search", "--kernel", "kmeans", *_FAST, "--json", str(out)]
        ) == 0
        capsys.readouterr()
        payload = json.loads(out.read_text())
        assert payload["kernel"] == "kmeans_cost"
        assert payload["front"]


class TestPlan:
    def test_plan_file_roundtrip(self, tmp_path, capsys):
        plan = {
            "entries": [
                {"scenario": "kmeans", "budget": 3,
                 "strategies": ["greedy"]}
            ]
        }
        plan_path = tmp_path / "plan.json"
        plan_path.write_text(json.dumps(plan))
        store = tmp_path / "runs"
        out = tmp_path / "plan-result.json"
        assert cli(
            ["plan", "--plan", str(plan_path), "--store", str(store),
             "--json", str(out)]
        ) == 0
        text = capsys.readouterr().out
        assert "kmeans" in text and "completed" in text
        payload = json.loads(out.read_text())
        assert payload["ok"] is True
        # resumed second run restores from the store
        assert cli(
            ["plan", "--plan", str(plan_path), "--store", str(store)]
        ) == 0
        assert "restored" in capsys.readouterr().out

    def test_legacy_search_plan_flags_still_work(self, tmp_path, capsys):
        plan_path = tmp_path / "plan.json"
        plan_path.write_text(json.dumps(
            {"entries": [{"scenario": "kmeans", "budget": 3,
                          "strategies": ["greedy"]}]}
        ))
        store = tmp_path / "runs"
        assert cli(
            ["search", "--plan", str(plan_path), "--store", str(store)]
        ) == 0
        assert "kmeans" in capsys.readouterr().out


class TestRuns:
    def test_list_compare_prune_diff(self, tmp_path, capsys):
        store = tmp_path / "runs"
        rs = _run_search_into(store)
        cli(
            ["search", "--kernel", "kmeans", "--budget", "4",
             "--strategies", "greedy", "--store", str(store)]
        )
        capsys.readouterr()

        assert cli(["runs", "--store", str(store)]) == 0
        listing = capsys.readouterr().out
        assert "2 stored run(s)" in listing
        assert "completed" in listing

        assert cli(["runs", "--store", str(store), "--compare"]) == 0
        compared = capsys.readouterr().out
        assert "comparing 2 run(s)" in compared
        assert "best@thr" in compared

        ids = [m["run_id"][:12] for m in rs.list_runs()]
        assert cli(
            ["runs", "--store", str(store), "--diff", ids[0], ids[1]]
        ) == 0
        assert "front diff" in capsys.readouterr().out

        assert cli(
            ["runs", "--store", str(store), "--prune", "--max-runs",
             "1", "--dry-run"]
        ) == 0
        assert "would prune 1 run(s)" in capsys.readouterr().out
        assert len(rs.list_runs()) == 2

        assert cli(
            ["runs", "--store", str(store), "--prune", "--max-runs", "1"]
        ) == 0
        assert "pruned 1 run(s)" in capsys.readouterr().out
        assert len(rs.list_runs()) == 1

    def test_prune_without_criteria_exits_2(self, tmp_path, capsys):
        store = tmp_path / "runs"
        store.mkdir()
        assert cli(["runs", "--store", str(store), "--prune"]) == 2
        assert "criterion" in capsys.readouterr().err

    def test_criteria_without_prune_exits_2(self, tmp_path, capsys):
        # --incomplete alone must not silently fall through to --list
        store = tmp_path / "runs"
        store.mkdir()
        with pytest.raises(SystemExit) as exc:
            cli(["runs", "--store", str(store), "--incomplete"])
        assert exc.value.code == 2
        capsys.readouterr()

    def test_plan_json_with_cache_flag(self, tmp_path, capsys):
        # regression: a live cache object must never leak into the
        # serialized plan defaults
        plan_path = tmp_path / "plan.json"
        plan_path.write_text(json.dumps(
            {"entries": [{"scenario": "kmeans", "budget": 3,
                          "strategies": ["greedy"]}]}
        ))
        out = tmp_path / "plan.json.out"
        assert cli(
            ["plan", "--plan", str(plan_path),
             "--store", str(tmp_path / "runs"),
             "--cache", str(tmp_path / "cache"), "--json", str(out)]
        ) == 0
        capsys.readouterr()
        payload = json.loads(out.read_text())
        assert payload["ok"] is True

    def test_diff_unknown_run_exits_2(self, tmp_path, capsys):
        store = tmp_path / "runs"
        _run_search_into(store)
        capsys.readouterr()
        assert cli(
            ["runs", "--store", str(store), "--diff", "00000000",
             "11111111"]
        ) == 2
        assert "no stored run" in capsys.readouterr().err

    def test_json_output(self, tmp_path, capsys):
        store = tmp_path / "runs"
        _run_search_into(store)
        capsys.readouterr()
        out = tmp_path / "runs.json"
        assert cli(
            ["runs", "--store", str(store), "--json", str(out)]
        ) == 0
        payload = json.loads(out.read_text())
        assert len(payload["runs"]) == 1


# -- one payload per kind -----------------------------------------------------


#: session identity and timings — the only keys allowed to differ
_VOLATILE = {"provenance", "stats", "profile", "wall_time"}


def _serve_result(spec, store):
    reg = JobRegistry(Session(store=store), workers=1)
    try:
        job, _ = reg.submit(JobSpec.from_dict(spec))
        deadline = time.monotonic() + 120
        while reg.get(job.id).state not in ("completed", "failed"):
            assert time.monotonic() < deadline, "job did not finish"
            time.sleep(0.05)
        assert job.state == "completed", job.error
        return json.loads(json.dumps(job.result))
    finally:
        reg.close()


class TestServeParity:
    @pytest.mark.parametrize(
        "argv,spec",
        [
            (["estimate", "--kernel", "kmeans", "--point", "1"],
             {"kind": "estimate", "kernel": "kmeans", "point": 1}),
            (["sweep", "--kernel", "blackscholes", "--aggregate", "p95"],
             {"kind": "sweep", "kernel": "blackscholes",
              "aggregate": "p95"}),
            (["tune", "--kernel", "kmeans", "--threshold", "1e-6"],
             {"kind": "tune", "kernel": "kmeans", "threshold": 1e-6}),
            (["tune", "--kernel", "blackscholes", "--robust"],
             {"kind": "tune", "kernel": "blackscholes", "robust": True}),
            (["analyze", "simpsons", "--demote-to", "f16"],
             {"kind": "analyze", "kernel": "simpsons", "demote_to": "f16"}),
            (["search", "--kernel", "kmeans", *_FAST],
             {"kind": "search", "kernel": "kmeans", "budget": 3,
              "strategies": ["greedy"]}),
        ],
        ids=["estimate", "sweep", "tune-point", "tune-robust", "analyze",
             "search"],
    )
    def test_cli_json_equals_serve_result(self, argv, spec, tmp_path,
                                          capsys):
        out = tmp_path / "cli.json"
        assert cli(
            [*argv, "--store", str(tmp_path / "cli-runs"), "--json",
             str(out)]
            if spec["kind"] == "search" else [*argv, "--json", str(out)]
        ) == 0
        capsys.readouterr()
        via_cli = json.loads(out.read_text())
        via_serve = _serve_result(spec, tmp_path / "serve-runs")
        for payload in (via_cli, via_serve):
            for key in _VOLATILE:
                payload.pop(key, None)
        assert via_cli == via_serve
        if spec["kind"] == "search":
            assert via_cli["run_id"] is not None
            assert via_cli["front"]
