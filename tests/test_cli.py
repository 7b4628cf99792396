"""Tests for the command-line interface."""

import pytest

from repro.cli import EXPERIMENTS, main

TOY = "tests.test_parallel:exp_toy"


class TestRun:
    def test_run_default(self, capsys):
        assert main(["run", "--n", "32"]) == 0
        out = capsys.readouterr().out
        assert "generic: n=32" in out
        assert "complexity bounds" in out
        assert "verified" in out

    @pytest.mark.parametrize("variant", ["generic", "bounded", "adhoc"])
    def test_run_each_variant(self, capsys, variant):
        assert main(["run", "--variant", variant, "--n", "24", "--seed", "2"]) == 0
        assert f"{variant}: n=24" in capsys.readouterr().out

    @pytest.mark.parametrize("scheduler", ["fifo", "lifo", "random", "timed"])
    def test_run_each_scheduler(self, capsys, scheduler):
        assert main(["run", "--n", "16", "--scheduler", scheduler]) == 0
        out = capsys.readouterr().out
        if scheduler == "timed":
            assert "completion time" in out

    def test_run_greedy_ablation(self, capsys):
        assert main(["run", "--n", "24", "--greedy-queries"]) == 0

    def test_greedy_rejected_for_non_generic(self, capsys):
        assert main(["run", "--variant", "adhoc", "--greedy-queries"]) == 2
        assert "only applies" in capsys.readouterr().err

    def test_run_every_family(self, capsys):
        from repro.analysis.experiments import GRAPH_FAMILIES

        for family in sorted(GRAPH_FAMILIES):
            assert main(["run", "--family", family, "--n", "20"]) == 0


class TestExperiments:
    def test_quick_single(self, capsys):
        assert main(["experiments", "EXP-13", "--quick"]) == 0
        out = capsys.readouterr().out
        assert "=== EXP-13 ===" in out
        assert "messages/n" in out

    def test_unknown_experiment(self, capsys):
        assert main(["experiments", "EXP-99"]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_all_quick_experiments_run(self, capsys):
        """Every registered experiment must work at quick size."""
        assert main(["experiments", *sorted(EXPERIMENTS), "--quick"]) == 0
        out = capsys.readouterr().out
        for name in EXPERIMENTS:
            assert f"=== {name} ===" in out


class TestOtherCommands:
    def test_compare(self, capsys):
        assert main(["compare", "--n", "32"]) == 0
        out = capsys.readouterr().out
        assert "flooding" in out
        assert "ad-hoc (this paper)" in out

    def test_lower_bound(self, capsys):
        assert main(["lower-bound", "--height", "4"]) == 0
        assert "floor holds" in capsys.readouterr().out

    def test_families(self, capsys):
        assert main(["families"]) == 0
        out = capsys.readouterr().out
        assert "sparse-random" in out
        assert "tree" in out

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])


class TestChannelsFlag:
    def test_random_channels_run(self, capsys):
        assert main(["run", "--n", "24", "--channels", "random"]) == 0
        out = capsys.readouterr().out
        assert "channel discipline: random" in out
        assert "verified" in out

    def test_random_channels_print_what_fifo_prints(self, capsys):
        argv = ["run", "--n", "24", "--scheduler", "timed"]
        assert main(argv + ["--channels", "random"]) == 0
        out = capsys.readouterr().out
        for block in ("completion time", "messages by type:", "complexity bounds:"):
            assert block in out

    def test_random_channels_validate_what_fifo_validates(self, capsys):
        argv = ["run", "--variant", "adhoc", "--greedy-queries", "--channels"]
        assert main(argv + ["random"]) == 2
        captured = capsys.readouterr()
        assert "only applies" in captured.err and captured.out == ""


class TestSweep:
    def test_sweep_serial_quick(self, capsys, tmp_path):
        assert (
            main(
                [
                    "sweep", "--exp", "strongly-connected", "--seeds", "0:3",
                    "--quick", "--cache-dir", str(tmp_path), "--no-progress",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "=== strongly-connected x 3 seeds ===" in out
        assert "messages/n" in out

    def test_sweep_parallel_matches_serial(self, capsys, tmp_path):
        argv = [
            "sweep", "--exp", "strongly-connected", "--seeds", "0:3",
            "--quick", "--no-cache", "--no-progress",
        ]
        assert main(argv + ["--workers", "1"]) == 0
        serial_out = capsys.readouterr().out
        assert main(argv + ["--workers", "2"]) == 0
        parallel_out = capsys.readouterr().out
        assert serial_out == parallel_out

    def test_sweep_second_run_hits_cache(self, capsys, tmp_path):
        argv = [
            "sweep", "--exp", "strongly-connected", "--seeds", "0,2",
            "--quick", "--cache-dir", str(tmp_path),
        ]
        assert main(argv) == 0
        first = capsys.readouterr()
        assert "2 stores" in first.err
        assert main(argv) == 0
        second = capsys.readouterr()
        assert "2 hits, 0 misses, 0 stores" in second.err
        assert "cached" in second.err
        assert first.out == second.out
        # a widened sweep computes only the new seeds
        assert main(argv + ["--seeds", "0:4"]) == 0
        assert "2 hits, 2 misses, 2 stores" in capsys.readouterr().err

    def test_sweep_comma_seed_list(self, capsys, tmp_path):
        assert (
            main(
                [
                    "sweep", "--exp", "strongly-connected", "--seeds", "4,7",
                    "--quick", "--no-cache", "--no-progress",
                ]
            )
            == 0
        )
        assert "x 2 seeds" in capsys.readouterr().out

    def test_sweep_bad_seed_spec(self, capsys):
        assert main(["sweep", "--exp", "near-linear", "--seeds", "5:2"]) == 2
        assert "bad --seeds" in capsys.readouterr().err
        assert main(["sweep", "--exp", "near-linear", "--seeds", ","]) == 2
        assert "no seeds" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["sweep", "--exp", "strongly-connected", "--quick", "--no-cache"],
            ["chaos", "--scenarios", "baseline", "--n", "8"],
            ["campaign", "init", "--db", "c.db", "--exp", TOY],
        ],
        ids=["sweep", "chaos", "campaign-init"],
    )
    def test_duplicate_seed_rejected(self, argv, capsys, tmp_path, monkeypatch):
        """A seed given twice would be aggregated twice (sweep) or refused
        late as a duplicate cell (campaign): every verb exits 2 up front."""
        monkeypatch.chdir(tmp_path)
        assert main(argv + ["--seeds", "0,3,0"]) == 2
        captured = capsys.readouterr()
        assert "bad --seeds: duplicate seed 0" in captured.err
        assert captured.out == ""
        assert not (tmp_path / "c.db").exists()

    def test_sweep_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            main(["sweep", "--exp", "nope", "--seeds", "0:2"])

    def test_sweep_unwritable_cache_dir_degrades_to_cache_off(
        self, capsys, tmp_path
    ):
        """A bad --cache-dir must not kill the sweep: warn once, run
        uncached, exit 0."""
        blocker = tmp_path / "cache-location"
        blocker.write_text("a file squatting on the cache path")
        assert (
            main(
                [
                    "sweep", "--exp", "strongly-connected", "--seeds", "0:2",
                    "--quick", "--cache-dir", str(blocker), "--no-progress",
                ]
            )
            == 0
        )
        captured = capsys.readouterr()
        assert "=== strongly-connected x 2 seeds ===" in captured.out
        assert "cache disabled" in captured.err

    def test_sweep_retries_recover_and_report(self, capsys, tmp_path, monkeypatch):
        """--max-attempts re-runs failed jobs and the summary mentions it;
        the default (one attempt) fails fast."""
        import functools

        from repro.analysis.experiments import SWEEPABLE_EXPERIMENTS
        from tests.test_parallel import exp_flaky_once

        monkeypatch.setitem(
            SWEEPABLE_EXPERIMENTS,
            "flaky-once",
            functools.partial(exp_flaky_once, flag_dir=str(tmp_path)),
        )
        argv = [
            "sweep", "--exp", "flaky-once", "--seeds", "0:2", "--no-cache",
            "--no-progress",
        ]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert "FAILED flaky-once seed=0: failed (RuntimeError: transient" in captured.err
        assert "retries:" not in captured.err
        assert captured.out == ""
        for flag in tmp_path.iterdir():
            flag.unlink()
        assert main(argv + ["--max-attempts", "2"]) == 0
        err = capsys.readouterr().err
        assert "retries: 2 job(s) took multiple attempts (max 2)" in err


class TestPoolOptions:
    """``sweep``, ``chaos`` and ``campaign run`` share ``--workers`` and
    ``--timeout``: a value the executor cannot run with exits 2, before
    any job runs."""

    ARGV = {
        "sweep": [
            "sweep", "--exp", "strongly-connected", "--quick", "--seeds", "0:2",
            "--no-cache", "--no-progress",
        ],
        "chaos": ["chaos", "--scenarios", "baseline", "--n", "8", "--no-progress"],
        "campaign-run": ["campaign", "run", "--quiet"],
    }

    @pytest.mark.parametrize("verb", sorted(ARGV))
    @pytest.mark.parametrize(
        "bad",
        [("--workers", "0"), ("--timeout", "0"), ("--timeout", "-1")],
        ids=["workers-0", "timeout-0", "timeout-negative"],
    )
    def test_bad_value_exits_2(self, verb, bad, capsys, tmp_path):
        argv = list(self.ARGV[verb])
        if verb == "campaign-run":
            db = str(tmp_path / "c.db")
            main(["campaign", "init", "--db", db, "--exp", TOY])
            argv += ["--db", db]
        capsys.readouterr()
        assert main(argv + list(bad)) == 2
        captured = capsys.readouterr()
        assert f"bad {bad[0]}: must be" in captured.err
        assert captured.out == ""


class TestBadValues:
    """A value no verb can run with exits 2 before anything runs: one
    stderr line, nothing on stdout, no traceback."""

    OUT = "<out>"  # replaced by a writable path
    CHAOS = ["--scenarios", "baseline", "--n", "8", "--seeds", "0:1", "--no-progress"]
    CASES = {
        "run-n=0": ["run", "--n", "0"],
        "compare-n=0": ["compare", "--n", "0"],
        "profile-n=0": ["profile", "--n", "0"],
        "trace-record-n=0": ["trace", "record", "--n", "0", "--out", OUT],
        "trace-record-cadence=0": ["trace", "record", "--cadence", "0", "--out", OUT],
        "serve-sim-n=0": ["serve-sim", "--n", "0"],
        "lower-bound-height=-1": ["lower-bound", "--height", "-1"],
        "serve-sim-rate=-1": ["serve-sim", "--rate", "-1"],
        "serve-sim-duration=0": ["serve-sim", "--duration", "0"],
        "serve-sim-step-budget=0": ["serve-sim", "--step-budget", "0"],
        "serve-sim-cadence=0": ["serve-sim", "--cadence", "0"],
        "serve-sim-faults=loss=2": ["serve-sim", "--faults", "loss=2"],
        "serve-sim-faults=bogus=1": ["serve-sim", "--faults", "bogus=1"],
        "serve-sim-mix=1:2": ["serve-sim", "--mix", "1:2"],
        "serve-sim-burst=1:2": ["serve-sim", "--burst", "1:2"],
        "serve-sim-burst=0:1:2": ["serve-sim", "--burst", "0:1:2"],
        "run-graph-file=missing": ["run", "--graph-file", "/nonexistent/graph.json"],
        "chaos-budget-factor=-3": ["chaos", "--budget-factor", "-3", *CHAOS],
        "chaos-budget-factor=0": ["chaos", "--budget-factor", "0", *CHAOS],
    }

    @pytest.mark.parametrize("case", CASES)
    def test_exits_2_with_one_line(self, case, capsys, tmp_path):
        out = str(tmp_path / "t.jsonl")
        argv = [out if arg == self.OUT else arg for arg in self.CASES[case]]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1 and "Traceback" not in captured.err


class TestOutputPaths:
    """An unwritable output path exits 2 before any work runs."""

    ARGV = {
        "report": ["report", "--quick", "EXP-13", "--out"],
        "sweep": [
            "sweep", "--exp", "strongly-connected", "--quick", "--seeds", "0:1",
            "--no-cache", "--no-progress", "--obs-out",
        ],
        "chaos": [
            "chaos", "--scenarios", "baseline", "--n", "8", "--seeds", "0:1",
            "--no-progress", "--bench-out",
        ],
    }

    @pytest.mark.parametrize("verb", sorted(ARGV))
    def test_missing_directory_exits_2_first(self, verb, tmp_path, capsys):
        path = tmp_path / "missing" / "out"
        assert main(self.ARGV[verb] + [str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: cannot write --")
        assert captured.err.count("\n") == 1
        assert captured.out == ""


class TestServeSim:
    ARGS = [
        "serve-sim", "--rate", "8", "--duration", "1500",
        "--seed", "1", "--n", "32",
    ]

    def test_prints_slo_and_curve_tables(self, capsys):
        assert main(self.ARGS) == 0
        out = capsys.readouterr().out
        assert "poisson workload" in out
        assert "probe latency p50 (steps)" in out
        assert "throughput (probes/kstep)" in out
        assert "Amortized cost curve (Theorem 8):" in out
        assert "msgs/(op*alpha)" in out

    def test_output_is_bitwise_deterministic(self, capsys):
        assert main(self.ARGS) == 0
        first = capsys.readouterr().out
        assert main(self.ARGS) == 0
        assert capsys.readouterr().out == first

    def test_bursty_reports_reconvergence(self, capsys):
        assert main(
            [
                "serve-sim", "--workload", "bursty", "--rate", "8",
                "--duration", "1500", "--seed", "2", "--n", "32", "--verify",
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "churn bursts" in out
        assert "lag max (steps)" in out

    def test_burst_flag_implies_bursty(self, capsys):
        assert main(self.ARGS + ["--burst", "400:40:8"]) == 0
        assert "bursty workload" in capsys.readouterr().out

    def test_mix_flag(self, capsys):
        assert main(self.ARGS + ["--mix", "0:0:1"]) == 0
        out = capsys.readouterr().out
        assert "join: " not in out

    def test_bad_mix_rejected(self, capsys):
        assert main(self.ARGS + ["--mix", "1:2"]) == 2
        assert "--mix wants" in capsys.readouterr().err

    def test_bad_burst_rejected(self, capsys):
        assert main(self.ARGS + ["--burst", "oops"]) == 2
        assert "--burst wants" in capsys.readouterr().err

    def test_obs_out_writes_timeline(self, tmp_path, capsys):
        out_path = tmp_path / "svc.jsonl"
        assert main(self.ARGS + ["--obs-out", str(out_path)]) == 0
        assert out_path.exists()
        assert "timeline written to" in capsys.readouterr().out

    def test_exp_19_registered(self):
        assert "EXP-19" in EXPERIMENTS
