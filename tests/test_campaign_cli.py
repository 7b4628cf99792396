"""Tests for ``python -m repro campaign ...``.

The in-process tests drive :func:`repro.cli.main` directly; the
acceptance-grade kill-and-resume test runs a real subprocess, SIGKILLs it
mid-campaign, resumes, and checks the zero-recompute audit plus bitwise
report identity against an uninterrupted control campaign.
"""

import json
import os
import pathlib
import signal
import subprocess
import sys
import time

import pytest

from repro.campaign.cli import parse_grid
from repro.campaign.store import DONE, CampaignStore
from repro.cli import main

TOY = "tests.test_parallel:exp_toy"
SLEEPY = "tests.test_parallel:exp_sleepy"

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent


def subprocess_env():
    env = dict(os.environ)
    src = str(REPO_ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return env


def run_cli(*argv, **kwargs):
    return subprocess.run(
        [sys.executable, "-m", "repro", *argv],
        cwd=REPO_ROOT,
        env=subprocess_env(),
        capture_output=True,
        text=True,
        timeout=kwargs.pop("timeout", 120),
        **kwargs,
    )


class TestGridParsing:
    def test_cross_product(self):
        combos = parse_grid(["n=16,24", "family=ring,tree"])
        assert len(combos) == 4
        assert {"n": 16, "family": "ring"} in combos
        assert {"n": 24, "family": "tree"} in combos

    def test_bracketed_values_stay_whole(self):
        combos = parse_grid(["ns=[16,32],[64,128]"])
        assert combos == [{"ns": [16, 32]}, {"ns": [64, 128]}]

    def test_strings_pass_through(self):
        assert parse_grid(["family=sparse-random"]) == [
            {"family": "sparse-random"}
        ]

    def test_no_axes_is_single_empty_combo(self):
        assert parse_grid([]) == [{}]

    def test_malformed_axis_rejected(self):
        with pytest.raises(ValueError, match="KEY=V1"):
            parse_grid(["scale"])
        with pytest.raises(ValueError, match="no values"):
            parse_grid(["scale="])


class TestCampaignCommands:
    def test_init_run_status_report_roundtrip(self, tmp_path, capsys):
        db = str(tmp_path / "c.db")
        assert main(
            [
                "campaign", "init", "--db", db, "--exp", TOY,
                "--seeds", "0:4", "--grid", "scale=2,3",
            ]
        ) == 0
        assert "8 cells" in capsys.readouterr().out

        assert main(["campaign", "run", "--db", db, "--quiet"]) == 0
        out = capsys.readouterr().out
        assert "computed 8 cell(s) (8 stored, 0 redundant" in out

        assert main(
            [
                "campaign", "status", "--db", db,
                "--assert-complete", "--assert-no-recompute",
            ]
        ) == 0
        assert "done=8" in capsys.readouterr().out

        bench = tmp_path / "bench.json"
        assert main(
            ["campaign", "report", "--db", db, "--bench-out", str(bench)]
        ) == 0
        out = capsys.readouterr().out
        assert "folded 8 new cell(s)" in out
        payload = json.loads(bench.read_text())
        assert {group["kwargs"]["scale"] for group in payload} == {2, 3}
        assert all(group["cells"] == 4 for group in payload)

    def test_status_json(self, tmp_path, capsys):
        db = str(tmp_path / "c.db")
        main(["campaign", "init", "--db", db, "--exp", TOY, "--seeds", "0:2"])
        capsys.readouterr()
        assert main(["campaign", "status", "--db", db, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["cells"] == 2
        assert payload["pending"] == 2
        assert payload["redundant"] == 0

    def test_run_resume_is_idempotent(self, tmp_path, capsys):
        db = str(tmp_path / "c.db")
        main(["campaign", "init", "--db", db, "--exp", TOY, "--seeds", "0:3"])
        assert main(["campaign", "run", "--db", db, "--quiet"]) == 0
        capsys.readouterr()
        assert main(["campaign", "resume", "--db", db, "--quiet"]) == 0
        assert "computed 0 cell(s)" in capsys.readouterr().out

    @pytest.mark.parametrize("verb", ["run", "resume"])
    def test_progress_is_one_line_per_cell_unless_quiet(self, verb, tmp_path, capsys):
        """``campaign run`` / ``resume`` print ``sweep``'s progress lines, one
        per computed cell; ``--quiet`` prints none."""
        for quiet in (False, True):
            db = str(tmp_path / f"c{quiet}.db")
            main(["campaign", "init", "--db", db, "--exp", TOY, "--seeds", "0:3"])
            capsys.readouterr()
            argv = ["campaign", verb, "--db", db] + ["--quiet"] * quiet
            assert main(argv) == 0
            lines = capsys.readouterr().err.splitlines()
            if quiet:
                assert lines == []
                continue
            assert lines[0] == "queued 3 job(s)"
            assert [line.split()[:4] for line in lines[1:-1]] == [
                [f"[{seed + 1}/3]", "done", TOY, f"seed={seed}"] for seed in range(3)
            ]
            assert lines[-1].startswith("sweep finished in ")

    def test_unwritable_bench_out_exits_2_before_folding(self, tmp_path, capsys):
        db = str(tmp_path / "c.db")
        main(["campaign", "init", "--db", db, "--exp", TOY, "--seeds", "0:3"])
        assert main(["campaign", "run", "--db", db, "--quiet"]) == 0
        capsys.readouterr()
        bad = str(tmp_path / "no-such-dir" / "out.json")
        assert main(["campaign", "report", "--db", db, "--bench-out", bad]) == 2
        captured = capsys.readouterr()
        assert "cannot write --bench-out" in captured.err
        assert "Traceback" not in captured.err and captured.out == ""
        # Nothing was folded: the next report folds all three cells.
        assert main(["campaign", "report", "--db", db]) == 0
        assert "folded 3 new cell(s)" in capsys.readouterr().out

    def test_max_cells_then_resume(self, tmp_path, capsys):
        db = str(tmp_path / "c.db")
        main(["campaign", "init", "--db", db, "--exp", TOY, "--seeds", "0:6"])
        assert main(
            ["campaign", "run", "--db", db, "--max-cells", "2", "--quiet"]
        ) == 0
        out = capsys.readouterr().out
        assert "computed 2 cell(s)" in out
        assert main(["campaign", "resume", "--db", db, "--quiet"]) == 0
        assert main(
            [
                "campaign", "status", "--db", db,
                "--assert-complete", "--assert-no-recompute",
            ]
        ) == 0

    def test_failed_cells_reported_with_nonzero_exit(self, tmp_path, capsys):
        flaky = "tests.test_parallel:exp_flaky"
        db = str(tmp_path / "c.db")
        main(
            [
                "campaign", "init", "--db", db, "--exp", flaky,
                "--seeds", "0:3", "--backoff", "0",
            ]
        )
        capsys.readouterr()
        assert main(["campaign", "run", "--db", db, "--quiet"]) == 1
        captured = capsys.readouterr()
        assert "failed=1" in captured.out
        assert "failed permanently" in captured.err
        assert "boom" in captured.err

    def test_assert_flags_fail_on_incomplete(self, tmp_path, capsys):
        db = str(tmp_path / "c.db")
        main(["campaign", "init", "--db", db, "--exp", TOY, "--seeds", "0:2"])
        capsys.readouterr()
        assert main(["campaign", "status", "--db", db, "--assert-complete"]) == 1
        assert "assert-complete failed" in capsys.readouterr().err

    def test_bad_chunk_and_lease_exit_2(self, tmp_path, capsys):
        db = str(tmp_path / "c.db")
        for lease in ("0", "-1"):
            assert main(
                [
                    "campaign", "init", "--db", db, "--exp", TOY,
                    "--seeds", "0:2", "--lease", lease,
                ]
            ) == 2
            assert "lease must be > 0" in capsys.readouterr().err
        main(["campaign", "init", "--db", db, "--exp", TOY, "--seeds", "0:2"])
        capsys.readouterr()
        assert main(["campaign", "run", "--db", db, "--chunk", "0", "--quiet"]) == 2
        assert "bad --chunk" in capsys.readouterr().err
        for cells in ("0", "-5"):
            assert main(
                ["campaign", "run", "--db", db, "--max-cells", cells, "--quiet"]
            ) == 2
            captured = capsys.readouterr()
            assert f"bad --max-cells: must be >= 1, got {cells}" in captured.err
            assert captured.out == ""

    def test_missing_db_is_a_clean_error(self, tmp_path, capsys):
        assert main(
            ["campaign", "run", "--db", str(tmp_path / "nope.db"), "--quiet"]
        ) == 2
        assert "campaign init" in capsys.readouterr().err

    def test_code_drift_refused_unless_allowed(self, tmp_path, capsys, monkeypatch):
        db = str(tmp_path / "c.db")
        main(["campaign", "init", "--db", db, "--exp", TOY, "--seeds", "0:2"])
        capsys.readouterr()
        monkeypatch.setattr(
            "repro.campaign.store.protocol_code_digest", lambda: "deadbeef"
        )
        assert main(["campaign", "run", "--db", db, "--quiet"]) == 2
        assert "source changed" in capsys.readouterr().err
        assert main(
            ["campaign", "run", "--db", db, "--quiet", "--allow-code-drift"]
        ) == 0


class TestKillAndResume:
    """The acceptance scenario: SIGKILL a campaign worker mid-flight,
    resume, and demand zero recomputed done cells plus a report bitwise
    identical to an uninterrupted control campaign."""

    GRID = ["--seeds", "0:10", "--grid", "duration=0.25", "--lease", "1"]

    def init(self, db):
        result = run_cli(
            "campaign", "init", "--db", db, "--exp", SLEEPY, *self.GRID
        )
        assert result.returncode == 0, result.stderr

    def test_sigkill_then_resume_recomputes_nothing(self, tmp_path):
        db = str(tmp_path / "killed.db")
        self.init(db)
        # its own session, so the pool workers it forks share its group id
        worker = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "campaign", "run",
                "--db", db, "--workers", "2", "--quiet",
            ],
            cwd=REPO_ROOT,
            env=subprocess_env(),
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
            start_new_session=True,
        )
        try:
            # Let it get a cell or two done (10 cells x 0.25s / 2 workers),
            # then kill it.  The store is polled: a fixed sleep lands after
            # the last cell whenever start-up takes under ~0.35 s.
            store = CampaignStore.open(db)
            try:
                deadline = time.monotonic() + 60
                while store.counts()[DONE] < 1 and time.monotonic() < deadline:
                    time.sleep(0.01)
            finally:
                store.close()
            worker.send_signal(signal.SIGKILL)
            worker.wait(timeout=30)
            # The workers notice their parent is gone and exit: nothing of
            # the killed campaign is left running.
            deadline = time.monotonic() + 5
            with pytest.raises(ProcessLookupError):
                while time.monotonic() < deadline:
                    os.killpg(worker.pid, 0)
                    time.sleep(0.1)
        finally:
            try:
                os.killpg(worker.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass

        status = run_cli("campaign", "status", "--db", db, "--json")
        before = json.loads(status.stdout)
        assert 0 < before["done"] < 10, (
            f"kill landed outside the campaign window: {before}"
        )

        resumed = run_cli(
            "campaign", "resume", "--db", db, "--workers", "2", "--quiet",
            timeout=300,
        )
        assert resumed.returncode == 0, resumed.stderr
        audit = run_cli(
            "campaign", "status", "--db", db,
            "--assert-complete", "--assert-no-recompute",
        )
        assert audit.returncode == 0, audit.stdout + audit.stderr

        after = json.loads(
            run_cli("campaign", "status", "--db", db, "--json").stdout
        )
        assert after["done"] == 10
        assert after["redundant"] == 0
        # computed == done + any transient retries; with none expected here
        # the resumed campaign did exactly the missing work.
        assert after["computed"] == 10

        # Bitwise-identical report vs an uninterrupted control campaign.
        control_db = str(tmp_path / "control.db")
        self.init(control_db)
        control = run_cli(
            "campaign", "run", "--db", control_db, "--workers", "2", "--quiet",
            timeout=300,
        )
        assert control.returncode == 0, control.stderr
        killed_bench = tmp_path / "killed.json"
        control_bench = tmp_path / "control.json"
        run_cli("campaign", "report", "--db", db, "--bench-out", str(killed_bench))
        run_cli(
            "campaign", "report", "--db", control_db,
            "--bench-out", str(control_bench),
        )
        assert killed_bench.read_bytes() == control_bench.read_bytes()
