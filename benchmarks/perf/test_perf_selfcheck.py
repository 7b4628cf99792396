"""Self-check of the benchmark driver, at toy size.

Not part of the tier-1 ``testpaths``; run it explicitly::

    PYTHONPATH=src python -m pytest benchmarks/perf/test_perf_selfcheck.py -q

Every workload runs with n <= 64, 8 cells and two timed repeats
(``--toy --seconds 0``), untraced and traced, and the names the driver
emits are held against ``BENCHMARK.json``.
"""

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def run_benchmark(*args):
    return subprocess.run(
        [sys.executable, str(HERE / "run.py"), *args],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )


def toy_run(out_path, *args):
    """One toy run of all six workloads; returns (result lines, --out document)."""
    proc = run_benchmark("--toy", "--seconds", "0", "--out", str(out_path), *args)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = [
        json.loads(line)
        for line in proc.stdout.splitlines()
        if line.startswith('{"correct"')
    ]
    return lines, json.loads(out_path.read_text())


@pytest.fixture(scope="module")
def untraced(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("untraced")
    return [toy_run(tmp / f"{i}.json") for i in range(2)]


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("traced")
    return toy_run(tmp / "t.json", "--trace", "--trace-out", str(tmp / "spans.json"))


@pytest.mark.parametrize("section, fixture", [("end_to_end", "untraced"), ("per_layer", "traced")])
def test_emitted_names_equal_the_declaration(section, fixture, request):
    data = request.getfixturevalue(fixture)
    lines, document = data[0] if fixture == "untraced" else data
    declared = {m["name"]: m["unit"] for m in SPEC[section]}
    assert list(document["workloads"]) == WORKLOADS
    assert len(lines) == len(WORKLOADS)
    for name in [*WORKLOADS, *declared]:
        assert NAME.fullmatch(name), name
    for line in lines:
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["correct"] is True and line["failed"] == 0 and line["attempted"] >= 1
        assert {k: v["unit"] for k, v in line["metrics"].items()} == declared
    for record in document["workloads"].values():
        assert set(record[section]) <= set(declared)


def test_end_to_end_metrics_are_never_zero(untraced):
    lines, _document = untraced[0]
    for line in lines:
        for name, metric in line["metrics"].items():
            assert metric["value"] > 0, name


def test_every_layer_metric_is_measured_somewhere(traced):
    _lines, document = traced
    measured = set()
    for name, record in document["workloads"].items():
        assert record["absent_spans"] == [], name
        measured |= {k for k, v in record["per_layer"].items() if v is not None}
    assert measured == {m["name"] for m in SPEC["per_layer"]}


def test_exact_metrics_repeat_across_invocations(untraced, traced):
    (_, first), (_, second) = untraced
    for name in WORKLOADS:
        a, b, t = (doc["workloads"][name] for doc in (first, second, traced[1]))
        assert a["fingerprint"] == b["fingerprint"] == t["fingerprint"], name
        assert a["exact"] == b["exact"] == t["exact"], name
        assert a["end_to_end"]["sim_messages"] == b["end_to_end"]["sim_messages"], name


def test_compare_flags_an_exact_metric_that_moved(untraced, tmp_path):
    _, document = untraced[0]
    same = tmp_path / "same.json"
    same.write_text(json.dumps(document))
    assert run_benchmark("--compare", str(same), str(same)).returncode == 0
    document["workloads"]["discover-small"]["end_to_end"]["sim_messages"] += 1
    moved = tmp_path / "moved.json"
    moved.write_text(json.dumps(document))
    proc = run_benchmark("--compare", str(same), str(moved))
    assert proc.returncode == 1 and "DISAGREE" in proc.stdout


@pytest.mark.parametrize("workload", WORKLOADS)
def test_injected_failure_fails_the_run(workload):
    proc = run_benchmark(
        "--toy", "--seconds", "0", "--workload", workload, "--inject-failure"
    )
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert proc.returncode != 0
    assert line["correct"] is False and line["failed"] > 0
    assert line["failed"] / line["attempted"] > 0  # fail_ratio
