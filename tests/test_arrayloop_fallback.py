"""Fallback audit of the C loop's loader (``repro.core.arrayloop``).

Every way of not getting a C loop must end in a slower *correct* run that
says why: the gate declines as ``no-c-loop``, ``run_graph`` runs the
reference simulation, one ``RuntimeWarning`` per process names the cause,
and the results equal the ``fast=False`` run.  And the one way of getting
it that involves a race -- several processes meeting an empty cache at
once -- must leave every one of them on the C loop.  A cached object the
interpreter cannot load is dropped, not kept to pin every later process to
the fallback; one refused by the generator layout check is kept.  And the loader is where the C file gets every number it
uses: a copy of the package with two rows of the wire table swapped builds
a *different* object and both engines still agree.

Each case is a fresh interpreter with its own ``REPRO_ARRAYLOOP_CACHE``:
the loader memoizes per process and warns once per process.
"""

import json
import os
import shutil
import subprocess
import sys
import sysconfig
from pathlib import Path

import pytest

from repro.core import arrayloop

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
#: the compiler the loader tries first (then ``cc``)
CC = (sysconfig.get_config_var("CC") or "cc").split()[0]

#: Prints one JSON line: what the gate said, the loader's cause, the
#: warnings raised over a graph draw and three offers, and the run against
#: ``fast=False``.
SCRIPT = """
import json, warnings
from repro.analysis.experiments import build_family
from repro.core import arrayloop
from repro.core.arraystate import run_graph
from repro.core.runner import build_simulation, default_step_budget

def run(fast):
    sim, nodes = build_simulation(graph, "generic", seed=3, fast=fast)
    sim.run(default_step_budget(graph))
    stats = sim.stats
    return [sim._last_run_path, sim._last_decline], [
        sim.steps,
        list(stats.messages_by_type.items()),
        list(stats.bits_by_type.items()),
        sorted(x for x, node in nodes.items() if node.is_leader),
    ]

with warnings.catch_warnings(record=True) as caught:
    warnings.simplefilter("always")
    graph = build_family("sparse-random", 64, 1)  # the draw loads it first
    said, outcome = run(True)
    scale = run_graph(graph, "generic", seed=3)
    run(True)
_, reference = run(False)
print(json.dumps({
    "said": said,
    "cause": arrayloop._cause,
    "warnings": [str(w.message) for w in caught if w.category is RuntimeWarning],
    "fingerprint": outcome,
    "equal": outcome == reference,
    "scale_equal": [
        scale.steps,
        list(scale.stats.messages_by_type.items()),
        list(scale.stats.bits_by_type.items()),
        sorted(scale.leaders),
    ] == reference,
}))
"""


def _env(cache, path=None, src=SRC):
    env = dict(os.environ, PYTHONPATH=str(src), REPRO_ARRAYLOOP_CACHE=str(cache))
    env.pop("REPRO_PURE_PYTHON", None)  # these are the *involuntary* legs
    if path is not None:
        env["PATH"] = str(path)
    return env


def _spawn(cache, path=None, src=SRC, preamble=""):
    return subprocess.Popen(
        [sys.executable, "-c", preamble + SCRIPT], env=_env(cache, path, src), text=True,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )


def _report(proc):
    out, err = proc.communicate(timeout=300)
    assert proc.returncode == 0, err
    return json.loads(out)


def _no_compiler(tmp_path):
    empty = tmp_path / "bin"
    empty.mkdir()
    return tmp_path / "cache", empty, f"no C compiler on PATH (tried {CC!r} and 'cc')"


def _unusable_cache(tmp_path):
    # ``chmod`` does not stop root (which CI boxes run as); a regular file
    # where the directory should be stops everybody.
    blocker = tmp_path / "cache"
    blocker.write_text("not a directory")
    return blocker / "arrayloop", None, "cache directory unusable: "


def _failing_compiler(tmp_path):
    fake = tmp_path / "bin"
    fake.mkdir()
    for name in {"cc", CC}:
        script = fake / name
        script.write_text("#!/bin/sh\necho 'fake: cannot compile' >&2\necho more >&2\nexit 1\n")
        script.chmod(0o755)
    return tmp_path / "cache", fake, " failed: fake: cannot compile"


@pytest.mark.parametrize(
    "broken", [_no_compiler, _unusable_cache, _failing_compiler],
    ids=["no-compiler", "unusable-cache", "failing-compiler"],
)
def test_every_missing_c_loop_is_a_slower_correct_run_that_says_why(broken, tmp_path):
    cache, path, cause = broken(tmp_path)
    if path is not None and os.path.isabs(CC):
        pytest.skip(f"this Python's CC is {CC}: PATH cannot hide it")
    report = _report(_spawn(cache, path))
    assert report["said"] == ["legacy", "no-c-loop"]
    assert cause in report["cause"]
    assert report["equal"] and report["scale_equal"]
    # A draw and three offers (gate, run_graph, gate), one warning, carrying
    # the cause.
    (warning,) = report["warnings"]
    assert report["cause"] in warning and "object loop" in warning


def test_build_flags_name_their_own_object(monkeypatch):
    """``REPRO_ARRAYLOOP_CFLAGS`` goes on the ``cc`` line after the -D set
    and into the object's name: a sanitizer build and the plain one share a
    cache without ever loading each other."""
    source = arrayloop._SOURCE.read_bytes()
    monkeypatch.delenv("REPRO_ARRAYLOOP_CFLAGS", raising=False)
    plain = arrayloop._flags()
    asan = "-O1 -g -fsanitize=address,undefined -fno-omit-frame-pointer"
    monkeypatch.setenv("REPRO_ARRAYLOOP_CFLAGS", asan)
    sanitized = arrayloop._flags()
    assert sanitized == plain + asan.split()
    assert arrayloop._so_path(source, sanitized) != arrayloop._so_path(source, plain)
    assert arrayloop._so_path(source, sanitized).parent == arrayloop._so_path(
        source, plain
    ).parent


needs_cc = pytest.mark.skipif(
    shutil.which(CC) is None and shutil.which("cc") is None,
    reason="no C compiler on this box",
)


@needs_cc
def test_processes_racing_the_first_compile_all_get_the_c_loop(tmp_path):
    cache = tmp_path / "cache"  # does not exist yet: all four build
    reports = [_report(proc) for proc in [_spawn(cache) for _ in range(4)]]
    for report in reports:
        assert report["said"] == ["array", None] and report["cause"] is None
        assert report["warnings"] == []
        assert report["equal"] and report["scale_equal"]
        assert report["fingerprint"] == reports[0]["fingerprint"]
    # Concurrent builders converge on one object and leave no temporaries.
    assert [p.suffix for p in cache.iterdir()] == [".so"]


@needs_cc
def test_an_unloadable_cached_object_is_dropped_and_rebuilt(tmp_path):
    cache = tmp_path / "cache"
    assert _report(_spawn(cache))["said"] == ["array", None]
    (built,) = cache.iterdir()
    built.write_bytes(b"not an object this interpreter can load")
    poisoned = _report(_spawn(cache))
    assert poisoned["said"] == ["legacy", "no-c-loop"]
    assert f"import of {built.name} failed" in poisoned["cause"]
    assert poisoned["equal"] and poisoned["scale_equal"]
    assert list(cache.iterdir()) == []
    assert _report(_spawn(cache))["said"] == ["array", None]
    assert [p.name for p in cache.iterdir()] == [built.name]


@needs_cc
def test_swapped_table_rows_renumber_both_engines(tmp_path):
    """Neither the C file nor any Python module keeps a private copy of the
    wire table: with two rows (two wire tags) swapped in a copy of the
    package, the loader builds another object, the C loop engages, and the
    array core still equals the reference bit for bit."""
    swapped = tmp_path / "src"
    shutil.copytree(
        SRC / "repro", swapped / "repro", ignore=shutil.ignore_patterns("__pycache__")
    )
    table = swapped / "repro" / "core" / "messages.py"
    conquer = '    (Conquer, (("leader", "id"), ("phase", "int"))),\n'
    more_done = '    (MoreDone, (("has_more", "flag"),)),\n'
    text = table.read_text()
    assert conquer + more_done in text
    table.write_text(text.replace(conquer + more_done, more_done + conquer))

    stock = _report(_spawn(tmp_path / "stock"))
    report = _report(_spawn(tmp_path / "cache", src=swapped))
    assert report["said"] == ["array", None] and report["warnings"] == []
    assert report["equal"] and report["scale_equal"]
    assert report["fingerprint"] == stock["fingerprint"]
    (stock_so,) = (tmp_path / "stock").iterdir()
    (swapped_so,) = (tmp_path / "cache").iterdir()
    assert stock_so.name != swapped_so.name

    differential = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "tests/test_arraystate.py", "tests/test_handback.py", "-k",
         "TestEveryStepCut or TestRunGraphDifferential or TestStepLimitAndResume"
         " or TestChannelSlotForms or test_handback"],
        cwd=ROOT, env=_env(tmp_path / "cache", src=swapped), text=True,
        capture_output=True, timeout=600,
    )
    assert differential.returncode == 0, differential.stdout + differential.stderr


#: Run before SCRIPT: the loader hands ``configure()`` a generator type
#: laid out otherwise than ``_random.Random`` -- wider instances, or words
#: that getstate() reports otherwise than they lie in memory.
WIDER = """
import _random
from repro.core import arrayloop
class Wider(_random.Random):
    __slots__ = ("pad",)
_config = arrayloop._config
arrayloop._config = lambda: dict(_config(), random=Wider, mt19937=Wider)
"""
MISREPORTED = """
import random
from repro.core import arrayloop
class Misreported(random.Random):
    __slots__ = ()
    def getstate(self):
        version, words, gauss = super().getstate()
        return version, (words[0] ^ 1,) + words[1:], gauss
_config = arrayloop._config
arrayloop._config = lambda: dict(_config(), random=Misreported)
"""


@needs_cc
@pytest.mark.parametrize(
    "preamble, cause",
    [
        (WIDER, "generator layout: Wider instances are "),
        (MISREPORTED, "generator layout: the words and index read in place differ"),
    ],
    ids=["wider", "misreported"],
)
def test_a_generator_layout_refusal_is_a_slower_correct_run(tmp_path, preamble, cause):
    """The C file copies the generator's words in place; where the layout
    check refuses, the module is not installed, every run takes the object
    loop with the same results, one warning and ``why_missing()`` say why
    in one line, and the built object stays in the cache (a rebuild would
    not change the interpreter)."""
    cache = tmp_path / "cache"
    report = _report(_spawn(cache, preamble=preamble))
    assert report["said"] == ["legacy", "no-c-loop"]
    assert report["cause"].startswith(cause) and "\n" not in report["cause"]
    assert report["equal"] and report["scale_equal"]
    (warning,) = report["warnings"]
    assert report["cause"] in warning
    assert [p.suffix for p in cache.iterdir()] == [".so"]


def test_a_refused_configure_installs_nothing():
    """A refusal leaves the configuration in force as it was: the loaded
    module keeps drawing from a ``random.Random``."""
    import _random
    import random

    module = arrayloop.load()
    if module is None:
        pytest.skip(f"no C loop: {arrayloop.why_missing()}")

    class Wider(_random.Random):
        __slots__ = ("pad",)

    refusal = module.configure(dict(arrayloop._config(), random=Wider, mt19937=Wider))
    assert refusal.startswith("generator layout: Wider instances are ")
    assert module.configure(dict(arrayloop._config(), random=int)).startswith(
        "generator layout: the rng type is not a subtype"
    )
    off, mem = module.draw_graph(random.Random(3), 20, 10)
    assert len(off) == 21 and len(mem) == 29
