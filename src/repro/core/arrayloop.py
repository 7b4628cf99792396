"""Compile-on-first-use loader for the C delivery loop of ``arraystate``.

``_arrayloop.c`` is shipped as source and built lazily with the platform C
compiler into a content-hash-keyed cache (``~/.cache/repro-arrayloop``), so
the repo needs no build step, no setuptools machinery, and no wheel: the
first eligible run pays ~1s of ``cc -O2`` once per source revision and
every later process dlopens the cached object.  Anything going wrong --
no compiler, an unusable cache directory, a failed build or import,
constant drift between the C file and the Python modules it encodes --
degrades to ``None``: the array core's gate then declines every run as
``no-c-loop`` and the object loop (``Simulator.run_for``) runs it, the
same results several times slower.  The failed attempt warns (once per
process: the miss is memoized) and :func:`why_missing` keeps the cause.

Set ``REPRO_PURE_PYTHON=1`` to force that fallback silently (CI runs the
whole suite a second time under it).
"""

from __future__ import annotations

import hashlib
import importlib.util
import os
import shutil
import subprocess
import sys
import sysconfig
import warnings
from pathlib import Path
from typing import Optional

from collections import deque

from repro.core.messages import (
    MSG_TYPES,
    T_CONQUER,
    T_INFO,
    T_MERGE_ACCEPT,
    T_MERGE_FAIL,
    T_MORE_DONE,
    T_PROBE,
    T_PROBE_REPLY,
    T_QUERY,
    T_QUERY_REPLY,
    T_RELEASE,
    T_SEARCH,
    WIRE_MERGE_ACCEPT,
    WIRE_MERGE_FAIL,
    WIRE_MORE_DONE_FALSE,
    WIRE_MORE_DONE_TRUE,
)
from repro.core.node import STATUS_CODES, VARIANTS
from repro.sim.network import SimulationError

__all__ = ["load", "why_missing"]

_SOURCE = Path(__file__).with_name("_arrayloop.c")

#: sentinel distinguishing "never tried" from "tried and unavailable"
_UNSET = object()
_module = _UNSET
#: why ``_module`` is ``None``, one short line (``None`` while it is not).
_cause: Optional[str] = None

_DELIBERATE = "REPRO_PURE_PYTHON is set"


class _Unavailable(Exception):
    """Internal: no C loop in this process; the message is the cause."""


def _constants_match() -> bool:
    """The C file hardcodes the wire/status/variant encodings; refuse to
    load it if the Python side ever drifts (fallback stays correct)."""
    tags = (
        (T_QUERY, 0),
        (T_QUERY_REPLY, 1),
        (T_SEARCH, 2),
        (T_RELEASE, 3),
        (T_MERGE_ACCEPT, 4),
        (T_MERGE_FAIL, 5),
        (T_INFO, 6),
        (T_CONQUER, 7),
        (T_MORE_DONE, 8),
        (T_PROBE, 9),
        (T_PROBE_REPLY, 10),
    )
    if any(py != c for py, c in tags) or len(MSG_TYPES) != 11:
        return False
    statuses = (
        ("asleep", 0),
        ("explore", 1),
        ("wait", 2),
        ("conquered", 3),
        ("conqueror", 4),
        ("passive", 5),
        ("inactive", 6),
        ("terminated", 7),
    )
    if any(STATUS_CODES.get(name) != code for name, code in statuses):
        return False
    return tuple(VARIANTS) == ("generic", "bounded", "adhoc")


def _build() -> Path:
    """Compile ``_arrayloop.c`` into the cache; return the .so path."""
    try:
        source = _SOURCE.read_bytes()
    except OSError as exc:
        raise _Unavailable(f"cannot read {_SOURCE.name}: {exc}")
    tag = hashlib.sha256(source).hexdigest()[:16]
    cache = Path(
        os.environ.get("REPRO_ARRAYLOOP_CACHE")
        or Path.home() / ".cache" / "repro-arrayloop"
    )
    name = f"_arrayloop_{tag}_cp{sys.version_info[0]}{sys.version_info[1]}"
    so_path = cache / (name + ".so")
    if so_path.exists():
        return so_path
    cc = (sysconfig.get_config_var("CC") or "cc").split()[0]
    if shutil.which(cc) is None:
        if shutil.which("cc") is None:
            raise _Unavailable(f"no C compiler on PATH (tried {cc!r} and 'cc')")
        cc = "cc"
    include = sysconfig.get_paths().get("include")
    if not include:
        raise _Unavailable("no Python include directory")
    try:
        cache.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise _Unavailable(f"cache directory unusable: {exc}")
    tmp = so_path.with_name(f"{name}.{os.getpid()}.tmp.so")
    try:
        proc = subprocess.run(
            [cc, "-O2", "-fPIC", "-shared", "-I" + include,
             str(_SOURCE), "-o", str(tmp)],
            capture_output=True,
            timeout=300,
        )
        if proc.returncode != 0:
            stderr = proc.stderr.decode(errors="replace").strip().splitlines()
            raise _Unavailable(
                f"{cc} failed: {stderr[0] if stderr else proc.returncode}"
            )
        os.replace(tmp, so_path)  # atomic: concurrent builders converge
        return so_path
    except (OSError, subprocess.SubprocessError) as exc:
        raise _Unavailable(f"{cc} did not run: {exc}")
    finally:
        try:
            if tmp.exists():
                tmp.unlink()
        except OSError:
            pass


def _import() -> object:
    """Build, import and configure the module, or raise :class:`_Unavailable`."""
    if os.environ.get("REPRO_PURE_PYTHON"):
        raise _Unavailable(_DELIBERATE)
    if not _constants_match():
        raise _Unavailable("wire/status/variant encodings drifted from _arrayloop.c")
    so_path = _build()
    try:
        spec = importlib.util.spec_from_file_location(
            "repro.core._arrayloop", so_path
        )
        mod = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(mod)
        mod.configure(
            {
                "deque": deque,
                "simulation_error": SimulationError,
                "msg_types": MSG_TYPES,
                "wire_merge_accept": WIRE_MERGE_ACCEPT,
                "wire_merge_fail": WIRE_MERGE_FAIL,
                "wire_md_true": WIRE_MORE_DONE_TRUE,
                "wire_md_false": WIRE_MORE_DONE_FALSE,
                "greedy_k": 1 << 62,
            }
        )
    except Exception as exc:  # a missing spec included
        raise _Unavailable(f"import of {so_path.name} failed: {exc}")
    return mod


def load():
    """Return the configured ``_arrayloop`` module, or ``None``.

    Idempotent and memoized, the ``None`` outcome included, so safe to
    call per run -- and the one attempt that fails is the one that warns:
    a missing C loop costs every eligible run 2.5-6x (DESIGN.md SS15)
    (``REPRO_PURE_PYTHON`` is deliberate, and silent).
    """
    global _module, _cause
    if _module is _UNSET:
        try:
            _module = _import()
        except _Unavailable as exc:
            _module = None  # stays a cheap memoized miss
            _cause = str(exc)
            if _cause != _DELIBERATE:
                warnings.warn(
                    f"C delivery loop unavailable ({_cause}); eligible runs "
                    "take the object loop: same results, several times slower",
                    RuntimeWarning,
                    stacklevel=2,
                )
    return _module


def why_missing() -> str:
    """One line saying why :func:`load` answers ``None`` (no recorded
    cause: the loader succeeded and a caller -- the differential tests --
    emptied the memo to pin the fallback)."""
    return _cause or "unloaded by the caller"
