"""Compile-on-first-use loader for the C delivery loop of ``arraystate``.

The module it loads has six entry points: ``run`` (the delivery loop),
three graph kernels, ``range_ranks``, the two orders of the ids
``0..n-1`` that :class:`repro.core.arraystate.IdSpace` takes in place of
sorting their reprs, and ``tick``, the draw and not-due tick loop that
:meth:`repro.sim.network.Simulator.run_for` runs on a random pool.
``draw_graph`` is the random generators' draw
(``generators._arborescence`` plus ``_add_random_edges``, draw for draw),
returning the graph as the CSR slab ``arraystate`` reads as ``core.local``
(``KnowledgeGraph.from_slab``).  ``arraystate._run_columns`` calls the
other two once per from-graph run before the loop: ``fill_local``
(``core.local`` from a set-built graph's successor sets, into a
preallocated slab) and ``component_labels`` (each node's weak component,
as the smallest int in it).  The C file's header states each contract.
Where the module is missing, the generators run their Python loops,
``run_graph`` takes the object route and labels components with
:func:`repro.graphs.components.weakly_connected_components`, and
``run_for`` ticks in Python.

``_arrayloop.c`` is shipped as source and built lazily with the platform C
compiler into a content-hash-keyed cache (``~/.cache/repro-arrayloop``), so
the repo needs no build step, no setuptools machinery, and no wheel: the
first eligible run pays ~1s of ``cc -O2`` once per source revision and
every later process dlopens the cached object.  The C file numbers
nothing itself: every wire tag, field offset, status, variant, scheduler
mode and return code it names is a ``-D`` flag from :func:`defines`, so
the file and the Python modules cannot drift apart -- a name the tables
do not define is a compile error.  Anything going wrong -- no compiler,
an unusable cache directory, a failed build or import -- degrades to
``None``: the array core's gate then declines every run as
``no-c-loop`` and the object loop (``Simulator.run_for``) runs it, the
same results several times slower.  The failed attempt warns (once per
process: the miss is memoized) and :func:`why_missing` keeps the cause.
So does an interpreter whose ``random.Random`` is not laid out as the C
file copies it: ``run`` and ``draw_graph`` read and write the generator's
624 words and index in place (``tick`` draws on them where they lie),
and ``configure()`` holds a seeded generator's words to its
``getstate()`` before it installs anything.

Set ``REPRO_PURE_PYTHON=1`` to force that fallback silently (CI runs the
whole suite a second time under it).  ``REPRO_ARRAYLOOP_CFLAGS`` is
appended to the ``cc`` line and hashed into the object's name, so a
sanitizer build (CI's ``-O1 -g -fsanitize=address,undefined``) lives
beside the plain one in the same cache.
"""

from __future__ import annotations

import _random
import hashlib
import importlib.util
import os
import shlex
import shutil
import subprocess
import sysconfig
import warnings
from array import array
from pathlib import Path
from random import Random  # bound at import: a later patch of random.Random is not it
from typing import Optional

from repro.core.messages import MSG_TYPES, WIRE_TABLE
from repro.core.node import STATUS_NAMES, VARIANTS
from repro.sim.events import LifecycleToken, TimerToken
from repro.sim.network import SimulationError
from repro.sim.scheduler import _FIFO, _LIFO, _RANDOM

__all__ = ["load", "why_missing", "defines"]

#: What ``run()`` answers with its ``aux`` (the C file's header says what
#: state each leaves behind): the pool drained; a counted step reached
#: ``stop``; a popped deliver token handed back unexecuted; a pump handed
#: back at a node's inbox head.
RC_DRAINED, RC_LIMIT, RC_DEOPT, RC_PUMP = range(4)

_SOURCE = Path(__file__).with_name("_arrayloop.c")

#: sentinel distinguishing "never tried" from "tried and unavailable"
_UNSET = object()
_module = _UNSET
#: why ``_module`` is ``None``, one short line (``None`` while it is not).
_cause: Optional[str] = None

_DELIBERATE = "REPRO_PURE_PYTHON is set"


class _Unavailable(Exception):
    """Internal: no C loop in this process; the message is the cause."""


def defines() -> "dict[str, int]":
    """Every encoding ``_arrayloop.c`` names, as ``{macro: value}``.

    Derived from the tables and nowhere restated: per :data:`WIRE_TABLE`
    row the tag ``T_<MSG>``, the wire-tuple arity ``N_<MSG>`` and each
    field's offset ``F_<MSG>_<FIELD>`` (the tag is slot 0), the widest
    arity ``N_MAX`` (a native message record's width), then ``ST_*``
    from ``STATUS_NAMES``, ``V_*`` from ``VARIANTS``, the scheduler's
    ``MODE_*`` and the ``RC_*`` above.
    """
    out = {
        "N_TAGS": len(WIRE_TABLE),
        "N_MAX": 1 + max(len(fields) for _cls, fields in WIRE_TABLE),
    }
    for tag, (cls, fields) in enumerate(WIRE_TABLE):
        msg = cls.msg_type.upper().replace("-", "_")
        out[f"T_{msg}"] = tag
        out[f"N_{msg}"] = 1 + len(fields)
        for offset, (name, _kind) in enumerate(fields, 1):
            out[f"F_{msg}_{name.upper()}"] = offset
    out.update((f"ST_{name.upper()}", code) for code, name in enumerate(STATUS_NAMES))
    out.update((f"V_{name.upper()}", code) for code, name in enumerate(VARIANTS))
    out.update(MODE_FIFO=_FIFO, MODE_LIFO=_LIFO, MODE_RANDOM=_RANDOM)
    out.update(
        RC_DRAINED=RC_DRAINED, RC_LIMIT=RC_LIMIT, RC_DEOPT=RC_DEOPT, RC_PUMP=RC_PUMP
    )
    return out


def _flags() -> "list[str]":
    """What the ``cc`` line adds after ``-O2``: the :func:`defines`, then
    ``REPRO_ARRAYLOOP_CFLAGS`` split like a shell would (build-only, e.g.
    a sanitizer build; a later ``-O`` wins over the default)."""
    flags = [f"-D{name}={value}" for name, value in sorted(defines().items())]
    return flags + shlex.split(os.environ.get("REPRO_ARRAYLOOP_CFLAGS", ""))


def _so_path(source: bytes, flags: "list[str]") -> Path:
    """The cached object for ``source`` built with ``flags``: one per
    source text, flag set and interpreter ABI, so a cache shared across
    machines or builds never offers one an unloadable file."""
    abi = sysconfig.get_config_var("SOABI")
    tag = hashlib.sha256(source + " ".join(flags).encode()).hexdigest()[:16]
    cache = Path(
        os.environ.get("REPRO_ARRAYLOOP_CACHE")
        or Path.home() / ".cache" / "repro-arrayloop"
    )
    return cache / f"_arrayloop_{tag}_{abi}.so"


def _build() -> Path:
    """Compile ``_arrayloop.c`` into the cache; return the .so path."""
    try:
        source = _SOURCE.read_bytes()
    except OSError as exc:
        raise _Unavailable(f"cannot read {_SOURCE.name}: {exc}")
    flags = _flags()
    so_path = _so_path(source, flags)
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
        so_path.parent.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise _Unavailable(f"cache directory unusable: {exc}")
    tmp = so_path.with_name(f"{so_path.stem}.{os.getpid()}.tmp.so")
    try:
        proc = subprocess.run(
            [cc, "-O2", "-fPIC", "-shared", "-I" + include, *flags,
             str(_SOURCE), "-o", str(tmp)],
            capture_output=True,
            timeout=300,
        )
        if proc.returncode != 0:
            stderr = proc.stderr.decode(errors="replace").strip().splitlines()
            # the compiler's first error (an undefined T_/F_/ST_ name says
            # so there), else whatever it said first
            first = stderr[0] if stderr else proc.returncode
            said = next((line for line in stderr if "error" in line), first)
            raise _Unavailable(f"{cc} failed: {said}")
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


def _config() -> dict:
    """What ``configure()`` installs: the interpreter-side objects the C
    file names, the generator types whose state it copies in place
    (``random``, the one type it accepts, laid out as ``mt19937``'s
    instances; ``configure()`` checks that layout before it installs
    anything), and the two timed token types ``tick`` may tick."""
    return {
        "array": array,
        "simulation_error": SimulationError,
        "msg_types": MSG_TYPES,
        # the codec's field kinds per tag, in field order
        "kinds": tuple(
            tuple(kind for _name, kind in fields) for _cls, fields in WIRE_TABLE
        ),
        "random": Random,
        "mt19937": _random.Random,
        "timer": TimerToken,
        "lifecycle": LifecycleToken,
    }


def _import() -> object:
    """Build, import and configure the module, or raise :class:`_Unavailable`."""
    if os.environ.get("REPRO_PURE_PYTHON"):
        raise _Unavailable(_DELIBERATE)
    so_path = _build()
    try:
        spec = importlib.util.spec_from_file_location(
            "repro.core._arrayloop", so_path
        )
        mod = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(mod)
        refusal = mod.configure(_config())
    except Exception as exc:  # a missing spec included
        # Do not leave an object this interpreter cannot load to pin every
        # later process to the fallback: the next one rebuilds.
        try:
            so_path.unlink(missing_ok=True)
        except OSError:
            pass
        raise _Unavailable(f"import of {so_path.name} failed: {exc}")
    if refusal is not None:
        # The object is sound; this interpreter's generators are not laid
        # out as it copies them.  A rebuild would not change that.
        raise _Unavailable(refusal)
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
