"""Picklable job specs.

A :class:`Job` names an experiment (either a key of
:data:`repro.analysis.experiments.SWEEPABLE_EXPERIMENTS` or an importable
``module:qualname`` path), a frozen kwargs tuple, and an optional seed.
Because the spec is pure data, jobs cross process boundaries cheaply and
hash to a stable content address -- the cell key of a campaign store
(:mod:`repro.campaign.store`), which is also where a sweep keeps its
results.

Determinism contract: jobs are *identified* by their spec, never by the
worker that ran them or the order they finished in, so an executor that
collects results back into submission order produces bitwise-identical
sweeps for any worker count.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import json
import pathlib
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

__all__ = [
    "CACHE_SCHEMA_VERSION",
    "Job",
    "experiment_name",
    "protocol_code_digest",
    "resolve_experiment",
    "sweep_jobs",
]

#: Bumped whenever the record layout or the job spec changes shape, so a
#: stale on-disk cache can never be mistaken for a fresh result.
#: Version 2 added the ``code`` digest to :meth:`Job.spec`: before that,
#: editing the protocol or simulator source silently replayed stale cached
#: tables computed by the *old* code.  Version 3 widened the digest from
#: ``core/`` and ``sim/`` to the whole package, hashed by relative path:
#: the runners, graph generators and baselines every cell runs had been
#: outside it, so editing them replayed the old tables too.
CACHE_SCHEMA_VERSION = 3


def _default_code_roots() -> Tuple[pathlib.Path, ...]:
    """Directories whose source participates in every job's identity: the
    whole ``repro`` package."""
    return (pathlib.Path(__file__).resolve().parent.parent,)


@functools.lru_cache(maxsize=None)
def _digest_of_roots(roots: Tuple[str, ...]) -> str:
    hasher = hashlib.sha256()
    for root in roots:
        root_path = pathlib.Path(root)
        sources = [*root_path.rglob("*.py"), *root_path.rglob("*.c")]
        for path in sorted(sources):
            hasher.update(path.relative_to(root_path).as_posix().encode())
            hasher.update(b"\0")
            hasher.update(path.read_bytes())
            hasher.update(b"\0")
    return hasher.hexdigest()[:16]


def protocol_code_digest() -> str:
    """Digest of the ``repro`` package source.

    Folded into :meth:`Job.spec` so cached experiment results are keyed by
    the *code that produced them*, not just the parameters: touch, add or
    move any ``.py`` or ``.c`` file under ``repro/`` (the C loop, the
    experiment runners, the graph generators and the baselines included)
    and every cache entry misses.  Each file is hashed under its path
    relative to the package, so moving one between subpackages counts.
    Memoized per process (a sweep computes thousands of keys); tests that
    rewrite source trees call ``_digest_of_roots.cache_clear()``.
    """
    return _digest_of_roots(tuple(str(root) for root in _default_code_roots()))


def _registry() -> Dict[str, Callable]:
    # Imported lazily: analysis.experiments pulls in the whole algorithm
    # stack, which worker processes fork before first use.
    from repro.analysis.experiments import SWEEPABLE_EXPERIMENTS

    return SWEEPABLE_EXPERIMENTS


def experiment_name(experiment: Any) -> str:
    """Canonical string name for a registry key or module-level callable.

    Lambdas and closures are rejected: a job must be reconstructible from
    its spec alone in a fresh process.
    """
    if isinstance(experiment, str):
        if experiment in _registry() or ":" in experiment:
            return experiment
        known = ", ".join(sorted(_registry()))
        raise ValueError(f"unknown experiment {experiment!r}; choose from {known}")
    if callable(experiment):
        for name, fn in _registry().items():
            if fn is experiment:
                return name
        qualname = getattr(experiment, "__qualname__", "")
        module = getattr(experiment, "__module__", "")
        if not module or not qualname or "<" in qualname:
            raise ValueError(
                f"{experiment!r} is not importable by name (lambda/closure?); "
                "register it in SWEEPABLE_EXPERIMENTS or use a module-level "
                "function"
            )
        return f"{module}:{qualname}"
    raise TypeError(f"experiment must be a name or callable, got {type(experiment)}")


def resolve_experiment(name: str) -> Callable:
    """Inverse of :func:`experiment_name`; runs in worker processes."""
    registry = _registry()
    if name in registry:
        return registry[name]
    if ":" in name:
        module_name, _, qualname = name.partition(":")
        obj: Any = importlib.import_module(module_name)
        for part in qualname.split("."):
            obj = getattr(obj, part)
        if not callable(obj):
            raise ValueError(f"{name!r} resolved to non-callable {obj!r}")
        return obj
    known = ", ".join(sorted(registry))
    raise ValueError(f"unknown experiment {name!r}; choose from {known}")


@dataclass(frozen=True)
class Job:
    """One experiment execution: registry name + kwargs + seed.

    ``kwargs`` is stored as a sorted tuple of pairs so two jobs built from
    differently-ordered dicts compare (and hash) equal.
    """

    experiment: str
    kwargs: Tuple[Tuple[str, Any], ...] = ()
    seed: Optional[int] = None

    @classmethod
    def create(
        cls,
        experiment: Any,
        kwargs: Optional[Dict[str, Any]] = None,
        seed: Optional[int] = None,
    ) -> "Job":
        return cls(
            experiment=experiment_name(experiment),
            kwargs=tuple(sorted((kwargs or {}).items())),
            seed=seed,
        )

    def kwargs_dict(self) -> Dict[str, Any]:
        return dict(self.kwargs)

    def spec(self) -> Dict[str, Any]:
        """The full content-addressed identity of this job.

        Normalized through JSON (tuples become lists, ...) so a spec that
        round-tripped through a cache file compares equal to a fresh one.
        """
        raw = {
            "version": CACHE_SCHEMA_VERSION,
            "code": protocol_code_digest(),
            "experiment": self.experiment,
            "kwargs": self.kwargs_dict(),
            "seed": self.seed,
        }
        return json.loads(json.dumps(raw, sort_keys=True, default=repr))

    def key(self) -> str:
        """Stable hex digest of :meth:`spec` -- the cache filename."""
        canonical = json.dumps(self.spec(), sort_keys=True)
        return hashlib.sha256(canonical.encode()).hexdigest()[:24]

    def label(self) -> str:
        suffix = "" if self.seed is None else f" seed={self.seed}"
        return f"{self.experiment}{suffix}"


def sweep_jobs(
    experiment: Any,
    seeds: Sequence[int],
    kwargs: Optional[Dict[str, Any]] = None,
) -> List[Job]:
    """One job per seed, in seed order (which is also result order)."""
    name = experiment_name(experiment)
    return [Job.create(name, kwargs, seed) for seed in seeds]
