"""Scheduling policies for the asynchronous simulator.

The asynchronous model promises only that every message is delivered after a
*finite but unbounded* time; which pending step happens next is up to an
adversary.  A :class:`Scheduler` owns the pool of pending tokens and decides
the order.  The stock policies are:

* :class:`GlobalFifoScheduler` -- oldest pending step first.  Deterministic;
  the closest analogue of a well-behaved network.
* :class:`LifoScheduler` -- newest step first.  Deterministic; drives
  executions depth-first and tends to produce long conquest chains.
* :class:`RandomScheduler` -- uniformly random pending step, seeded.  The
  workhorse for property-based testing.
* :class:`AdversarialScheduler` -- wraps an :class:`Adversary` that may
  *block* tokens; blocked tokens are simply not eligible.  When every
  pending token is blocked the adversary is asked to release something
  (``on_stall``), which is exactly the structure of the Theorem 1 lower
  bound argument ("stall all messages sent by the root until both subtrees
  have no more messages to send").

The three stock policies expose their underlying pool (``_queue`` /
``_stack`` / ``_pool`` plus ``_rng``) as a documented-internal seam, read
through :func:`stock_pool`: ``Simulator.run_for`` pops it in place, and the
array core (:mod:`repro.core.arraystate`) swaps int tokens into it for the
length of a run (``run_for``'s random-pool draws and ticks run in the C
loop's ``tick`` when :func:`native_draws` says so).  Its C loop copies
those into a native ring at entry and
runs ``_rng``'s MT19937 on its words and index, copied in place out of the
generator; every exit writes the pool order back into the container and
copies the words drawn to back in place (``gauss_next`` untouched), so
``len(scheduler)``, quiescence detection and the generator's stream are
as the object loop leaves them, without a method call per step.

``pending()`` returns a *lazy view* (iterator) everywhere: the previous
contract returned a fresh tuple per call, which turned a diagnostics helper
into an O(n) allocation any time a caller used it in a loop.  Materialize
with ``list(...)`` before mutating the scheduler.
"""

from __future__ import annotations

import random
from collections import deque
from itertools import chain
from typing import TYPE_CHECKING, Deque, Iterable, Iterator, List, Optional

from repro.sim.events import Token

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type hints
    from repro.sim.network import Simulator

__all__ = [
    "Scheduler",
    "GlobalFifoScheduler",
    "LifoScheduler",
    "RandomScheduler",
    "Adversary",
    "AdversarialScheduler",
]


class Scheduler:
    """Base class: a pool of pending tokens plus a selection rule."""

    def push(self, token: Token) -> None:
        raise NotImplementedError

    def pop(self, sim: "Simulator") -> Optional[Token]:
        """Return the next token to execute, or ``None`` if none is eligible.

        Returning ``None`` while :meth:`__len__` is non-zero signals a stuck
        execution (only possible with a misbehaving adversary); the
        simulator raises in that case.
        """
        raise NotImplementedError

    def __len__(self) -> int:
        raise NotImplementedError

    def pending(self) -> Iterable[Token]:
        """Iterate over pending tokens (diagnostics only).

        Returns a lazy view over the live pool -- do not push/pop while
        consuming it; ``list(scheduler.pending())`` first if you need a
        stable snapshot.
        """
        raise NotImplementedError


class GlobalFifoScheduler(Scheduler):
    """Execute pending steps in the order they became pending."""

    def __init__(self) -> None:
        self._queue: Deque[Token] = deque()

    def push(self, token: Token) -> None:
        self._queue.append(token)

    def pop(self, sim: "Simulator") -> Optional[Token]:
        if not self._queue:
            return None
        return self._queue.popleft()

    def __len__(self) -> int:
        return len(self._queue)

    def pending(self) -> Iterator[Token]:
        return iter(self._queue)


class LifoScheduler(Scheduler):
    """Execute the most recently created pending step first."""

    def __init__(self) -> None:
        self._stack: List[Token] = []

    def push(self, token: Token) -> None:
        self._stack.append(token)

    def pop(self, sim: "Simulator") -> Optional[Token]:
        if not self._stack:
            return None
        return self._stack.pop()

    def __len__(self) -> int:
        return len(self._stack)

    def pending(self) -> Iterator[Token]:
        return iter(self._stack)


class RandomScheduler(Scheduler):
    """Uniformly random eligible step, deterministic under ``seed``."""

    def __init__(self, seed: int = 0) -> None:
        self._rng = random.Random(seed)
        self._pool: List[Token] = []

    def push(self, token: Token) -> None:
        self._pool.append(token)

    def pop(self, sim: "Simulator") -> Optional[Token]:
        if not self._pool:
            return None
        index = self._rng.randrange(len(self._pool))
        token = self._pool[index]
        # O(1) removal: swap with the tail.
        self._pool[index] = self._pool[-1]
        self._pool.pop()
        return token

    def __len__(self) -> int:
        return len(self._pool)

    def pending(self) -> Iterator[Token]:
        return iter(self._pool)


#: Pool-layout codes of the stock schedulers: which end (or random index)
#: of the pool the next token comes from.  The one definition; the object
#: loop and the array core's C loop both dispatch on these.
_FIFO, _LIFO, _RANDOM = 0, 1, 2

#: Exact-type match on purpose: a subclass may override selection.
_STOCK_MODES = {
    GlobalFifoScheduler: (_FIFO, "_queue"),
    LifoScheduler: (_LIFO, "_stack"),
    RandomScheduler: (_RANDOM, "_pool"),
}


def stock_pool(scheduler: Scheduler):
    """``(mode, pool)`` of a stock scheduler -- its pool-layout code and
    the live container behind it -- or ``(None, None)`` for a scheduler
    with selection state of its own."""
    mode, attr = _STOCK_MODES.get(type(scheduler), (None, None))
    return mode, (getattr(scheduler, attr) if attr else None)


#: Bound at import: a later patch of ``random.Random`` is not it.
_Random = random.Random


def native_draws(rng) -> bool:
    """Whether the C loop may draw on ``rng``'s MT19937 words in place of
    calling its ``getrandbits``: only an exact ``random.Random`` (a
    subclass may draw its own way) with no ``getrandbits`` shadowed on the
    instance (a spy must see every draw)."""
    return type(rng) is _Random and "getrandbits" not in vars(rng)


class Adversary:
    """Message-delay adversary interface.

    ``blocks(token, sim)`` decides whether a pending step may run now;
    ``on_stall(sim)`` is invoked when *every* pending step is blocked and
    must unblock something (return ``True``) or concede (return ``False``,
    which the simulator treats as an adversary bug and raises).
    """

    def blocks(self, token: Token, sim: "Simulator") -> bool:
        raise NotImplementedError

    def on_stall(self, sim: "Simulator") -> bool:
        raise NotImplementedError


class AdversarialScheduler(Scheduler):
    """FIFO among tokens the adversary has not blocked.

    Amortized O(1) per pop: pending tokens live in three push-ordered
    queues -- newly pushed (``_incoming``), known-eligible (``_eligible``)
    and known-blocked (``_blocked``) -- instead of one queue rescanned
    front-to-back on every pop (the old ``_select``, which made the tree
    adversary of the Theorem 1 experiment quadratic: its blocked root
    tokens sat at the head of the queue and were re-inspected on every
    single step).

    Each pushed token is classified once on the pop after its arrival;
    eligible tokens are re-checked once more when actually returned, so an
    adversary that *re-blocks* a previously eligible token stays correct
    (the token migrates to ``_blocked``).  Only when nothing is eligible is
    the blocked queue rescanned -- first without consulting ``on_stall``
    (a state-dependent adversary may have unblocked tokens as a side effect
    of protocol progress), then, if every pending token is still blocked,
    ``on_stall`` fires exactly as under the old scan-per-pop contract, so
    stall counts observed by adversaries are unchanged.

    Selection order matches the old linear scan for *release-only*
    adversaries (``blocks`` answers only loosen over time, e.g.
    :class:`~repro.lowerbounds.tree_adversary.TreeAdversary`): tokens
    become eligible in push order and are served FIFO.  An adversary that
    re-blocks tokens may observe a different (still valid) serving order
    among eligible tokens; the model only promises *some* fair order.
    """

    def __init__(self, adversary: Adversary) -> None:
        self.adversary = adversary
        self._incoming: Deque[Token] = deque()
        self._eligible: Deque[Token] = deque()
        self._blocked: Deque[Token] = deque()

    def push(self, token: Token) -> None:
        self._incoming.append(token)

    def pop(self, sim: "Simulator") -> Optional[Token]:
        blocks = self.adversary.blocks
        incoming = self._incoming
        eligible = self._eligible
        blocked = self._blocked
        while True:
            while incoming:
                token = incoming.popleft()
                if blocks(token, sim):
                    blocked.append(token)
                else:
                    eligible.append(token)
            while eligible:
                token = eligible.popleft()
                if blocks(token, sim):  # re-blocked since classification
                    blocked.append(token)
                    continue
                return token
            if not blocked:
                return None
            # Everything pending is blocked *per its last classification*.
            # Re-validate before declaring a stall: protocol progress since
            # then may have unblocked tokens without any on_stall call.
            released = False
            for _ in range(len(blocked)):
                token = blocked.popleft()
                if blocks(token, sim):
                    blocked.append(token)
                else:
                    eligible.append(token)
                    released = True
            if released:
                continue
            if not self.adversary.on_stall(sim):
                return None
            # The adversary claims to have released something; loop to
            # reclassify the blocked queue and find it.

    def __len__(self) -> int:
        return len(self._incoming) + len(self._eligible) + len(self._blocked)

    def pending(self) -> Iterator[Token]:
        return chain(self._eligible, self._blocked, self._incoming)
