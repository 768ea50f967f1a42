"""Minimal discrete-event loop."""

from __future__ import annotations

import heapq
from array import array
from bisect import bisect_left, bisect_right
from typing import Callable

from ..errors import HadoopError


class EventLoop:
    """Time-ordered callback queue. Ties break by insertion order, so the
    simulation is fully deterministic.

    Each event carries a *key*: its insertion number, the order of ties.
    The loop logs every dispatched event (time, key, and the insertion
    counter before it ran), so a caller can drop a recurring event and
    later re-insert it exactly where the recurrence would have stood:
    :meth:`mark` is the key of an event inserted now, :meth:`key_after`
    the key of one inserted by a past, never-dispatched event.
    """

    def __init__(self) -> None:
        self._heap: list[tuple[float, float, Callable[[], None]]] = []
        self._seq = 0
        self.now = 0.0
        #: Key of the event being dispatched.
        self.key: float = -1.0
        self._running = False
        self._log_when = array("d")
        self._log_key = array("d")
        self._log_seq = array("d")

    def schedule(self, delay: float, fn: Callable[[], None]) -> None:
        if delay < 0:
            raise HadoopError(f"cannot schedule in the past (delay={delay})")
        heapq.heappush(self._heap, (self.now + delay, self._seq, fn))
        self._seq += 1

    def schedule_at(self, when: float, fn: Callable[[], None],
                    key: float | None = None) -> None:
        """Insert ``fn`` at ``when``; ``key`` (from :meth:`mark` or
        :meth:`key_after`) places it among ties as of its own past."""
        if when < self.now:
            raise HadoopError(f"cannot schedule at {when} < now {self.now}")
        if key is None:
            key = self._seq
            self._seq += 1
        heapq.heappush(self._heap, (when, key, fn))

    def mark(self) -> float:
        """The key of an event inserted now: after every event inserted
        so far, before every later one."""
        return self._seq - 0.5

    def key_after(self, when: float, key_of: Callable[[], float]) -> float:
        """The key an event would have got had it been inserted by an
        event dispatched at (``when``, ``key_of()``), a position before
        the current event. ``key_of`` is called only when dispatched
        events share the time ``when``, the one case its key decides."""
        times = self._log_when
        hi = bisect_right(times, when)
        lo = bisect_left(times, when, 0, hi)
        if lo < hi:
            lo = bisect_right(self._log_key, key_of(), lo, hi)
        return self._log_seq[lo] - 0.5

    @property
    def logged(self) -> int:
        """Dispatched events still in the log."""
        return len(self._log_when)

    def forget_before(self, when: float) -> None:
        """Drop the log of events dispatched before ``when``: from now on
        ``key_after`` may only be asked about positions at ``when`` or
        later."""
        cut = bisect_left(self._log_when, when)
        del self._log_when[:cut]
        del self._log_key[:cut]
        del self._log_seq[:cut]

    def run(self, max_events: int = 20_000_000,
            until: Callable[[], bool] | None = None) -> None:
        """Drain the queue; ``until`` (checked after each event) stops early."""
        if self._running:
            raise HadoopError("event loop is not reentrant")
        self._running = True
        heap = self._heap
        pop = heapq.heappop
        log_when = self._log_when.append
        log_key = self._log_key.append
        log_seq = self._log_seq.append
        try:
            events = 0
            while heap:
                when, key, fn = pop(heap)
                self.now = when
                self.key = key
                log_when(when)
                log_key(key)
                log_seq(self._seq)
                fn()
                events += 1
                if events > max_events:
                    raise HadoopError(
                        f"event budget exhausted ({max_events}); livelock?"
                    )
                if until is not None and until():
                    return
        finally:
            self._running = False

    @property
    def pending(self) -> int:
        return len(self._heap)
