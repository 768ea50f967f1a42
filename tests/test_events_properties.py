"""Property-based tests for the discrete-event loop (hypothesis).

The simulator's determinism rests entirely on EventLoop's contract:
time-ordered dispatch with FIFO tie-breaking, monotonically advancing
``now``, a non-reentrant ``run``, an ``until`` early-stop checked after
each event, a hard event budget against livelock, and keys that let a
deferred insertion land where an immediate one would have (sleeping
heartbeats rely on this).
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import HadoopError
from repro.hadoop.events import EventLoop

#: Non-negative delays on a coarse grid: many exact ties, no float dust.
delays = st.lists(
    st.floats(min_value=0.0, max_value=100.0, allow_nan=False,
              allow_infinity=False).map(lambda d: round(d, 2)),
    min_size=0, max_size=50,
)


@given(delays)
def test_dispatch_order_is_time_sorted_with_fifo_ties(ds):
    loop = EventLoop()
    fired: list[int] = []
    for i, d in enumerate(ds):
        loop.schedule(d, lambda i=i: fired.append(i))
    loop.run()
    assert len(fired) == len(ds)
    # stable sort by scheduled time == time order with FIFO tie-breaking
    assert fired == sorted(range(len(ds)), key=lambda i: ds[i])


@given(delays)
def test_now_is_monotonic_and_matches_scheduled_times(ds):
    loop = EventLoop()
    seen: list[float] = []
    for d in ds:
        loop.schedule(d, lambda: seen.append(loop.now))
    loop.run()
    assert seen == sorted(seen)
    assert seen == sorted(ds)


@given(delays, delays)
def test_events_scheduled_during_run_dispatch_in_order(first, second):
    """Handlers scheduling follow-ups (heartbeat style) keep the order."""
    loop = EventLoop()
    seen: list[float] = []

    def chain(extra):
        seen.append(loop.now)
        for d in extra:
            loop.schedule(d, lambda: seen.append(loop.now))

    for d in first:
        loop.schedule(d, lambda: chain(second))
    loop.run()
    assert seen == sorted(seen)
    assert len(seen) == len(first) * (1 + len(second))


@given(delays.filter(lambda ds: len(ds) >= 1),
       st.integers(min_value=1, max_value=50))
def test_until_stops_after_the_predicate_turns_true(ds, stop_after):
    stop_after = min(stop_after, len(ds))
    loop = EventLoop()
    fired: list[int] = []
    for i, d in enumerate(ds):
        loop.schedule(d, lambda i=i: fired.append(i))
    loop.run(until=lambda: len(fired) >= stop_after)
    # checked after each event: exactly stop_after events ran
    assert len(fired) == stop_after
    assert loop.pending == len(ds) - stop_after


@settings(max_examples=25)
@given(st.integers(min_value=1, max_value=30))
def test_event_budget_exhaustion_raises(budget):
    loop = EventLoop()

    def respawn():
        loop.schedule(1.0, respawn)  # livelock on purpose

    loop.schedule(0.0, respawn)
    with pytest.raises(HadoopError, match="event budget exhausted"):
        loop.run(max_events=budget)
    # the loop remains usable (the running flag was released)
    loop2_events: list[float] = []
    loop.schedule(0.5, lambda: loop2_events.append(loop.now))
    with pytest.raises(HadoopError):
        loop.run(max_events=budget)  # respawn chain still queued


def test_run_is_not_reentrant():
    loop = EventLoop()
    errors: list[Exception] = []

    def nested():
        try:
            loop.run()
        except HadoopError as exc:
            errors.append(exc)

    loop.schedule(0.0, nested)
    loop.run()
    assert len(errors) == 1
    assert "not reentrant" in str(errors[0])
    # and the flag is cleared afterwards
    loop.schedule(0.0, lambda: None)
    loop.run()


@given(st.floats(max_value=-1e-9, min_value=-1e6))
def test_negative_delay_rejected(delay):
    loop = EventLoop()
    with pytest.raises(HadoopError):
        loop.schedule(delay, lambda: None)


def test_schedule_at_rejects_the_past():
    loop = EventLoop()
    loop.schedule(5.0, lambda: None)
    loop.run()
    assert loop.now == 5.0
    with pytest.raises(HadoopError):
        loop.schedule_at(4.0, lambda: None)


@given(delays, delays)
def test_key_after_is_the_mark_a_past_handler_left(first, second):
    """``key_after`` of a dispatched event recovers the key its handler
    would have given one more insertion (its closing ``mark``)."""
    loop = EventLoop()
    marks: list[tuple[float, float, float]] = []

    def chain() -> None:
        for d in second:
            loop.schedule(d, lambda: None)
        marks.append((loop.now, loop.key, loop.mark()))

    def check() -> None:
        for when, key, mark in marks:
            assert loop.key_after(when, lambda key=key: key) == mark

    for d in first:
        loop.schedule(d, chain)
    loop.schedule(1000.0, check)
    loop.run()
    assert len(marks) == len(first)


@given(delays.filter(bool), st.integers(min_value=0, max_value=49),
       st.floats(min_value=0.0, max_value=1.0),
       st.floats(min_value=0.0, max_value=100.0).map(lambda d: round(d, 2)))
def test_held_back_event_keeps_its_place(ds, holder, fraction, delay):
    """An event whose insertion is deferred — its key taken with
    ``mark`` and inserted later by ``schedule_at`` — dispatches exactly
    where inserting it at once would have put it."""
    holder %= len(ds)
    wait = round(delay * fraction, 2)

    def dispatch_order(deferred: bool) -> list[str]:
        loop = EventLoop()
        fired: list[str] = []

        def held() -> None:
            fired.append("held")

        def hold() -> None:
            fired.append(f"{holder}")
            when = loop.now + delay
            if not deferred:
                loop.schedule(wait, lambda: fired.append("waker"))
                loop.schedule(delay, held)
                return

            def waker() -> None:
                fired.append("waker")
                loop.schedule_at(when, held, key)

            loop.schedule(wait, waker)
            key = loop.mark()

        for i, d in enumerate(ds):
            loop.schedule(d, hold if i == holder
                          else lambda i=i: fired.append(f"{i}"))
        loop.run()
        return fired

    assert dispatch_order(True) == dispatch_order(False)
