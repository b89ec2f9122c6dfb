"""An open-loop generator free of coordinated omission.

Each request is due at ``start + arrival.at_s`` and is timed from that
moment, not from when the generator managed to submit it: a generator
that falls behind (a stall, a lost interpreter lock) adds its lateness to
every request it delays instead of hiding it.  The reply time is taken in
a done-callback, on whichever thread resolves the future, so waiting on
futures in order adds nothing.  How late the generator ran is kept per
request (``sent - due``).
"""

from __future__ import annotations

from concurrent.futures import Future
from typing import Any, Callable, Sequence

#: lead before the first arrival so it is not late by construction
_LEAD_S = 0.01


class Phase:
    """Per-request timestamps of one played schedule, on the gateway clock."""

    def __init__(self, n: int) -> None:
        self.due = [0.0] * n
        self.sent = [0.0] * n
        self.returned = [0.0] * n
        self.done = [0.0] * n
        self.futures: list[Future] = []


def _done_callback(done: list[float], i: int, now: Callable[[], float]):
    def record(_future: Future) -> None:
        done[i] = now()

    return record


def play(
    gateway: Any,
    arrivals: Sequence[Any],
    make_request: Callable[[int], tuple],
    *,
    reply_timeout_s: float = 60.0,
) -> tuple[Phase, list[Any]]:
    """Submit ``arrivals`` on schedule; return timestamps and replies.

    ``make_request(i)`` gives arrival ``i``'s input tuple.  Submission
    never waits for a reply; the replies are collected after the last
    arrival.
    """
    clock = gateway.clock
    phase = Phase(len(arrivals))
    start = clock.now() + _LEAD_S
    for i, arrival in enumerate(arrivals):
        due = start + arrival.at_s
        delay = due - clock.now()
        if delay > 0:
            clock.sleep(delay)
        request = make_request(i)
        sent = clock.now()
        future = gateway.submit(arrival.model, *request)
        phase.returned[i] = clock.now()
        phase.due[i], phase.sent[i] = due, sent
        future.add_done_callback(_done_callback(phase.done, i, clock.now))
        phase.futures.append(future)
    return phase, [f.result(timeout=reply_timeout_s) for f in phase.futures]
