"""Gateway behavior under a deterministic clock: batching, shedding, close.

All time in here is virtual — the gateway runs on
``tests/fake_clock.FakeClock`` and no test sleeps on the wall clock; a
``StallEngine`` holds a replica busy so requests queue behind it.  The
bit-identity oracle is the same one the runtime parity suite uses:
``reference_outputs`` (concatenated per-group Executor runs).
"""

from __future__ import annotations

import sys
import threading
import time
from dataclasses import fields

import numpy as np
import pytest
from fake_clock import FakeClock
from test_runtime_parity import (
    _batched_input,
    _binary_net,
    assert_bit_identical,
    reference_outputs,
)

from repro.core.types import Padding
from repro.runtime.engine import Engine, greedy_chunks
from repro.serving import (
    SHED_CLOSED,
    SHED_QUEUE_FULL,
    SHED_UNKNOWN_MODEL,
    Clock,
    Gateway,
    GatewayConfig,
    MonotonicClock,
    Rejected,
    generate_arrivals,
)

pytestmark = pytest.mark.serving

RESULT_TIMEOUT_S = 20.0


@pytest.fixture
def graph(rng):
    return _binary_net(rng, Padding.SAME_ONE)


def make_gateway(graph, clock, **overrides):
    defaults = dict(max_batch=4, max_queue=16, replicas=1)
    defaults.update(overrides)
    return Gateway({"m": graph}, GatewayConfig(**defaults), clock=clock)


class StallEngine:
    """Engine wrapper whose run_many blocks until the test releases it.

    With ``clock``, each call then advances that FakeClock by
    ``advance_s``: an exact, injected execute time.
    """

    def __init__(self, engine: Engine, started: threading.Event,
                 release: threading.Event, clock: FakeClock | None = None,
                 advance_s: float = 0.0) -> None:
        self._engine = engine
        self._started = started
        self._release = release
        self._clock = clock
        self._advance_s = advance_s

    def __getattr__(self, name):
        return getattr(self._engine, name)

    def run_many(self, requests):
        self._started.set()
        if not self._release.wait(30.0):
            raise TimeoutError("StallEngine never released")
        if self._clock is not None:
            self._clock.advance(self._advance_s)
        return self._engine.run_many(requests)


def stalled_gateway(graph, clock, advance_s=0.0, **overrides):
    """A gateway whose replicas park in run_many until ``release`` is set.

    Returns ``(gateway, started, release)``; ``started`` is set once a
    replica is inside run_many.
    """
    started, release = threading.Event(), threading.Event()
    defaults = dict(max_batch=4, max_queue=16, replicas=1)
    defaults.update(overrides)
    gw = Gateway(
        {"m": graph},
        GatewayConfig(**defaults),
        clock=clock,
        engine_factory=lambda *a, **k: StallEngine(
            Engine(*a, **k), started, release, clock, advance_s
        ),
    )
    return gw, started, release


# ------------------------------------------------------------ clock seam


def test_clocks_satisfy_protocol():
    assert isinstance(MonotonicClock(), Clock)
    assert isinstance(FakeClock(), Clock)


def test_fake_clock_sleep_wakes_on_advance():
    clock = FakeClock()
    done = threading.Event()

    def sleeper():
        clock.sleep(5.0)
        done.set()

    t = threading.Thread(target=sleeper, daemon=True)
    t.start()
    clock.wait_for_sleepers(1)
    clock.advance(4.9)
    assert not done.wait(0.05)  # virtual deadline not reached yet
    clock.advance(0.2)
    assert done.wait(RESULT_TIMEOUT_S)
    t.join(RESULT_TIMEOUT_S)
    assert clock.now() == pytest.approx(5.1)
    assert clock.sleepers == 0


def test_fake_clock_timed_wait_expires_on_advance():
    clock = FakeClock()
    cond = threading.Condition()
    woke = threading.Event()

    def waiter():
        with cond:
            clock.wait(cond, 2.0)
        woke.set()

    t = threading.Thread(target=waiter, daemon=True)
    t.start()
    clock.wait_for_timed_waiters(1)
    assert not woke.is_set()
    clock.advance(2.0)
    assert woke.wait(RESULT_TIMEOUT_S)
    t.join(RESULT_TIMEOUT_S)
    assert clock.timed_waiters == 0


# --------------------------------------------------- work-conserving batching


def test_lone_request_runs_without_waiting(graph, rng):
    clock = FakeClock()
    x = _batched_input(graph, 1, rng)
    expected = reference_outputs(graph, (x,), 1)
    with make_gateway(graph, clock) as gw:
        # The idle replica takes the request inside submit: it never
        # waits for company, and no virtual time has to pass.
        future = gw.submit("m", x)
        assert_bit_identical(future.result(RESULT_TIMEOUT_S), expected)
        stats = gw.stats()
    assert clock.now() == 0.0
    assert stats.batch_histogram == {1: 1}
    assert (stats.submitted, stats.accepted, stats.completed) == (1, 1, 1)
    assert stats.p50_ms == stats.p99_ms == 0.0


def test_full_batch_flushes_without_time_passing(graph, rng):
    """Requests that arrive while the only replica is busy queue, and
    leave as one greedy batch the moment it frees."""
    clock = FakeClock()
    x = _batched_input(graph, 1, rng)
    expected = reference_outputs(graph, (x,), 1)
    gw, started, release = stalled_gateway(graph, clock, max_batch=2)
    try:
        f_busy = gw.submit("m", x)
        assert started.wait(RESULT_TIMEOUT_S)  # the replica is taken
        futures = [gw.submit("m", x) for _ in range(2)]
        assert gw.server("m").queue_depth() == 2
        release.set()
        for future in (f_busy, *futures):
            assert_bit_identical(future.result(RESULT_TIMEOUT_S), expected)
        stats = gw.stats()
    finally:
        release.set()
        gw.close()
    assert clock.now() == 0.0
    assert stats.batch_histogram == {1: 1, 2: 1}


def test_mixed_factors_coalesce_to_full_batch(graph, rng):
    clock = FakeClock()
    x2 = _batched_input(graph, 2, rng)
    x1 = _batched_input(graph, 1, rng)
    gw, started, release = stalled_gateway(graph, clock, max_batch=4)
    try:
        f_busy = gw.submit("m", x1)
        assert started.wait(RESULT_TIMEOUT_S)
        f_a = gw.submit("m", x2)
        f_b = gw.submit("m", x1)
        f_c = gw.submit("m", x1)
        release.set()
        assert_bit_identical(
            f_a.result(RESULT_TIMEOUT_S), reference_outputs(graph, (x2,), 2)
        )
        for f in (f_busy, f_b, f_c):
            assert_bit_identical(
                f.result(RESULT_TIMEOUT_S), reference_outputs(graph, (x1,), 1)
            )
        stats = gw.stats()
    finally:
        release.set()
        gw.close()
    assert stats.batch_histogram == {1: 1, 4: 1}
    assert stats.mean_batch_size == pytest.approx(2.5)


def test_stage_histograms_sum_to_latency(graph, rng):
    """queue_wait_ms + execute_ms == latency_ms, request by request.

    Each run_many advances the FakeClock by exactly 250 ms.  A takes the
    idle replica at t=0 and ends at 0.25; B and C queue behind it at
    t=0, are taken together at 0.25 and end at 0.5.  So the per-request
    (queue, execute, latency) triples are A = (0, 250, 250) and
    B = C = (250, 250, 500), which the three histograms pin exactly.
    """
    clock = FakeClock()
    x = _batched_input(graph, 1, rng)
    gw, started, release = stalled_gateway(graph, clock, advance_s=0.25)
    try:
        f_a = gw.submit("m", x)
        assert started.wait(RESULT_TIMEOUT_S)
        f_b, f_c = gw.submit("m", x), gw.submit("m", x)
        release.set()
        for f in (f_a, f_b, f_c):
            assert not isinstance(f.result(RESULT_TIMEOUT_S), Rejected)
        snap = gw.metrics_snapshot()
    finally:
        release.set()
        gw.close()
    assert snap["gateway.m.queue_wait_ms"]["counts"] == {0.0: 1, 250.0: 2}
    assert snap["gateway.m.execute_ms"]["counts"] == {250.0: 3}
    assert snap["gateway.m.latency_ms"]["counts"] == {250.0: 1, 500.0: 2}
    assert snap["gateway.m.batch_size"]["counts"] == {1: 1, 2: 1}


def test_no_idle_replica_while_work_queues(graph, rng):
    """Stress the work-conserving invariant: at every observation under
    the server lock, queue non-empty ⇒ no healthy replica idle — with
    more submitters than cores and a shortened switch interval."""
    clock = FakeClock()
    x = _batched_input(graph, 1, rng)
    expected = reference_outputs(graph, (x,), 1)
    gw = make_gateway(graph, clock, max_batch=2, max_queue=128, replicas=2)
    server = gw.server("m")
    violations: list[int] = []
    futures = []
    stop = threading.Event()

    def checker():
        while not stop.is_set():
            with server._lock:
                if server._queue and any(
                    not r.busy and not r.quarantined for r in server._replicas
                ):
                    violations.append(len(server._queue))
            time.sleep(0)

    def submitter():
        for _ in range(20):
            futures.append(gw.submit("m", x))

    watcher = threading.Thread(target=checker, daemon=True)
    submitters = [threading.Thread(target=submitter, daemon=True) for _ in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        watcher.start()
        for t in submitters:
            t.start()
        for t in submitters:
            t.join(RESULT_TIMEOUT_S)
            assert not t.is_alive()
        for f in futures:
            assert_bit_identical(f.result(RESULT_TIMEOUT_S), expected)
    finally:
        stop.set()
        watcher.join(RESULT_TIMEOUT_S)
        sys.setswitchinterval(interval)
        gw.close()
    assert not watcher.is_alive()
    assert violations == []
    stats = gw.stats()
    assert (stats.submitted, stats.completed, stats.in_flight) == (80, 80, 0)


def test_oversize_request_runs_alone(graph, rng):
    clock = FakeClock()
    x3 = _batched_input(graph, 3, rng)
    with make_gateway(graph, clock, max_batch=2) as gw:
        future = gw.submit("m", x3)
        assert_bit_identical(
            future.result(RESULT_TIMEOUT_S), reference_outputs(graph, (x3,), 3)
        )
        stats = gw.stats()
    assert stats.batch_histogram == {3: 1}


# --------------------------------------------------- admission + shedding


def test_overload_sheds_with_bounded_queue(graph, rng):
    """Under overload the gateway sheds (typed), never grows the queue.

    The overload state is constructed, not raced: one request stalled
    inside the only replica, ``max_queue`` queued behind it, and the
    next one is shed.
    """
    clock = FakeClock()
    gw, started, release = stalled_gateway(
        graph, clock, max_batch=1, max_queue=2
    )
    x = _batched_input(graph, 1, rng)
    expected = reference_outputs(graph, (x,), 1)
    try:
        f_a = gw.submit("m", x)
        assert started.wait(RESULT_TIMEOUT_S)  # A is inside the replica
        f_b = gw.submit("m", x)
        f_c = gw.submit("m", x)  # queue now holds max_queue=2
        assert gw.server("m").queue_depth() == 2
        f_d = gw.submit("m", x)  # bounced at admission
        reply = f_d.result(0.5)
        assert reply == Rejected("m", SHED_QUEUE_FULL)
        stats = gw.stats()
        assert stats.shed == 1 and stats.queue_depth["m"] <= gw.config.max_queue
        release.set()
        for f in (f_a, f_b, f_c):
            assert_bit_identical(f.result(RESULT_TIMEOUT_S), expected)
    finally:
        release.set()
        gw.close()
    stats = gw.stats()
    assert (stats.submitted, stats.accepted, stats.shed) == (4, 3, 1)
    assert (stats.completed, stats.failed, stats.in_flight) == (3, 0, 0)
    assert stats.batch_histogram == {1: 3}


def test_unknown_model_is_typed_shed(graph):
    clock = FakeClock()
    with make_gateway(graph, clock) as gw:
        reply = gw.submit("nope", np.zeros((1,), np.float32)).result(0.5)
        assert isinstance(reply, Rejected)
        assert reply.reason == SHED_UNKNOWN_MODEL and reply.model == "nope"
        stats = gw.stats()
    assert (stats.submitted, stats.shed, stats.accepted) == (1, 1, 0)


def test_submit_after_close_is_typed_shed(graph, rng):
    clock = FakeClock()
    gw = make_gateway(graph, clock)
    x = _batched_input(graph, 1, rng)
    gw.close()
    reply = gw.submit("m", x).result(0.5)
    assert isinstance(reply, Rejected) and reply.reason == SHED_CLOSED


def test_malformed_input_raises_synchronously(graph):
    clock = FakeClock()
    with make_gateway(graph, clock) as gw:
        with pytest.raises(ValueError):  # wrong arity
            gw.submit("m", np.zeros((1, 8, 8, 8), np.float32), np.zeros(3))
        with pytest.raises(ValueError):  # empty batch
            gw.submit("m", np.zeros((0, 8, 8, 8), np.float32))
        # A wrong trailing shape must raise here too, not inside a replica
        # worker where it would count toward quarantining a healthy engine.
        for _ in range(gw.config.max_replica_failures):
            with pytest.raises(ValueError, match="shape"):
                gw.submit("m", np.zeros((1, 8, 8, 5), np.float32))
        stats = gw.stats()
    assert stats.submitted == 0  # rejected before admission accounting
    assert stats.replicas_healthy == {"m": gw.config.replicas}


@pytest.mark.parametrize("dtype", [np.complex64, object])
def test_non_numeric_dtype_raises_synchronously(graph, dtype):
    # Regression: these used to be admitted and come back as a silently
    # wrong reply (the imaginary part or object boxing dropped).
    clock = FakeClock()
    with make_gateway(graph, clock) as gw:
        for _ in range(gw.config.max_replica_failures):
            with pytest.raises(ValueError, match="dtype"):
                gw.submit("m", np.ones((1, 8, 8, 8), dtype))
        stats = gw.stats()
    assert stats.submitted == 0
    assert stats.replicas_healthy == {"m": gw.config.replicas}


def _closed(gw) -> bool:
    server = gw.server("m")
    with server._lock:
        return server._closed


def test_close_drains_admitted_requests(graph, rng):
    """close() answers everything admitted before the threads exit."""
    clock = FakeClock()
    x = _batched_input(graph, 1, rng)
    expected = reference_outputs(graph, (x,), 1)
    gw, started, release = stalled_gateway(graph, clock, max_batch=8)
    try:
        f1 = gw.submit("m", x)
        assert started.wait(RESULT_TIMEOUT_S)
        f2 = gw.submit("m", x)
        f3 = gw.submit("m", x)  # f2 and f3 queue behind the busy replica
        closer = threading.Thread(target=gw.close, daemon=True)
        closer.start()
        clock.wait_for(lambda: _closed(gw))
        closer.join(0.05)
        assert closer.is_alive()  # close waits for the drain
        release.set()  # no advance(): the drain must not depend on time
        closer.join(RESULT_TIMEOUT_S)
        assert not closer.is_alive()
    finally:
        release.set()
    for f in (f1, f2, f3):
        assert_bit_identical(f.result(RESULT_TIMEOUT_S), expected)
    stats = gw.stats()
    assert stats.completed == 3 and stats.in_flight == 0
    assert stats.batch_histogram == {1: 1, 2: 1}
    gw.close()  # idempotent


def test_concurrent_close_is_single_shot(graph, rng):
    """Racing close() calls: both return, the drain happens exactly once.

    The loser parks on the close lock until the winner's full drain
    finishes, so both calls observe a completely drained gateway — even
    with a replica busy and requests queued behind it when they race.
    """
    clock = FakeClock()
    x = _batched_input(graph, 1, rng)
    expected = reference_outputs(graph, (x,), 1)
    gw, started, release = stalled_gateway(graph, clock, max_batch=8)
    futures = [gw.submit("m", x)]
    assert started.wait(RESULT_TIMEOUT_S)
    futures += [gw.submit("m", x) for _ in range(2)]

    start = threading.Barrier(2)

    def closer():
        start.wait(RESULT_TIMEOUT_S)
        gw.close()

    closers = [threading.Thread(target=closer, daemon=True) for _ in range(2)]
    try:
        for t in closers:
            t.start()
        clock.wait_for(lambda: _closed(gw))
        release.set()
        for t in closers:
            t.join(RESULT_TIMEOUT_S)
            assert not t.is_alive()  # neither racer may hang in the drain
    finally:
        release.set()
    for f in futures:
        assert_bit_identical(f.result(RESULT_TIMEOUT_S), expected)
    stats = gw.stats()
    assert stats.completed == 3 and stats.in_flight == 0
    gw.close()  # still idempotent after the race


def test_close_concurrent_with_submit_resolves_every_future(graph, rng):
    """submit racing close: every future resolves — result or typed shed.

    Whatever the interleaving, a future handed to a caller must never
    dangle: requests admitted before the close drain to real outputs,
    requests after it come back as ``Rejected(SHED_CLOSED)``.
    """
    clock = FakeClock()
    x = _batched_input(graph, 1, rng)
    expected = reference_outputs(graph, (x,), 1)
    # Nothing in the gateway waits on the clock, so the race needs no
    # advance() choreography.
    gw = make_gateway(graph, clock, max_batch=4, max_queue=64)
    futures = []
    done = threading.Event()

    def submitter():
        for _ in range(10):
            futures.append(gw.submit("m", x))
        done.set()

    t = threading.Thread(target=submitter, daemon=True)
    t.start()
    gw.close()
    assert done.wait(RESULT_TIMEOUT_S)
    t.join(RESULT_TIMEOUT_S)
    shed = 0
    for f in futures:
        reply = f.result(RESULT_TIMEOUT_S)
        if isinstance(reply, Rejected):
            assert reply.reason == SHED_CLOSED
            shed += 1
        else:
            assert_bit_identical(reply, expected)
    stats = gw.stats()
    assert stats.submitted == 10 and stats.shed == shed
    assert stats.completed == 10 - shed and stats.in_flight == 0


# ------------------------------------------------------- tracing + stats


def test_gateway_spans_nest_engine_spans(graph, rng):
    from repro.obs.trace import Tracer

    tracer = Tracer()
    clock = FakeClock()
    x = _batched_input(graph, 1, rng)
    gw = Gateway(
        {"m": graph},
        GatewayConfig(max_batch=1),
        clock=clock,
        trace=tracer,
    )
    try:
        gw.submit("m", x).result(RESULT_TIMEOUT_S)
    finally:
        gw.close()
    spans = tracer.spans()
    names = {s.name for s in spans}
    assert {"gateway.submit", "gateway.flush"} <= names
    flush_children = [s for s in spans if "gateway.flush" in s.path]
    assert any(s.name == "engine.run_many" for s in flush_children)


def test_stats_snapshot_is_consistent(graph, rng):
    clock = FakeClock()
    x = _batched_input(graph, 1, rng)
    with make_gateway(graph, clock, max_batch=1) as gw:
        for _ in range(3):
            gw.submit("m", x).result(RESULT_TIMEOUT_S)
        stats = gw.stats()
        snap = gw.metrics_snapshot()
    assert stats.submitted == stats.accepted + stats.shed
    assert stats.accepted == stats.completed + stats.failed
    assert stats.verified is True
    assert sum(stats.batch_histogram.values()) == stats.batches
    assert snap["gateway.m.accepted"] == stats.accepted
    assert snap["gateway.m.queue_depth"] == 0
    assert snap["gateway.m.replicas_healthy"] == 1


# ------------------------------------------------------ policy unit tests


def _picks(server, idle_sets):
    picks = []
    for idle in idle_sets:
        with server._lock:  # submit's calling contract
            picks.append(server._pick_replica(idle))
    return picks


def test_round_robin_scheduler_cycles(graph):
    with make_gateway(graph, FakeClock(), replicas=2) as gw:
        server = gw.server("m")
        assert _picks(server, [[0, 1]] * 4) == [0, 1, 0, 1]
        # With only one candidate idle it must still pick it.
        assert _picks(server, [[1]]) == [1]


def test_round_robin_cursor_wraps_modulo_pool_size(graph):
    """After replica 2 of 3, the cursor wraps to 0 — not to the lowest
    candidate modulo ``max(idle) + 1`` (which picked 1 and skipped 0)."""
    with make_gateway(graph, FakeClock(), replicas=3) as gw:
        server = gw.server("m")
        assert _picks(server, [[0, 1, 2]] * 3) == [0, 1, 2]
        assert _picks(server, [[0, 1]]) == [0]
        assert _picks(server, [[0, 2], [0, 1, 2]]) == [2, 0]


def test_greedy_coalescer_chunks():
    chunks = greedy_chunks([("a", 2), ("b", 1), ("c", 2)], max_batch=4)
    assert [[x for x, _ in chunk] for chunk in chunks] == [["a", "b"], ["c"]]
    assert greedy_chunks([("x", 5)], max_batch=4) == [[("x", 5)]]


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(max_batch=0),
        dict(num_threads=0),
        dict(max_queue=0),
        dict(replicas=0),
        dict(max_replica_failures=0),
    ],
)
def test_config_validation_rejects(kwargs):
    with pytest.raises(ValueError):
        GatewayConfig(**kwargs).validate()


def test_server_runs_only_replica_threads(graph):
    """No batcher thread and no deadline knob: a model server's only
    threads are its replica workers."""
    assert "deadline_ms" not in {f.name for f in fields(GatewayConfig)}
    before = set(threading.enumerate())
    with make_gateway(graph, FakeClock(), replicas=2):
        names = sorted(t.name for t in set(threading.enumerate()) - before)
    assert names == ["repro-gw-m-r0", "repro-gw-m-r1"]


# --------------------------------------------------- loadgen determinism


def test_generate_arrivals_is_seed_deterministic():
    profile = [("a", 3.0), ("b", 1.0), ("zero", 0.0)]
    first = generate_arrivals(profile, 50.0, 2.0, np.random.default_rng(7))
    second = generate_arrivals(profile, 50.0, 2.0, np.random.default_rng(7))
    assert first == second
    other = generate_arrivals(profile, 50.0, 2.0, np.random.default_rng(8))
    assert first != other
    times = [a.at_s for a in first]
    assert times == sorted(times) and all(0 < t < 2.0 for t in times)
    assert {a.model for a in first} <= {"a", "b"}  # zero weight never drawn
    assert len(first) > 50  # ~100 expected at 50 rps over 2 s


def test_generate_arrivals_validates():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        generate_arrivals([("a", 1.0)], 0.0, 1.0, rng)
    with pytest.raises(ValueError):
        generate_arrivals([("a", 1.0)], 10.0, 0.0, rng)
    with pytest.raises(ValueError):
        generate_arrivals([], 10.0, 1.0, rng)
    with pytest.raises(ValueError):
        generate_arrivals([("a", -1.0)], 10.0, 1.0, rng)
