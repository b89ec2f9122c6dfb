"""Seeded inputs and the open-loop generator's timing discipline."""

from __future__ import annotations

from concurrent.futures import Future
from types import SimpleNamespace

import numpy as np
import pytest

from lcebench import harness, loadgen, spec


def _schedule(seed):
    rng = np.random.default_rng([seed, 1])
    light = harness.schedule(spec.LIGHT_RPS, 2.0, rng)
    heavy = harness.schedule(spec.HEAVY_RPS, 1.0, rng)
    return [(a.at_s, a.model, int(i)) for arrivals, idxs in (light, heavy)
            for a, i in zip(arrivals, idxs)]


def test_same_seed_same_arrival_schedule():
    first = _schedule(7)
    assert first == _schedule(7)
    assert first != _schedule(8)
    assert {model for _, model, _ in first} == {m for m, _ in spec.GATEWAY_MIX}


def test_same_seed_same_input_pool():
    shapes = {"a": (1, 4, 4, 3), "b": (1, 2, 2, 3)}
    first = harness.make_pool(shapes, 3)
    again = harness.make_pool(shapes, 3)
    other = harness.make_pool(shapes, 4)
    for name, shape in shapes.items():
        assert len(first[name]) == spec.POOL_SIZE
        for x, y, z in zip(first[name], again[name], other[name]):
            assert x.shape == shape and x.dtype == np.float32
            assert np.array_equal(x, y)
            assert not np.array_equal(x, z)


class _VirtualClock:
    def __init__(self):
        self.t = 100.0

    def now(self):
        return self.t

    def sleep(self, seconds):
        self.t += seconds


class _StallingGateway:
    """Replies at once, but its first submit stalls the caller 50 ms."""

    def __init__(self):
        self.clock = _VirtualClock()
        self.calls = 0

    def submit(self, model, *inputs):
        self.calls += 1
        if self.calls == 1:
            self.clock.t += 0.050
        future = Future()
        future.set_result((model, inputs))
        return future


def test_latency_runs_from_the_scheduled_arrival():
    gateway = _StallingGateway()
    arrivals = [SimpleNamespace(at_s=t, model="m") for t in (0.0, 0.01, 0.02, 0.1)]
    phase, replies = loadgen.play(gateway, arrivals, lambda i: (i,))
    assert replies == [("m", (i,)) for i in range(4)]
    gaps = np.diff(phase.due)
    assert gaps == pytest.approx([0.01, 0.01, 0.08])
    lag = np.subtract(phase.sent, phase.due)
    # The stall delays the two requests due during it; their latency
    # carries the wait instead of starting at the late submit.
    assert lag == pytest.approx([0.0, 0.04, 0.03, 0.0])
    latency = np.subtract(phase.done, phase.due)
    assert latency == pytest.approx([0.05, 0.04, 0.03, 0.0])
