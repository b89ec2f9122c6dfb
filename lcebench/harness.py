"""The three workloads: set-up, oracle, untraced and traced measurement.

Every call into the program goes through its public API (``build_model``,
``convert``, ``Engine``, ``Gateway``) with the default configuration: no
device profile, no tuning cache.  The program sees only generated
inputs.  Per-layer numbers come from the program's own counters, the
spans the benchmark records around each call (``bench.call``), and the
program's :class:`~repro.obs.trace.Tracer` and
:class:`~repro.obs.events.EventLog`, handed in through the public
``trace=``/``events=`` arguments in a separate traced phase.
"""

from __future__ import annotations

import json
import os
import resource
import subprocess
import sys
import threading
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import numpy as np

from lcebench import loadgen, spec, stats
from repro import Engine, convert
from repro.graph import Executor
from repro.obs.events import EventLog
from repro.obs.metrics import global_registry
from repro.obs.trace import Tracer
from repro.ops.registry import (
    CLASS_FP_ADD,
    CLASS_FP_CONV,
    CLASS_FP_OTHER,
    CLASS_LCE_BCONV,
    CLASS_LCE_QUANTIZE,
    op_class_of,
)
from repro.serving import FAILED_REPLICA, Gateway, GatewayConfig, Rejected
from repro.serving import generate_arrivals
from repro.zoo import build_model

NPROC = len(os.sched_getaffinity(0))

#: per-thread span ring for the traced gateway phases, sized so a full
#: run fits without overwrites (drops refuse the run)
_GATEWAY_TRACE_CAPACITY = 1 << 18

#: reply wait per open-loop phase; a reply later than this is a hang
_REPLY_TIMEOUT_S = 120.0

_LAYER_OF_SPAN = {
    "bench.call": "bench",
    "engine.run": "runtime.engine",
    "engine.run_many": "runtime.engine",
    "batch.coalesce": "runtime.engine",
    "plan.execute": "runtime.dispatch",
    "kernel.bgemm": "core.bgemm",
    "gateway.flush": "serving.flush",
    "gateway.submit": "serving.submit",
}

#: the paper's Table-4 op classes; a binarized conv's own time (gather,
#: padding correction, output transform) is what is left after its bgemm
_LAYER_OF_CLASS = {
    CLASS_LCE_BCONV: "core.bconv_other",
    CLASS_LCE_QUANTIZE: "ops.lce_quantize",
    CLASS_FP_CONV: "ops.fp_conv",
    CLASS_FP_ADD: "ops.fp_add",
    CLASS_FP_OTHER: "ops.fp_other",
}

#: traced layers reported per sample, by metric name
_PER_SAMPLE_LAYERS = {
    "core.bgemm_ms_per_sample": "core.bgemm",
    "core.bconv_other_ms_per_sample": "core.bconv_other",
    "ops.lce_quantize_ms_per_sample": "ops.lce_quantize",
    "ops.fp_conv_ms_per_sample": "ops.fp_conv",
    "ops.fp_add_ms_per_sample": "ops.fp_add",
    "ops.fp_other_ms_per_sample": "ops.fp_other",
    "runtime.dispatch_ms_per_sample": "runtime.dispatch",
    "runtime.engine_ms_per_sample": "runtime.engine",
}

#: per-layer metrics of the serving layer and its load generator; closed
#: loops do not go through the gateway and report them as 0
_SERVING_METRICS = (
    "serving.submit_us_p50",
    "serving.submit_us_p99",
    "serving.shed_ratio",
    "serving.replica_busy_ratio",
    "serving.offered_rps_actual",
    "serving.queue_wait_ms_p50",
    "serving.queue_wait_ms_p99",
    "serving.execute_ms_p50",
    "loadgen.lag_p99_ms",
)


def layer_of(span: Any) -> str | None:
    """The layer a span's self time belongs to (``None``: its parent's)."""
    if span.name == "plan.node":
        return _LAYER_OF_CLASS[op_class_of(span.args["op"])]
    return _LAYER_OF_SPAN.get(span.name)


class RefusedError(RuntimeError):
    """The traced run cannot vouch for its per-layer numbers."""


@dataclass
class Setup:
    """Seconds spent making one workload ready to serve."""

    setup_s: float
    build_s: float
    convert_s: float
    compile_s: float


@dataclass
class Report:
    """Every metric a run produced, with sample counts and outcomes."""

    metrics: dict[str, float] = field(default_factory=dict)
    samples: dict[str, int] = field(default_factory=dict)
    outcomes: list[str] = field(default_factory=list)

    def put(self, name: str, value: float, samples: int) -> None:
        self.metrics[name] = float(value)
        self.samples[name] = int(samples)


@dataclass
class Oracle:
    """A seeded input pool per model with its reference-Executor outputs."""

    pool: dict[str, list[np.ndarray]]
    refs: dict[str, list[Any]]
    executor_s: list[float]


def _input_shape(model: Any) -> tuple[int, ...]:
    graph = model.graph
    return tuple(graph.tensors[graph.inputs[0]].shape)


def _build(names: tuple[str, ...], input_size: int) -> tuple[dict, float, float]:
    models, build_s, convert_s = {}, 0.0, 0.0
    for name in names:
        t0 = time.perf_counter()
        graph = build_model(name, input_size=input_size)
        t1 = time.perf_counter()
        models[name] = convert(graph, in_place=True)
        t2 = time.perf_counter()
        build_s += t1 - t0
        convert_s += t2 - t1
    return models, build_s, convert_s


def make_pool(shapes: dict[str, tuple[int, ...]], seed: int) -> dict[str, list]:
    """``POOL_SIZE`` seeded float32 inputs per model, in ``shapes`` order."""
    rng = np.random.default_rng(seed)
    return {
        name: [
            rng.standard_normal(shape).astype(np.float32)
            for _ in range(spec.POOL_SIZE)
        ]
        for name, shape in shapes.items()
    }


def make_oracle(models: dict[str, Any], seed: int) -> Oracle:
    """The seeded pool, run through the reference Executor."""
    pool = make_pool({name: _input_shape(m) for name, m in models.items()}, seed)
    refs, executor_s = {}, []
    for name, model in models.items():
        executor = Executor(model.graph)
        refs[name] = []
        for x in pool[name]:
            t0 = time.perf_counter()
            refs[name].append(executor.run(x))
            executor_s.append(time.perf_counter() - t0)
    return Oracle(pool, refs, executor_s)


def _engine_counters(engines: list[Engine]) -> np.ndarray:
    """(busy_s, samples, batches, plan misses) summed over engines."""
    total = np.zeros(4)
    for engine in engines:
        s = engine.stats()
        total += (s.busy_s, s.samples, s.batches, s.plan_cache_misses)
    return total


def _hit_ratio(prefix: str) -> tuple[float, int]:
    """Process-wide cache hit ratio and lookup count (set-up and timed)."""
    snap = global_registry().snapshot()
    hits, misses = snap[f"{prefix}.hits"], snap[f"{prefix}.misses"]
    lookups = hits + misses
    return (hits / lookups if lookups else 0.0), lookups


def _put_registry(
    report: Report, engines: list[Engine], before: np.ndarray, after: np.ndarray
) -> None:
    busy_s, samples, batches, misses = after - before
    report.put("runtime.plan_misses_timed", misses, int(batches))
    report.put("runtime.busy_ms_per_sample", busy_s * 1e3 / samples, int(samples))
    report.put("runtime.batch_factor_mean", samples / batches, int(batches))
    workspace = sum(engine.stats().workspace_bytes for engine in engines)
    report.put("core.workspace_mb", workspace / 2**20, len(engines))
    for metric, prefix in (
        ("core.indirection_hit_ratio", "indirection"),
        ("core.convgeom_hit_ratio", "convgeom"),
    ):
        ratio, lookups = _hit_ratio(prefix)
        report.put(metric, ratio, lookups)


def _put_traced_layers(
    report: Report, layers: dict[str, float], samples: int
) -> None:
    for metric, layer in _PER_SAMPLE_LAYERS.items():
        report.put(metric, layers.get(layer, 0.0) * 1e3 / samples, samples)


def _check_reconciled(report: Report, total_s: float, covered_s: float, n: int) -> None:
    ratio = stats.unaccounted_ratio(total_s, covered_s)
    report.put("trace.unaccounted_ratio", ratio, n)
    if abs(ratio) > spec.RECONCILE_TOLERANCE:
        raise RefusedError(
            f"layer self-times leave {ratio:.1%} of end-to-end time "
            f"unaccounted (tolerance {spec.RECONCILE_TOLERANCE:.0%})"
        )


def _check_drops(report: Report, tracer: Tracer, events: EventLog, n: int) -> None:
    report.put("obs.trace_dropped", tracer.dropped, n)
    report.put("obs.events_dropped", events.dropped, n)
    if tracer.dropped or events.dropped:
        raise RefusedError(
            f"telemetry dropped records (spans {tracer.dropped}, "
            f"events {events.dropped}); per-layer numbers would be partial"
        )


class EngineWorkload:
    """A closed loop of one caller over ``ENGINE_MODELS`` in round robin.

    ``b1_stream`` calls ``Engine.run`` with one image on one thread;
    ``batch8_threads`` calls ``Engine.run_many`` with 8 images (one
    factor-8 plan call) on ``nproc`` threads.
    """

    def __init__(self, name: str) -> None:
        self.batch = 1 if name == "b1_stream" else 8
        self.threads = 1 if name == "b1_stream" else NPROC
        self.models: dict[str, Any] = {}
        self.engines: dict[str, Engine] = {}

    def setup(self) -> Setup:
        t0 = time.perf_counter()
        self.models, build_s, convert_s = _build(
            spec.ENGINE_MODELS, spec.ENGINE_INPUT_SIZE
        )
        self.engines, compile_s = self._engines(None)
        return Setup(time.perf_counter() - t0, build_s, convert_s, compile_s)

    def _engines(self, tracer: Tracer | None) -> tuple[dict[str, Engine], float]:
        engines, compile_s = {}, 0.0
        for name, model in self.models.items():
            engine = Engine(model, num_threads=self.threads, trace=tracer)
            t0 = time.perf_counter()
            engine.plan(self.batch)
            compile_s += time.perf_counter() - t0
            self._call(engine, [np.zeros(_input_shape(model), np.float32)] * self.batch)
            engines[name] = engine
        return engines, compile_s

    def _call(self, engine: Engine, xs: list[np.ndarray]) -> list[Any]:
        if self.batch == 1:
            return [engine.run(xs[0])]
        return engine.run_many(xs)

    def close(self) -> None:
        for engine in self.engines.values():
            engine.close()

    def _stream(
        self,
        engines: dict[str, Engine],
        oracle: Oracle,
        seconds: float,
        rng: np.random.Generator,
        report: Report,
        tracer: Tracer | None = None,
    ) -> tuple[list[float], int, dict[str, float]]:
        """Run the closed loop for ``seconds``.

        Returns per-call latencies, images processed and (traced) the
        per-layer self time summed over every call.
        """
        names = list(engines)
        latencies: list[float] = []
        layers: dict[str, float] = {}
        images = 0
        end = time.perf_counter() + seconds
        call = 0
        while time.perf_counter() < end:
            name = names[call % len(names)]
            call += 1
            idxs = rng.integers(spec.POOL_SIZE, size=self.batch)
            xs = [oracle.pool[name][i] for i in idxs]
            engine = engines[name]
            t0 = time.perf_counter()
            try:
                if tracer is not None:
                    with tracer.span("bench.call", model=name):
                        outs = self._call(engine, xs)
                else:
                    outs = self._call(engine, xs)
            except Exception:
                traceback.print_exc()
                report.outcomes.extend([stats.RAISED] * self.batch)
                continue
            latencies.append(time.perf_counter() - t0)
            images += self.batch
            for out, i in zip(outs, idxs):
                ok = stats.outputs_equal(out, oracle.refs[name][i])
                report.outcomes.append(stats.OK if ok else stats.WRONG)
            if tracer is not None:
                # Fold and drop this call's spans: memory stays flat and
                # the ring never wraps.  A drop would show in `dropped`
                # before the clear resets it.
                if tracer.dropped:
                    raise RefusedError(f"tracer dropped {tracer.dropped} spans")
                for layer, s in stats.layer_times(tracer.spans(), layer_of).items():
                    layers[layer] = layers.get(layer, 0.0) + s
                tracer.clear()
        return latencies, images, layers

    def measure(self, oracle: Oracle, seconds: float, seed: int, report: Report) -> float:
        """Untraced closed loop; returns the median latency per image."""
        engines = list(self.engines.values())
        before = _engine_counters(engines)
        ok_before = report.outcomes.count(stats.OK)
        t0 = time.perf_counter()
        latencies, images, _ = self._stream(
            self.engines, oracle, seconds, np.random.default_rng([seed, 1]), report
        )
        wall = time.perf_counter() - t0
        after = _engine_counters(engines)
        ms = [t * 1e3 for t in latencies]
        n = len(ms)
        report.put("latency_p50_ms", stats.quantile(ms, 0.5), n)
        report.put("latency_p99_ms", stats.quantile(ms, 0.99), n)
        report.put("throughput_sps", images / wall, images)
        # A closed loop has no arrival schedule to hold an SLO against:
        # its goodput is its correct images per second.
        ok = report.outcomes.count(stats.OK) - ok_before
        report.put("goodput_rps", ok / wall, ok)
        _put_registry(report, engines, before, after)
        for metric in _SERVING_METRICS:
            report.put(metric, 0.0, 0)
        return stats.quantile(ms, 0.5) / self.batch

    def measure_traced(
        self, oracle: Oracle, seconds: float, seed: int, report: Report,
        untraced_ms: float,
    ) -> None:
        tracer, events = Tracer(), EventLog()
        engines, _ = self._engines(tracer)
        for engine in engines.values():
            engine.events = events
        tracer.clear()
        events.clear()
        before = _engine_counters(list(engines.values()))
        latencies, images, layers = self._stream(
            engines, oracle, seconds, np.random.default_rng([seed, 2]), report, tracer
        )
        after = _engine_counters(list(engines.values()))
        for engine in engines.values():
            engine.close()
        report.metrics["runtime.plan_misses_timed"] += after[3] - before[3]
        n = len(latencies)
        traced_ms = stats.quantile([t * 1e3 for t in latencies], 0.5) / self.batch
        report.put("obs.trace_overhead_ratio", traced_ms / untraced_ms, n)
        _check_drops(report, tracer, events, n)
        _put_traced_layers(report, layers, images)
        total = sum(layers.values())
        _check_reconciled(report, total, total - layers.get("bench", 0.0), n)


def schedule(
    rate: float, seconds: float, rng: np.random.Generator
) -> tuple[list[Any], np.ndarray]:
    """A seeded Poisson arrival schedule over ``GATEWAY_MIX`` and the pool
    index of each arrival's input."""
    arrivals = generate_arrivals(spec.GATEWAY_MIX, rate, seconds, rng)
    return arrivals, rng.integers(spec.POOL_SIZE, size=len(arrivals))


def classify_reply(reply: Any, ref: Any) -> str:
    """A gateway reply's outcome against its reference output."""
    if isinstance(reply, Rejected):
        return stats.FAILED if reply.reason == FAILED_REPLICA else stats.SHED
    return stats.OK if stats.outputs_equal(reply, ref) else stats.WRONG


@dataclass
class _Played:
    """One open-loop phase: schedule, timestamps and reply outcomes."""

    arrivals: list[Any]
    phase: loadgen.Phase
    outcomes: list[str]
    seconds: float

    def ok(self) -> list[int]:
        return [i for i, o in enumerate(self.outcomes) if o == stats.OK]

    def latencies_ms(self) -> list[float]:
        return [(self.phase.done[i] - self.phase.due[i]) * 1e3 for i in self.ok()]


class GatewayWorkload:
    """Open-loop Poisson arrivals through a default-config ``Gateway``.

    A light phase (``LIGHT_RPS``) gives latency; a heavy phase
    (``HEAVY_RPS``) gives goodput under the ``SLO_MS`` objective.
    """

    name = "gateway_poisson"

    def __init__(self) -> None:
        self.config = GatewayConfig()
        self.models: dict[str, Any] = {}
        self.gateway: Gateway | None = None

    def setup(self) -> Setup:
        t0 = time.perf_counter()
        self.models, build_s, convert_s = _build(
            tuple(name for name, _ in spec.GATEWAY_MIX), spec.GATEWAY_INPUT_SIZE
        )
        self.gateway, compile_s = self._gateway(None, None)
        return Setup(time.perf_counter() - t0, build_s, convert_s, compile_s)

    def _gateway(
        self, tracer: Tracer | None, events: EventLog | None
    ) -> tuple[Gateway, float]:
        """A gateway with every batch factor compiled and run once on
        every replica, so no plan compiles while traffic is timed."""
        gateway = Gateway(self.models, self.config, trace=tracer, events=events)
        factors = range(1, self.config.max_batch + 1)
        t0 = time.perf_counter()
        gateway.warmup(factors)
        compile_s = time.perf_counter() - t0
        for name, model in self.models.items():
            x = np.zeros(_input_shape(model), np.float32)
            for engine in self._engines(gateway, name):
                for factor in factors:
                    engine.run(np.concatenate([x] * factor))
        return gateway, compile_s

    @staticmethod
    def _engines(gateway: Gateway, name: str | None = None) -> list[Engine]:
        names = [name] if name is not None else gateway.models
        return [e for n in names for e in gateway.server(n).engines]

    def close(self) -> None:
        if self.gateway is not None:
            self.gateway.close()

    def _play(
        self, gateway: Gateway, oracle: Oracle, rate: float, seconds: float,
        rng: np.random.Generator,
    ) -> _Played:
        arrivals, idxs = schedule(rate, seconds, rng)

        def request(i: int) -> tuple:
            return (oracle.pool[arrivals[i].model][idxs[i]],)

        phase, replies = loadgen.play(
            gateway, arrivals, request, reply_timeout_s=_REPLY_TIMEOUT_S
        )
        outcomes = [
            classify_reply(reply, oracle.refs[arrival.model][i])
            for arrival, i, reply in zip(arrivals, idxs, replies)
        ]
        return _Played(arrivals, phase, outcomes, seconds)

    def _phases(
        self, gateway: Gateway, oracle: Oracle, seconds: float,
        rng: np.random.Generator, report: Report,
    ) -> tuple[_Played, _Played, list[np.ndarray]]:
        engines = self._engines(gateway)
        light_s = seconds * spec.LIGHT_SHARE
        counters = [_engine_counters(engines)]
        light = self._play(gateway, oracle, spec.LIGHT_RPS, light_s, rng)
        counters.append(_engine_counters(engines))
        heavy = self._play(gateway, oracle, spec.HEAVY_RPS, seconds - light_s, rng)
        counters.append(_engine_counters(engines))
        report.outcomes.extend(light.outcomes + heavy.outcomes)
        return light, heavy, counters

    def measure(self, oracle: Oracle, seconds: float, seed: int, report: Report) -> float:
        """Untraced light then heavy phase; returns the light p50 (ms)."""
        assert self.gateway is not None
        light, heavy, counters = self._phases(
            self.gateway, oracle, seconds, np.random.default_rng([seed, 1]), report
        )
        ms = light.latencies_ms()
        report.put("latency_p50_ms", stats.quantile(ms, 0.5), len(ms))
        report.put("latency_p99_ms", stats.quantile(ms, 0.99), len(ms))
        ok = heavy.ok()
        within = [i for i in ok if heavy.phase.done[i] - heavy.phase.due[i]
                  <= spec.SLO_MS / 1e3]
        report.put("throughput_sps", len(ok) / heavy.seconds, len(ok))
        report.put("goodput_rps", len(within) / heavy.seconds, len(within))

        engines = self._engines(self.gateway)
        _put_registry(report, engines, counters[0], counters[2])
        # Batch size and replica utilisation under heavy load, where they
        # decide goodput.
        busy_s, samples, batches, _ = counters[2] - counters[1]
        report.put("runtime.batch_factor_mean", samples / batches, int(batches))
        span = max(heavy.phase.done) - min(heavy.phase.due)
        report.put(
            "serving.replica_busy_ratio", busy_s / (len(engines) * span), len(engines)
        )
        report.put(
            "serving.offered_rps_actual",
            len(heavy.arrivals) / heavy.seconds, len(heavy.arrivals),
        )
        both = [light, heavy]
        lag = [(p.phase.sent[i] - p.phase.due[i]) * 1e3
               for p in both for i in range(len(p.arrivals))]
        submit = [(p.phase.returned[i] - p.phase.sent[i]) * 1e6
                  for p in both for i in range(len(p.arrivals))]
        outcomes = light.outcomes + heavy.outcomes
        report.put("loadgen.lag_p99_ms", stats.quantile(lag, 0.99), len(lag))
        report.put("serving.submit_us_p50", stats.quantile(submit, 0.5), len(submit))
        report.put("serving.submit_us_p99", stats.quantile(submit, 0.99), len(submit))
        report.put(
            "serving.shed_ratio", outcomes.count(stats.SHED) / len(outcomes),
            len(outcomes),
        )
        return stats.quantile(ms, 0.5)

    def measure_traced(
        self, oracle: Oracle, seconds: float, seed: int, report: Report,
        untraced_ms: float,
    ) -> None:
        tracer = Tracer(capacity=_GATEWAY_TRACE_CAPACITY)
        events = EventLog()
        gateway, _ = self._gateway(tracer, events)
        tracer.clear()
        events.clear()
        try:
            light, heavy, counters = self._phases(
                gateway, oracle, seconds, np.random.default_rng([seed, 2]), report
            )
        finally:
            gateway.close()
        report.metrics["runtime.plan_misses_timed"] += (counters[2] - counters[0])[3]

        generator = threading.get_ident()
        spans = tracer.spans()
        played = [(p, i) for p in (light, heavy) for i in range(len(p.arrivals))]
        ms = light.latencies_ms()
        report.put(
            "obs.trace_overhead_ratio",
            stats.quantile(ms, 0.5) / untraced_ms, len(ms),
        )
        _check_drops(report, tracer, events, len(played))

        submits = sorted(
            (s for s in spans if s.name == "gateway.submit" and s.tid == generator),
            key=lambda s: s.start_s,
        )
        if len(submits) != len(played):
            raise RefusedError(
                f"{len(submits)} gateway.submit spans for {len(played)} arrivals"
            )
        at: dict[str, dict[str, float]] = {}
        for event in events.events():
            if event.request_id is not None:
                at.setdefault(event.request_id, {})[event.kind] = event.ts
        queue_ms, execute_ms = [], []
        total_s = covered_s = 0.0
        for (p, i), sp in zip(played, submits):
            if p.outcomes[i] != stats.OK:
                continue
            ts = at[sp.args["request_id"]]
            queue_ms.append((ts["request.coalesce"] - ts["request.accept"]) * 1e3)
            execute_ms.append(
                (ts["request.complete"] - ts["request.coalesce"]) * 1e3
            )
            # due -> sent (generator) -> accept (admission) -> coalesce
            # (queue) -> complete (execute); the rest is reply delivery.
            total_s += p.phase.done[i] - p.phase.due[i]
            covered_s += ts["request.complete"] - p.phase.due[i]
        n = len(queue_ms)
        report.put("serving.queue_wait_ms_p50", stats.quantile(queue_ms, 0.5), n)
        report.put("serving.queue_wait_ms_p99", stats.quantile(queue_ms, 0.99), n)
        report.put("serving.execute_ms_p50", stats.quantile(execute_ms, 0.5), n)
        workers = [s for s in spans if s.tid != generator]
        _put_traced_layers(report, stats.layer_times(workers, layer_of), n)
        _check_reconciled(report, total_s, covered_s, n)


def make_workload(name: str) -> EngineWorkload | GatewayWorkload:
    if name == GatewayWorkload.name:
        return GatewayWorkload()
    if name in ("b1_stream", "batch8_threads"):
        return EngineWorkload(name)
    raise ValueError(f"unknown workload {name!r}")


def setup_once(name: str) -> Setup:
    """One cold set-up of ``name`` (the body of ``run.py --setup-only``)."""
    workload = make_workload(name)
    try:
        return workload.setup()
    finally:
        workload.close()


def _setup_in_subprocess(name: str) -> Setup:
    run_py = Path(__file__).resolve().parent / "run.py"
    proc = subprocess.run(
        [sys.executable, str(run_py), "--setup-only", "--workload", name],
        capture_output=True, text=True, timeout=120, check=True,
    )
    return Setup(**json.loads(proc.stdout.strip().splitlines()[-1]))


def run(name: str, seed: int, seconds: float, traced: bool) -> Report:
    """Set up ``name``, measure it and return every metric it produced.

    Untraced, the whole of ``seconds`` is measured without telemetry.
    Traced, half is measured untraced (counters and the overhead
    baseline) and half with the program's tracer and event log attached.
    """
    report = Report()
    workload = make_workload(name)
    try:
        setups = [workload.setup()]
        setups += [_setup_in_subprocess(name) for _ in range(spec.SETUP_SAMPLES - 1)]
        oracle = make_oracle(workload.models, seed)
        n = len(setups)
        for metric, attr in (
            ("setup_s", "setup_s"),
            ("zoo.build_s", "build_s"),
            ("converter.convert_s", "convert_s"),
            ("runtime.compile_s", "compile_s"),
        ):
            report.put(metric, stats.quantile([getattr(s, attr) for s in setups], 0.5), n)
        report.put(
            "graph.executor_ms_per_sample",
            stats.quantile([t * 1e3 for t in oracle.executor_s], 0.5),
            len(oracle.executor_s),
        )
        untraced_s = seconds / 2 if traced else seconds
        untraced_ms = workload.measure(oracle, untraced_s, seed, report)
        report.put(
            "peak_rss_mb",
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1,
        )
        if traced:
            workload.measure_traced(
                oracle, seconds - untraced_s, seed, report, untraced_ms
            )
    finally:
        workload.close()
    counts = stats.tally(report.outcomes)
    report.put("success_ratio", 1.0 - stats.fail_ratio(counts), sum(counts.values()))
    return report
