"""What the benchmark measures: workloads, metrics, bounds and tolerances.

This module is the single source of ``BENCHMARK.json`` at the repository
root (``python3 lcebench/run.py --write-spec`` regenerates it, and a test
checks the committed file matches).
"""

from __future__ import annotations

import json
from pathlib import Path

#: seconds one run measures (split between phases by each workload)
RUN_SECONDS = 36

#: gateway latency objective, from the scheduled arrival to the reply
SLO_MS = 100.0

#: largest share of end-to-end time the traced layer self-times may leave
#: uncovered before the traced run is refused
RECONCILE_TOLERANCE = 0.05

#: inputs per model in the seeded pool the oracle precomputes
POOL_SIZE = 8

#: setup repetitions per run (the first in-process, the rest in fresh
#: interpreters so every sample starts cold); ``setup_s`` is their median
SETUP_SAMPLES = 3

#: zoo models and input size per workload
ENGINE_MODELS = ("quicknet_small", "birealnet18", "binarydensenet28")
ENGINE_INPUT_SIZE = 64
GATEWAY_MIX = (("quicknet_small", 3.0), ("birealnet18", 1.0))
GATEWAY_INPUT_SIZE = 32
#: fixed offered rates of the gateway's two open-loop phases.  Capacity on
#: a 2-core x86 host is about 115 rps; at 100 rps and above the latency
#: tail crosses the SLO and goodput swung 79-94 rps between identical runs,
#: so the heavy phase runs at about 70% of capacity.
LIGHT_RPS = 50.0
HEAVY_RPS = 80.0
#: share of the gateway's measured seconds spent in the light phase.  Its
#: latency tail rests on the largest bursts of the seeded schedule, so it
#: needs the samples (about 1400); the heavy phase's goodput is a count.
LIGHT_SHARE = 0.8

WORKLOADS = (
    (
        "b1_stream",
        "closed loop, one caller, Engine.run at batch 1 on 1 thread over 3 zoo "
        "models at 64px: the paper's single-image latency, kernels and per-node "
        "dispatch do the work",
    ),
    (
        "batch8_threads",
        "closed loop, one caller, run_many of 8 (one factor-8 plan call) on nproc "
        "threads, same models: large-M GEMMs and thread fan-out, no serving",
    ),
    (
        "gateway_poisson",
        "open loop, seeded Poisson arrivals at 50 then 80 rps through the Gateway, "
        "quicknet_small:birealnet18 3:1 at 32px: admission, queueing and batching",
    ),
)

#: (name, unit, better, bound).  On a shared 2-core host the median of a
#: run moved by up to 15% between identical runs (the host's speed drifts
#: over tens of seconds), so the timing bounds sit near the 0.25 ceiling;
#: set-up time keeps the largest.
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("latency_p50_ms", "ms", "lower", 0.24),
    ("throughput_sps", "1/s", "higher", 0.24),
    ("goodput_rps", "1/s", "higher", 0.24),
    ("success_ratio", "ratio", "higher", 0.02),
    ("peak_rss_mb", "MB", "lower", 0.1),
)

#: (name, unit, better).  The latency tail is listed here, without a
#: bound: the gateway's tail follows the few largest bursts of each seed's
#: schedule, and across seeds its p99 spread 0.25-0.5 (p95 0.2-0.3) of its
#: median, beyond any bound a regression check could hold it to.
PER_LAYER = (
    ("latency_p99_ms", "ms", "lower"),
    ("zoo.build_s", "s", "lower"),
    ("converter.convert_s", "s", "lower"),
    ("runtime.compile_s", "s", "lower"),
    ("runtime.plan_misses_timed", "count", "lower"),
    ("runtime.busy_ms_per_sample", "ms", "lower"),
    ("runtime.batch_factor_mean", "samples", "higher"),
    ("runtime.dispatch_ms_per_sample", "ms", "lower"),
    ("runtime.engine_ms_per_sample", "ms", "lower"),
    ("core.workspace_mb", "MB", "lower"),
    ("core.indirection_hit_ratio", "ratio", "higher"),
    ("core.convgeom_hit_ratio", "ratio", "higher"),
    ("core.bgemm_ms_per_sample", "ms", "lower"),
    ("core.bconv_other_ms_per_sample", "ms", "lower"),
    ("ops.lce_quantize_ms_per_sample", "ms", "lower"),
    ("ops.fp_conv_ms_per_sample", "ms", "lower"),
    ("ops.fp_add_ms_per_sample", "ms", "lower"),
    ("ops.fp_other_ms_per_sample", "ms", "lower"),
    ("serving.submit_us_p50", "us", "lower"),
    ("serving.submit_us_p99", "us", "lower"),
    ("serving.shed_ratio", "ratio", "lower"),
    ("serving.replica_busy_ratio", "ratio", "lower"),
    ("serving.offered_rps_actual", "1/s", "higher"),
    ("serving.queue_wait_ms_p50", "ms", "lower"),
    ("serving.queue_wait_ms_p99", "ms", "lower"),
    ("serving.execute_ms_p50", "ms", "lower"),
    ("loadgen.lag_p99_ms", "ms", "lower"),
    ("graph.executor_ms_per_sample", "ms", "lower"),
    ("obs.trace_overhead_ratio", "ratio", "lower"),
    ("obs.trace_dropped", "count", "lower"),
    ("obs.events_dropped", "count", "lower"),
    ("trace.unaccounted_ratio", "ratio", "lower"),
)


def benchmark_json() -> dict:
    """The ``BENCHMARK.json`` object."""
    return {
        "command": ["python3", "lcebench/run.py"],
        "paths": ["lcebench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": name, "why": why} for name, why in WORKLOADS],
        "end_to_end": [
            {"name": name, "unit": unit, "better": better, "bound": bound}
            for name, unit, better, bound in END_TO_END
        ],
        "per_layer": [
            {"name": name, "unit": unit, "better": better}
            for name, unit, better in PER_LAYER
        ],
    }


def render() -> str:
    return json.dumps(benchmark_json(), indent=2) + "\n"


def write(root: Path) -> Path:
    path = root / "BENCHMARK.json"
    path.write_text(render())
    return path
