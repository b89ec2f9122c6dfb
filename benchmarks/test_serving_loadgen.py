"""Serving gateway load benchmark: the BENCH_serving.json generator.

``make bench-serving`` runs the CLI path over the real zoo; this
benchmark runs the same :func:`repro.serving.bench.run_bench` sweep at a
reduced scale, schema-checks the result with the same oracle the smoke
tier uses, and sanity-checks the curve shape (low offered load must not
shed everything; higher load must not *lower* the submitted count).
"""

from __future__ import annotations

import pytest
from conftest import run_once

from repro.serving.bench import run_bench, validate_bench_serving
from repro.serving.gateway import GatewayConfig

pytestmark = pytest.mark.serving

RATES = (20.0, 60.0, 120.0)


def test_bench_serving_curves(benchmark):
    result = run_once(
        benchmark,
        run_bench,
        model_names=("quicknet_small",),
        input_size=32,
        rates=RATES,
        duration_s=0.5,
        seed=0,
        config=GatewayConfig(max_batch=8, replicas=2),
    )
    assert validate_bench_serving(result) == []
    assert result["verified"] is True

    curves = result["curves"]
    assert [row["offered_rps"] for row in curves] == list(RATES)
    for row in curves:
        print(
            f"rate={row['offered_rps']:>6.1f}rps  "
            f"achieved={row['achieved_rps']:>7.1f}  "
            f"served={row['completed']}/{row['submitted']}  "
            f"shed={row['shed']}  p50={row['p50_ms']:.2f}ms  "
            f"p95={row['p95_ms']:.2f}ms  mean_batch={row['mean_batch']:.2f}"
        )
        assert row["failed"] == 0  # healthy pool: faults are a test concern
        assert row["submitted"] > 0
    # At the lowest offered load the gateway must actually serve traffic
    # (bounded shedding is an overload behavior, not a steady state).
    low = curves[0]
    assert low["completed"] >= low["submitted"] * 0.5
    # Offered load is monotone in the sweep, so submissions should be too
    # (same seed family, longer==denser schedule at higher rates).
    submitted = [row["submitted"] for row in curves]
    assert submitted == sorted(submitted)
