"""The committed BENCHMARK.json is the one the spec module renders."""

from __future__ import annotations

import json
import re
from pathlib import Path

from lcebench import spec

ROOT = Path(__file__).resolve().parents[2]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_committed_file_matches_spec():
    assert (ROOT / "BENCHMARK.json").read_text() == spec.render()


def test_spec_is_well_formed():
    obj = spec.benchmark_json()
    names = [w["name"] for w in obj["workloads"]]
    names += [m["name"] for m in obj["end_to_end"] + obj["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    assert all(len(w["why"]) <= 200 for w in obj["workloads"])
    assert all(
        UNIT.match(m["unit"]) and m["better"] in ("lower", "higher")
        for m in obj["end_to_end"] + obj["per_layer"]
    )
    bounds = {m["name"]: m["bound"] for m in obj["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    assert json.loads(spec.render()) == obj
