"""repro.runtime — the batched inference engine.

The serving layer on top of the graph IR (see ``docs/architecture.md``,
section "The runtime"):

- :mod:`repro.runtime.plan` — plan compilation: dispatch resolved,
  liveness precomputed, kernel-parameter structs built and prepacked
  weights cached once per graph instead of once per run;
- :mod:`repro.runtime.rebatch` — batch-polymorphic spec re-inference;
- :mod:`repro.runtime.engine` — the synchronous :class:`Engine`: cached
  plans per batch size, intra-op threaded binarized GEMMs, ``run`` and
  ``run_many`` (greedy micro-batching via
  :func:`~repro.runtime.engine.greedy_chunks`, shared with the serving
  gateway), all bit-identical per request to the reference
  executor.
"""

from repro.runtime.engine import Engine, EngineStats
from repro.runtime.plan import (
    CompiledNode,
    CompiledPlan,
    NodeSchedule,
    NodeTuning,
    ParamCache,
    compile_plan,
)
from repro.runtime.rebatch import rebatched_specs

__all__ = [
    "CompiledNode",
    "CompiledPlan",
    "Engine",
    "EngineStats",
    "NodeSchedule",
    "NodeTuning",
    "ParamCache",
    "compile_plan",
    "rebatched_specs",
]
