"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 lcebench/run.py --workload b1_stream --seed 1 --seconds 36 --trace 0
    python3 lcebench/run.py --workload all --seed 1   # every workload, both modes
    python3 lcebench/run.py --write-spec      # regenerate BENCHMARK.json

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics; each line gives a metric's name, value, unit and sample count,
and the last line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  The exit code is 0 when every reply matched
the reference ``Executor`` bit for bit, 1 when one did not, and 2 when
the run was refused (sanitizer on, program sources missing, telemetry
drops or an unreconciled trace).
"""

from __future__ import annotations

import argparse
import json
import platform
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def _git_sha(root: Path) -> str:
    """The checked-out commit, read from ``.git`` (``unknown`` outside git)."""
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (root / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def _parse(argv: list[str] | None) -> argparse.Namespace:
    from lcebench import spec

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload", choices=[name for name, _ in spec.WORKLOADS] + ["all"],
        help="one workload, or 'all': each workload untraced then traced",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--setup-only", action="store_true",
        help="time one cold set-up of --workload and print it as JSON",
    )
    parser.add_argument(
        "--write-spec", action="store_true", help="write BENCHMARK.json and exit"
    )
    args = parser.parse_args(argv)
    if not args.write_spec and args.workload is None:
        parser.error("--workload is required")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def _run_all(args: argparse.Namespace) -> int:
    """Run every workload untraced then traced, each in its own process
    (peak RSS is per process); the exit code is the worst of the runs."""
    from lcebench import spec

    status = 0
    for name, _ in spec.WORKLOADS:
        for trace in ("0", "1"):
            proc = subprocess.run([
                sys.executable, __file__, "--workload", name, "--seed",
                str(args.seed), "--seconds", f"{args.seconds:g}", "--trace", trace,
            ])
            status = max(status, proc.returncode)
    return status


def main(argv: list[str] | None = None) -> int:
    args = _parse(argv)
    from lcebench import spec

    if args.write_spec:
        print(spec.write(ROOT))
        return 0
    if not (SRC / "repro").is_dir():
        print(f"program sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    import numpy as np

    from lcebench import harness
    from repro.concurrency.locks import sanitizer_enabled

    if sanitizer_enabled():
        print(
            "REPRO_SANITIZE is set: a sanitized run checks correctness, "
            "not speed; refusing to report timings",
            file=sys.stderr,
        )
        return 2
    if args.workload == "all":
        return _run_all(args)
    if args.setup_only:
        print(json.dumps(vars(harness.setup_once(args.workload))))
        return 0

    print(
        f"# host nproc={harness.NPROC} python={platform.python_version()} "
        f"numpy={np.__version__} git={_git_sha(ROOT)} "
        f"workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
        f"trace={args.trace}"
    )
    try:
        report = harness.run(args.workload, args.seed, args.seconds, bool(args.trace))
    except harness.RefusedError as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return 2
    names = spec.PER_LAYER if args.trace else spec.END_TO_END
    metrics = {}
    for name, unit, *_ in names:
        value = report.metrics[name]
        print(f"{name} = {value:.6g} {unit} (n={report.samples[name]})")
        metrics[name] = {"value": value, "unit": unit}
    counts = harness.stats.tally(report.outcomes)
    attempted = sum(counts.values())
    failed = attempted - counts[harness.stats.OK]
    print("# outcomes " + " ".join(f"{k}={v}" for k, v in counts.items())
          + f" fail_ratio={failed / attempted:.6g}")
    correct = counts[harness.stats.WRONG] == 0 and counts[harness.stats.RAISED] == 0
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.path.insert(0, str(ROOT))
    sys.exit(main())
