"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload query_local --seed 1 \\
        --seconds 16 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` is the separate traced run that yields the per-layer
metrics and writes its spans as JSONL (readable by
``python -m repro.obs.report``).  The last line of standard output is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``; the lines
above it are a readable table, the machine stamp and the exact logical
counts.  The command exits 1 when any answer check failed and 2 when the
checkout's ``src/`` is missing.  Everything the run writes goes under
``.perfbench/`` in the repository root.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench"

SCALES = ("full", "tiny")


def parse_args(argv=None) -> argparse.Namespace:
    import metrics

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=metrics.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=metrics.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--scale", choices=SCALES, default="full",
        help="'tiny' shrinks every input for the self-tests",
    )
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    return args


def use_checkout_src() -> bool:
    """Put the checkout's ``src/`` first on the path; False when there is
    no package there to measure."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        return False
    sys.path.insert(0, str(src))
    return True


def full_metrics(outcome_metrics: dict, workload: str, trace: bool) -> dict:
    """Every metric of the mode, in registry order: the workload's own,
    and 0 for layers the workload does not exercise."""
    import metrics

    expected = set(metrics.owned(workload, trace))
    got = set(outcome_metrics)
    if got != expected:
        raise RuntimeError(
            f"{workload} produced {sorted(got ^ expected)} unexpectedly "
            "(missing or not owned)"
        )
    units = metrics.units(trace)
    return {
        name: {"value": float(outcome_metrics.get(name, 0.0)),
               "unit": units[name]}
        for name in metrics.names(trace)
    }


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 scale: str = "full"):
    """Run one workload in this process; returns its ``Outcome``."""
    import importlib

    module = importlib.import_module(workload)
    size = module.TINY if scale == "tiny" else module.FULL
    work_dir = OUT / "tmp" / f"{workload}-{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    try:
        return module.run(seed, seconds, trace, size, work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


def main(argv=None) -> int:
    sys.path.insert(0, str(HERE))
    args = parse_args(argv)
    if not use_checkout_src():
        print(f"perfbench: no package at {ROOT / 'src' / 'repro'}; run from "
              "a full checkout of the repository", file=sys.stderr)
        return 2
    from common import dump_json, machine_stamp

    trace = bool(args.trace)
    outcome = run_workload(args.workload, args.seed, args.seconds, trace,
                           args.scale)
    printed = full_metrics(outcome.metrics, args.workload, trace)
    ledger = outcome.ledger
    result = {
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": printed,
    }
    stamp = machine_stamp(ROOT)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.scale != "full":
        tag += f"-{args.scale}"
    if trace:
        trace_path = OUT / "trace" / f"{tag}.jsonl"
        trace_path.parent.mkdir(parents=True, exist_ok=True)
        trace_path.unlink(missing_ok=True)
        from repro.obs.export import write_jsonl

        for tracer in outcome.tracers:
            write_jsonl(trace_path, tracer, append=True)
        print(f"trace: {trace_path.relative_to(ROOT)}")
    dump_json(OUT / "results" / f"{tag}.json", {
        "stamp": stamp, "details": outcome.details, **result,
    })

    width = max(len(n) for n in printed)
    for name, m in printed.items():
        print(f"{name:<{width}}  {m['value']:>14.6g}  {m['unit']}")
    for name, value in sorted(outcome.details.items()):
        if name != "counts":
            print(f"{name:<{width}}  {value:>14.6g}  (not gated)")
    for reason in ledger.reasons:
        print(f"FAILED: {reason}")
    print("counts: " + json.dumps(outcome.details.get("counts", {}),
                                  sort_keys=True))
    print("stamp: " + json.dumps(stamp, sort_keys=True))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
