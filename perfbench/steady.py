"""Steadiness check: run each workload on several seeds and report spreads.

Usage (from the repository root)::

    python3 perfbench/steady.py --seeds 10 [--workloads query_local ...] \
        [--baseline .perfbench/steady-set1.json]

It runs seeds 1 to ``--seeds`` and, for every end-to-end metric, prints
the median over the seeds and the spread, the distance between the first
and third quartile (``statistics.quantiles(values, n=4)``) as a share of
the median, beside the metric's bound from ``BENCHMARK.json``.  Seed 1 is
then run again and its exact logical counts must repeat digit for digit.
With ``--baseline`` (the summary of an earlier set), each median is also
compared with the baseline's, and its exact counts must equal the
baseline's.  The summary is written to ``.perfbench/steady.json``.  Exits
1 when a spread or a median shift exceeds its bound, a count differs, or
any run failed.  Runs are sequential, one process each.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    if proc.returncode != 0:
        raise RuntimeError(
            f"{workload} seed {seed} exited {proc.returncode}:\n"
            f"{proc.stdout[-2000:]}\n{proc.stderr[-2000:]}"
        )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    saved = json.loads(
        (ROOT / ".perfbench" / "results"
         / f"{workload}-seed{seed}-trace0.json").read_text()
    )
    result["counts"] = saved["details"].get("counts", {})
    return result


def spread(values) -> float:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--baseline", type=Path)
    parser.add_argument("--workloads", nargs="+",
                        default=[w["name"] for w in spec["workloads"]])
    args = parser.parse_args(argv)
    baseline = (json.loads(args.baseline.read_text())
                if args.baseline else {})
    seconds = spec["run_seconds"]
    ok = True
    summary = {}
    for workload in args.workloads:
        runs = [run_once(workload, s, seconds)
                for s in range(1, args.seeds + 1)]
        base = baseline.get(workload, {})
        print(f"\n{workload}: {len(runs)} seeds, run_seconds={seconds}")
        rows = {}
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            values = [r["metrics"][name]["value"] for r in runs]
            med, s = statistics.median(values), spread(values)
            verdict = ("ok" if s < bound / 3 else
                       "WIDE" if s <= bound else "FAIL")
            ok &= verdict != "FAIL"
            line = (f"  {name:<14} median {med:>12.5g} spread {s:6.3f}  "
                    f"bound {bound:.2f}  {verdict}")
            if name in base.get("metrics", {}):
                # Positive shift = worse than the baseline.
                ref = base["metrics"][name]["median"]
                shift = (med - ref) / ref
                if metric["better"] == "higher":
                    shift = -shift
                ok &= shift <= bound
                line += (f"  vs baseline {shift:+.3f} "
                         f"{'ok' if shift <= bound else 'FAIL'}")
            print(line)
            rows[name] = {"median": med, "spread": s, "bound": bound,
                          "values": values}
        again = run_once(workload, 1, seconds)
        same = again["counts"] == runs[0]["counts"]
        ok &= same
        print(f"  exact counts repeat on seed 1: {'yes' if same else 'NO'}")
        if not same:
            print(f"    {runs[0]['counts']}\n    {again['counts']}")
        if base:
            same_as_base = runs[0]["counts"] == base["counts"]
            ok &= same_as_base
            print("  exact counts equal the baseline's: "
                  f"{'yes' if same_as_base else 'NO'}")
        summary[workload] = {"metrics": rows, "counts_repeat": same,
                             "counts": runs[0]["counts"]}
    out = ROOT / ".perfbench" / "steady.json"
    out.write_text(json.dumps(summary, indent=2) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
