"""Steadiness check: run the benchmark repeatedly in fresh processes.

Run from the root of a source checkout::

    python3 perfbench/steady.py                      # 4 runs per workload, seed 0
    python3 perfbench/steady.py --held-out           # the same on the held-out seed
    python3 perfbench/steady.py --seeds 0-9          # one run per seed

Workloads run in alternating order (forward, then backward, ...), one
fresh process each.  For every end-to-end metric the command prints the
median, the quartiles and the spread — the distance between the
quartiles as a share of the median — against the metric's bound in
``BENCHMARK.json``.  Runs of one seed must agree exactly on every
simulated-domain figure; traced runs (``--traced``) of one seed must
agree exactly on every per-layer count.  The exit code is 1 when a
spread exceeds its bound or a figure that must repeat does not.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from typing import Dict, List

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")

sys.path.insert(0, HERE)
from run import DEFAULT_SEED, HELD_OUT_SEED, load_spec  # noqa: E402


def run_once(workload: str, seed: int, seconds: int, trace: int) -> Dict:
    """One fresh benchmark process; its report line and result line."""
    done = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900,
    )
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise SystemExit(
            f"{workload} seed {seed} exited {done.returncode}:\n"
            f"{done.stdout[-2000:]}{done.stderr[-2000:]}"
        )
    report = next(
        json.loads(line[len("report "):])
        for line in lines if line.startswith("report ")
    )
    return {"report": report, "result": json.loads(lines[-1])}


def parse_seeds(text: str) -> List[int]:
    seeds: List[int] = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds.extend(range(int(low), int(high or low) + 1))
    return seeds


def spread(values: List[float]):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / median if median else 0.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=None,
                        help="comma-separated (default: all in BENCHMARK.json)")
    parser.add_argument("--seeds", default=None,
                        help="one run per seed, e.g. 0-9 or 0,3,5")
    parser.add_argument("--held-out", action="store_true",
                        help=f"use the held-out seed {HELD_OUT_SEED}")
    parser.add_argument("--repeats", type=int, default=4)
    parser.add_argument("--traced", type=int, default=0,
                        help="traced runs per workload (per-layer counts)")
    args = parser.parse_args(argv)

    spec = load_spec()
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in spec["workloads"]])
    seconds = spec["run_seconds"]
    seed = HELD_OUT_SEED if args.held_out else DEFAULT_SEED
    seeds = parse_seeds(args.seeds) if args.seeds else [seed] * args.repeats
    if len(seeds) < 2:
        parser.error("need at least two runs per workload")

    runs: Dict[str, List[Dict]] = {w: [] for w in workloads}
    traced: Dict[str, List[Dict]] = {w: [] for w in workloads}
    for index, run_seed in enumerate(seeds):
        order = workloads if index % 2 == 0 else workloads[::-1]
        for workload in order:
            runs[workload].append(run_once(workload, run_seed, seconds, 0))
            print(f"run {index + 1}/{len(seeds)} {workload} seed {run_seed} done",
                  flush=True)
    for index in range(args.traced):
        order = workloads if index % 2 == 0 else workloads[::-1]
        for workload in order:
            traced[workload].append(run_once(workload, seed, seconds, 1))

    ok = True
    same_seed = len(set(seeds)) == 1
    for workload in workloads:
        results = [r["result"] for r in runs[workload]]
        shares = {(r["failed"], r["attempted"]) for r in results}
        print(f"\n{workload}: {len(results)} runs, seeds {seeds}, "
              f"failed/attempted {sorted(shares)}")
        print(f"  {'metric':<22} {'median':>12} {'q1':>12} {'q3':>12} "
              f"{'spread':>8} {'bound':>6}")
        rows = [(m["name"], m["bound"], [r["metrics"][m["name"]]["value"] for r in results])
                for m in spec["end_to_end"]]
        rows += [(name, None, [r["report"]["timings"][name] for r in runs[workload]])
                 for name in ("setup_wall_s", "run_wall_s")]
        for name, bound, values in rows:
            median, q1, q3, share = spread(values)
            gated = bound is not None and name != "setup_s"
            verdict = "" if not gated else (
                "ok" if share <= bound / 3 else "WIDE" if share <= bound else "OVER"
            )
            ok &= not gated or share <= bound
            shown = "" if bound is None else f"{bound:.2f}"
            print(f"  {name:<22} {median:>12.6g} {q1:>12.6g} {q3:>12.6g} "
                  f"{share:>8.2%} {shown:>6} {verdict}")
            print("      runs: " + " ".join(f"{v:.4g}" for v in values))
        if len({(r["failed"] / r["attempted"]) for r in results}) > 1:
            print("  FAILED SHARE DIFFERS between runs")
            ok = False
        if same_seed:
            figures = [json.dumps(r["report"]["figures"], sort_keys=True)
                       for r in runs[workload]]
            same = len(set(figures)) == 1
            ok &= same
            print(f"  simulated figures identical across runs: {same} "
                  f"{runs[workload][0]['report']['figures']}")
        if traced[workload]:
            counts = [
                {name: value["value"] for name, value in r["result"]["metrics"].items()
                 if value["unit"] in ("count", "ratio")}
                for r in traced[workload]
            ]
            same = all(c == counts[0] for c in counts)
            ok &= same
            print(f"  per-layer counts identical across traced runs: {same}")
            overheads = [r["result"]["metrics"]["tracer.overhead_pct"]["value"]
                         for r in traced[workload]]
            print(f"  tracing overhead: {', '.join(f'{o:.1f}%' for o in overheads)}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
