"""Steadiness report: is every end-to-end metric steady within its bound?

    python3 perfbench/steady.py --runs 10 [--workloads pool_sync,redis_fedbuff] [--sets 2]

Runs ``run.py`` (``--trace 0``) ``--runs`` times per workload, one fresh
process and one seed each, and prints for every end-to-end metric its
median, first and third quartiles (``statistics.quantiles(values, n=4)``)
and the relative IQR, ``(q3 - q1) / median``.  A metric is flagged when its
relative IQR exceeds its bound in ``BENCHMARK.json`` (``setup_s`` is
reported but exempt), and marked ``~`` when it exceeds a third of the bound,
the margin to aim for.  With ``--sets 2`` the whole sweep runs twice and
each metric's second median is compared with the first: a move in the
worse direction by more than the bound is flagged.  Any run whose
correctness check failed is flagged too.  The report is also written to
``perfbench/out/steady.json``.  Exit status 1 means something was flagged.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List

from checkout import OUT, ROOT

RUN = Path(__file__).resolve().parent / "run.py"


def run_once(workload: str, seed: int, seconds: int) -> Dict[str, Any]:
    cmd = [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=str(ROOT), capture_output=True, text=True, timeout=600)
    wall = time.perf_counter() - start
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(lines[-1])
    result["process_wall_s"] = wall
    result["summary"] = next((json.loads(line[len("summary "):]) for line in lines
                              if line.startswith("summary ")), None)
    return result


def spread(values: List[float]) -> Dict[str, float]:
    q1, _, q3 = statistics.quantiles(values, n=4)
    mid = statistics.median(values)
    return {"median": mid, "q1": q1, "q3": q3,
            "rel_iqr": (q3 - q1) / mid if mid else 0.0}


def worse_by(first: float, second: float, better: str) -> float:
    """How much worse ``second`` is than ``first``, as a share of ``first``."""
    if not first:
        return 0.0
    change = (second - first) / first
    return change if better == "lower" else -change


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf8"))
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--sets", type=int, choices=(1, 2), default=1)
    args = parser.parse_args(argv)

    metrics = {m["name"]: m for m in bench["end_to_end"]}
    flagged = False
    report: Dict[str, Any] = {"runs": args.runs, "seconds": args.seconds, "workloads": {}}
    for workload in args.workloads.split(","):
        sets = []
        for _ in range(args.sets):
            results = []
            for i in range(args.runs):
                result = run_once(workload, args.first_seed + i, args.seconds)
                wall = result["process_wall_s"]
                if not result["correct"] or result["failed"]:
                    flagged = True
                    print(f"FLAG {workload} seed {args.first_seed + i}: correctness check failed")
                results.append(result)
                print(f"{workload} seed {args.first_seed + i} ({wall:.1f} s): " + " ".join(
                    f"{k}={v['value']:.5g}" for k, v in result["metrics"].items()), flush=True)
            table = {name: spread([r["metrics"][name]["value"] for r in results])
                     for name in metrics}
            table["runs"] = results
            sets.append(table)
        print(f"\n{workload}: {args.runs} runs x {args.sets} set(s), {args.seconds} s each")
        print(f"  {'metric':16s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'rel_iqr':>8s} "
              f"{'bound':>6s}")
        for name, meta in metrics.items():
            for k, table in enumerate(sets):
                stats, mark = table[name], ""
                if stats["rel_iqr"] > meta["bound"] and name != "setup_s":
                    mark, flagged = "FLAG spread", True
                elif stats["rel_iqr"] > meta["bound"] / 3:
                    mark = "~"
                if k == 1:
                    drift = worse_by(sets[0][name]["median"], stats["median"], meta["better"])
                    if drift > meta["bound"]:
                        mark, flagged = f"FLAG drift {drift:+.3f}", True
                print(f"  {name:16s} {stats['median']:12.5g} {stats['q1']:12.5g} "
                      f"{stats['q3']:12.5g} {stats['rel_iqr']:8.4f} {meta['bound']:6.3f} {mark}")
        report["workloads"][workload] = sets
    OUT.mkdir(exist_ok=True)
    (OUT / "steady.json").write_text(json.dumps(report, indent=2), encoding="utf8")
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())
