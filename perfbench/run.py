"""The repository benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload pool_sync --seed 1 --seconds 20 --trace 0

``--trace 0`` times repetitions of the workload for ``--seconds`` and
prints the end-to-end metrics (medians over the repetitions).  ``--trace 1``
alternates untraced and traced repetitions and prints the per-layer
metrics of the traced ones; it also writes a Chrome/Perfetto trace and a
per-layer self-time table under ``perfbench/out/``.

Every repetition is checked: applied updates equal the budget, the final
accuracy meets the workload's floor, every dispatched turn is accounted
for, and the SHA-256 digest of the final global state equals the digest
recorded in ``digests.json`` for that workload and seed (for a seed not
recorded there: the digest of the first repetition, and for the
``redis://`` and live workloads, of a ``memory://`` run of the same spec).
A repetition that fails the check counts as failed and is left out of
the timings.  The last line of output is the result object.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

from checkout import BLAS_ENV, OUT, ROOT, CheckoutError, import_repro

HERE = Path(__file__).resolve().parent
MIN_REPS = 3          # timed repetitions per run, however long each takes
SETUP_SAMPLES = 7     # set-up measurements per run (extra set-up-only reps) ...
SETUP_SECONDS = 0.5   # ... and until this much set-up time is measured
SETUP_CAP = 30
WARMUP_SHRINK = 10    # the untimed warm-up runs 1/10 of the cohort and budget

# left out of the largest-layer ranking: a wait, and a layer outside the run
WAITS = ("scheduler.retire_wait_s", "engine.setup_s")


def load_metrics(kind: str) -> Dict[str, str]:
    """Metric name -> unit for ``end_to_end`` or ``per_layer``, as
    BENCHMARK.json at the checkout root declares them."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf8"))
    return {m["name"]: m["unit"] for m in bench[kind]}


def load_digests() -> Dict[str, Dict[str, str]]:
    path = HERE / "digests.json"
    return json.loads(path.read_text(encoding="utf8")) if path.exists() else {}


def blas_threads() -> Optional[int]:
    """Threads the loaded OpenBLAS uses, asked from the library itself."""
    import ctypes

    try:
        with open("/proc/self/maps", encoding="utf8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def machine_context() -> Dict[str, Any]:
    import numpy as np

    sha = None  # a checkout without git metadata
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=str(ROOT),
                                 capture_output=True, text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": blas_threads(),
        "blas_env": {name: os.environ.get(name) for name in BLAS_ENV},
        "git_sha": sha,
        "date": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
        "platform": platform.platform(),
    }


def median(values: List[float]) -> float:
    return float(statistics.median(values))


class Bench:
    """One benchmark process: a workload, a seed, and its backends."""

    def __init__(self, workload, seed: int) -> None:
        from layers import Recorder

        self.workload = workload
        self.seed = seed
        self.redis = None
        if workload.substrate == "redis":
            from repro.runtime.miniredis import MiniRedis

            self.redis = MiniRedis().start()
        self.spec = self.make_spec()
        # turn counters only: one dict increment per dispatch and per turn
        self.counter = Recorder([], spans=False).install(count_turns=True)

    def make_spec(self, **kwargs):
        broker = self.redis.url if self.redis is not None else None
        return self.workload.spec(self.seed, broker=broker, **kwargs)

    def rep(self, spec=None, **kwargs):
        from workloads import run_rep

        return run_rep(self.workload, spec or self.spec, self.counter, **kwargs)

    def close(self) -> None:
        self.counter.uninstall()
        if self.redis is not None:
            self.redis.stop()


def used_up(elapsed: float, reps: int, seconds: float) -> bool:
    """Whether stopping now lands nearer ``seconds`` than one more rep would."""
    return reps > 0 and elapsed * (reps + 0.5) / reps >= seconds


def timed_phase(bench: Bench, seconds: float) -> list:
    """Repetitions for about ``seconds`` (at least MIN_REPS)."""
    reps = []
    start = time.perf_counter()
    while len(reps) < MIN_REPS or not used_up(time.perf_counter() - start, len(reps), seconds):
        reps.append(bench.rep())
    return reps


def traced_phase(bench: Bench, seconds: float, label: str):
    """Untraced/traced repetition pairs; returns (reps, per-layer rows, report)."""
    from layers import (ENGINE_TARGETS, TURN_TARGETS, Recorder, chrome_trace, layer_metrics,
                        merge_totals, self_times)
    from workloads import MEMBERS

    reps, plain, traced, rows = [], [], [], []
    remote = bench.workload.substrate != "memory"
    OUT.mkdir(exist_ok=True)
    start = time.perf_counter()
    report: Dict[str, Any] = {}
    while not used_up(time.perf_counter() - start, len(traced), seconds):
        rep = bench.rep()
        plain.append(rep.run_s)
        reps.append(rep)

        rec = Recorder(ENGINE_TARGETS + TURN_TARGETS).install(count_turns=False)
        totals = [OUT / f"{label}-member{i}.json" for i in range(MEMBERS)] if remote else None
        try:
            rep = bench.rep(totals=totals)
        finally:
            rec.uninstall()
        traced.append(rep.run_s)
        reps.append(rep)
        members = merge_totals(rep.members)
        counts = {"dispatched": rep.dispatched, "trained": rep.trained,
                  "applied": rep.applied, "dropped": rep.dropped}
        row = layer_metrics(rec.totals(), members, list(bench.counter.turn_ms), counts)
        main = self_times(rec.events, rec.main_tid, rep.begin, rep.end)
        main["run_end.member_exit"] = rep.member_exit_s
        covered = sum(v for k, v in main.items() if k != "engine.run")
        row["trace.main_coverage"] = covered / rep.run_s
        rows.append(row)
        report = {
            "run_s": rep.run_s,
            "main_thread_self_s": dict(sorted(main.items(), key=lambda kv: -kv[1])),
            "engine_inclusive_s": dict(rec.totals()["inclusive"]),
            "member_self_s": members["self"],
            "layers": row,
        }
        (OUT / f"{label}.trace.json").write_text(
            json.dumps(chrome_trace(rec, rep.begin, label)), encoding="utf8")
    slowdown = median(traced) / median(plain)
    for row in rows:
        row["trace.slowdown"] = slowdown
    return reps, rows, report


def print_report(report: Dict[str, Any], layers: Dict[str, float]) -> None:
    print(f"run phase {report['run_s']:.3f} s; main-thread self time by layer:")
    for name, secs in report["main_thread_self_s"].items():
        print(f"  {name:28s} {secs:9.4f} s  {secs / report['run_s']:6.1%}")
    if report["member_self_s"]:
        print("member processes (summed), self time by layer:")
        for name, secs in sorted(report["member_self_s"].items(), key=lambda kv: -kv[1]):
            print(f"  {name:28s} {secs:9.4f} s")
    times = {k: v for k, v in layers.items() if k.endswith("_s") and k not in WAITS}
    ranked = sorted(times, key=lambda k: -times[k])
    print("layer times, largest first: " + ", ".join(f"{k}={times[k]:.3f}" for k in ranked[:6]))
    print(f"main-thread coverage {layers['trace.main_coverage']:.3f}, "
          f"traced/untraced wall {layers['trace.slowdown']:.3f}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        import_repro()
    except CheckoutError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS, check_rep

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; have {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    units = load_metrics("per_layer" if args.trace else "end_to_end")
    context = machine_context()
    print("context " + json.dumps(context), flush=True)
    label = f"{workload.name}-seed{args.seed}"

    bench = Bench(workload, args.seed)
    try:
        warm = bench.make_spec(shrink=WARMUP_SHRINK)
        warm_rep = bench.rep(warm)
        if warm_rep.applied != warm.total_updates:
            raise RuntimeError(f"warm-up applied {warm_rep.applied} of {warm.total_updates}")
        if args.trace:
            reps, rows, report = traced_phase(bench, args.seconds, label)
            setups = []
        else:
            reps = timed_phase(bench, args.seconds)
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            setups = [r.setup_s for r in reps]
            while len(setups) < SETUP_CAP and (
                    len(setups) < SETUP_SAMPLES or sum(setups) < SETUP_SECONDS):
                setups.append(bench.rep(setup_only=True).setup_s)

        expected = load_digests().get(workload.name, {}).get(str(args.seed))
        if expected is None and workload.substrate != "memory":
            expected = bench.rep(workload.spec(args.seed, substrate="memory")).digest
        failed = 0
        for i, rep in enumerate(reps):
            rep.errors = check_rep(workload, bench.spec, rep, expected or reps[0].digest)
            for err in rep.errors:
                print(f"check failed (rep {i}): {err}", file=sys.stderr)
            failed += bool(rep.errors)
    finally:
        bench.close()

    good = [r for r in reps if not r.errors] or reps
    first = reps[0]
    summary = {
        "workload": workload.name, "seed": args.seed, "reps": len(reps),
        "digest": first.digest[:12], "final_accuracy": first.accuracy,
        "turns": {"dispatched": first.dispatched, "trained": first.trained,
                  "applied": first.applied, "dropped": first.dropped},
        "goodput": first.goodput,
        "run_s": [r.run_s for r in reps],
    }
    if args.trace:
        # every row the layers give, substrate-only seconds (serde, RESP,
        # cluster submit) included; the result line carries those BENCHMARK.json lists
        layers = {name: median([row[name] for row in rows]) for name in rows[0]}
        values = layers
        print_report(report, layers)
        (OUT / f"{label}.layers.json").write_text(json.dumps(
            {"context": context, "summary": summary, "per_layer": layers,
             "last_traced_rep": report}, indent=2), encoding="utf8")
    else:
        summary["setup_s"] = setups
        values = {
            "setup_s": median(setups),
            "applied_per_s": median([r.applied / r.run_s for r in good]),
            "goodput": median([r.goodput for r in good]),
            "peak_rss_mb": peak_rss_mb,
            "final_accuracy": median([r.accuracy for r in good]),
        }
    print("summary " + json.dumps(summary), flush=True)
    result = {
        "correct": failed == 0,
        "attempted": len(reps),
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
