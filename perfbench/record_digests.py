"""Record the expected final-state digest of every workload for some seeds.

    python3 perfbench/record_digests.py --seeds 0-31

Runs each workload's spec once per seed on the ``memory://`` substrate and
writes ``perfbench/digests.json``.  The ``redis://`` and live workloads
share one spec, so they get the digest of its ``memory://`` run: the
standing invariant is that every substrate reproduces it bit for bit.
Re-record only when a change is meant to alter the arithmetic (and say so
where the change is described).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from checkout import import_repro

DIGESTS = Path(__file__).resolve().parent / "digests.json"


def parse_seeds(text: str):
    lo, _, hi = text.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--seeds", default="0-31")
    args = parser.parse_args(argv)

    import_repro()
    from layers import Recorder
    from workloads import WORKLOADS, check_rep, run_rep

    counter = Recorder([], spans=False).install(count_turns=True)
    table = {name: {} for name in WORKLOADS}
    try:
        for seed in parse_seeds(args.seeds):
            shared = {}
            for name, workload in WORKLOADS.items():
                spec = workload.spec(seed, substrate="memory")
                key = repr(spec)
                if key not in shared:
                    rep = run_rep(workload, spec, counter)
                    errors = check_rep(workload, spec, rep, None)
                    if errors:
                        raise RuntimeError(f"{name} seed {seed}: {errors}")
                    shared[key] = rep.digest
                    print(f"{name:14s} seed {seed:3d} {rep.digest[:12]} "
                          f"accuracy {rep.accuracy:.4f}", flush=True)
                table[name][str(seed)] = shared[key]
    finally:
        counter.uninstall()
    DIGESTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n", encoding="utf8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
