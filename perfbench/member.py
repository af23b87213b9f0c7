"""A member process for the ``redis://`` and live workloads.

    python3 perfbench/member.py worker 'redis://127.0.0.1:PORT/0?run=NS'
    python3 perfbench/member.py node tcp://127.0.0.1:PORT [--totals FILE]

Runs the public entry points (``repro.runtime.worker.run_worker``,
``repro.cluster.node.run_node``) unchanged.  It prints ``ready`` once the
trainer node is built, so the benchmark can charge process boot to set-up
time.  With ``--totals`` it also wraps the turn body's layers and writes
their totals to FILE when the process exits.
"""

from __future__ import annotations

import argparse
import functools
import sys

from checkout import import_repro


def _announce_after(owner, attr: str) -> None:
    raw = getattr(owner, attr)

    @functools.wraps(raw)
    def announced(*args, **kwargs):
        out = raw(*args, **kwargs)
        print("ready", flush=True)
        return out

    setattr(owner, attr, announced)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("role", choices=("worker", "node"))
    parser.add_argument("url")
    parser.add_argument("--totals", default=None)
    args = parser.parse_args(argv)

    import_repro()
    from layers import MEMBER_TARGETS, Recorder
    from repro.cluster.node import ClusterNode, run_node
    from repro.runtime.worker import BrokerWorker, run_worker

    recorder = None
    if args.totals:
        recorder = Recorder(MEMBER_TARGETS).install(count_turns=False)
    try:
        if args.role == "worker":
            _announce_after(BrokerWorker, "load")
            return run_worker(args.url)
        _announce_after(ClusterNode, "load")
        return run_node(args.url)
    finally:
        if recorder is not None:
            recorder.write_totals(args.totals)


if __name__ == "__main__":
    sys.exit(main())
