"""The benchmark's workloads and the runner of one repetition.

Every workload is one :class:`ExperimentSpec` built from the seed (the
blobs data, the model init and every scheduler stream derive from it),
run through the public ``Engine.from_spec`` -> ``setup_async`` ->
``run_async`` -> ``evaluate`` -> ``shutdown`` path.  A repetition times
two phases:

* set-up: engine build until every worker or node is registered and has
  built its trainer, so the first turn can be dispatched;
* run: first dispatch until the result is back — run end (drain), the one
  final evaluation, shutdown and member exit included.
"""

from __future__ import annotations

import gc
import hashlib
import json
import select
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional

import numpy as np

from checkout import ROOT, member_env

MEMBER = Path(__file__).resolve().parent / "member.py"
MEMBERS = 2          # worker / node processes: nproc on the reference box
MEMBER_TIMEOUT = 60.0


@dataclass(frozen=True)
class Workload:
    name: str
    substrate: str           # memory | redis | live
    clients: int
    updates: int
    scheduler: Dict[str, Any]
    accuracy_floor: float
    why: str
    samples_per_client: int = 1
    lr: float = 0.05
    local_epochs: int = 1

    def spec(self, seed: int, substrate: Optional[str] = None,
             broker: Optional[str] = None, shrink: int = 1):
        """The workload's spec; ``substrate`` swaps only the execution
        fields, so ``redis_fedbuff``/``live_fedbuff`` share one spec with
        their ``memory://`` reference.  ``shrink`` scales the cohort and the
        budget down for the untimed warm-up."""
        from repro.experiment import ExperimentSpec

        substrate = substrate or self.substrate
        clients = max(self.clients // shrink, 8)
        updates = max(self.updates // shrink, 8)
        scheduler = dict(self.scheduler)
        if "clients_per_round" in scheduler:
            # a barrier round applies clients_per_round updates at once, so
            # the budget stays a whole number of rounds
            per_round = max(scheduler["clients_per_round"] // shrink, 2)
            scheduler["clients_per_round"] = per_round
            updates = max(updates // per_round, 1) * per_round
        fields: Dict[str, Any] = dict(
            topology="centralized",
            num_clients=clients,
            data={
                "dataset": "blobs",
                "kwargs": {"train_size": max(1024, clients * self.samples_per_client),
                           "test_size": 256, "seed": seed},
                "partition": "iid",
                "batch_size": 32,
            },
            train={
                "algorithm": "fedavg",
                "algorithm_kwargs": {"lr": self.lr, "local_epochs": self.local_epochs},
                "model": "mlp",
                "global_rounds": 1,
                "eval_every": 0,
            },
            scheduler=scheduler,
            total_updates=updates,
            seed=seed,
        )
        if substrate == "memory":
            fields.update(pool_size=2, broker="memory://", mode="async")
        elif substrate == "redis":
            # no pool_size: the broker spawns nothing, the benchmark starts
            # the workers itself (member.py) and counts their boot as set-up
            fields.update(broker=broker, mode="async")
        elif substrate == "live":
            fields.update(mode="live", cluster={"bind": "127.0.0.1:0", "min_nodes": MEMBERS})
        else:
            raise ValueError(f"unknown substrate {substrate!r}")
        return ExperimentSpec(**fields)


_FEDBUFF = {"name": "fedbuff", "concurrency": 4, "buffer_size": 4}

WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload(
        "pool_fedasync", "memory", 2000, 64, {"name": "fedasync"}, 0.5,
        "memory:// pool, fedasync at its default concurrency (the whole cohort): "
        "almost every dispatched turn is trained, then discarded at drain",
        # enough local work that the 64 applied updates learn the task on
        # every seed (one step on one sample leaves the model near its
        # seed-dependent init, at about chance accuracy)
        samples_per_client=32, lr=0.5, local_epochs=3,
    ),
    Workload(
        "pool_sync", "memory", 1000, 2000, {"name": "sync", "clients_per_round": 100}, 0.9,
        "memory:// pool, sync barrier of 100 of 1000 clients: every dispatched "
        "turn is applied, node training dominates; control for run-end changes",
        lr=0.2,  # converges within the budget on every seed
    ),
    Workload(
        "redis_fedbuff", "redis", 64, 1600, _FEDBUFF, 0.9,
        "redis:// over MiniRedis with 2 worker processes: serde, RESP round "
        "trips under the pool lock, broker run end",
    ),
    Workload(
        "live_fedbuff", "live", 64, 1600, _FEDBUFF, 0.9,
        "mode: live with 2 node processes over TCP: the only workload through "
        "cluster and comm/transport",
    ),
)}


def state_digest(state: Dict[str, np.ndarray]) -> str:
    """SHA-256 over the global state: names, dtypes, shapes and bytes."""
    h = hashlib.sha256()
    for key in sorted(state):
        arr = np.ascontiguousarray(state[key])
        h.update(f"{key}|{arr.dtype.str}|{arr.shape}|".encode())
        h.update(arr.tobytes())
    return h.hexdigest()


@dataclass
class Rep:
    """One repetition's timings, counts and outputs."""

    setup_s: float
    run_s: float = 0.0
    begin: float = 0.0           # perf_counter at first dispatch
    end: float = 0.0             # perf_counter once members exited
    member_exit_s: float = 0.0   # waiting for member processes to exit
    applied: int = 0
    dispatched: int = 0
    trained: int = 0
    dropped: int = 0
    digest: str = ""
    accuracy: float = 0.0
    members: List[Dict[str, Any]] = field(default_factory=list)
    errors: List[str] = field(default_factory=list)

    @property
    def goodput(self) -> float:
        return self.applied / self.trained if self.trained else 0.0


def _spawn(role: str, url: str, totals: Optional[List[Path]]) -> List[subprocess.Popen]:
    procs = []
    for i in range(MEMBERS):
        cmd = [sys.executable, str(MEMBER), role, url]
        if totals is not None:
            cmd += ["--totals", str(totals[i])]
        procs.append(subprocess.Popen(cmd, cwd=str(ROOT), env=member_env(),
                                      stdout=subprocess.PIPE))
    return procs


def _wait_ready(procs: List[subprocess.Popen]) -> None:
    deadline = time.monotonic() + MEMBER_TIMEOUT
    for proc in procs:
        remaining = deadline - time.monotonic()
        ready, _, _ = select.select([proc.stdout], [], [], max(remaining, 0.0))
        line = proc.stdout.readline() if ready else b""
        if line.strip() != b"ready":
            raise RuntimeError(f"member pid {proc.pid} never became ready")


def _wait_registered(broker) -> None:
    """Until every worker's heartbeat is on the broker."""
    from repro.runtime.resp import RespClient

    deadline = time.monotonic() + MEMBER_TIMEOUT
    with RespClient(broker.cfg.host, broker.cfg.port, db=broker.cfg.db) as conn:
        while int(conn.execute("HLEN", broker.cfg.key("hb"))) < MEMBERS:
            if time.monotonic() > deadline:
                raise RuntimeError("broker workers never registered")
            time.sleep(0.002)


def _reap(procs: List[subprocess.Popen], timeout: float) -> None:
    for proc in procs:
        try:
            proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
        if proc.stdout is not None:
            proc.stdout.close()


def run_rep(workload: Workload, spec, counter=None, totals: Optional[List[Path]] = None,
            setup_only: bool = False) -> Rep:
    """Build, set up, run, evaluate and shut down one engine."""
    from repro.engine.engine import Engine

    substrate = "live" if spec.mode == "live" else (
        "redis" if str(spec.broker).startswith("redis") else "memory")
    if counter is not None:
        counter.reset()
    gc.collect()  # the previous repetition's garbage is not this one's cost
    procs: List[subprocess.Popen] = []
    try:
        start = time.perf_counter()
        engine = Engine.from_spec(spec)
        try:
            if substrate == "live":
                procs = _spawn("node", engine.cluster.url, totals)
                engine.setup_async()   # blocks until the quorum joined
                _wait_ready(procs)
            elif substrate == "redis":
                engine.setup_async()   # broker up, spec published
                broker = engine.pool.broker
                procs = _spawn("worker", broker.cfg.with_run(broker.cfg.run), totals)
                _wait_ready(procs)
                _wait_registered(broker)
            else:
                engine.setup_async()
            begin = time.perf_counter()
            rep = Rep(setup_s=begin - start)
            if not setup_only:
                metrics = engine.run_async(total_updates=spec.total_updates)
                _loss, rep.accuracy = engine.evaluate()
                state = engine.global_state()
                sched = engine.scheduler
        finally:
            engine.shutdown()
        reap = time.perf_counter()
        _reap(procs, timeout=30.0)
        end = time.perf_counter()
    finally:
        _reap(procs, timeout=0.0)
    if setup_only:
        return rep
    rep.begin, rep.end = begin, end
    rep.run_s = end - begin
    rep.member_exit_s = end - reap
    rep.applied = int(metrics.total_applied())
    rep.dropped = int(sched.dropped)
    rep.digest = state_digest(state)
    if counter is not None:
        rep.dispatched = int(counter.counts["dispatched"])
        rep.trained = int(counter.counts["trained"])
    for path in totals or ():
        if path.exists():
            rep.members.append(json.loads(path.read_text(encoding="utf8")))
            path.unlink()
    return rep


def check_rep(workload: Workload, spec, rep: Rep, expected: Optional[str]) -> List[str]:
    """What is wrong with one repetition's outputs (empty: correct)."""
    errors = []
    if rep.applied != spec.total_updates:
        errors.append(f"applied {rep.applied} != budget {spec.total_updates}")
    if rep.accuracy < workload.accuracy_floor:
        errors.append(f"final accuracy {rep.accuracy:.4f} < floor {workload.accuracy_floor}")
    if expected is not None and rep.digest != expected:
        errors.append(f"state digest {rep.digest[:12]} != expected {expected[:12]}")
    if rep.trained + rep.dropped != rep.dispatched:
        errors.append(f"trained {rep.trained} + dropped {rep.dropped} "
                      f"!= dispatched {rep.dispatched}")
    return errors
