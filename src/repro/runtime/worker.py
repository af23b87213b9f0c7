"""The ``repro worker`` process: pulls client turns from a redis broker.

Started as ``python -m repro worker redis://host:port/0?run=<ns>`` (or
auto-spawned by :class:`~repro.runtime.redis.RedisBroker` with
``?workers=N``).  On startup the worker fetches the experiment spec the
broker published, rebuilds an identical trainer node with the builder the
engine uses (:mod:`repro.node.builder`) — which is what makes its turns
bit-identical to in-process execution — and loops::

    BRPOP turn -> lease -> Node.run_client_turn on the stored snapshot
    -> MULTI{snapshot, done-record, result-ack, lease-release}EXEC

A heartbeat thread renews the worker's liveness stamp and the active
turn's lease; if the process dies mid-turn the lease expires and the
engine-side collector requeues the turn.  Before running a turn the worker
checks the ``done`` hash — a requeued duplicate of a *completed* turn
re-acks the recorded result instead of re-training, so retries cannot
double-advance client state.

Environment knobs (used by the regression tests):

``REPRO_WORKER_TURN_DELAY``
    Seconds to sleep after claiming a turn and before training — widens
    the kill window for dead-worker tests.
``REPRO_WORKER_MAX_TURNS``
    Exit after this many turns (crash-recovery tests).
"""

from __future__ import annotations

import json
import os
import signal
import socket
import threading
import time
import traceback
from collections import OrderedDict
from typing import Any, Optional

from repro.runtime import serde
from repro.runtime.redis import RedisUrl, parse_redis_url
from repro.runtime.resp import RespClient, RespError
from repro.utils.logging import get_logger

_LOG = get_logger("worker")

__all__ = ["BrokerWorker", "run_worker"]


class BrokerWorker:
    """One turn-pulling worker bound to a broker namespace."""

    def __init__(self, url: str, worker_id: Optional[str] = None) -> None:
        self.cfg: RedisUrl = parse_redis_url(url)
        if not self.cfg.run:
            raise ValueError(
                "worker URL needs the broker's run namespace "
                "(redis://host:port/db?run=<id>); the engine logs it at start"
            )
        self.worker_id = worker_id or f"{socket.gethostname()}-{os.getpid()}"
        self._conn: Optional[RespClient] = None
        self._hb_conn: Optional[RespClient] = None
        self._current_turn: Optional[int] = None
        self._stopping = threading.Event()
        # a graceful stop request (signal or stop()) is separate from
        # _stopping: the heartbeat thread must keep renewing the in-flight
        # turn's lease until that turn actually completes
        self._stop_requested = threading.Event()
        self.node: Any = None
        self.provider: Any = None
        self.baseline: Any = None
        self.turns_run = 0
        # decoded global-state payloads, keyed by the engine's intern key;
        # a round's whole cohort shares one entry, async policies keep a
        # few recent versions warm
        self._gstate_cache: "OrderedDict[int, Any]" = OrderedDict()
        self._gstate_cache_cap = 4

    # ------------------------------------------------------------------
    # startup: reconstruct an engine-identical trainer node from the spec
    # ------------------------------------------------------------------
    def connect(self) -> None:
        self._conn = RespClient(self.cfg.host, self.cfg.port, db=self.cfg.db,
                                password=self.cfg.password)
        self._hb_conn = RespClient(self.cfg.host, self.cfg.port, db=self.cfg.db,
                                   password=self.cfg.password)

    def load(self) -> None:
        """Fetch the published spec and build node + data provider."""
        assert self._conn is not None
        spec_yaml = self._conn.execute("GET", self.cfg.key("spec"))
        meta_raw = self._conn.execute("GET", self.cfg.key("meta"))
        if spec_yaml is None or meta_raw is None:
            raise RespError(
                f"no experiment published under namespace "
                f"{self.cfg.namespace()!r} — is the engine running?"
            )
        from repro.node.builder import load_worker

        self.node, self.provider, self.baseline = load_worker(
            spec_yaml.decode("utf8") if isinstance(spec_yaml, bytes) else spec_yaml,
            json.loads(meta_raw).get("num_clients"),
            name=f"broker_worker_{self.worker_id}",
            index=1_000_000,
        )

    # ------------------------------------------------------------------
    # liveness
    # ------------------------------------------------------------------
    def _heartbeat_loop(self) -> None:
        assert self._hb_conn is not None
        period = self.cfg.heartbeat
        while not self._stopping.wait(period):
            try:
                self._hb_conn.execute(
                    "HSET", self.cfg.key("hb"), self.worker_id, time.time()
                )
                turn = self._current_turn
                if turn is not None:
                    self._hb_conn.execute(
                        "HSET", self.cfg.key("leases"), turn,
                        json.dumps({"worker": self.worker_id,
                                    "deadline": time.time() + self.cfg.lease}),
                    )
            except RespError:
                return  # connection gone; main loop will notice and exit

    # ------------------------------------------------------------------
    # the turn loop
    # ------------------------------------------------------------------
    def run(self, max_turns: Optional[int] = None) -> int:
        """Pull and execute turns until stopped; returns turns completed."""
        if self._conn is None:
            self.connect()
        if self.node is None:
            self.load()
        assert self._conn is not None
        self._conn.execute("HSET", self.cfg.key("hb"), self.worker_id, time.time())
        hb = threading.Thread(target=self._heartbeat_loop,
                              name="worker-heartbeat", daemon=True)
        hb.start()
        env_cap = os.environ.get("REPRO_WORKER_MAX_TURNS")
        if max_turns is None and env_cap:
            max_turns = int(env_cap)
        _LOG.info("worker %s serving namespace %s", self.worker_id, self.cfg.namespace())
        try:
            while max_turns is None or self.turns_run < max_turns:
                if self._stop_requested.is_set() or self._stopping.is_set():
                    # graceful shutdown (SIGTERM/SIGINT or stop()): the
                    # in-flight turn already completed — _handle_turn's MULTI
                    # released its lease — so exit and deregister below
                    break
                if self._conn.execute("GET", self.cfg.key("stop")) is not None:
                    break
                item = self._conn.brpop(self.cfg.key("turns"), timeout=1.0)
                if item is None:
                    continue
                frame = item[1]
                if frame == b"STOP":
                    break
                self._handle_turn(frame)
        except RespError as exc:
            _LOG.error("worker %s lost its broker connection: %s", self.worker_id, exc)
            return self.turns_run
        finally:
            self._stopping.set()
            try:
                self._conn.execute("HDEL", self.cfg.key("hb"), self.worker_id)
            except RespError:
                pass
        return self.turns_run

    def stop(self) -> None:
        """Request a graceful shutdown: finish the in-flight turn, then exit.

        Sets ``_stop_requested`` rather than ``_stopping`` so the heartbeat
        thread keeps renewing the worker's lease until the current turn has
        actually been committed back to the broker.
        """
        self._stop_requested.set()

    def _resolve_gstate(self, args: tuple) -> tuple:
        """Swap an interned-payload sentinel for the decoded global state.

        The engine ships each dispatch epoch's model to the ``gstate`` hash
        once and sends ``{GSTATE_KEY: key}`` in the turn frame; decoding it
        once per key (instead of once per turn) is the worker half of the
        round-decode cache.  The decoded payload is shared across turns and
        must be treated as read-only — same contract as the in-process
        pool, where one payload dict fans out to the whole cohort.
        """
        head = args[0] if args else None
        if not (isinstance(head, dict) and len(head) == 1
                and serde.GSTATE_KEY in head):
            return args
        gkey = int(head[serde.GSTATE_KEY])
        payload = self._gstate_cache.get(gkey)
        if payload is None:
            assert self._conn is not None
            frame = self._conn.execute("HGET", self.cfg.key("gstate"), gkey)
            if frame is None:
                # the engine prunes only keys no in-flight turn references,
                # so a miss means the run is gone or the namespace was wiped
                raise RuntimeError(
                    f"interned global state {gkey} missing from broker"
                )
            payload = serde.decode_payload(frame)
            self._gstate_cache[gkey] = payload
            while len(self._gstate_cache) > self._gstate_cache_cap:
                self._gstate_cache.popitem(last=False)
        else:
            self._gstate_cache.move_to_end(gkey)
        return (payload,) + tuple(args[1:])

    def _handle_turn(self, frame: bytes) -> None:
        assert self._conn is not None
        conn = self._conn
        turn_id, client, method, args, kwargs = serde.decode_turn(frame)
        # duplicate of a completed turn (requeued by a lease sweep that
        # raced the ack): re-ack the recorded result, never re-train
        done = conn.execute("HGET", self.cfg.key("done"), turn_id)
        if done is not None:
            conn.execute("LPUSH", self.cfg.key("results"), done)
            return
        conn.execute(
            "HSET", self.cfg.key("leases"), turn_id,
            json.dumps({"worker": self.worker_id,
                        "deadline": time.time() + self.cfg.lease}),
        )
        self._current_turn = turn_id
        delay = float(os.environ.get("REPRO_WORKER_TURN_DELAY", "0") or 0)
        if delay:
            time.sleep(delay)
        snap_frame: Optional[bytes] = None
        try:
            args = self._resolve_gstate(args)
            raw = conn.execute("HGET", self.cfg.key("snap"), client)
            snapshot = None if raw is None else serde.decode_snapshot(raw)
            after, value, error = self.node.run_client_turn(
                client, snapshot, self.provider, self.baseline, method, args, kwargs
            )
            snap_frame = serde.encode_snapshot(after)
            if error is not None:
                raise error
            result_frame = serde.encode_result(
                turn_id, client, value,
                snap_bytes=len(snap_frame), worker=self.worker_id,
            )
        except Exception as exc:  # noqa: BLE001 - report, keep serving
            result_frame = serde.encode_error(
                turn_id, client, exc, traceback_text=traceback.format_exc(),
                snap_bytes=len(snap_frame) if snap_frame else 0,
                worker=self.worker_id,
            )
        # swap-out + done-record + ack + lease release, atomically: a lease
        # sweep observes either "running" or "fully completed", never a
        # half-acked turn it might requeue against a stale snapshot
        commands = [("HSET", self.cfg.key("done"), turn_id, result_frame),
                    ("LPUSH", self.cfg.key("results"), result_frame),
                    ("HDEL", self.cfg.key("leases"), turn_id)]
        if snap_frame is not None:
            commands.insert(0, ("HSET", self.cfg.key("snap"), client, snap_frame))
        conn.multi(commands)
        self._current_turn = None
        self.turns_run += 1


def run_worker(url: str, worker_id: Optional[str] = None,
               max_turns: Optional[int] = None) -> int:
    """CLI entrypoint (``python -m repro worker <url>``); returns exit code."""
    try:
        worker = BrokerWorker(url, worker_id=worker_id)
        worker.connect()
        worker.load()
    except (RespError, ValueError) as exc:
        _LOG.error("worker startup failed: %s", exc)
        return 2

    # graceful shutdown: SIGTERM/SIGINT finish the in-flight turn (its MULTI
    # releases the lease and acks the result), then the run loop exits and
    # deregisters the heartbeat — no dead-worker requeue needed for a turn
    # that actually completed
    def _graceful(signum, frame):  # noqa: ARG001 - signal handler signature
        _LOG.info(
            "worker %s received signal %d, finishing current turn",
            worker.worker_id, signum,
        )
        worker.stop()

    if threading.current_thread() is threading.main_thread():
        signal.signal(signal.SIGTERM, _graceful)
        signal.signal(signal.SIGINT, _graceful)

    worker.run(max_turns=max_turns)
    _LOG.info("worker %s exiting after %d turns", worker.worker_id, worker.turns_run)
    return 0
