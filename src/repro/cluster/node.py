"""The ``repro node`` process: one live cluster member.

Started as ``python -m repro node tcp://host:port`` (or ``inproc://name``
inside tests).  The node dials the coordinator with a bounded-retry TCP
connect — so node processes may start *before* the coordinator binds — and
then:

1. **joins** with a capability exchange (host, pid, slots) and receives the
   published :class:`~repro.experiment.spec.ExperimentSpec` YAML plus the
   heartbeat/lease contract;
2. **rebuilds an engine-identical trainer node** from the spec with
   :func:`repro.node.builder.load_worker` (the builder the engine and the
   redis broker workers use, which is what makes a live turn bit-identical
   to a simulated one given the same inputs);
3. **serves turns**: poll -> :meth:`Node.run_client_turn` against the
   client's local snapshot -> post the serde result frame, while a
   :class:`~repro.cluster.heartbeat.Heartbeater` renews the lease on a
   second channel;
4. **leaves gracefully** on SIGTERM/SIGINT or the coordinator's stop flag —
   the in-flight turn finishes, then the node deregisters.

Client state lives here, keyed by client id: a client the node adopts
(fresh assignment or an orphan from an evicted peer) starts from the
published baseline — the cluster's restart semantics.
"""

from __future__ import annotations

import os
import signal
import socket as socket_mod
import threading
import time
import traceback
from typing import Any, Dict, Optional, Tuple

from repro.cluster.heartbeat import Heartbeater
from repro.cluster.protocol import decode_control, encode_control, peek_kind
from repro.comm.transport import TransportError, make_channel
from repro.node.builder import load_worker
from repro.runtime import serde
from repro.utils.logging import get_logger

__all__ = ["ClusterNode", "run_node", "parse_cluster_url"]

_LOG = get_logger("cluster.node")


def parse_cluster_url(url: str) -> Tuple[str, str]:
    """``tcp://host:port`` / ``inproc://name`` -> (transport kind, address)."""
    kind, sep, address = url.partition("://")
    if not sep or kind not in ("tcp", "inproc") or not address:
        raise ValueError(
            f"cluster URL must be tcp://host:port or inproc://name, got {url!r}"
        )
    return kind, address


class ClusterNode:
    """One joinable member process (or in-proc member, in tests)."""

    def __init__(
        self,
        url: str,
        node_id: Optional[str] = None,
        *,
        poll_wait: float = 0.5,
        connect_timeout: float = 3.0,
        connect_retries: int = 20,
        connect_backoff: float = 0.25,
    ) -> None:
        self.url = url
        self.kind, self.address = parse_cluster_url(url)
        self.node_id = node_id or f"{socket_mod.gethostname()}-{os.getpid()}"
        self.poll_wait = float(poll_wait)
        self._channel_opts: Dict[str, Any] = {}
        if self.kind == "tcp":
            self._channel_opts = {
                "connect_timeout": connect_timeout,
                "connect_retries": connect_retries,
                "connect_backoff": connect_backoff,
            }
        self._work = None       # turn channel
        self._control = None    # heartbeat/leave channel
        self._heartbeater: Optional[Heartbeater] = None
        self._stopping = threading.Event()
        self.node: Any = None
        self.provider: Any = None
        self.baseline: Any = None
        self._snapshots: Dict[int, Any] = {}
        self.turns_run = 0
        self.heartbeat_period = 0.5

    # ------------------------------------------------------------------
    def stop(self) -> None:
        """Request shutdown; the in-flight turn finishes first."""
        self._stopping.set()

    def join(self) -> Dict[str, Any]:
        """Dial the coordinator and run the join handshake."""
        self._work = make_channel(self.kind, self.address, **self._channel_opts)
        self._control = make_channel(self.kind, self.address, **self._channel_opts)
        caps = {
            "host": socket_mod.gethostname(),
            "pid": os.getpid(),
            "slots": 1,
        }
        reply = self._call_control(
            self._control, encode_control("join", node_id=self.node_id, caps=caps)
        )
        if not reply.get("ok"):
            raise ConnectionError(
                f"cluster join rejected: {reply.get('error', 'unknown reason')}"
            )
        self.heartbeat_period = float(reply.get("heartbeat", 0.5))
        return reply

    def load(self, join_reply: Dict[str, Any]) -> None:
        self.node, self.provider, self.baseline = load_worker(
            str(join_reply["spec"]),
            int(join_reply["num_clients"]),
            name=f"cluster_node_{self.node_id}",
            index=2_000_000,
        )

    def run(self, max_turns: Optional[int] = None) -> int:
        """Join, serve turns until stopped, leave; returns turns completed."""
        join_reply = self.join()
        self.load(join_reply)
        self._heartbeater = Heartbeater(
            self._beat, self.heartbeat_period, on_stop=self._stopping.set
        ).start()
        _LOG.info("node %s serving cluster %s", self.node_id, self.url)
        try:
            while not self._stopping.is_set():
                if max_turns is not None and self.turns_run >= max_turns:
                    break
                try:
                    reply = self._work.call(encode_control(
                        "poll", node_id=self.node_id, wait=self.poll_wait
                    ))
                except (ConnectionError, OSError) as exc:
                    if self._stopping.is_set():
                        break
                    _LOG.error("node %s lost the coordinator: %s", self.node_id, exc)
                    return self.turns_run
                if peek_kind(reply) == "request":
                    self._serve_turn(reply)
                    continue
                _op, meta = decode_control(reply)
                if meta.get("stop") or not meta.get("ok", True):
                    break
        finally:
            self._shutdown()
        return self.turns_run

    # ------------------------------------------------------------------
    def _serve_turn(self, frame: bytes) -> None:
        """Execute one serde turn against the local snapshot store."""
        turn_id, client, method, args, kwargs = serde.decode_turn(frame)
        delay = float(os.environ.get("REPRO_NODE_TURN_DELAY", "0") or 0)
        if delay:
            # widens the kill window for live failure tests (mirrors the
            # broker worker's REPRO_WORKER_TURN_DELAY)
            time.sleep(delay)
        try:
            self._snapshots[client], value, error = self.node.run_client_turn(
                client, self._snapshots.get(client), self.provider, self.baseline,
                method, args, kwargs,
            )
            if error is not None:
                raise error
            result = serde.encode_result(turn_id, client, value, worker=self.node_id)
        except Exception as exc:  # noqa: BLE001 - report, keep serving
            result = serde.encode_error(
                turn_id, client, exc,
                traceback_text=traceback.format_exc(), worker=self.node_id,
            )
        try:
            self._work.call(result)
        except (ConnectionError, OSError) as exc:
            _LOG.error("node %s could not post turn %d result: %s",
                       self.node_id, turn_id, exc)
            self._stopping.set()
            return
        self.turns_run += 1

    def _beat(self) -> Dict[str, Any]:
        assert self._control is not None
        return self._call_control(
            self._control, encode_control("heartbeat", node_id=self.node_id)
        )

    def _call_control(self, channel, frame: bytes) -> Dict[str, Any]:
        _op, meta = decode_control(channel.call(frame))
        return meta

    def _shutdown(self) -> None:
        self._stopping.set()
        if self._heartbeater is not None:
            self._heartbeater.stop()
        # graceful deregistration: best effort, the lease sweep is the
        # backstop if the coordinator is already gone
        if self._control is not None:
            try:
                self._call_control(
                    self._control, encode_control("leave", node_id=self.node_id)
                )
            except (ConnectionError, OSError):
                pass
            self._control.close()
        if self._work is not None:
            self._work.close()
        _LOG.info("node %s exiting after %d turns", self.node_id, self.turns_run)


def run_node(url: str, node_id: Optional[str] = None,
             max_turns: Optional[int] = None) -> int:
    """CLI entrypoint (``python -m repro node <url>``); returns exit code."""
    try:
        node = ClusterNode(url, node_id=node_id)
    except ValueError as exc:
        _LOG.error("node startup failed: %s", exc)
        return 2

    # SIGTERM/SIGINT finish the in-flight turn, release the membership
    # lease, and deregister — mirroring the broker worker's graceful path
    def _graceful(signum, frame):  # noqa: ARG001 - signal signature
        _LOG.info("node %s received signal %d, finishing current turn", node.node_id, signum)
        node.stop()

    if threading.current_thread() is threading.main_thread():
        signal.signal(signal.SIGTERM, _graceful)
        signal.signal(signal.SIGINT, _graceful)

    env_cap = os.environ.get("REPRO_NODE_MAX_TURNS")
    if max_turns is None and env_cap:
        max_turns = int(env_cap)
    try:
        node.run(max_turns=max_turns)
    except (TransportError, ConnectionError) as exc:
        _LOG.error("node %s failed: %s", node.node_id, exc)
        return 2
    return 0
