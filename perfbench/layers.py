"""Per-layer timing by wrapping the public functions of each layer.

Nothing here edits ``src/``: :class:`Recorder` patches the functions listed
in :data:`ENGINE_TARGETS` / :data:`MEMBER_TARGETS` with thin wrappers that
record one span per call (thread, start, end) and restores the originals
on :meth:`Recorder.uninstall`.  A span's *self time* is its duration minus
the time its direct child spans on the same thread cover, so the self
times of one thread partition its wall time and the coverage check
("layer totals within 10% of wall") is a sum.

With ``spans=False`` only the turn counters run (one dict increment per
turn): that is the mode the timed, untraced runs use to count dispatched,
trained and applied turns.
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Tuple

# (module, attribute path, span name); a name of None means the wrapper
# picks the name per call (see Recorder._name_for)
ENGINE_TARGETS: List[Tuple[str, str, Optional[str]]] = [
    ("repro.engine.engine", "Engine.from_spec", "engine.setup"),
    ("repro.engine.engine", "Engine.setup_async", "engine.setup"),
    ("repro.engine.engine", "Engine.run_async", "engine.run"),
    ("repro.engine.engine", "Engine.evaluate", "engine.evaluate"),
    ("repro.engine.engine", "Engine.shutdown", "run_end.shutdown"),
    ("repro.scheduler.base", "Scheduler.select_idle", "scheduler.select"),
    ("repro.scheduler.base", "Scheduler.dispatch", "scheduler.dispatch"),
    ("repro.scheduler.base", "Scheduler.retire", None),
    ("repro.scheduler.base", "Scheduler.drain", "run_end.drain"),
    ("repro.scheduler.base", "Scheduler.record_aggregation", "scheduler.record"),
    ("repro.scheduler.heterogeneity", "HeterogeneityModel.sample", "scheduler.sample"),
    ("repro.scheduler.policies", "SemiSyncScheduler._aggregate_round", "aggregation"),
    ("repro.scheduler.policies", "FedAsyncScheduler.ingest", "aggregation"),
    ("repro.scheduler.policies", "FedBuffScheduler.ingest", "aggregation"),
    ("repro.scheduler.policies", "FedBuffScheduler.flush", "aggregation"),
    ("repro.algorithms.base", "Algorithm.aggregate", "aggregation"),
    ("repro.runtime.pool", "ClientPool.submit", "runtime.submit"),
    ("repro.cluster.runtime", "LiveRuntime.submit", "cluster.submit"),
    ("repro.runtime.resp", "RespClient.execute", None),
    ("repro.runtime.serde", "encode_turn", "serde.encode"),
    ("repro.runtime.serde", "encode_payload", "serde.encode"),
    ("repro.runtime.serde", "decode_result", "serde.decode"),
]

# the turn body, wherever it runs: memory-pool worker threads in the engine
# process, broker workers and live nodes in member processes
TURN_TARGETS: List[Tuple[str, str, Optional[str]]] = [
    ("repro.node.node", "Node.local_update", "node.train"),
    ("repro.node.node", "encode_update", "node.codec"),
    ("repro.node.node", "decode_update", "node.codec"),
    ("repro.node.node", "Node.begin_client_turn", "runtime.swap_in"),
    ("repro.node.node", "Node.end_client_turn", "runtime.swap_out"),
]

MEMBER_TARGETS: List[Tuple[str, str, Optional[str]]] = TURN_TARGETS + [
    ("repro.runtime.resp", "RespClient.execute", None),
    ("repro.runtime.serde", "decode_turn", "serde.decode"),
    ("repro.runtime.serde", "decode_snapshot", "serde.decode"),
    ("repro.runtime.serde", "decode_payload", "serde.decode"),
    ("repro.runtime.serde", "encode_snapshot", "serde.encode"),
    ("repro.runtime.serde", "encode_result", "serde.encode"),
    ("repro.comm.transport", "TcpChannel.call", "transport"),
]

_BLOCKING_RESP = ("BRPOP", "BLPOP")
_BYTES_SPANS = ("serde.encode", "serde.decode", "transport")


def _resolve(module: str, path: str) -> Tuple[Any, str]:
    owner: Any = importlib.import_module(module)
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1]


def _frame_bytes(value: Any) -> int:
    return len(value) if isinstance(value, (bytes, bytearray, memoryview)) else 0


class _Frame:
    __slots__ = ("name", "start", "child")

    def __init__(self, name: str, start: float) -> None:
        self.name = name
        self.start = start
        self.child = 0.0


class Recorder:
    """Spans and turn counters for one process, from wrapped functions."""

    def __init__(self, targets, spans: bool = True) -> None:
        self.spans_on = spans
        self.targets = list(targets)
        self.local = threading.local()
        self.lock = threading.Lock()
        self.turn_lock = threading.RLock()
        self.events: List[Tuple[str, int, float, float]] = []
        self.calls: Dict[str, int] = defaultdict(int)
        self.inclusive: Dict[str, float] = defaultdict(float)
        self.self_time: Dict[Tuple[int, str], float] = defaultdict(float)
        self.bytes: Dict[str, int] = defaultdict(int)
        self.counts: Dict[str, int] = defaultdict(int)
        self.turn_start: Dict[int, float] = {}
        self.turn_ms: List[float] = []
        self.main_tid = threading.get_ident()
        self._saved: List[Tuple[Any, str, Any]] = []

    # -- spans ------------------------------------------------------------
    def _stack(self) -> List[_Frame]:
        stack = getattr(self.local, "stack", None)
        if stack is None:
            stack = self.local.stack = []
        return stack

    def _name_for(self, attr: str, args: tuple) -> str:
        if attr == "retire":
            # a retire inside drain is run-end work: charge it to drain so
            # the drain layer carries the wait for discarded turns
            inside = any(f.name == "run_end.drain" for f in self._stack())
            return "run_end.drain" if inside else "scheduler.retire_wait"
        # RespClient.execute: blocking pops are waits, not protocol work
        command = args[1] if len(args) > 1 else None
        return "resp.wait" if command in _BLOCKING_RESP else "resp"

    def _timed(self, name: str, fn: Callable, args: tuple, kwargs: dict) -> Any:
        stack = self._stack()
        outer = not any(f.name == name for f in stack)
        frame = _Frame(name, time.perf_counter())
        stack.append(frame)
        try:
            out = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            dur = end - frame.start
            tid = threading.get_ident()
            with self.lock:
                self.calls[name] += 1
                if outer:
                    self.inclusive[name] += dur
                self.self_time[(tid, name)] += dur - frame.child
                self.events.append((name, tid, frame.start, end))
            if stack:
                stack[-1].child += dur
        if name in _BYTES_SPANS:
            nbytes = sum(_frame_bytes(a) for a in args) + _frame_bytes(out)
            with self.lock:
                self.bytes[name] += nbytes
        return out

    def _wrap(self, attr: str, name: Optional[str], fn: Callable) -> Callable:
        rec = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = name if name is not None else rec._name_for(attr, args)
            return rec._timed(span, fn, args, kwargs)

        return wrapper

    # -- turn counters ----------------------------------------------------
    def _count_wrap(self, attr: str, fn: Callable) -> Callable:
        rec = self

        if attr == "dispatch":
            @functools.wraps(fn)
            def dispatch(*args, **kwargs):
                event = fn(*args, **kwargs)
                rec.counts["dispatched"] += 1
                return event
            return dispatch

        if attr == "submit":
            @functools.wraps(fn)
            def submit(self_, client, method, *args, **kwargs):
                start = time.perf_counter()
                # held across submit so a completion on another thread
                # cannot look the ticket up before it is registered
                with rec.turn_lock:
                    ticket = fn(self_, client, method, *args, **kwargs)
                    if method == "local_update" and not ticket.done():
                        rec.turn_start[id(ticket)] = start
                return ticket
            return submit

        if attr == "turn_done":
            @functools.wraps(fn)
            def turn_done(self_, ticket, result, exc, *args, **kwargs):
                rec._turn_finished(ticket, exc is None)
                return fn(self_, ticket, result, exc, *args, **kwargs)
            return turn_done

        if attr == "turns_done_batch":
            @functools.wraps(fn)
            def turns_done_batch(self_, outcomes, *args, **kwargs):
                for ticket, _result, exc in outcomes:
                    rec._turn_finished(ticket, exc is None)
                return fn(self_, outcomes, *args, **kwargs)
            return turns_done_batch

        # LiveTicket.set_result / set_exception
        ok = attr == "set_result"

        @functools.wraps(fn)
        def resolved(ticket, *args, **kwargs):
            rec._turn_finished(ticket, ok)
            return fn(ticket, *args, **kwargs)
        return resolved

    def _turn_finished(self, ticket: Any, ok: bool) -> None:
        with self.turn_lock:
            start = self.turn_start.pop(id(ticket), None)
            # a pool turn that finished inside submit (on the submitting
            # thread) was never registered; its method still names it
            if start is None and getattr(ticket, "method", None) != "local_update":
                return  # not a training turn (evaluation)
            if ok:
                self.counts["trained"] += 1
            if start is not None:
                self.turn_ms.append((time.perf_counter() - start) * 1e3)

    # -- install ----------------------------------------------------------
    def install(self, count_turns: bool = True) -> "Recorder":
        plan: List[Tuple[str, str, Callable[[str, Callable], Callable]]] = []
        if count_turns:
            for module, path in (
                ("repro.scheduler.base", "Scheduler.dispatch"),
                ("repro.runtime.pool", "ClientPool.submit"),
                ("repro.cluster.runtime", "LiveRuntime.submit"),
                ("repro.runtime.pool", "ClientPool.turn_done"),
                ("repro.runtime.pool", "ClientPool.turns_done_batch"),
                ("repro.cluster.coordinator", "LiveTicket.set_result"),
                ("repro.cluster.coordinator", "LiveTicket.set_exception"),
            ):
                plan.append((module, path, lambda attr, fn: self._count_wrap(attr, fn)))
        if self.spans_on:
            for module, path, name in self.targets:
                plan.append((module, path,
                             lambda attr, fn, name=name: self._wrap(attr, name, fn)))
        for module, path, make in plan:
            owner, attr = _resolve(module, path)
            raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            if isinstance(raw, classmethod):
                wrapped: Any = classmethod(make(attr, raw.__func__))
            else:
                wrapped = make(attr, raw)
            self._saved.append((owner, attr, raw))
            setattr(owner, attr, wrapped)
        return self

    def uninstall(self) -> None:
        for owner, attr, raw in reversed(self._saved):
            setattr(owner, attr, raw)
        self._saved = []

    def reset(self) -> None:
        """Forget everything recorded so far (wrappers stay installed)."""
        with self.lock, self.turn_lock:
            self.events.clear()
            self.calls.clear()
            self.inclusive.clear()
            self.self_time.clear()
            self.bytes.clear()
            self.counts.clear()
            self.turn_start.clear()
            self.turn_ms.clear()

    # -- reports ----------------------------------------------------------
    def self_by_name(self) -> Dict[str, float]:
        out: Dict[str, float] = defaultdict(float)
        for (_tid, name), secs in self.self_time.items():
            out[name] += secs
        return dict(out)

    def totals(self) -> Dict[str, Any]:
        """Plain-JSON totals, the form member processes hand back."""
        return {
            "calls": dict(self.calls),
            "inclusive": dict(self.inclusive),
            "self": self.self_by_name(),
            "bytes": dict(self.bytes),
        }

    def write_totals(self, path: str) -> None:
        with open(path, "w", encoding="utf8") as fh:
            json.dump(self.totals(), fh)


def merge_totals(parts: List[Dict[str, Any]]) -> Dict[str, Any]:
    out: Dict[str, Dict[str, float]] = {"calls": {}, "inclusive": {}, "self": {}, "bytes": {}}
    for part in parts:
        for key, table in out.items():
            for name, value in part.get(key, {}).items():
                table[name] = table.get(name, 0) + value
    return out


def percentile(values: List[float], q: float) -> float:
    if not values:
        return 0.0
    if len(values) == 1:
        return float(values[0])
    cuts = statistics.quantiles(values, n=100, method="inclusive")
    return float(cuts[int(round(q)) - 1])


def self_times(events, tid: int, lo: float, hi: float) -> Dict[str, float]:
    """Self time per span name on one thread, for spans inside [lo, hi]."""
    out: Dict[str, float] = defaultdict(float)
    stack: List[List[Any]] = []  # [name, end, child_time]
    for name, t, start, end in sorted(events, key=lambda e: (e[2], -e[3])):
        if t != tid or start < lo or end > hi:
            continue
        while stack and stack[-1][1] <= start:
            done = stack.pop()
            out[done[0]] += done[3] - done[2]
        if stack:
            stack[-1][2] += end - start
        stack.append([name, end, 0.0, end - start])
    while stack:
        done = stack.pop()
        out[done[0]] += done[3] - done[2]
    return dict(out)


def layer_metrics(engine: Dict[str, Any], members: Dict[str, Any],
                  turn_ms: List[float], counts: Dict[str, int]) -> Dict[str, float]:
    """The per-layer metrics for one traced repetition.

    The turn body (``node.*``, swap-in/out) runs in the engine process on
    the memory pool and in member processes on ``redis://`` and live runs,
    so those layers sum both sides; everything else is engine-side.
    """
    inc = engine["inclusive"]
    own = engine["self"]
    both = merge_totals([engine, members])
    return {
        "run_end.drain_s": inc.get("run_end.drain", 0.0),
        "run_end.shutdown_s": inc.get("run_end.shutdown", 0.0),
        "scheduler.select_s": inc.get("scheduler.select", 0.0),
        "scheduler.sample_s": inc.get("scheduler.sample", 0.0),
        # dispatch and aggregation contain spans reported on their own rows
        # (sample, submit; retire waits, records), so they report self time
        "scheduler.dispatch_s": own.get("scheduler.dispatch", 0.0),
        "scheduler.retire_wait_s": inc.get("scheduler.retire_wait", 0.0),
        "aggregation_s": own.get("aggregation", 0.0),
        "node.train_s": both["inclusive"].get("node.train", 0.0),
        "node.codec_s": both["inclusive"].get("node.codec", 0.0),
        "runtime.submit_s": inc.get("runtime.submit", 0.0) + inc.get("cluster.submit", 0.0),
        "runtime.swap_in_s": both["inclusive"].get("runtime.swap_in", 0.0),
        "runtime.swap_out_s": both["inclusive"].get("runtime.swap_out", 0.0),
        "runtime.turn_p50_ms": percentile(turn_ms, 50),
        "runtime.turn_p99_ms": percentile(turn_ms, 99),
        "engine.setup_s": inc.get("engine.setup", 0.0),
        "engine.evaluate_s": inc.get("engine.evaluate", 0.0),
        "serde.encode_s": both["inclusive"].get("serde.encode", 0.0),
        "serde.decode_s": both["inclusive"].get("serde.decode", 0.0),
        "serde.bytes": both["bytes"].get("serde.encode", 0) + both["bytes"].get("serde.decode", 0),
        "resp.calls": both["calls"].get("resp", 0) + both["calls"].get("resp.wait", 0),
        "resp.s": both["inclusive"].get("resp", 0.0),
        "cluster.submit_s": inc.get("cluster.submit", 0.0),
        "transport.calls": both["calls"].get("transport", 0),
        "transport.bytes": both["bytes"].get("transport", 0),
        "turns.dispatched": counts["dispatched"],
        "turns.trained": counts["trained"],
        "turns.applied": counts["applied"],
        "turns.dropped": counts["dropped"],
    }


def chrome_trace(rec: Recorder, t0: float, label: str) -> Dict[str, Any]:
    """Chrome trace-event JSON (Perfetto loads it): one track per thread."""
    tids: Dict[int, int] = {}
    events: List[Dict[str, Any]] = []
    for name, tid, start, end in rec.events:
        lane = tids.setdefault(tid, len(tids) + 1)
        events.append({
            "name": name, "cat": name.split(".")[0], "ph": "X", "pid": 1,
            "tid": lane, "ts": round((start - t0) * 1e6, 3),
            "dur": round((end - start) * 1e6, 3),
        })
    meta = [{"name": "process_name", "ph": "M", "pid": 1, "args": {"name": label}}]
    for tid, lane in tids.items():
        thread = "main" if tid == rec.main_tid else f"thread {lane}"
        meta.append({"name": "thread_name", "ph": "M", "pid": 1, "tid": lane,
                     "args": {"name": thread}})
    return {"traceEvents": meta + events, "displayTimeUnit": "ms"}
