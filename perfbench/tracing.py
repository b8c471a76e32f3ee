"""Counting at the transport boundary and span tracing around layer calls.

Everything here wraps silosynth from outside: ``Patches`` replaces module and
class attributes with wrappers and puts the originals back on ``undo()``.
Nothing under ``src/`` knows about it.

Round definition (the same at every party and on both transports): a party
makes one round each time it calls ``transport.recv`` after having called
``transport.send`` at least once since its previous round.
"""

from __future__ import annotations

import sys
import threading
import time
from array import array

import numpy as np

from silosynth import runtime

now = time.monotonic  # CLOCK_MONOTONIC: comparable across processes
# CPU time of the calling thread. Sending wakes the peer, which may run before
# the call returns; wall time would charge the peer's work to the sender.
cpu_now = time.thread_time
WORD_BYTES = 8

# Layer spans: (module, function, party is the first argument, count elements).
# ``elements`` is the size of the first share argument (an int argument counts
# as its value, e.g. gauss01's sample count).
SPANS = [
    ("runtime", "setup_handshake", True, False),
    ("ingest", "custodian_components", False, False),
    ("ingest", "ingest_all", True, False),
    ("pipeline", "run_pipeline", True, False),
    ("pipeline", "run_fold", True, False),
    ("pipeline", "secret_vote", True, False),
    ("pipeline", "publish_path", True, False),
    ("evaluation", "wle", True, False),
    ("evaluation", "lr_train", True, False),
    ("evaluation", "lr_accuracy", True, False),
    ("binning", "bin_train", True, False),
    ("binning", "bin_with_cuts", True, False),
    ("binning", "compute_bin_means", True, False),
    ("binning", "inv_bin", True, False),
    ("marginals", "noisy_marginals", True, False),
    ("marginals", "marginal_counts", True, False),
    ("generator", "generate_bridge", True, False),
    ("generator", "generate_synthetic", False, False),
    ("primitives", "sort_columns", True, True),
    ("primitives", "reciprocal_fx", True, True),
    ("primitives", "div_fx", True, True),
    ("primitives", "mul_fx", True, True),
    ("primitives", "lt", True, True),
    ("primitives", "eq_zero", True, True),
    ("primitives", "gauss01", True, True),
    ("circuits", "trunc_shares", True, True),
    ("circuits", "add_components", True, True),
    ("circuits", "mul_shares", True, True),
    ("circuits", "matmul_shares", True, True),
    ("circuits", "and_packed", True, True),
    ("circuits", "b2a", True, True),
]
RNG_SPAN = "rng.CounterStream.next_words"
ROOT_SPAN = "pipeline.run_pipeline"

# Aggregate columns kept per (party, span name).
CALLS, ELEMENTS, S, SELF_S, ROUNDS, BYTES, WAIT_S = range(7)


class Patches:
    """Attribute replacements that can be undone in reverse order."""

    def __init__(self):
        self._undo = []

    def set(self, owner, name, value):
        self._undo.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def everywhere(self, orig, wrapper):
        """Replace ``orig`` wherever a silosynth module holds a reference to it.

        Callers look functions up in their own module (``from .x import f``),
        so patching only the defining module would miss most calls.
        """
        for mod_name, mod in list(sys.modules.items()):
            if mod_name == "silosynth" or mod_name.startswith("silosynth."):
                for attr, value in list(vars(mod).items()):
                    if value is orig:
                        self.set(mod, attr, wrapper)

    def undo(self):
        while self._undo:
            owner, name, old = self._undo.pop()
            setattr(owner, name, old)


class PartyCounts:
    __slots__ = ("rounds", "bytes", "messages", "send_s", "wait_s", "sent")

    def __init__(self):
        self.rounds = self.bytes = self.messages = 0
        self.send_s = self.wait_s = 0.0
        self.sent = False

    def as_dict(self):
        return {"rounds": self.rounds, "bytes": self.bytes, "messages": self.messages,
                "send_s": self.send_s, "wait_s": self.wait_s}


class Meter:
    """Per-party traffic counted at ``send``/``recv`` of both transport classes.

    Untimed meters only count, so that untraced runs pay one Python call per
    message; timed meters also add the sending thread's CPU seconds in send
    and the wall seconds blocked in recv.
    """

    def __init__(self, timed: bool = False):
        self.timed = timed
        self.parties: dict[int, PartyCounts] = {}
        self._lock = threading.Lock()

    def counts(self, pid: int) -> PartyCounts:
        c = self.parties.get(pid)
        if c is None:
            with self._lock:
                c = self.parties.setdefault(pid, PartyCounts())
        return c

    def install(self, patches: Patches):
        for cls in (runtime.LocalTransport, runtime.TcpTransport):
            patches.set(cls, "send", self._send(cls.send))
            patches.set(cls, "recv", self._recv(cls.recv))

    def _send(self, orig):
        counts, timed = self.counts, self.timed

        def send(transport, dst, label_id, words):
            c = counts(transport.pid)
            c.messages += 1
            c.bytes += words.size * WORD_BYTES
            c.sent = True
            if not timed:
                return orig(transport, dst, label_id, words)
            t0 = cpu_now()
            try:
                return orig(transport, dst, label_id, words)
            finally:
                c.send_s += cpu_now() - t0
        return send

    def _recv(self, orig):
        counts, timed = self.counts, self.timed

        def recv(transport, src):
            c = counts(transport.pid)
            if c.sent:
                c.rounds += 1
                c.sent = False
            if not timed:
                return orig(transport, src)
            t0 = now()
            try:
                return orig(transport, src)
            finally:
                c.wait_s += now() - t0
        return recv

    def summary(self) -> dict:
        return {pid: c.as_dict() for pid, c in self.parties.items()}


class _ThreadSpans:
    """One thread's span log (compact columns) and aggregates; no sharing."""

    def __init__(self):
        self.name = array("H")
        self.pid = array("b")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.stack: list[list] = []
        self.agg: dict[tuple[int, int], list] = {}
        self.top_rounds: dict[int, int] = {}
        self.run_self: dict[int, float] = {}


class Tracer:
    """Spans around the public functions of each layer, kept in memory.

    Each span holds name, party, start, end and parent. Counts (rounds,
    payload bytes, receive wait) are read from the timed meter at span open
    and close, so every span's counts are inclusive of its children; self
    time is the span's duration minus its children's.
    """

    def __init__(self):
        self.meter = Meter(timed=True)
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self._root = self._name_id(ROOT_SPAN)
        self._local = threading.local()
        self._threads: list[_ThreadSpans] = []
        self._lock = threading.Lock()
        self.frame_read_s = 0.0
        self.frame_write_s = 0.0

    def _thread(self) -> _ThreadSpans:
        ts = getattr(self._local, "spans", None)
        if ts is None:
            ts = self._local.spans = _ThreadSpans()
            with self._lock:
                self._threads.append(ts)
        return ts

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, orig, has_party: bool, count_elements: bool):
        nid = self._name_id(name)
        thread, counts, root = self._thread, self.meter.counts, self._root

        def wrapper(*args, **kwargs):
            ts = thread()
            stack = ts.stack
            parent = stack[-1] if stack else None
            if has_party:
                pid = args[0].pid
            else:
                pid = parent[1] if parent is not None else 0
            elements = 0
            if count_elements:
                x = args[1]
                elements = int(x) if isinstance(x, (int, np.integer)) else x.size
            c = counts(pid) if pid else None
            idx = len(ts.start)
            ts.name.append(nid)
            ts.pid.append(pid)
            ts.parent.append(parent[0] if parent is not None else -1)
            ts.end.append(0.0)
            top = parent[4] if parent is not None else nid
            t0 = now()
            ts.start.append(t0)
            frame = [idx, pid, (c.rounds, c.bytes, c.wait_s) if c else None, 0.0, top]
            stack.append(frame)
            try:
                return orig(*args, **kwargs)
            finally:
                t1 = now()
                stack.pop()
                ts.end[idx] = t1
                dur = t1 - t0
                self_s = dur - frame[3]
                row = ts.agg.get((pid, nid))
                if row is None:
                    row = ts.agg[(pid, nid)] = [0, 0, 0.0, 0.0, 0, 0, 0.0]
                row[CALLS] += 1
                row[ELEMENTS] += elements
                row[S] += dur
                row[SELF_S] += self_s
                rounds = 0
                if c is not None:
                    r0, b0, w0 = frame[2]
                    rounds = c.rounds - r0
                    row[ROUNDS] += rounds
                    row[BYTES] += c.bytes - b0
                    row[WAIT_S] += c.wait_s - w0
                if parent is not None:
                    parent[3] += dur
                else:
                    ts.top_rounds[pid] = ts.top_rounds.get(pid, 0) + rounds
                if top == root:
                    ts.run_self[pid] = ts.run_self.get(pid, 0.0) + self_s
        return wrapper

    def install(self, patches: Patches):
        import importlib

        self.meter.install(patches)
        for mod_name, fn, has_party, count_elements in SPANS:
            mod = importlib.import_module(f"silosynth.{mod_name}")
            orig = getattr(mod, fn)
            patches.everywhere(orig, self.wrap(f"{mod_name}.{fn}", orig, has_party, count_elements))
        from silosynth.rng import CounterStream

        next_words = self.wrap(RNG_SPAN, CounterStream.next_words, False, True)
        patches.set(CounterStream, "next_words", next_words)
        patches.everywhere(runtime.write_frame, self._timed(runtime.write_frame, "frame_write_s"))
        patches.everywhere(runtime.read_exact, self._timed_body_read(runtime.read_exact))

    def _timed(self, orig, attr):
        """Adds the calling thread's CPU time in ``orig`` to ``attr``."""
        def wrapper(*args, **kwargs):
            t0 = cpu_now()
            try:
                return orig(*args, **kwargs)
            finally:
                with self._lock:
                    setattr(self, attr, getattr(self, attr) + cpu_now() - t0)
        return wrapper

    def _timed_body_read(self, orig):
        """Times frame bodies only: the 4-byte length read is where an idle
        reader thread waits for the next frame, which is not read cost."""
        timed = self._timed(orig, "frame_read_s")

        def read_exact(sock, n):
            return orig(sock, n) if n == 4 else timed(sock, n)
        return read_exact

    def summary(self) -> dict:
        """Per-party aggregates keyed by span name, plus the consistency sums."""
        parties: dict[int, dict] = {}

        def party(pid):
            return parties.setdefault(pid, {"spans": {}, "top_rounds": 0, "run_self_s": 0.0})

        for ts in self._threads:
            for (pid, nid), row in ts.agg.items():
                spans = party(pid)["spans"]
                prev = spans.get(self.names[nid])
                spans[self.names[nid]] = row if prev is None else [a + b for a, b in zip(prev, row)]
            for pid, v in ts.top_rounds.items():
                party(pid)["top_rounds"] += v
            for pid, v in ts.run_self.items():
                party(pid)["run_self_s"] += v
        return {"parties": parties, "frame_read_s": self.frame_read_s,
                "frame_write_s": self.frame_write_s}

    def save_spans(self, path: str):
        """Write every span as columns (name id, party, start, end, parent)."""
        cols = {"name": [], "pid": [], "start": [], "end": [], "parent": []}
        base = 0
        for ts in self._threads:
            cols["name"].append(np.frombuffer(ts.name, dtype=np.uint16))
            cols["pid"].append(np.frombuffer(ts.pid, dtype=np.int8))
            cols["start"].append(np.frombuffer(ts.start, dtype=np.float64))
            cols["end"].append(np.frombuffer(ts.end, dtype=np.float64))
            parent = np.frombuffer(ts.parent, dtype=np.int32).astype(np.int64)
            cols["parent"].append(np.where(parent >= 0, parent + base, -1))
            base += len(ts.start)
        arrays = {k: (np.concatenate(v) if v else np.empty(0)) for k, v in cols.items()}
        np.savez(path, names=np.array(self.names), **arrays)
