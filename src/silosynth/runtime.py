"""Party runtime: transports, communication accounting, and session setup.

Each of the three parties runs the same straight-line protocol program.
Sends are non-blocking, receives block; a "round" is counted whenever a
party blocks on a receive after having sent since the previous round.
Every frame carries the sender's protocol label, and a receive under a
different label aborts the run. ``Party.replicate`` is the one step that
turns a party's local additive term into a replicated sharing: gate
outputs, custodian uploads and the generator's rows all end with it.
Protocol outputs are a function of (inputs, seeds) only — the in-process
and TCP transports are interchangeable.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import queue
import socket
import struct
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .fixedpoint import FixedPointConfig, to_u64
from .rng import SeedStreams, zero_share_seeds
from .sharing import ShareVector

# Protocol catalog; ids go on the wire, names into ledgers and reports.
PROTOCOL_LABELS = [
    "setup", "ingest", "sort", "bin", "inv_bin",
    "noisy_marg", "sdg", "lr", "acc", "wle", "eval", "vote",
    "h_select", "publish", "adhoc",
]
LABEL_IDS = {name: i for i, name in enumerate(PROTOCOL_LABELS)}

WORD = 8  # payload bytes per ring element


class ProtocolAbort(RuntimeError):
    """A protocol failed mid-run; carries the party's ledger snapshot."""

    def __init__(self, message, ledger_snapshot=None):
        super().__init__(message)
        self.ledger_snapshot = ledger_snapshot or {}


class SetupError(RuntimeError):
    pass


class AccountingError(RuntimeError):
    pass


@dataclass
class LedgerEntry:
    bytes_sent: int = 0
    messages_sent: int = 0
    rounds: int = 0
    seconds: float = 0.0


class CommLedger:
    """Per-protocol-label accounting of one party's outgoing traffic.

    Bytes, messages, rounds and seconds are all exclusive: a nested label's
    share is not counted again in the enclosing label, so totals add up.
    """

    def __init__(self):
        self.entries: dict[str, LedgerEntry] = {}

    def entry(self, label: str) -> LedgerEntry:
        if label not in self.entries:
            self.entries[label] = LedgerEntry()
        return self.entries[label]

    def record_send(self, label: str, n_words: int):
        e = self.entry(label)
        e.bytes_sent += n_words * WORD
        e.messages_sent += 1

    def record_round(self, label: str):
        self.entry(label).rounds += 1

    def add_time(self, label: str, dt: float):
        self.entry(label).seconds += dt

    def snapshot(self) -> dict:
        return {
            k: {"bytes_sent": e.bytes_sent, "messages_sent": e.messages_sent,
                "rounds": e.rounds, "seconds": round(e.seconds, 6)}
            for k, e in sorted(self.entries.items())
        }

    def reset(self):
        self.entries.clear()


class LocalRouter:
    """In-process mesh of FIFO queues for one run of three parties."""

    def __init__(self, timeout: float = 300.0):
        self.queues = {(s, d): queue.SimpleQueue() for s in (1, 2, 3) for d in (1, 2, 3) if s != d}
        self.timeout = timeout


class _Sequenced:
    """Per-peer frame sequence numbers and the receive path both transports
    share: each peer's frames arrive on a queue, where None marks a closed
    channel."""

    def __init__(self, pid: int, peers, timeout: float):
        self.pid = pid
        self.timeout = timeout
        self._send_seq = {p: itertools.count() for p in peers}
        self._recv_seq = {p: itertools.count() for p in peers}

    def _take(self, frames, src: int, closed: str) -> tuple[int, np.ndarray]:
        """The next in-order (label id, words) from ``src``'s queue; ``closed``
        names a closed channel in the abort message."""
        try:
            item = frames.get(timeout=self.timeout)
        except queue.Empty:
            raise ProtocolAbort(f"party {self.pid}: receive from {src} timed out")
        if item is None:
            raise ProtocolAbort(f"party {self.pid}: {closed}")
        label_id, seq, words = item
        if seq != next(self._recv_seq[src]):
            raise ProtocolAbort(f"party {self.pid}: out-of-order frame from {src}")
        return label_id, words


class LocalTransport(_Sequenced):
    def __init__(self, pid: int, router: LocalRouter):
        super().__init__(pid, [p for p in (1, 2, 3) if p != pid], router.timeout)
        self.router = router

    def send(self, dst: int, label_id: int, words: np.ndarray):
        self.router.queues[(self.pid, dst)].put((label_id, next(self._send_seq[dst]), words))

    def recv(self, src: int) -> tuple[int, np.ndarray]:
        return self._take(self.router.queues[(src, self.pid)], src, f"peer {src} aborted")

    def close(self):
        pass


# TCP wire format: 4-byte big-endian frame length (bytes after the length
# field), 2-byte protocol-label id, 8-byte sequence number, payload of
# 64-bit little-endian ring words.
_FRAME_HEADER = struct.Struct(">IHQ")


def write_frame(sock: socket.socket, label_id: int, seq: int, words: np.ndarray):
    payload = np.ascontiguousarray(to_u64(words).ravel()).astype("<u8").tobytes()
    sock.sendall(_FRAME_HEADER.pack(2 + 8 + len(payload), label_id, seq) + payload)


def read_exact(sock: socket.socket, n: int) -> bytearray:
    """Read exactly n bytes into one preallocated buffer."""
    buf = bytearray(n)
    view = memoryview(buf)
    got = 0
    while got < n:
        k = sock.recv_into(view[got:])
        if k == 0:
            raise ProtocolAbort("peer closed connection")
        got += k
    return buf


def read_frame(sock: socket.socket):
    (length,) = struct.unpack(">I", read_exact(sock, 4))
    if length < 10 or (length - 10) % WORD:
        raise ProtocolAbort(f"malformed frame: length {length} is not 10 + 8k bytes")
    body = read_exact(sock, length)
    label_id, seq = struct.unpack_from(">HQ", body)
    words = np.frombuffer(body, dtype="<u8", offset=10).astype(np.uint64)
    return label_id, seq, words


class TcpTransport(_Sequenced):
    """One party's mesh endpoint: a socket per peer plus reader threads."""

    def __init__(self, pid: int, peer_sockets: dict[int, socket.socket], timeout: float = 300.0):
        super().__init__(pid, peer_sockets, timeout)
        self.sockets = peer_sockets
        self._queues = {p: queue.Queue() for p in peer_sockets}
        self._send_locks = {p: threading.Lock() for p in peer_sockets}
        self._readers = []
        for p, s in peer_sockets.items():
            t = threading.Thread(target=self._reader, args=(p, s), daemon=True)
            t.start()
            self._readers.append(t)

    def _reader(self, src: int, sock: socket.socket):
        try:
            while True:
                self._queues[src].put(read_frame(sock))
        except (ProtocolAbort, OSError):
            self._queues[src].put(None)

    def send(self, dst: int, label_id: int, words: np.ndarray):
        seq = next(self._send_seq[dst])
        with self._send_locks[dst]:
            write_frame(self.sockets[dst], label_id, seq, words)

    def recv(self, src: int) -> tuple[int, np.ndarray]:
        return self._take(self._queues[src], src, f"channel from {src} broke")

    def close(self):
        for s in self.sockets.values():
            try:
                s.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            s.close()


# _zeros(shape): a read-only all-zero view, cached since building one costs
# more than the small-array steps it stands in for.
_zeros = functools.lru_cache(maxsize=1024)(functools.partial(np.broadcast_to, np.uint64(0)))


class Party:
    """One party's protocol execution context."""

    def __init__(self, pid: int, transport, master_seed: int, fp: FixedPointConfig):
        if pid not in (1, 2, 3):
            raise ValueError("party id must be 1, 2 or 3")
        self.pid = pid
        self.transport = transport
        self.fp = fp
        self.ledger = CommLedger()
        seeds = zero_share_seeds(master_seed)
        # Party i holds pairwise seeds (k_i, k_{i+1}); index by component slot.
        self.streams_a = SeedStreams(seeds[pid - 1])
        self.streams_b = SeedStreams(seeds[pid % 3])
        self.opening_log: list[tuple[str, int]] = []
        self.reveal_log: list[tuple[str, int]] = []
        self._label_stack: list[str] = []
        self._child_seconds: list[float] = []  # per open label: time inside nested labels
        self._sent_since_round = False
        self.failed_in: str | None = None  # label path the first exception left

    @property
    def next_pid(self) -> int:
        return self.pid % 3 + 1

    @property
    def prev_pid(self) -> int:
        return (self.pid - 2) % 3 + 1

    # -- label scoping -----------------------------------------------------

    @property
    def current_label(self) -> str:
        return self._label_stack[-1] if self._label_stack else "adhoc"

    @contextmanager
    def protocol(self, label: str):
        """Scope traffic to ``label``; its seconds exclude those of nested labels.
        The first exception to leave a label records its path in ``failed_in``."""
        if label in self._label_stack:
            raise AccountingError(f"nested identical protocol label {label!r}")
        self._label_stack.append(label)
        self._child_seconds.append(0.0)
        t0 = time.perf_counter()
        try:
            yield
        except BaseException:
            if self.failed_in is None:
                self.failed_in = "/".join(self._label_stack)
            raise
        finally:
            dt = time.perf_counter() - t0
            self._label_stack.pop()
            self.ledger.add_time(label, dt - self._child_seconds.pop())
            if self._child_seconds:
                self._child_seconds[-1] += dt

    # -- transport ---------------------------------------------------------

    def send_words(self, dst: int, words: np.ndarray):
        """Send ``words``, which become read-only: in-process the receiver
        holds this very array, so a later in-place write would rewrite a
        peer's share."""
        words.setflags(write=False)
        label = self.current_label
        self.ledger.record_send(label, int(np.asarray(words).size))
        self.transport.send(dst, LABEL_IDS.get(label, LABEL_IDS["adhoc"]), words)
        self._sent_since_round = True

    def recv_words(self, src: int) -> np.ndarray:
        """Next frame from ``src``; it must carry the label this party is in."""
        label = self.current_label
        if self._sent_since_round:
            self.ledger.record_round(label)
            self._sent_since_round = False
        try:
            label_id, words = self.transport.recv(src)
        except ProtocolAbort as exc:
            raise ProtocolAbort(str(exc), self.ledger.snapshot()) from None
        if label_id != LABEL_IDS.get(label, LABEL_IDS["adhoc"]):
            theirs = dict(enumerate(PROTOCOL_LABELS)).get(label_id, label_id)
            raise ProtocolAbort(f"party {self.pid}: frame from party {src} has label {theirs!r}, "
                                f"expected {label!r}", self.ledger.snapshot())
        return words

    def failure(self, exc: BaseException) -> str:
        """The abort message naming this party, ``exc`` and the label path it left."""
        where = f" in {self.failed_in}" if self.failed_in else ""
        return f"party {self.pid} failed: {exc!r}{where}"

    def replicate(self, z: np.ndarray) -> ShareVector:
        """Make the local additive term z replicated: send it to the previous
        party and pair it with the next party's term. One round; z must be
        uniformly random or masked by a zero sharing first."""
        self.send_words(self.prev_pid, z)
        return ShareVector(z, self.recv_words(self.next_pid).reshape(z.shape))

    # -- correlated randomness ----------------------------------------------

    def add_zero_sharing(self, z: np.ndarray) -> np.ndarray:
        """Add this party's summand of a fresh additive zero sharing to z, in place."""
        z += self.streams_a.words("zero-add", z.size).reshape(z.shape)
        z -= self.streams_b.words("zero-add", z.size).reshape(z.shape)
        return z

    def xor_zero_sharing(self, z: np.ndarray) -> np.ndarray:
        """XOR this party's part of a fresh XOR zero sharing into z, in place."""
        z ^= self.streams_a.words("zero-xor", z.size).reshape(z.shape)
        z ^= self.streams_b.words("zero-xor", z.size).reshape(z.shape)
        return z

    def shared_random_words(self, shape) -> ShareVector:
        """XOR-replicated sharing of jointly random words, no communication."""
        n = int(np.prod(shape))
        a = self.streams_a.words("shared-bits", n).reshape(shape)
        b = self.streams_b.words("shared-bits", n).reshape(shape)
        return ShareVector(a, b)

    # -- the component layout: the one place that knows who holds which x_k --

    def const_share(self, v, k: int = 1) -> ShareVector:
        """The sharing of public v whose component x_k is v and the other two
        zero; the zero components are read-only views."""
        v = to_u64(v)
        zero = _zeros(v.shape)
        return ShareVector(v if self.pid == k else zero, v if self.next_pid == k else zero)

    def add_public(self, x: ShareVector, c) -> ShareVector:
        """x + const_share(c); only the parties holding x_1 (1 and 3) touch x."""
        c = to_u64(c)
        return ShareVector(x.a + c if self.pid == 1 else x.a, x.b + c if self.next_pid == 1 else x.b)

    def split(self, x: ShareVector, xor: bool = False) -> tuple[np.ndarray, np.ndarray]:
        """x as (lead, third): x1 + x2 (x1 ^ x2 if ``xor``) at party 1 and x3
        at parties 2 and 3, so lead + third (lead ^ third) is x. The half a
        party does not hold is a read-only zero view."""
        if self.pid == 1:
            return (x.a ^ x.b if xor else x.a + x.b), _zeros(x.shape)
        return _zeros(x.shape), (x.b if self.pid == 2 else x.a)

    def pair_term(self, x: ShareVector) -> np.ndarray:
        """x as an additive term of parties 2 and 3: x2 at party 2, x3 + x1 at
        party 3, and a read-only zero view at party 1."""
        if self.pid == 1:
            return _zeros(x.shape)
        return x.a if self.pid == 2 else x.a + x.b

    # -- openings ------------------------------------------------------------

    def open(self, x: ShareVector, reason: str, xor: bool = False) -> np.ndarray:
        """Public opening to all parties (of an XOR sharing if ``xor``);
        audited via the opening log."""
        self.send_words(self.next_pid, x.a)
        missing = self.recv_words(self.prev_pid).reshape(x.shape)
        self.opening_log.append((reason, int(x.size)))
        return x.a ^ x.b ^ missing if xor else x.a + x.b + missing

    def reveal_to(self, x: ShareVector, receiver: int, reason: str) -> np.ndarray | None:
        """Directed reveal to one party only (logged separately from opens)."""
        self.reveal_log.append((reason, int(x.size)))
        if self.pid == receiver % 3 + 1:
            self.send_words(receiver, x.b)
            return None
        if self.pid == receiver:
            missing = self.recv_words(self.next_pid).reshape(x.shape)
            return x.a + x.b + missing
        return None


def config_fingerprint(text: str) -> np.ndarray:
    digest = hashlib.sha256(text.encode()).digest()[:16]
    return np.frombuffer(digest, dtype="<u8").astype(np.uint64)


def setup_handshake(party: Party, fingerprint: np.ndarray):
    """Cross-check config hashes and precision, then zero the ledger."""
    with party.protocol("setup"):
        probe = np.concatenate([fingerprint, np.array([party.fp.frac_bits], dtype=np.uint64)])
        party.send_words(party.next_pid, probe)
        party.send_words(party.prev_pid, probe)
        for src in (party.prev_pid, party.next_pid):
            theirs = party.recv_words(src)
            if not np.array_equal(theirs[:-1], fingerprint):
                raise SetupError(f"config hash mismatch with party {src}")
            if int(theirs[-1]) != party.fp.frac_bits:
                raise SetupError(f"frac_bits mismatch with party {src}")
    party.ledger.reset()


def run_parties(body, master_seed: int, fp: FixedPointConfig, timeout: float = 600.0):
    """Run the same protocol body on three in-process parties.

    ``body(party)`` returns that party's result; returns the list of results
    indexed by party. Any party's exception aborts the run, named by the first
    error that is not a peer's ProtocolAbort (its party and label path), else
    by the first abort.
    """
    router = LocalRouter(timeout=timeout)
    parties = [Party(pid, LocalTransport(pid, router), master_seed, fp) for pid in (1, 2, 3)]
    results: list = [None, None, None]
    errors: list = []  # (party index, exception) in the order they were raised

    def runner(i: int):
        try:
            results[i] = body(parties[i])
        except BaseException as exc:  # propagate to the caller thread
            errors.append((i, exc))
            for q in router.queues.values():
                q.put(None)  # unblock peers waiting on this party

    threads = [threading.Thread(target=runner, args=(i,)) for i in range(3)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=timeout)
    for i, exc in errors:
        if not isinstance(exc, ProtocolAbort):
            raise ProtocolAbort(parties[i].failure(exc), parties[i].ledger.snapshot()) from exc
    if errors:
        raise errors[0][1]
    for t in threads:
        if t.is_alive():
            raise ProtocolAbort("party deadlocked or timed out", parties[0].ledger.snapshot())
    return results, parties
