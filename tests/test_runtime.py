import queue
import socket
import threading
import time

import numpy as np
import pytest

from conftest import run3, shared

from silosynth.circuits import mul_shares
from silosynth.fixedpoint import FixedPointConfig
from silosynth.runtime import (
    AccountingError,
    LocalTransport,
    Party,
    ProtocolAbort,
    SetupError,
    TcpTransport,
    config_fingerprint,
    read_frame,
    setup_handshake,
    write_frame,
)


def test_handshake_establishes_and_zeroes_ledger():
    fp = config_fingerprint("some config text")

    def body(p):
        setup_handshake(p, fp)
        return p.ledger.snapshot()

    results, _ = run3(body)
    assert all(r == {} for r in results)


def test_handshake_rejects_config_mismatch():
    good = config_fingerprint("config A")
    bad = config_fingerprint("config B")

    def body(p):
        setup_handshake(p, bad if p.pid == 2 else good)

    with pytest.raises(ProtocolAbort):
        run3(body)


def test_handshake_rejects_frac_bits_mismatch():
    fp = config_fingerprint("config A")
    queues = {(s, d): queue.SimpleQueue() for s in (1, 2, 3) for d in (1, 2, 3) if s != d}
    parties = [
        Party(pid, LocalTransport(pid, queues, 10.0), 5,
              FixedPointConfig(16 if pid != 3 else 18))
        for pid in (1, 2, 3)
    ]
    errs = []

    def runner(p):
        try:
            setup_handshake(p, fp)
        except SetupError as exc:
            errs.append(str(exc))
        except ProtocolAbort:
            pass
        finally:
            for q in queues.values():
                q.put(None)

    threads = [threading.Thread(target=runner, args=(p,)) for p in parties]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert any("frac_bits" in e for e in errs)


def test_send_accounting_bytes():
    def body(p):
        with p.protocol("adhoc"):
            if p.pid == 1:
                p.send_words(2, np.zeros(100, dtype=np.uint64))
            elif p.pid == 2:
                p.recv_words(1)
        return p.ledger.snapshot()

    results, _ = run3(body)
    assert results[0]["adhoc"]["bytes_sent"] == 800
    assert results[0]["adhoc"]["messages_sent"] == 1


def test_batched_multiply_is_one_round():
    x = shared(np.arange(500, dtype=np.uint64), 140)
    y = shared(np.arange(500, dtype=np.uint64), 141)

    def body(p):
        with p.protocol("adhoc"):
            mul_shares(p, x[p.pid - 1], y[p.pid - 1])
        return p.ledger.entry("adhoc").rounds

    results, _ = run3(body)
    assert results == [1, 1, 1]


def test_replicate_output_is_read_only_in_process():
    """In-process the receiver holds the sender's own array, which is the
    sender's component of the re-shared value: a write into either component
    of a replicate output raises instead of rewriting a peer's share."""
    def body(p):
        z = p.replicate(p.add_zero_sharing(np.zeros(4, dtype=np.uint64)))
        refused = []
        for comp in (z.a, z.b):
            with pytest.raises(ValueError, match="read-only"):
                comp += np.uint64(1)
            refused.append(True)
        return refused

    results, _ = run3(body)
    assert results == [[True, True]] * 3


def test_fifo_order_under_interleaving():
    def body(p):
        if p.pid == 1:
            for i in range(5):
                p.send_words(2, np.full(2, np.uint64(i)))
            return None
        if p.pid == 2:
            got = [int(p.recv_words(1)[0]) for _ in range(5)]
            return got
        return None

    results, _ = run3(body)
    assert results[1] == [0, 1, 2, 3, 4]


def test_receive_under_another_label_aborts():
    def body(p):
        if p.pid == 1:
            with p.protocol("sort"):
                p.send_words(2, np.zeros(2, dtype=np.uint64))
        if p.pid == 2:
            with p.protocol("bin"):
                p.recv_words(1)

    with pytest.raises(ProtocolAbort) as exc_info:
        run3(body)
    message = str(exc_info.value)
    assert "party 2" in message and "party 1" in message
    assert "'sort'" in message and "'bin'" in message


def test_nested_identical_label_rejected():
    def body(p):
        with p.protocol("bin"):
            with p.protocol("bin"):
                pass

    with pytest.raises((AccountingError, ProtocolAbort)):
        run3(body)


def test_unregistered_label_refused_on_entry():
    """A label outside the catalog has no wire id of its own: it is refused
    before any traffic, not sent under another label's id."""
    party = Party(1, None, 0, FixedPointConfig())
    with pytest.raises(AccountingError, match="unregistered protocol label 'binning'"):
        with party.protocol("binning"):
            pass
    assert party.current_label == "adhoc" and party.failed_in is None


def test_abort_carries_ledger_snapshot():
    x = shared(np.arange(4, dtype=np.uint64), 142)

    def body(p):
        with p.protocol("adhoc"):
            mul_shares(p, x[p.pid - 1], x[p.pid - 1])
            if p.pid == 2:
                raise RuntimeError("boom")
            p.recv_words(p.prev_pid if p.pid == 1 else p.next_pid)

    with pytest.raises(ProtocolAbort) as exc_info:
        run3(body)
    assert isinstance(exc_info.value.ledger_snapshot, dict)


def test_abort_names_the_failing_party_not_a_peer():
    """Party 2's own error is the root cause; parties 1 and 3 only see it abort."""
    def body(p):
        if p.pid == 2:
            raise ValueError("bad input at party 2")
        p.recv_words(2)

    with pytest.raises(ProtocolAbort) as exc_info:
        run3(body)
    message = str(exc_info.value)
    assert message.startswith("party 2 failed: ValueError")
    assert "bad input at party 2" in message
    assert isinstance(exc_info.value.__cause__, ValueError)


def test_abort_names_the_failing_label_path():
    """The abort names the innermost label path the failing party's error left."""
    def body(p):
        with p.protocol("eval"):
            with p.protocol("wle"):
                if p.pid == 3:
                    raise ValueError("bad logits")
                p.recv_words(3)

    with pytest.raises(ProtocolAbort) as exc_info:
        run3(body)
    assert str(exc_info.value) == "party 3 failed: ValueError('bad logits') in eval/wle"


def test_transcripts_reproducible_across_runs():
    x = shared(np.arange(64, dtype=np.uint64), 143)

    def body(p):
        from silosynth.primitives import lt
        sent = []
        orig = p.send_words

        def spy(dst, words):
            sent.append(np.asarray(words).copy())
            orig(dst, words)

        p.send_words = spy
        lt(p, x[p.pid - 1], x[p.pid - 1])
        return sent

    r1, _ = run3(body, seed=42)
    r2, _ = run3(body, seed=42)
    for a, b in zip(r1[0], r2[0]):
        assert np.array_equal(a, b)


def test_tcp_frame_roundtrip():
    a, b = socket.socketpair()
    words = np.array([1, 2**63, 12345], dtype=np.uint64)
    write_frame(a, 7, 99, words)
    label_id, seq, got = read_frame(b)
    assert label_id == 7 and seq == 99
    assert np.array_equal(got, words)
    a.close(), b.close()


def test_tcp_frame_wire_layout():
    a, b = socket.socketpair()
    write_frame(a, 3, 1, np.array([0x0102030405060708], dtype=np.uint64))
    raw = b.recv(64)
    # 4-byte BE length covering label id + seq + payload
    assert raw[:4] == (2 + 8 + 8).to_bytes(4, "big")
    assert raw[4:6] == (3).to_bytes(2, "big")
    assert raw[6:14] == (1).to_bytes(8, "big")
    assert raw[14:] == (0x0102030405060708).to_bytes(8, "little")
    a.close(), b.close()


def test_tcp_frame_roundtrip_32mb():
    a, b = socket.socketpair()
    words = np.arange(4 << 20, dtype=np.uint64) * np.uint64(0x9E3779B97F4A7C15)  # 32 MB
    writer = threading.Thread(target=write_frame, args=(a, 5, 2, words))
    writer.start()
    label_id, seq, got = read_frame(b)
    writer.join()
    assert label_id == 5 and seq == 2
    assert np.array_equal(got, words)
    a.close(), b.close()


def test_tcp_read_frame_reports_closed_peer():
    a, b = socket.socketpair()
    a.sendall((100).to_bytes(4, "big") + b"\x00" * 20)
    a.close()
    with pytest.raises(ProtocolAbort):
        read_frame(b)
    b.close()


@pytest.mark.parametrize("length", [6, 10 + 12])
def test_tcp_read_frame_rejects_malformed_length(length):
    """A length below the 10-byte label and sequence header, or a payload
    that is not whole words, aborts the read and names the length."""
    a, b = socket.socketpair()
    a.sendall(length.to_bytes(4, "big") + b"\x00" * length)
    with pytest.raises(ProtocolAbort, match=f"length {length} "):
        read_frame(b)
    a.close(), b.close()


def test_tcp_recv_aborts_at_once_on_malformed_frame():
    a, b = socket.socketpair()
    transport = TcpTransport(1, {2: b}, timeout=30.0)
    a.sendall((6).to_bytes(4, "big") + b"\x00" * 6)
    t0 = time.monotonic()
    with pytest.raises(ProtocolAbort, match="channel from 2 broke"):
        transport.recv(2)
    assert time.monotonic() - t0 < 5.0
    transport.close()
    a.close()


def test_nested_label_seconds_are_exclusive():
    def body(p):
        t0 = time.perf_counter()
        with p.protocol("eval"):
            time.sleep(0.02)
            with p.protocol("wle"):
                time.sleep(0.1)
            with p.protocol("acc"):
                time.sleep(0.02)
        return time.perf_counter() - t0, {k: e.seconds for k, e in p.ledger.entries.items()}

    results, _ = run3(body)
    for wall, seconds in results:
        assert sum(seconds.values()) <= wall
        assert seconds["wle"] >= 0.1 and seconds["acc"] >= 0.02
        # eval's own sleep only; counted inclusively it would be >= 0.14
        assert 0.02 <= seconds["eval"] < 0.07
