"""Transport-independence: three party processes + custodian uploads over
localhost TCP reproduce run-local outputs byte for byte."""

import contextlib
import socket
import subprocess
import sys
import threading
import time

import numpy as np
import pytest

from silosynth.cli import _connect_with_retry, main
from silosynth.datafile import write_dataset, write_thresholds

CONFIG = """
k_folds = 2
max_loops = 1
hyperparams = 5
eps_s = 5.0
delta_s = 1e-5
eps_p = 1.0
delta_p = 1e-6
seed = 23
frac_bits = 16
n_custodians = 2
lr_epochs = 5
"""


def free_ports(n):
    socks, ports = [], []
    for _ in range(n):
        s = socket.socket()
        s.bind(("127.0.0.1", 0))
        ports.append(s.getsockname()[1])
        socks.append(s)
    for s in socks:
        s.close()
    return ports


@pytest.fixture
def setup_files(tmp_path, rng):
    cfg = tmp_path / "run.conf"
    cfg.write_text(CONFIG)
    data_paths = []
    for c in range(2):
        genes = rng.normal(0, 2, size=(8, 2))
        labels = rng.integers(0, 5, size=8)
        p = tmp_path / f"data{c}.csv"
        write_dataset(str(p), genes, labels)
        data_paths.append(p)
    thr0 = tmp_path / "thr0.csv"
    thr1 = tmp_path / "thr1.csv"
    write_thresholds(str(thr0), np.array([[1000.0, 0.0]]))
    write_thresholds(str(thr1), np.array([[1000.0, 0.0]]))
    both = tmp_path / "thr_both.csv"
    write_thresholds(str(both), np.array([[1000.0, 0.0], [1000.0, 0.0]]))
    return tmp_path, cfg, data_paths, (thr0, thr1, both)


def test_tcp_run_matches_run_local(setup_files):
    tmp_path, cfg, data_paths, (thr0, thr1, both) = setup_files

    local_out = tmp_path / "local.csv"
    local_report = tmp_path / "local_report.txt"
    code = main(["run-local", "--config", str(cfg),
                 "--data", str(data_paths[0]), "--data", str(data_paths[1]),
                 "--thresholds", str(both),
                 "--out", str(local_out), "--report", str(local_report)])
    assert code == 0

    ports = free_ports(3)
    addrs = {i + 1: f"127.0.0.1:{ports[i]}" for i in range(3)}
    procs = []
    reports = {}
    try:
        for pid in (1, 2, 3):
            peers = [f"--peer={j}={addrs[j]}" for j in (1, 2, 3) if j != pid]
            reports[pid] = tmp_path / f"report{pid}.txt"
            procs.append(subprocess.Popen(
                [sys.executable, "-m", "silosynth.cli", "party", "--id", str(pid),
                 "--listen", addrs[pid], *peers, "--config", str(cfg),
                 "--report", str(reports[pid]), "--timeout", "60"],
                stdout=subprocess.PIPE, stderr=subprocess.PIPE))
        cust_out = tmp_path / "tcp.csv"
        servers = ",".join(addrs[i] for i in (1, 2, 3))
        custodians = [
            subprocess.Popen(
                [sys.executable, "-m", "silosynth.cli", "custodian",
                 "--data", str(data_paths[c]), "--thresholds", str((thr0, thr1)[c]),
                 "--servers", servers, "--config", str(cfg), "--index", str(c),
                 *( ["--out", str(cust_out)] if c == 0 else [] ),
                 "--timeout", "60"],
                stdout=subprocess.PIPE, stderr=subprocess.PIPE)
            for c in range(2)
        ]
        for proc in custodians + procs:
            out, err = proc.communicate(timeout=180)
            assert proc.returncode == 0, err.decode()
    finally:
        for proc in procs:
            if proc.poll() is None:
                proc.kill()

    assert cust_out.read_bytes() == local_out.read_bytes()
    # party reports agree with the local run on the public decision
    for pid in (1, 2, 3):
        text = reports[pid].read_text()
        assert "decision: publish" in text

    # ledger parity across transports: party 1's per-protocol bytes/messages/
    # rounds lines match the in-process run exactly (timing differs)
    def ledger_lines(text):
        lines = text.splitlines()
        start = lines.index("per-protocol communication (this party)") + 3
        rows = {}
        for ln in lines[start:]:
            parts = ln.split()
            if len(parts) != 5:
                break
            rows[parts[0]] = tuple(parts[1:4])
        return rows

    assert ledger_lines(reports[1].read_text()) == ledger_lines(local_report.read_text())


def test_config_mismatch_exits_4_before_data_flows(setup_files):
    tmp_path, cfg, data_paths, _ = setup_files
    other_cfg = tmp_path / "other.conf"
    other_cfg.write_text(CONFIG.replace("seed = 23", "seed = 24"))
    ports = free_ports(3)
    addrs = {i + 1: f"127.0.0.1:{ports[i]}" for i in range(3)}
    procs = []
    try:
        for pid in (1, 2, 3):
            peers = [f"--peer={j}={addrs[j]}" for j in (1, 2, 3) if j != pid]
            procs.append(subprocess.Popen(
                [sys.executable, "-m", "silosynth.cli", "party", "--id", str(pid),
                 "--listen", addrs[pid], *peers,
                 "--config", str(cfg if pid != 2 else other_cfg), "--timeout", "30"],
                stdout=subprocess.PIPE, stderr=subprocess.PIPE))
        for proc in procs:
            out, err = proc.communicate(timeout=90)
            assert proc.returncode == 4, (out, err)
    finally:
        for proc in procs:
            if proc.poll() is None:
                proc.kill()


def run_refused(cfg, data_paths, thresholds, indices, raw=None):
    """Three parties and one custodian per data file over loopback TCP, with
    the given custodian indices; returns each process's (returncode, stderr).
    ``raw(servers)``, if given, runs on a thread as one more custodian."""
    ports = free_ports(3)
    addrs = {i + 1: f"127.0.0.1:{ports[i]}" for i in range(3)}
    procs = []
    if raw is not None:
        thread = threading.Thread(target=raw, args=([("127.0.0.1", p) for p in ports],), daemon=True)
        thread.start()
    try:
        for pid in (1, 2, 3):
            peers = [f"--peer={j}={addrs[j]}" for j in (1, 2, 3) if j != pid]
            procs.append(subprocess.Popen(
                [sys.executable, "-m", "silosynth.cli", "party", "--id", str(pid),
                 "--listen", addrs[pid], *peers, "--config", str(cfg), "--timeout", "30"],
                stdout=subprocess.PIPE, stderr=subprocess.PIPE))
        servers = ",".join(addrs[i] for i in (1, 2, 3))
        procs += [
            subprocess.Popen(
                [sys.executable, "-m", "silosynth.cli", "custodian",
                 "--data", str(data), "--thresholds", str(thr),
                 "--servers", servers, "--config", str(cfg), "--index", str(idx), "--timeout", "30"],
                stdout=subprocess.PIPE, stderr=subprocess.PIPE)
            for data, thr, idx in zip(data_paths, thresholds, indices)
        ]
        outcomes = []
        for proc in procs:
            _, err = proc.communicate(timeout=90)
            outcomes.append((proc.returncode, err.decode()))
        if raw is not None:
            thread.join(timeout=90)
        return outcomes
    finally:
        for proc in procs:
            if proc.poll() is None:
                proc.kill()


def test_party_refuses_folds_without_test_rows(setup_files):
    """The fold plan is checked against the uploaded row counts before the
    protocol runs: every party and every custodian exits 2 and names the bound."""
    tmp_path, cfg, data_paths, (thr0, thr1, _) = setup_files
    cfg.write_text(CONFIG.replace("k_folds = 2", "k_folds = 17"))
    for code, err in run_refused(cfg, data_paths, (thr0, thr1), (0, 1)):
        assert code == 2, err
        assert "17 folds of 16 rows" in err
        assert "at least 1 test row" in err


def raw_custodian(index, frames, replies):
    """A custodian that bypasses the CLI's checks: it sends ``index`` and the
    ``frames`` to every server and keeps the first server's reply in ``replies``.
    A server refuses a frame of the wrong size from its length field, and may
    close before the frames after it are written; those writes may fail."""
    from silosynth.cli import HELLO_CUSTODIAN, _connect_with_retry
    from silosynth.runtime import LABEL_IDS, read_frame, write_frame

    def upload(servers):
        socks = [_connect_with_retry(addr, 30) for addr in servers]
        for s in socks:
            s.sendall(bytes([HELLO_CUSTODIAN, index]))
            with contextlib.suppress(OSError):
                for seq, words in enumerate(frames):
                    write_frame(s, LABEL_IDS["ingest"], seq, np.array(words, dtype=np.uint64))
        socks[0].settimeout(60)
        replies.append(read_frame(socks[0]))
        for s in socks:
            s.close()
    return upload


def assert_refused_with(outcomes, replies, message):
    """Every process exits 2 naming ``message``, and the raw custodian got it under the ingest label."""
    from silosynth.runtime import LABEL_IDS

    for code, err in outcomes:
        assert code == 2, err
        assert "input error" in err and message in err
    (label_id, _, words), = replies
    assert label_id == LABEL_IDS["ingest"]
    assert message in words.astype(np.uint8).tobytes().decode()


@pytest.mark.parametrize("indices, message", [
    ((0, 0), "custodian index 0 was claimed by two custodians"),
    ((1, 2), "custodian index 2 is outside 0..1"),
])
def test_party_refuses_bad_custodian_indices(setup_files, indices, message):
    """A repeated or out-of-range custodian index: every party and every
    custodian exits 2 and names the index. The custodian CLI refuses an
    out-of-range index before it connects, so the second index comes from a
    raw upload."""
    tmp_path, cfg, data_paths, (thr0, _, _) = setup_files
    replies = []
    raw = raw_custodian(indices[1], ([8, 2], [0] * 24, [0, 0]), replies)
    assert_refused_with(run_refused(cfg, data_paths[:1], (thr0,), indices[:1], raw=raw), replies, message)


@pytest.mark.parametrize("index", [2, 300, -1])
def test_custodian_refuses_out_of_range_index_before_connecting(setup_files, index, capsys):
    """An index outside 0..n_custodians-1 exits 2 at once, naming the index,
    though no server listens at the given addresses."""
    tmp_path, cfg, data_paths, (thr0, _, _) = setup_files
    servers = ",".join(f"127.0.0.1:{port}" for port in free_ports(3))
    t0 = time.monotonic()
    code = main(["custodian", "--data", str(data_paths[0]), "--thresholds", str(thr0), "--servers", servers,
                 "--config", str(cfg), f"--index={index}", "--timeout", "30"])
    assert code == 2 and time.monotonic() - t0 < 5
    assert f"custodian index {index} is outside 0..1" in capsys.readouterr().err


def test_custodian_refuses_gene_value_beyond_encodable_range_before_connecting(setup_files, rng, capsys):
    """A gene value of 2e9 at frac_bits 16 exits 2 at once, naming the file
    and the bound 2^30, though no server listens at the given addresses."""
    tmp_path, cfg, _, (thr0, _, _) = setup_files
    genes = rng.normal(0, 2, size=(10, 2))
    genes[3, 0] = 2e9
    data = tmp_path / "wide.csv"
    write_dataset(str(data), genes, rng.integers(0, 5, size=10))
    servers = ",".join(f"127.0.0.1:{port}" for port in free_ports(3))
    t0 = time.monotonic()
    code = main(["custodian", "--data", str(data), "--thresholds", str(thr0), "--servers", servers,
                 "--config", str(cfg), "--index=0", "--timeout", "30"])
    assert code == 2 and time.monotonic() - t0 < 5
    err = capsys.readouterr().err
    assert err.startswith(f"input error: {data}: ") and "1073741824" in err and "frac_bits 16" in err


def test_custodian_refuses_nan_threshold_before_connecting(setup_files, capsys):
    """A nan threshold exits 2 at once, naming the file, though no server
    listens at the given addresses."""
    tmp_path, cfg, data_paths, _ = setup_files
    thr = tmp_path / "nan_thr.csv"
    write_thresholds(str(thr), np.array([[np.nan, 0.0]]))
    servers = ",".join(f"127.0.0.1:{port}" for port in free_ports(3))
    t0 = time.monotonic()
    code = main(["custodian", "--data", str(data_paths[0]), "--thresholds", str(thr), "--servers", servers,
                 "--config", str(cfg), "--index=0", "--timeout", "30"])
    assert code == 2 and time.monotonic() - t0 < 5
    assert capsys.readouterr().err.startswith(f"input error: {thr}: non-finite value")


def test_party_refuses_custodians_that_disagree_on_gene_count(setup_files, rng):
    """One custodian uploads 2 genes and the other 3: the preflight refuses
    the run before ingestion, so every party and every custodian exits 2."""
    tmp_path, cfg, data_paths, (thr0, thr1, _) = setup_files
    wide = tmp_path / "wide.csv"
    write_dataset(str(wide), rng.normal(0, 2, size=(8, 3)), rng.integers(0, 5, size=8))
    for code, err in run_refused(cfg, (data_paths[0], wide), (thr0, thr1), (0, 1)):
        assert code == 2, err
        assert "custodian datasets disagree on gene count: [2, 3]" in err


def test_party_refuses_noise_past_the_ring(setup_files):
    """eps_s = 5e-8 at 2 x 8 rows x 2 genes gives a sigma_q whose noise
    would wrap the noisy marginals' ring: the preflight refuses the run,
    and every party and every custodian exits 2 naming the bound."""
    tmp_path, cfg, data_paths, (thr0, thr1, _) = setup_files
    cfg.write_text(CONFIG.replace("eps_s = 5.0", "eps_s = 5e-8"))
    for code, err in run_refused(cfg, data_paths, (thr0, thr1), (0, 1)):
        assert code == 2, err
        assert "which must stay below 2^63, so at 16 rows and frac_bits = 16 sigma_q must be at most" in err


@pytest.mark.parametrize("frames, message", [
    (([8, 2], [0] * 5, [0, 0]), "custodian 1 sent a data frame of 5 words where 24 were due"),
    (([8, 2, 0], [0] * 24, [0, 0]), "custodian 1 sent a header frame of 3 words where 2 were due"),
    (([8, 2], [0] * 24, [0, 0, 0]), "custodian 1 sent a thresholds frame of 3 words where 2 were due"),
])
def test_party_refuses_malformed_custodian_upload(setup_files, frames, message):
    """A custodian whose frames do not match its header (2 words, then
    n_rows * (n_genes + 1) data and 2 threshold words) is refused as the
    preflight refuses: every party and the honest custodian exit 2, and the
    malformed custodian gets the message under the ingest label."""
    tmp_path, cfg, data_paths, (thr0, _, _) = setup_files
    replies = []
    raw = raw_custodian(1, frames, replies)
    assert_refused_with(run_refused(cfg, data_paths[:1], (thr0,), (0,), raw=raw), replies, message)


def test_oversized_upload_frame_is_refused_before_its_body(setup_files):
    """A data frame whose length field claims 80 MB after a header of 10 rows
    x 3 genes, with no payload behind it, is refused from the length field
    alone: every party exits 2 naming the 40 words due, well before the 30 s
    --timeout, and the custodian gets the message under the ingest label."""
    from silosynth.cli import HELLO_CUSTODIAN
    from silosynth.runtime import LABEL_IDS, read_frame, write_frame

    tmp_path, cfg, data_paths, (thr0, _, _) = setup_files
    replies = []

    def oversized(servers):
        socks = [_connect_with_retry(addr, 30) for addr in servers]
        for s in socks:
            s.sendall(bytes([HELLO_CUSTODIAN, 1]))
            write_frame(s, LABEL_IDS["ingest"], 0, np.array([10, 3], dtype=np.uint64))
            s.sendall((10 + 80_000_000).to_bytes(4, "big"))
        socks[0].settimeout(60)
        replies.append(read_frame(socks[0]))
        for s in socks:
            s.close()

    t0 = time.monotonic()
    outcomes = run_refused(cfg, data_paths[:1], (thr0,), (0,), raw=oversized)
    assert time.monotonic() - t0 < 20
    assert_refused_with(outcomes, replies, "custodian 1 sent a data frame of 10000000 words where 40 were due")


def test_header_past_the_row_bound_is_refused_before_its_data(setup_files):
    """A header of 65,536 rows x 1 gene reaches 2^frac_bits on its own. The
    length field that follows matches it, but no payload does: every party
    refuses the header with exit 2, naming the bound, well before the 30 s
    --timeout, and the custodian gets the message under the ingest label."""
    from silosynth.cli import HELLO_CUSTODIAN
    from silosynth.runtime import LABEL_IDS, read_frame, write_frame

    tmp_path, cfg, data_paths, (thr0, _, _) = setup_files
    replies = []

    def claims_too_many_rows(servers):
        socks = [_connect_with_retry(addr, 30) for addr in servers]
        for s in socks:
            s.sendall(bytes([HELLO_CUSTODIAN, 1]))
            write_frame(s, LABEL_IDS["ingest"], 0, np.array([65_536, 1], dtype=np.uint64))
            s.sendall((10 + 65_536 * 2 * 8).to_bytes(4, "big"))
        socks[0].settimeout(60)
        replies.append(read_frame(socks[0]))
        for s in socks:
            s.close()

    t0 = time.monotonic()
    outcomes = run_refused(cfg, data_paths[:1], (thr0,), (0,), raw=claims_too_many_rows)
    assert time.monotonic() - t0 < 20
    assert_refused_with(outcomes, replies, "custodian 1 claims 65536 rows, which reach 2^frac_bits = 65536")


def test_malformed_custodian_frame_exits_4_at_once(setup_files):
    """A custodian frame whose length field cannot hold the label and
    sequence header aborts its read: every party reports the malformed
    length and exits 4, well inside the 30 s receive timeout."""
    from silosynth.cli import HELLO_CUSTODIAN, _connect_with_retry

    tmp_path, cfg, data_paths, (thr0, _, _) = setup_files

    def malformed(servers):
        socks = [_connect_with_retry(addr, 30) for addr in servers]
        for s in socks:
            s.sendall(bytes([HELLO_CUSTODIAN, 1]) + (6).to_bytes(4, "big") + bytes(6))
        for s in socks:
            s.settimeout(60)
            with contextlib.suppress(OSError):   # end of file or reset: the party has closed
                s.recv(1)
            s.close()

    t0 = time.monotonic()
    outcomes = run_refused(cfg, data_paths[:1], (thr0,), (0,), raw=malformed)
    assert time.monotonic() - t0 < 20
    for code, err in outcomes[:3]:
        assert code == 4, err
        assert "custodian upload failed" in err and "malformed frame: length 6" in err


def test_party_error_inside_protocol_exits_3(setup_files, monkeypatch, capsys):
    """An error that is not a protocol abort, raised inside the protocol, exits
    3 and names the party, the error and the label path; its peers abort with 3
    and the custodians, whose sockets close, exit 4."""
    from silosynth import cli

    def failing(party, *rest):
        with party.protocol("eval"):
            if party.pid == 2:
                raise ValueError("bad state at party 2")
            party.recv_words(2)

    monkeypatch.setattr(cli, "run_pipeline", failing)
    tmp_path, cfg, data_paths, (thr0, thr1, _) = setup_files
    ports = free_ports(3)
    addrs = {i + 1: f"127.0.0.1:{ports[i]}" for i in range(3)}
    servers = ",".join(addrs[i] for i in (1, 2, 3))
    argvs = {f"party{pid}": ["party", "--id", str(pid), "--listen", addrs[pid], "--config", str(cfg),
                             *[f"--peer={j}={addrs[j]}" for j in (1, 2, 3) if j != pid], "--timeout", "30"]
             for pid in (1, 2, 3)}
    argvs.update({f"custodian{c}": ["custodian", "--data", str(data_paths[c]), "--thresholds", str(thr),
                                    "--servers", servers, "--config", str(cfg), "--index", str(c),
                                    "--timeout", "30"]
                  for c, thr in enumerate((thr0, thr1))})
    codes = {}
    threads = [threading.Thread(target=lambda k=k, argv=argv: codes.__setitem__(k, main(argv)), daemon=True)
               for k, argv in argvs.items()]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=90)
    assert codes == {"party1": 3, "party2": 3, "party3": 3, "custodian0": 4, "custodian1": 4}
    err = capsys.readouterr().err
    assert "protocol abort: party 2 failed: ValueError('bad state at party 2') in eval" in err
    assert "protocol abort: party 1 failed: ProtocolAbort(" in err


def party_argv(cfg, listen, peers=None, timeout="30"):
    """Party 1's command line; by default its peers are free loopback ports."""
    peers = peers or [f"--peer={j}=127.0.0.1:{port}" for j, port in zip((2, 3), free_ports(2))]
    return ["party", "--id", "1", "--listen", listen, *peers, "--config", str(cfg), "--timeout", timeout]


@pytest.mark.parametrize("case", ["servers", "listen", "peer"])
def test_malformed_addresses_exit_2(setup_files, case, capsys):
    """An address without a numeric port, or a peer without a numeric id, is an input error."""
    tmp_path, cfg, data_paths, (thr0, _, _) = setup_files
    argv = {
        "servers": ["custodian", "--data", str(data_paths[0]), "--thresholds", str(thr0),
                    "--servers", "hostA,hostB,hostC", "--config", str(cfg)],
        "listen": party_argv(cfg, "127.0.0.1:notaport"),
        "peer": party_argv(cfg, "127.0.0.1:0", peers=["--peer=two=127.0.0.1:1", "--peer=3=127.0.0.1:2"]),
    }[case]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "input error:" in err and "Traceback" not in err


@pytest.mark.parametrize("command", ["party", "custodian"])
@pytest.mark.parametrize("timeout", ["-1", "0", "nan", "inf"])
def test_bad_timeout_exits_2_before_any_socket(setup_files, command, timeout, capsys):
    """A --timeout that is not a positive finite number of seconds is an
    input error, refused by the argument parser: a party never binds its
    listener and a custodian never dials, though no server listens."""
    tmp_path, cfg, data_paths, (thr0, _, _) = setup_files
    servers = ",".join(f"127.0.0.1:{port}" for port in free_ports(3))
    argv = {
        "party": party_argv(cfg, f"127.0.0.1:{free_ports(1)[0]}", timeout=timeout),
        "custodian": ["custodian", "--data", str(data_paths[0]), "--thresholds", str(thr0),
                      "--servers", servers, "--config", str(cfg), "--timeout", timeout],
    }[command]
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 2
    err = capsys.readouterr().err
    assert f"argument --timeout: must be a positive finite number of seconds, got '{timeout}'" in err


def test_listen_port_in_use_exits_4(setup_files, capsys):
    tmp_path, cfg, _, _ = setup_files
    with socket.create_server(("127.0.0.1", 0)) as held:
        port = held.getsockname()[1]
        assert main(party_argv(cfg, f"127.0.0.1:{port}")) == 4
    assert "connectivity failure:" in capsys.readouterr().err


def test_silent_connection_times_out_exit_4(setup_files, capsys):
    """A connection that never sends its hello stalls the party only until --timeout."""
    tmp_path, cfg, _, _ = setup_files
    port = free_ports(1)[0]
    silent = []

    def connect():
        silent.append(_connect_with_retry(("127.0.0.1", port), 10))

    thread = threading.Thread(target=connect, daemon=True)
    thread.start()
    t0 = time.monotonic()
    code = main(party_argv(cfg, f"127.0.0.1:{port}", timeout="2"))
    assert code == 4 and time.monotonic() - t0 < 8
    assert "connectivity failure:" in capsys.readouterr().err
    thread.join(timeout=10)
    for s in silent:
        s.close()


def test_stray_connections_do_not_stop_the_run(setup_files):
    """A silent connection and one with a junk hello reach party 1 before its
    peers do; the run still completes with exit 0, well inside --timeout."""
    tmp_path, cfg, data_paths, (thr0, thr1, _) = setup_files
    ports = free_ports(3)
    addrs = {i + 1: f"127.0.0.1:{ports[i]}" for i in range(3)}

    def party(pid):
        peers = [f"--peer={j}={addrs[j]}" for j in (1, 2, 3) if j != pid]
        return subprocess.Popen(
            [sys.executable, "-m", "silosynth.cli", "party", "--id", str(pid),
             "--listen", addrs[pid], *peers, "--config", str(cfg), "--timeout", "30"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE)

    t0 = time.monotonic()
    procs = [party(1)]
    strays = []
    try:
        strays = [_connect_with_retry(("127.0.0.1", ports[0]), 30) for _ in range(2)]
        strays[1].sendall(b"GET / HTTP/1.0\r\n\r\n")
        procs += [party(2), party(3)]
        servers = ",".join(addrs[i] for i in (1, 2, 3))
        procs += [
            subprocess.Popen(
                [sys.executable, "-m", "silosynth.cli", "custodian",
                 "--data", str(data_paths[c]), "--thresholds", str((thr0, thr1)[c]),
                 "--servers", servers, "--config", str(cfg), "--index", str(c), "--timeout", "30"],
                stdout=subprocess.PIPE, stderr=subprocess.PIPE)
            for c in range(2)
        ]
        for proc in procs:
            _, err = proc.communicate(timeout=90)
            assert proc.returncode == 0, err.decode()
    finally:
        for proc in procs:
            if proc.poll() is None:
                proc.kill()
        for s in strays:
            s.close()
    assert time.monotonic() - t0 < 25


def test_custodian_upload_is_three_component_streams(rng):
    from silosynth.ingest import custodian_components

    genes = rng.normal(0, 1, size=(100, 10))
    labels = rng.integers(0, 5, size=100)
    comp_data, comp_thr = custodian_components(genes, labels, np.array([0.5, 0.5]), 16, 9, 0)
    assert len(comp_data) == 3
    assert all(c.shape == (100, 11) for c in comp_data)
    assert len(comp_thr) == 3 and all(t.shape == (2,) for t in comp_thr)
    total = comp_data[0] + comp_data[1] + comp_data[2]
    from silosynth import fixedpoint as fx
    assert np.array_equal(fx.decode(total[:, :10]), fx.decode(fx.encode(genes)))


def test_cli_custodian_masks_are_fresh(setup_files):
    """Three fake servers read what a CLI custodian uploads. Its data blocks
    sum to the encoded cells, server 1's block is not the one the public
    config seed derives, and a second upload of the same file draws other
    masks: no server's block plus the config rebuilds the custodian's rows."""
    from silosynth import fixedpoint as fx
    from silosynth.config import load_config
    from silosynth.datafile import read_dataset
    from silosynth.ingest import custodian_components
    from silosynth.runtime import LABEL_IDS, read_exact, read_frame, write_frame

    tmp_path, cfg, data_paths, (thr0, _, _) = setup_files
    config = load_config(str(cfg))
    genes, labels = read_dataset(str(data_paths[0]))

    def upload():
        listeners = [socket.create_server(("127.0.0.1", 0)) for _ in range(3)]
        blocks = [None] * 3

        def serve(i):
            conn, _ = listeners[i].accept()
            with conn:
                conn.settimeout(30)
                read_exact(conn, 2)   # the hello
                header, data, _ = (read_frame(conn)[2] for _ in range(3))
                blocks[i] = data.reshape(int(header[0]), int(header[1]) + 1)
                if i == 0:   # the decision: no-publish
                    write_frame(conn, LABEL_IDS["publish"], 0, np.array([0, 0, header[1]], dtype=np.uint64))

        threads = [threading.Thread(target=serve, args=(i,), daemon=True) for i in range(3)]
        for t in threads:
            t.start()
        servers = ",".join(f"127.0.0.1:{s.getsockname()[1]}" for s in listeners)
        try:
            code = main(["custodian", "--data", str(data_paths[0]), "--thresholds", str(thr0),
                         "--servers", servers, "--config", str(cfg), "--index", "0", "--timeout", "30"])
            for t in threads:
                t.join(timeout=30)
        finally:
            for s in listeners:
                s.close()
        assert code == 0
        return blocks

    first, second = upload(), upload()
    cells = np.column_stack([fx.encode(genes, config.frac_bits), labels.astype(np.uint64)])
    assert np.array_equal(first[0] + first[1] + first[2], cells)
    assert np.array_equal(second[0] + second[1] + second[2], cells)
    seeded = custodian_components(genes, labels, [1000.0, 0.0], config.frac_bits, config.seed, 0)[0]
    assert not np.array_equal(first[0], seeded[0])
    assert not np.array_equal(second[0], first[0])
