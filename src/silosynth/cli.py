"""Command-line entry points: run-local, party, custodian.

run-local hosts the three parties on threads plus all custodians in one
process. party/custodian speak the length-prefixed TCP frame format over a
full mesh (lower-id parties listen for higher-id peers; custodians connect
to every server, upload one component stream each, and optionally wait for
the revealed synthetic dataset).

Exit codes: 0 success (publish or clean no-publish), 2 input error,
3 protocol abort, 4 connectivity/setup failure.
"""

from __future__ import annotations

import argparse
import contextlib
import math
import secrets
import selectors
import socket
import sys
import time
import traceback

import numpy as np

from . import fixedpoint as fx
from .config import ConfigError, canonical_text, load_config
from .datafile import DatasetError, read_dataset, read_thresholds, write_dataset
from .fixedpoint import FixedPointConfig
from .ingest import IngestionError, custodian_components, ingest_all
from .pipeline import PipelineConfig, RunResult, ThresholdSet, preflight, run_pipeline
from .report import render_report
from .runtime import (
    LABEL_IDS,
    Party,
    ProtocolAbort,
    SetupError,
    TcpTransport,
    config_fingerprint,
    read_frame,
    run_parties,
    setup_handshake,
    write_frame,
)

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_ABORT = 3
EXIT_CONNECT = 4

HELLO_PARTY = 0x01
HELLO_CUSTODIAN = 0x02


def _decode_synthetic(cells: np.ndarray, n_genes: int, frac_bits: int):
    genes = fx.decode(cells[:, :n_genes], frac_bits)
    labels = fx.signed(cells[:, n_genes]).astype(np.int64)
    return genes, labels


def _refuse_unencodable(frac_bits: int, *named):
    """Refuse the first (path, values) pair holding a value that fixed point
    cannot encode at ``frac_bits``, naming its file and the bound."""
    for path, values in named:
        try:
            fx.encode(values, frac_bits)
        except fx.RangeError as exc:
            raise DatasetError(f"{path}: {exc} at frac_bits {frac_bits}") from None


def _load_inputs(args):
    config = load_config(args.config)
    datasets = [read_dataset(p) for p in args.data]
    thresholds = read_thresholds(args.thresholds)
    _refuse_unencodable(config.frac_bits, *((p, g) for p, (g, _) in zip(args.data, datasets)),
                        (args.thresholds, thresholds))
    if len(datasets) != thresholds.shape[0]:
        raise DatasetError(
            f"{args.thresholds}: {thresholds.shape[0]} threshold row(s) for {len(datasets)} dataset(s)")
    config.n_custodians = len(datasets)
    preflight([g.shape[0] for g, _ in datasets], [g.shape[1] for g, _ in datasets], config)
    return config, datasets, thresholds


def run_local(args) -> int:
    try:
        config, datasets, thresholds = _load_inputs(args)
    except (ConfigError, DatasetError, IngestionError, FileNotFoundError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT

    n_genes = datasets[0][0].shape[1]
    uploads = [
        custodian_components(g, l, thresholds[c], config.frac_bits, secrets.randbits(128), c)
        for c, (g, l) in enumerate(datasets)
    ]
    fingerprint = config_fingerprint(canonical_text(config))

    def body(party: Party) -> RunResult:
        setup_handshake(party, fingerprint)
        data_comps = [u[0][party.pid - 1] for u in uploads]
        thr_comps = [u[1][party.pid - 1] for u in uploads]
        combined, thr = ingest_all(party, data_comps, thr_comps, n_genes)
        return run_pipeline(party, combined, ThresholdSet(thr), config)

    try:
        results, _ = run_parties(body, config.seed, FixedPointConfig(config.frac_bits))
    except ProtocolAbort as exc:
        print(f"protocol abort: {exc}\nledger snapshot: {exc.ledger_snapshot}", file=sys.stderr)
        return EXIT_ABORT
    result = results[0]
    if args.report:
        with open(args.report, "w") as fh:
            fh.write(render_report(result, config))
    if result.publish and args.out:
        genes, labels = _decode_synthetic(result.synthetic, n_genes, config.frac_bits)
        write_dataset(args.out, genes, labels)
    print(f"decision: {'publish' if result.publish else 'no-publish'}"
          + (f" (hyperparameter {result.h_selected})" if result.publish else ""))
    return EXIT_OK


# -- TCP deployment ---------------------------------------------------------------

def _parse_hostport(text: str):
    host, _, port = text.rpartition(":")
    if not port.isdigit() or int(port) > 65535:
        raise ConfigError(f"address {text!r} is not host:port with a port in 0..65535")
    return host or "127.0.0.1", int(port)


def _timeout(text: str) -> float:
    """argparse type of --timeout: a positive finite number of seconds."""
    with contextlib.suppress(ValueError):
        if 0 < float(text) < math.inf:
            return float(text)
    raise argparse.ArgumentTypeError(f"must be a positive finite number of seconds, got {text!r}")


def _connect_with_retry(addr, timeout: float) -> socket.socket:
    """Dial until the peer is up; the returned socket blocks indefinitely.

    The pause between attempts doubles from 10 ms to 200 ms, so a peer that
    comes up moments later is reached within milliseconds: a custodian that
    reaches the last server late holds up the whole run. Receive deadlines
    are enforced by the transport's queue timeout, not the socket, so an
    idle established channel never drops.
    """
    deadline = time.monotonic() + timeout
    pause = 0.01
    while True:
        try:
            s = socket.create_connection(addr, timeout=5.0)
            s.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            s.settimeout(None)
            return s
        except OSError:
            if time.monotonic() >= deadline:
                raise
            time.sleep(pause)
            pause = min(2 * pause, 0.2)


def _send_custodians(custodian_socks, frames):
    """Send every custodian the (label, words) frames, then close its socket."""
    for _, conn in custodian_socks:
        try:
            for seq, (label, words) in enumerate(frames):
                write_frame(conn, LABEL_IDS[label], seq, words)
        except OSError:
            pass
        conn.close()


def run_party(args) -> int:
    pid = args.id
    try:
        config = load_config(args.config)
        listen = _parse_hostport(args.listen)
        peers = {}
        for spec in args.peer or []:
            peer_id, _, addr = spec.partition("=")
            if not peer_id.isdigit():
                raise ConfigError(f"peer {spec!r} is not id=host:port")
            peers[int(peer_id)] = _parse_hostport(addr)
    except (ConfigError, FileNotFoundError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    if set(peers) != {p for p in (1, 2, 3) if p != pid}:
        print("party needs --peer entries for both other parties", file=sys.stderr)
        return EXIT_INPUT
    try:
        listener = socket.create_server(listen, backlog=8)
    except OSError as exc:
        print(f"connectivity failure: {exc}", file=sys.stderr)
        return EXIT_CONNECT
    # every return path closes the listener and every connection
    with listener, contextlib.ExitStack() as conns:
        listener.settimeout(args.timeout)
        return _serve_party(args, config, peers, listener, conns)


def _serve_party(args, config: PipelineConfig, peers, listener: socket.socket,
                 conns: contextlib.ExitStack) -> int:
    pid = args.id
    peer_socks: dict[int, socket.socket] = {}
    custodian_socks: list[tuple[int, socket.socket]] = []   # (claimed index, socket)

    # one selector over the listener and every connection yet to say hello
    waiting = conns.enter_context(selectors.DefaultSelector())
    waiting.register(listener, selectors.EVENT_READ)

    def accept_until(need_peers: set[int], need_custodians: int):
        """Accept until every party in ``need_peers`` and ``need_custodians``
        custodians have said hello, within one --timeout deadline. A silent
        connection never blocks another: it waits in the selector until the
        party exits. An invalid hello closes its connection at once."""
        deadline = time.monotonic() + args.timeout
        while (need_peers - set(peer_socks)) or len(custodian_socks) < need_custodians:
            left = deadline - time.monotonic()
            if left <= 0:
                raise TimeoutError(f"not every peer and custodian said hello within {args.timeout:g} s")
            for key, _ in waiting.select(left):
                conn = key.fileobj
                if conn is listener:
                    conn = conns.enter_context(listener.accept()[0])
                    conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
                    conn.settimeout(args.timeout)   # bounds a custodian's upload
                    waiting.register(conn, selectors.EVENT_READ)
                    continue
                waiting.unregister(conn)
                try:
                    kind, idx = conn.recv(2)
                except (OSError, ValueError):        # reset, closed, or a short hello
                    kind = idx = None
                if kind == HELLO_PARTY and idx in need_peers:
                    conn.settimeout(None)   # the transport's reader threads block by design
                    peer_socks[idx] = conn
                elif kind == HELLO_CUSTODIAN:
                    custodian_socks.append((idx, conn))
                else:
                    conn.close()

    try:
        # lower-id parties listen for higher ids; custodians connect to everyone
        for low in (j for j in peers if j < pid):
            s = conns.enter_context(_connect_with_retry(peers[low], args.timeout))
            s.sendall(bytes([HELLO_PARTY, pid]))
            peer_socks[low] = s
        accept_until({j for j in peers if j > pid}, 0)
    except OSError as exc:
        print(f"connectivity failure: {exc}", file=sys.stderr)
        return EXIT_CONNECT

    # handshake before any custodian data is read: a config mismatch aborts
    # the session before shares flow
    transport = TcpTransport(pid, peer_socks, timeout=args.timeout)
    conns.callback(transport.close)
    party = Party(pid, transport, config.seed, FixedPointConfig(config.frac_bits))
    fingerprint = config_fingerprint(canonical_text(config))
    try:
        setup_handshake(party, fingerprint)
    except (SetupError, ProtocolAbort) as exc:
        print(f"setup failed: {exc}", file=sys.stderr)
        return EXIT_CONNECT

    uploads = {}
    try:
        accept_until(set(), config.n_custodians)
        failed = []   # raised once every upload is read: each custodian then reaches every party
        for idx, conn in custodian_socks:
            try:
                uploads[idx] = _read_upload(conn, idx, config.frac_bits)
            except (IngestionError, ProtocolAbort, OSError) as exc:
                failed.append(exc)
        if failed:
            raise failed[0]
        indices = [idx for idx, _ in custodian_socks]
        for idx in indices:
            if not 0 <= idx < config.n_custodians:
                raise IngestionError(f"custodian index {idx} is outside 0..{config.n_custodians - 1}")
            if indices.count(idx) > 1:
                raise IngestionError(f"custodian index {idx} was claimed by two custodians")
        preflight([int(u[0][0]) for u in uploads.values()], [int(u[0][1]) for u in uploads.values()], config)
    except (ProtocolAbort, OSError) as exc:
        print(f"custodian upload failed: {exc}", file=sys.stderr)
        return EXIT_CONNECT
    except IngestionError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        transport.close()
        # the refusal: the message's bytes under the ingest label
        _send_custodians(custodian_socks, [("ingest", np.frombuffer(str(exc).encode(), np.uint8))])
        return EXIT_INPUT

    n_genes = int(uploads[0][0][1])
    try:
        data_comps = [uploads[i][1].reshape(-1, n_genes + 1) for i in sorted(uploads)]
        thr_comps = [uploads[i][2] for i in sorted(uploads)]
        combined, thr = ingest_all(party, data_comps, thr_comps, n_genes)
        result = run_pipeline(party, combined, ThresholdSet(thr), config)
    except Exception as exc:   # any error inside the protocol aborts it
        if not isinstance(exc, ProtocolAbort):
            traceback.print_exc()
        print(f"protocol abort: {party.failure(exc)}\nledger snapshot: {party.ledger.snapshot()}",
              file=sys.stderr)
        _send_custodians(custodian_socks, [])
        return EXIT_ABORT
    finally:
        transport.close()

    # reveal to custodians: party 1 sends the opened matrix, others a decision stub
    decision = np.array([1 if result.publish else 0, result.h_selected or 0,
                         n_genes], dtype=np.uint64)
    revealed = [("publish", result.synthetic)] if pid == 1 and result.publish else []
    _send_custodians(custodian_socks, [("publish", decision)] + revealed)
    if args.report:
        with open(args.report, "w") as fh:
            fh.write(render_report(result, config, party_label=f"party-{pid}"))
    print(f"party {pid} decision: {'publish' if result.publish else 'no-publish'}")
    return EXIT_OK


def _read_upload(conn: socket.socket, idx: int, frac_bits: int) -> list[np.ndarray]:
    """Custodian ``idx``'s header (n_rows, n_genes), data and threshold frames,
    each refused from its length field unless it holds the words due; a
    header of 2^frac_bits rows or more is refused before its data frame."""
    def frame(name, due):
        def check(got):
            if got != due:
                raise IngestionError(f"custodian {idx} sent a {name} frame of {got} words where {due} were due")
        return read_frame(conn, check)[2]
    header = frame("header", 2)
    if int(header[0]) >= 1 << frac_bits:
        raise IngestionError(f"custodian {idx} claims {int(header[0])} rows, which reach "
                             f"2^frac_bits = {1 << frac_bits}: at most {(1 << frac_bits) - 1} rows fit")
    return [header, frame("data", int(header[0]) * (int(header[1]) + 1)), frame("thresholds", 2)]


def run_custodian(args) -> int:
    try:
        config = load_config(args.config)
        genes, labels = read_dataset(args.data)
        thresholds = read_thresholds(args.thresholds)
        if thresholds.shape[0] != 1:
            raise DatasetError(f"{args.thresholds}: custodian thresholds must have exactly one row")
        _refuse_unencodable(config.frac_bits, (args.data, genes), (args.thresholds, thresholds))
        if not 0 <= args.index < config.n_custodians:
            raise ConfigError(f"custodian index {args.index} is outside 0..{config.n_custodians - 1}")
        servers = [_parse_hostport(s) for s in args.servers.split(",")]
        if len(servers) != 3:
            raise ConfigError("need exactly 3 server addresses")
    except (ConfigError, DatasetError, FileNotFoundError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    comp_data, comp_thr = custodian_components(
        genes, labels, thresholds[0], config.frac_bits, secrets.randbits(128), args.index)
    socks = []
    try:
        for i, addr in enumerate(servers):
            s = _connect_with_retry(addr, args.timeout)
            s.sendall(bytes([HELLO_CUSTODIAN, args.index]))
            header = np.array([genes.shape[0], genes.shape[1]], dtype=np.uint64)
            write_frame(s, LABEL_IDS["ingest"], 0, header)
            write_frame(s, LABEL_IDS["ingest"], 1, comp_data[i])
            write_frame(s, LABEL_IDS["ingest"], 2, comp_thr[i])
            socks.append(s)
    except OSError as exc:
        print(f"server unreachable: {exc}", file=sys.stderr)
        return EXIT_CONNECT

    try:
        socks[0].settimeout(args.timeout)  # bound the wait for the run to finish
        label_id, _, decision = read_frame(socks[0])
        if label_id == LABEL_IDS["ingest"]:   # the servers refused the inputs
            print(f"input error: {decision.astype(np.uint8).tobytes().decode()}", file=sys.stderr)
            return EXIT_INPUT
        publish = bool(int(decision[0]))
        n_genes = int(decision[2])
        if publish and args.out:
            _, _, cells = read_frame(socks[0])
            out_genes, out_labels = _decode_synthetic(
                cells.reshape(-1, n_genes + 1), n_genes, config.frac_bits)
            write_dataset(args.out, out_genes, out_labels)
    except (ProtocolAbort, OSError) as exc:
        print(f"failed to receive result: {exc}", file=sys.stderr)
        return EXIT_CONNECT
    finally:
        for s in socks:
            s.close()
    print(f"custodian {args.index}: run finished ({'publish' if publish else 'no-publish'})")
    return EXIT_OK


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="silosynth")
    sub = parser.add_subparsers(dest="command", required=True)

    p_local = sub.add_parser("run-local", help="run all parties and custodians in-process")
    p_local.add_argument("--config", required=True)
    p_local.add_argument("--data", action="append", required=True,
                         help="custodian dataset (repeatable)")
    p_local.add_argument("--thresholds", required=True,
                         help="threshold rows, one per custodian")
    p_local.add_argument("--out", help="synthetic dataset output path")
    p_local.add_argument("--report", help="run report output path")
    p_local.set_defaults(func=run_local)

    p_party = sub.add_parser("party", help="one MPC server over TCP")
    p_party.add_argument("--id", type=int, required=True, choices=[1, 2, 3])
    p_party.add_argument("--listen", required=True)
    p_party.add_argument("--peer", action="append",
                         help="peer address as id=host:port (twice)")
    p_party.add_argument("--config", required=True)
    p_party.add_argument("--report")
    p_party.add_argument("--timeout", type=_timeout, default=60.0)
    p_party.set_defaults(func=run_party)

    p_cust = sub.add_parser("custodian", help="upload shares and await the result")
    p_cust.add_argument("--data", required=True)
    p_cust.add_argument("--thresholds", required=True)
    p_cust.add_argument("--servers", required=True, help="three host:port, comma separated")
    p_cust.add_argument("--config", required=True)
    p_cust.add_argument("--index", type=int, default=0)
    p_cust.add_argument("--out")
    p_cust.add_argument("--timeout", type=_timeout, default=60.0)
    p_cust.set_defaults(func=run_custodian)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
