"""One benchmark operation: set up and run the pipeline once, on one transport.

An operation shares the custodians' inputs, starts the three parties,
connects them, runs the setup handshake and ingest, and runs the pipeline
until the result is delivered. An in-process set-up-only operation stops
every party where it would enter run_pipeline.
Everything is reached through silosynth's public entry points: the
``custodian_components``/``setup_handshake``/``ingest_all``/``run_pipeline``
functions under ``run_parties`` in-process, and the ``party``/``custodian``
CLI over loopback TCP.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import socket
import subprocess
import sys
import threading
from dataclasses import dataclass, field

import numpy as np

from silosynth import cli, ingest, pipeline, runtime
from silosynth.config import canonical_text
from silosynth.datafile import write_dataset, write_thresholds
from silosynth.fixedpoint import FixedPointConfig

from tracing import Patches, Tracer, now

HERE = os.path.dirname(os.path.abspath(__file__))
PARTY_MAIN = os.path.join(HERE, "party_main.py")
PROCESS_TIMEOUT = 170.0  # every operation must end well inside the 180 s run limit


class OpFailed(RuntimeError):
    pass


@dataclass
class Output:
    """What the run delivered: the decision and the synthetic dataset."""

    publish: bool
    h_selected: int | None
    loops: list                      # [(hyperparameter, vote bit)] per loop
    cells: np.ndarray | None = None  # opened ring words (in-process)
    csv: list = field(default_factory=list)  # file bytes each custodian wrote (TCP)
    party_decisions: list = field(default_factory=list)  # per party, from its report (TCP)


@dataclass
class OpResult:
    setup_s: float
    run_s: float | None = None
    cpu_s: float | None = None
    counts: dict = field(default_factory=dict)   # pid -> Meter counts
    ledger: dict = field(default_factory=dict)   # pid -> CommLedger totals (reference only)
    connect_s: float | None = None               # party start -> handshake return, max
    output: Output | None = None
    trace: dict | None = None                    # merged Tracer summaries


def _cpu(ru) -> float:
    return ru.ru_utime + ru.ru_stime


def ledger_totals(snapshot: dict) -> dict:
    return {k: sum(e[k] for e in snapshot.values())
            for k in ("bytes_sent", "messages_sent", "rounds")}


def local_op(inputs, config, instrument, setup_only: bool = False) -> OpResult:
    """Three in-process parties (threads); custodians share one after another."""
    datasets, thresholds = inputs
    d = datasets[0][0].shape[1]
    entered, handshake_end = {}, {}
    patches = Patches()
    instrument.install(patches)
    try:
        cpu0, t0 = _cpu(resource.getrusage(resource.RUSAGE_SELF)), now()
        uploads = [ingest.custodian_components(g, l, thresholds[c], config.frac_bits, config.seed, c)
                   for c, (g, l) in enumerate(datasets)]
        fingerprint = runtime.config_fingerprint(canonical_text(config))

        def body(party):
            runtime.setup_handshake(party, fingerprint)
            handshake_end[party.pid] = now()
            mats, thr = ingest.ingest_all(party, [u[0][party.pid - 1] for u in uploads],
                                          [u[1][party.pid - 1] for u in uploads], d)
            entered[party.pid] = now()
            if setup_only:
                return None
            return pipeline.run_pipeline(party, mats, pipeline.ThresholdSet(thr), config)

        results, _ = runtime.run_parties(body, config.seed, FixedPointConfig(config.frac_bits))
        t1, cpu1 = now(), _cpu(resource.getrusage(resource.RUSAGE_SELF))
    finally:
        patches.undo()
    start = max(entered.values())
    res = OpResult(setup_s=start - t0, counts=meter_of(instrument).summary(),
                   connect_s=max(handshake_end.values()) - t0)
    if setup_only:
        return res
    r = results[0]
    res.run_s, res.cpu_s = t1 - start, cpu1 - cpu0
    res.ledger = {i + 1: ledger_totals(x.ledger) for i, x in enumerate(results)}
    res.output = Output(r.publish, r.h_selected, [(x.hyperparam, x.vote_bit) for x in r.loops],
                        cells=r.synthetic)
    if isinstance(instrument, Tracer):
        res.trace = instrument.summary()
    return res


def meter_of(instrument):
    return instrument.meter if isinstance(instrument, Tracer) else instrument


# -- TCP ---------------------------------------------------------------------------

def free_ports(n: int) -> list[int]:
    socks = []
    try:
        for _ in range(n):
            s = socket.socket()
            s.bind(("127.0.0.1", 0))
            socks.append(s)
        return [s.getsockname()[1] for s in socks]
    finally:
        for s in socks:
            s.close()


class TcpFiles:
    """Input files the CLI reads, written once per benchmark run."""

    def __init__(self, workdir: str, inputs, config):
        datasets, thresholds = inputs
        self.workdir = workdir
        self.config = os.path.join(workdir, "run.conf")
        with open(self.config, "w") as fh:
            fh.write(canonical_text(config) + "\n")
        self.data, self.thresholds = [], []
        for c, (genes, labels) in enumerate(datasets):
            self.data.append(os.path.join(workdir, f"data{c}.csv"))
            write_dataset(self.data[-1], genes, labels)
            self.thresholds.append(os.path.join(workdir, f"thr{c}.csv"))
            write_thresholds(self.thresholds[-1], thresholds[c:c + 1])


def _parse_report(text: str):
    lines = dict(ln.split(": ", 1) for ln in text.splitlines() if ": " in ln and not ln.startswith(" "))
    loops = []
    for ln in text.splitlines():
        ln = ln.strip()
        if ln.startswith("loop ") and "candidate=" in ln:
            h = int(ln.split("candidate=")[1].split()[0])
            loops.append((h, 1 if ln.endswith("vote=pass") else 0))
    h = lines.get("selected hyperparameter", "-")
    return lines.get("decision") == "publish", (None if h == "-" else int(h)), loops


def tcp_op(files: TcpFiles, n_custodians: int, instrument, spans_prefix: str | None = None,
           tag: str = "op") -> OpResult:
    """Three ``silosynth party`` processes on loopback plus custodian uploads.

    Parties start together; the custodians are the CLI's ``custodian`` entry
    point on threads of this process, started one after another. With
    ``spans_prefix`` (and a Tracer as ``instrument``) every party traces and
    writes its spans to ``<spans_prefix>-party<id>.npz``.
    """
    ports = free_ports(3)
    addrs = {pid: f"127.0.0.1:{ports[pid - 1]}" for pid in (1, 2, 3)}
    wd = files.workdir
    stats = {pid: os.path.join(wd, f"{tag}-party{pid}.json") for pid in (1, 2, 3)}
    outs = [os.path.join(wd, f"{tag}-synthetic{c}.csv") for c in range(n_custodians)]
    ends, codes = {}, {}
    procs, logs = [], []
    patches = Patches()
    instrument.install(patches)  # custodian-side spans in this process
    captured = io.StringIO()
    try:
        cpu0 = _cpu(resource.getrusage(resource.RUSAGE_SELF))
        cpu_children0 = _cpu(resource.getrusage(resource.RUSAGE_CHILDREN))
        t0 = now()
        for pid in (1, 2, 3):
            extra = ["--spans", f"{spans_prefix}-party{pid}.npz"] if spans_prefix else []
            log = open(os.path.join(wd, f"{tag}-party{pid}.log"), "w")
            logs.append(log)
            peers = [f"--peer={j}={addrs[j]}" for j in (1, 2, 3) if j != pid]
            procs.append(subprocess.Popen(
                [sys.executable, PARTY_MAIN, "--stats", stats[pid], *extra, "--",
                 "party", "--id", str(pid), "--listen", addrs[pid], *peers,
                 "--config", files.config, "--report", os.path.join(wd, f"{tag}-report{pid}.txt"),
                 "--timeout", str(PROCESS_TIMEOUT)],
                stdout=log, stderr=subprocess.STDOUT))
        servers = ",".join(addrs[p] for p in (1, 2, 3))

        def custodian(c):
            codes[c] = cli.main(["custodian", "--data", files.data[c], "--thresholds", files.thresholds[c],
                                 "--servers", servers, "--config", files.config, "--index", str(c),
                                 "--out", outs[c], "--timeout", str(PROCESS_TIMEOUT)])
            ends[c] = now()

        threads = [threading.Thread(target=custodian, args=(c,), daemon=True) for c in range(n_custodians)]
        with contextlib.redirect_stdout(captured), contextlib.redirect_stderr(captured):
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=max(1.0, t0 + PROCESS_TIMEOUT - now()))
        for p in procs:
            p.wait(timeout=max(1.0, t0 + PROCESS_TIMEOUT + 5 - now()))
        cpu1 = _cpu(resource.getrusage(resource.RUSAGE_SELF))
        cpu_children1 = _cpu(resource.getrusage(resource.RUSAGE_CHILDREN))
    except subprocess.TimeoutExpired:
        raise OpFailed("party process did not finish in time") from None
    finally:
        patches.undo()
        for p in procs:
            if p.poll() is None:
                p.kill()
                p.wait()
        for log in logs:
            log.close()
    if any(t.is_alive() for t in threads):
        raise OpFailed("custodian did not finish in time")
    party_stats = {}
    for pid in (1, 2, 3):
        if procs[pid - 1].returncode != 0 or not os.path.exists(stats[pid]):
            with open(os.path.join(wd, f"{tag}-party{pid}.log")) as fh:
                tail = fh.read()[-2000:]
            raise OpFailed(f"party {pid} exited with {procs[pid - 1].returncode}: {tail}")
        with open(stats[pid]) as fh:
            party_stats[pid] = json.load(fh)
    start = max(s["entered"] for s in party_stats.values())
    res = OpResult(setup_s=start - t0,
                   counts={pid: s["counts"][str(pid)] for pid, s in party_stats.items()},
                   connect_s=max(s["handshake_end"] for s in party_stats.values()) - t0)
    if any(codes.get(c) != 0 for c in range(n_custodians)):
        raise OpFailed(f"custodian exit codes {codes}: {captured.getvalue()}")
    res.run_s = max(ends.values()) - start
    res.cpu_s = (cpu1 - cpu0) + (cpu_children1 - cpu_children0)
    res.ledger = {pid: s["ledger"] for pid, s in party_stats.items()}
    csv = []
    for path in outs:
        with open(path, "rb") as fh:
            csv.append(fh.read())
    decisions = []
    for pid in (1, 2, 3):
        with open(os.path.join(wd, f"{tag}-report{pid}.txt")) as fh:
            decisions.append(_parse_report(fh.read()))
    publish, h, loops = decisions[0]
    res.output = Output(publish, h, loops, csv=csv, party_decisions=decisions)
    if spans_prefix:
        merged = instrument.summary()
        for pid, s in party_stats.items():
            merged["parties"][pid] = s["trace"]["parties"][str(pid)]
            merged["frame_read_s"] = max(merged["frame_read_s"], s["trace"]["frame_read_s"])
            merged["frame_write_s"] = max(merged["frame_write_s"], s["trace"]["frame_write_s"])
        res.trace = merged
    return res
