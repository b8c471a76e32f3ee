"""Benchmark of the three-server pipeline: end-to-end and per-layer metrics.

Usage:
    python3 perfbench/run.py --workload {tune-ref,bin-rows,tcp-ref} --seed N
                             --seconds S --trace {0,1} [--smoke]

Prints, as the last line of standard output, one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. With ``--trace 0`` the
metrics are the end-to-end ones, with ``--trace 1`` the per-layer ones.
``--smoke`` runs the same paths at tiny shapes in seconds. See README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import sys
import traceback
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")

RTT_S = 0.025                 # deployed inter-site round trip
BANDWIDTH_BYTES_S = 125e6     # 1 Gbit/s per party uplink
# In-process set-up takes ~2 ms and jitters with every thread start, so each
# full operation is preceded by this many set-up-only ones (~0.1 s in all).
# Over TCP a set-up costs ~1 s of process start, and full operations alone
# give its samples.
LOCAL_SETUPS_PER_OP = 40


@dataclass(frozen=True)
class Shape:
    rows: int              # per custodian
    genes: int
    k_folds: int
    lr_epochs: int
    custodians: int = 2
    hyperparams: tuple = (10, 15, 25, 30)


WORKLOADS = {
    # name: (transport, full shape, smoke shape)
    "tune-ref": ("local", Shape(100, 10, 2, 30), Shape(12, 3, 2, 2)),
    "bin-rows": ("local", Shape(500, 10, 5, 1), Shape(24, 3, 2, 1)),
    "tcp-ref": ("tcp", Shape(100, 10, 2, 30), Shape(12, 3, 2, 2)),
}

END_TO_END = {"setup_s": "s", "run_s": "s", "cpu_s": "s", "rounds": "count",
              "sent_mb": "MB", "projected_wan_s": "s", "peak_rss_mb": "MB"}


def _bootstrap():
    src = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(src, "silosynth")):
        sys.exit(f"error: no silosynth sources under {src}; run from a checkout of the repository")
    sys.path[:0] = [src, HERE]


def pin_to_one_cpu():
    """Run this process, its threads and its children on one CPU.

    The three parties share one interpreter lock in-process. Spread over two
    vCPUs, the lock and queue hand-offs between them cost more and vary more
    than the work: unpinned runs of the same operation took from 0.9x to 2.3x
    the time of pinned runs alternating with them. On one CPU every workload measures its work, and in-process
    and TCP runs compare on the same footing.
    """
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def make_inputs(shape: Shape, seed: int):
    """Custodian datasets and vacuous thresholds, all from the seed."""
    import numpy as np

    rng = np.random.default_rng(seed)
    datasets = [(rng.normal(0.0, 2.0, size=(shape.rows, shape.genes)),
                 rng.integers(0, 5, size=shape.rows)) for _ in range(shape.custodians)]
    thresholds = np.array([[1000.0, 0.0]] * shape.custodians)
    return datasets, thresholds


def make_config(shape: Shape, seed: int):
    from silosynth.pipeline import PipelineConfig

    config = PipelineConfig(k_folds=shape.k_folds, max_loops=4, hyperparams=shape.hyperparams,
                            seed=seed, n_custodians=shape.custodians, lr_epochs=shape.lr_epochs)
    config.validate()
    return config


def traffic(counts: dict) -> dict:
    """The exact counts of one operation: pid -> (rounds, bytes, messages)."""
    return {int(pid): (c["rounds"], c["bytes"], c["messages"]) for pid, c in counts.items()}


def src_digest() -> str:
    h = hashlib.sha256()
    pkg = os.path.join(ROOT, "src", "silosynth")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()[:16]


def cross_check_counts(shape: Shape, counts: dict) -> list[str]:
    """Traffic depends only on public shapes: every run of this source tree and
    shape, on either transport and with any seed, must count the same."""
    path = os.path.join(OUT, "counts.json")
    key = f"{src_digest()}:{shape}"
    seen = {}
    if os.path.exists(path):
        with open(path) as fh:
            seen = json.load(fh)
    mine = {str(pid): list(v) for pid, v in sorted(counts.items())}
    if key in seen:
        if seen[key] != mine:
            return [f"traffic {mine} differs from an earlier run of the same shape: {seen[key]}"]
        return []
    seen[key] = mine
    tmp = path + f".{os.getpid()}"
    with open(tmp, "w") as fh:
        json.dump(seen, fh, indent=1)
    os.replace(tmp, path)
    return []


class Run:
    """One benchmark invocation: operations, their failures and problems."""

    def __init__(self, workload: str, seed: int, smoke: bool):
        from ops import TcpFiles

        self.name = f"{workload}-seed{seed}{'-smoke' if smoke else ''}"
        self.transport, full, small = WORKLOADS[workload]
        self.shape = small if smoke else full
        self.inputs = make_inputs(self.shape, seed)
        self.config = make_config(self.shape, seed)
        self.workdir = os.path.join(OUT, f"work-{workload}-{os.getpid()}")
        os.makedirs(self.workdir, exist_ok=True)
        self.files = TcpFiles(self.workdir, self.inputs, self.config) if self.transport == "tcp" else None
        self.attempted = self.failed = 0
        self.problems: list[str] = []

    def op(self, instrument, setup_only=False):
        """One operation; ``setup_only`` applies in-process only."""
        from ops import local_op, tcp_op
        from tracing import Tracer

        self.attempted += 1
        traced = isinstance(instrument, Tracer)
        spans = os.path.join(OUT, f"trace-{self.name}")
        try:
            if self.transport == "local":
                r = local_op(self.inputs, self.config, instrument, setup_only)
                if traced:
                    instrument.save_spans(spans + ".npz")
                return r
            return tcp_op(self.files, self.shape.custodians, instrument,
                          spans if traced else None, tag=f"op{self.attempted}")
        except Exception as exc:  # noqa: BLE001 - a failed operation is counted, not fatal
            self.failed += 1
            print(f"operation failed: {exc!r}", file=sys.stderr)
            traceback.print_exc(file=sys.stderr)
            return None

    def check(self, ops: list) -> None:
        """Output and traffic checks for every completed full operation."""
        from checks import check_output, mirror

        expected = mirror(self.inputs, self.config)
        for r in ops:
            bad = check_output(r.output, self.inputs, self.config, expected, self.workdir)
            if bad:
                self.failed += 1
                self.problems += bad
        self.check_counts(ops)

    def check_counts(self, ops: list) -> None:
        full = [traffic(r.counts) for r in ops]
        if any(t != full[0] for t in full):
            self.problems.append(f"traffic differs between operations of one run: {full}")
        elif full:
            self.problems += cross_check_counts(self.shape, full[0])

    def close(self):
        shutil.rmtree(self.workdir, ignore_errors=True)


def end_to_end(run: Run, seconds: float) -> tuple[dict, dict]:
    from tracing import Meter, now

    setups, ops = [], []
    t_start = now()
    while True:
        if run.transport == "local":
            setups += [run.op(Meter(), setup_only=True) for _ in range(LOCAL_SETUPS_PER_OP)]
        r = run.op(Meter())
        if r is not None:
            ops.append(r)
        longest = max([o.setup_s + o.run_s for o in ops], default=0.0)
        if now() - t_start + longest > seconds:
            break
    setups = [r for r in setups if r is not None]
    if run.transport == "local":
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    else:
        peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    if not ops:
        return {}, {}
    run.check(ops)
    setup_counts = [traffic(r.counts) for r in setups]
    if any(t != setup_counts[0] for t in setup_counts):
        run.problems.append("set-up traffic differs between operations of one run")
    pids = ops[0].counts.keys()
    rounds = max(ops[0].counts[p]["rounds"] for p in pids)
    sent = max(ops[0].counts[p]["bytes"] for p in pids)
    run_s = statistics.median([r.run_s for r in ops])
    values = {
        "setup_s": statistics.median([r.setup_s for r in (setups if setups else ops)]),
        "run_s": run_s,
        "cpu_s": statistics.median([r.cpu_s for r in ops]),
        "rounds": rounds,
        "sent_mb": sent / 1e6,
        "projected_wan_s": run_s + rounds * RTT_S + sent / BANDWIDTH_BYTES_S,
        "peak_rss_mb": peak_kb * 1024 / 1e6,
    }
    detail = {"setups_s": [r.setup_s for r in setups],
              "ops": [{"setup_s": r.setup_s, "run_s": r.run_s, "cpu_s": r.cpu_s} for r in ops]}
    return {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}, detail


def per_layer(run: Run) -> tuple[dict, dict]:
    from layers import layer_metrics
    from tracing import Meter, Tracer

    untraced = run.op(Meter())
    traced = run.op(Tracer())
    ops = [r for r in (untraced, traced) if r is not None]
    if len(ops) < 2:
        return {}, {}
    run.check(ops)
    metrics, detail = layer_metrics(traced, run.shape)
    run.problems += detail.pop("problems")
    overhead = traced.run_s - untraced.run_s
    metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    detail["untraced_run_s"] = untraced.run_s
    detail["traced_run_s"] = traced.run_s
    return metrics, detail


def run_benchmark(workload: str, seed: int, seconds: float, trace: bool, smoke: bool = False) -> dict:
    run = Run(workload, seed, smoke)
    try:
        if trace:
            metrics, detail = per_layer(run)
        else:
            metrics, detail = end_to_end(run, seconds)
    finally:
        run.close()
    for p in run.problems:
        print(f"check failed: {p}", file=sys.stderr)
    result = {"correct": not run.problems and bool(metrics), "attempted": run.attempted,
              "failed": run.failed, "metrics": metrics}
    with open(os.path.join(OUT, f"result-{run.name}-trace{int(trace)}.json"), "w") as fh:
        json.dump(dict(result, detail=detail, problems=run.problems), fh, indent=1)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny shapes, for the benchmark's own tests")
    args = parser.parse_args(argv)
    _bootstrap()
    pin_to_one_cpu()
    result = run_benchmark(args.workload, args.seed, args.seconds, bool(args.trace), args.smoke)
    print(json.dumps(result))
    return 0 if result["metrics"] else 1


if __name__ == "__main__":
    sys.exit(main())
