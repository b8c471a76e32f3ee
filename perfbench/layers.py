"""Per-layer metrics of one traced operation, named ``<module>.<function>.<quantity>``.

Every quantity is the maximum over the parties (party 0 is the custodian
side), so counts are those of the busiest party and a span that runs at
party 1 only (the generator enclave) shows party 1's figure.
"""

from __future__ import annotations

from tracing import BYTES, CALLS, ELEMENTS, RNG_SPAN, ROOT_SPAN, ROUNDS, S, SELF_S, WAIT_S

SELF_S_TOLERANCE = 0.05

COLUMNS = {"calls": CALLS, "elements": ELEMENTS, "s": S, "self_s": SELF_S,
           "rounds": ROUNDS, "mb": BYTES, "wait_s": WAIT_S}
UNITS = {"calls": "count", "elements": "count", "words": "count", "s": "s", "self_s": "s",
         "rounds": "count", "mb": "MB", "wait_s": "s", "messages": "count"}

LAYERS = [
    ("pipeline", ("run_fold", "secret_vote", "publish_path"), ("calls", "s", "rounds", "mb")),
    ("evaluation", ("lr_train", "lr_accuracy", "wle"), ("s", "self_s", "rounds", "mb", "wait_s")),
    ("primitives", ("sort_columns", "reciprocal_fx", "div_fx", "mul_fx", "lt", "eq_zero", "gauss01"),
     ("calls", "elements", "self_s", "rounds", "mb")),
    ("circuits", ("trunc_shares", "add_components", "mul_shares", "matmul_shares", "and_packed", "b2a"),
     ("calls", "elements", "self_s", "rounds", "mb")),
    ("binning", ("bin_train", "bin_with_cuts", "compute_bin_means", "inv_bin"), ("s", "self_s", "rounds", "mb")),
    ("marginals", ("noisy_marginals", "marginal_counts"), ("s", "self_s", "rounds", "mb")),
    ("generator", ("generate_bridge", "generate_synthetic"), ("s", "self_s")),
    ("ingest", ("custodian_components", "ingest_all"), ("s", "mb")),
]
# Left out because they repeat another metric exactly (the 128-metric cap):
# one round and one word per element sent in every multiplication gate, two
# sequential gates and two words per element in b2a; custodian-side sharing
# sends nothing; the generator has no child spans.
OMITTED = {
    "circuits.mul_shares.rounds", "circuits.mul_shares.mb",
    "circuits.and_packed.rounds", "circuits.and_packed.mb",
    "circuits.matmul_shares.rounds", "circuits.b2a.rounds", "circuits.b2a.mb",
    "ingest.custodian_components.mb", "generator.generate_synthetic.self_s",
}


def metric_names() -> list[str]:
    names = [f"{mod}.{fn}.{q}" for mod, fns, qs in LAYERS for fn in fns for q in qs]
    names = [n for n in names if n not in OMITTED]
    names.insert(names.index("evaluation.wle.s"), "evaluation.lr_train.rounds_per_epoch")
    names += [f"{RNG_SPAN}.calls", f"{RNG_SPAN}.words", f"{RNG_SPAN}.s",
              "runtime.messages", "runtime.send_s", "runtime.recv_wait_s",
              "runtime.frame_write_s", "runtime.frame_read_s", "runtime.handshake_s",
              "cli.connect_s", "trace.named_share", "trace.overhead_s"]
    return names


def unit_of(name: str) -> str:
    if name == "trace.named_share":
        return "%"
    if name.startswith("runtime.") or name.startswith("cli.") or name.startswith("trace."):
        return "count" if name == "runtime.messages" else "s"
    if name.endswith(".rounds_per_epoch"):
        return "count"
    return UNITS[name.rsplit(".", 1)[1]]


def _span_max(parties: dict, span: str, column: int) -> float:
    return max((p["spans"].get(span, [0] * 7)[column] for p in parties.values()), default=0)


def layer_metrics(op, shape) -> tuple[dict, dict]:
    """The per-layer metrics (all but the tracing overhead) and a detail record
    with the consistency checks' inputs and any problems they found."""
    parties = {int(pid): p for pid, p in op.trace["parties"].items()}
    counts = {int(pid): c for pid, c in op.counts.items()}
    values = {}
    for mod, fns, qs in LAYERS:
        for fn in fns:
            for q in qs:
                name = f"{mod}.{fn}.{q}"
                if name not in OMITTED:
                    v = _span_max(parties, f"{mod}.{fn}", COLUMNS[q])
                    values[name] = v / 1e6 if q == "mb" else v
    lr = [p["spans"].get("evaluation.lr_train", [0] * 7) for p in parties.values()]
    values["evaluation.lr_train.rounds_per_epoch"] = max(
        (row[ROUNDS] / (row[CALLS] * shape.lr_epochs) for row in lr if row[CALLS]), default=0.0)
    values[f"{RNG_SPAN}.calls"] = _span_max(parties, RNG_SPAN, CALLS)
    values[f"{RNG_SPAN}.words"] = _span_max(parties, RNG_SPAN, ELEMENTS)
    values[f"{RNG_SPAN}.s"] = _span_max(parties, RNG_SPAN, S)
    values["runtime.messages"] = max(c["messages"] for c in counts.values())
    values["runtime.send_s"] = max(c["send_s"] for c in counts.values())
    values["runtime.recv_wait_s"] = max(c["wait_s"] for c in counts.values())
    values["runtime.frame_write_s"] = op.trace["frame_write_s"]
    values["runtime.frame_read_s"] = op.trace["frame_read_s"]
    values["runtime.handshake_s"] = _span_max(parties, "runtime.setup_handshake", S)
    values["cli.connect_s"] = op.connect_s
    # Share of run_s spent inside the named layer spans, i.e. everything under
    # run_pipeline except its own self time; a hot path without a span lowers it.
    named = {pid: p["run_self_s"] - p["spans"].get(ROOT_SPAN, [0] * 7)[SELF_S]
             for pid, p in parties.items() if pid}
    values["trace.named_share"] = 100 * min(named.values()) / op.run_s

    problems = []
    for pid in (1, 2, 3):
        p, rounds = parties.get(pid), counts[pid]["rounds"]
        if p is None or p["top_rounds"] != rounds:
            problems.append(f"party {pid}: top-level spans hold {p and p['top_rounds']} rounds, "
                            f"the transport counted {rounds}")
        elif abs(p["run_self_s"] - op.run_s) > SELF_S_TOLERANCE * op.run_s:
            problems.append(f"party {pid}: self times sum to {p['run_self_s']:.3f} s, "
                            f"the run took {op.run_s:.3f} s")
    detail = {
        "counts": counts,
        "ledger_totals": op.ledger,
        "self_s_sum": {pid: p["run_self_s"] for pid, p in parties.items()},
        "named_s": named,
        "top_level_rounds": {pid: p["top_rounds"] for pid, p in parties.items()},
        "problems": problems,
    }
    return {k: {"value": v, "unit": unit_of(k)} for k, v in values.items()}, detail
