"""Human-readable run report: decision, budget ledger, per-protocol costs."""

from __future__ import annotations

from .config import canonical_text
from .pipeline import PipelineConfig, RunResult


def _section(title: str, body: list[str]) -> list[str]:
    return [title, "-" * 40, *body, ""]


def render_report(result: RunResult, config: PipelineConfig, party_label: str = "local") -> str:
    lines = [
        "synthetic data publish run report",
        "=" * 40,
        f"party: {party_label}",
        f"decision: {'publish' if result.publish else 'no-publish'}",
        f"selected hyperparameter: {result.h_selected if result.publish else '-'}",
        f"loops executed: {len(result.loops)}",
    ]
    lines += [f"  loop {i}: candidate={rec.hyperparam} vote={'pass' if rec.vote_bit else 'fail'}"
              for i, rec in enumerate(result.loops, start=1)]
    lines.append("")
    budget = [f"  loop {i + 1}: allotted (eps_s={config.eps_s}, delta_s={config.delta_s}) "
              "- nothing published, budget reset" for i in range(len(result.loops))]
    if result.publish:
        budget += [f"  publish: consumed eps_s={config.eps_s}, delta_s={config.delta_s}",
                   f"  publish: consumed eps_p={config.eps_p}, delta_p={config.delta_p} "
                   "(preprocessing; unconsumed by this instantiation - exact quantiles, not DP)",
                   f"  claimed total: (eps={config.eps_s + config.eps_p}, "
                   f"delta={config.delta_s + config.delta_p})"]
    else:
        budget.append("  nothing published: total consumed budget (eps=0, delta=0)")
    lines += _section("privacy budget ledger", budget)
    lines += _section("per-protocol communication (this party)",
                      [f"  {'label':<12}{'bytes':>12}{'messages':>10}{'rounds':>8}{'seconds':>10}"]
                      + [f"  {label:<12}{e['bytes_sent']:>12}{e['messages_sent']:>10}"
                         f"{e['rounds']:>8}{e['seconds']:>10.3f}" for label, e in sorted(result.ledger.items())])
    for title, log in (("openings (public reconstructions)", result.opening_log),
                       ("directed reveals to the generator enclave (DP-protected)", result.reveal_log)):
        lines += _section(title, [f"  {reason}: {count} value(s)" for reason, count in log] or ["  none"])
    lines += _section("configuration echo", ["  " + ln for ln in canonical_text(config).splitlines()])
    return "\n".join(lines)
