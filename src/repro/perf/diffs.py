"""Per-metric deltas between two ledger entries, with noise bands.

Each ledger entry stores every gate metric's *raw samples* (one per
engine repeat), not just the gated median.  The spread of those samples
is the run's own noise estimate; a delta between two entries is flagged
**significant** only when it exceeds the larger of the two runs' noise
bands — so ``repro perf diff`` separates "the code got slower" from
"the machine was noisy".  A gate recorded in only one of the two
entries (added or deleted between them) has nothing to compare; the
rendered diff names it instead of dropping it silently.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from .ledger import LedgerEntry

__all__ = ["MetricDelta", "diff_entries", "render_diff"]


@dataclass(frozen=True)
class MetricDelta:
    """One metric compared across two runs."""

    gate: str
    metric: str
    a: float
    b: float
    noise: float  #: Combined noise band (max of the two sample spreads).
    informational: bool  #: No check asserted this metric in either run.

    @property
    def delta(self) -> float:
        return self.b - self.a

    @property
    def pct(self) -> float:
        return (self.b - self.a) / self.a if self.a else 0.0

    @property
    def significant(self) -> bool:
        """Outside the noise band (a zero band makes any change
        significant — e.g. bit-identity flags)."""
        return abs(self.delta) > self.noise

    def render(self) -> str:
        tag = ""
        if self.informational:
            tag = "  [informational]"
        elif not self.significant:
            tag = "  [within noise]"
        return (
            f"{self.gate}/{self.metric}: {self.a:.6g} -> {self.b:.6g} "
            f"({self.pct:+.1%}, noise band ±{self.noise:.3g}){tag}"
        )


def _spread(samples: list[float] | None) -> float:
    if not samples:
        return 0.0
    return max(samples) - min(samples)


def diff_entries(a: LedgerEntry, b: LedgerEntry) -> list[MetricDelta]:
    """Every metric present in both entries, gate by gate."""
    deltas: list[MetricDelta] = []
    for gate_b in b.gates:
        name = gate_b.get("gate")
        gate_a = a.gate(name) if name else None
        if gate_a is None:
            continue
        info_a = set(gate_a.get("informational", []))
        info_b = set(gate_b.get("informational", []))
        metrics_a: dict[str, Any] = gate_a.get("metrics", {})
        metrics_b: dict[str, Any] = gate_b.get("metrics", {})
        samples_a: dict[str, list[float]] = gate_a.get("samples", {})
        samples_b: dict[str, list[float]] = gate_b.get("samples", {})
        for metric in sorted(set(metrics_a) & set(metrics_b)):
            deltas.append(
                MetricDelta(
                    gate=name,
                    metric=metric,
                    a=float(metrics_a[metric]),
                    b=float(metrics_b[metric]),
                    noise=max(
                        _spread(samples_a.get(metric)),
                        _spread(samples_b.get(metric)),
                    ),
                    informational=metric in info_a or metric in info_b,
                )
            )
    return deltas


def render_diff(a: LedgerEntry, b: LedgerEntry, deltas: list[MetricDelta]) -> str:
    """Human-readable diff, significant changes first."""
    lines = [
        f"perf diff: {a.sha[:12]} ({a.recorded_at}) -> "
        f"{b.sha[:12]} ({b.recorded_at})",
    ]
    if a.machine.get("host_id") != b.machine.get("host_id"):
        lines.append(
            "  WARNING: entries come from different machines "
            f"({a.machine.get('host_id')} vs {b.machine.get('host_id')}) — "
            "absolute times are not comparable"
        )
    for side, entry, other in (("A", a, b), ("B", b, a)):
        only = [str(g.get("gate")) for g in entry.gates if other.gate(g.get("gate")) is None]
        if only:
            lines.append(f"  gate(s) only in {side} ({entry.sha[:12]}): {', '.join(only)}")
    if not deltas:
        lines.append("  no common metrics to compare")
        return "\n".join(lines)
    significant = [d for d in deltas if d.significant and not d.informational]
    rest = [d for d in deltas if not (d.significant and not d.informational)]
    if significant:
        lines.append(f"  {len(significant)} significant change(s):")
        lines.extend(f"    {d.render()}" for d in significant)
    else:
        lines.append("  no significant changes outside noise bands")
    if rest:
        lines.append(f"  {len(rest)} other metric(s):")
        lines.extend(f"    {d.render()}" for d in rest)
    return "\n".join(lines)
