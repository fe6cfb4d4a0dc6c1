"""Per-task evaluation records and split-level aggregates."""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from pathlib import Path


@dataclass
class TaskRecord:
    start_id: int
    goal: str
    seen: bool
    success: bool
    steps: int
    edges_crossed: int
    planned_edges: int
    plan_cost: float
    failure_reason: str | None


def _mean(values: list[float]) -> float | None:
    return sum(values) / len(values) if values else None


def aggregate(records: list[TaskRecord]) -> dict:
    """Split success rates, per-split means over successful episodes, and
    the overall primitive-actions-per-edge ratio."""
    out: dict = {}
    successes = [r for r in records if r.success]
    for split, flag in (("seen", True), ("unseen", False)):
        group = [r for r in records if r.seen == flag]
        wins = [r for r in group if r.success]
        out[f"{split}_total"] = len(group)
        out[f"{split}_successes"] = len(wins)
        out[f"{split}_success_rate"] = len(wins) / len(group) if group else None
        out[f"{split}_mean_edges"] = _mean([float(r.edges_crossed) for r in wins])
        out[f"{split}_mean_steps"] = _mean([float(r.steps) for r in wins])
    total_steps = sum(r.steps for r in successes)
    total_edges = sum(r.edges_crossed for r in successes)
    out["actions_per_edge"] = total_steps / total_edges if total_edges else None
    return out


def format_table(records: list[TaskRecord], agg: dict) -> str:
    lines = ["start goal         split  ok steps edges planned cost      failure"]
    for r in records:
        lines.append(
            f"{r.start_id:<5d} {r.goal:<12s} {'seen' if r.seen else 'unseen':<6s} "
            f"{int(r.success):<2d} {r.steps:<5d} {r.edges_crossed:<5d} {r.planned_edges:<7d} "
            f"{r.plan_cost!r:<9s} {r.failure_reason or '-'}"
        )
    lines.append("")
    for key in sorted(agg):
        lines.append(f"{key} = {agg[key]!r}")
    return "\n".join(lines) + "\n"


def save_metrics(records: list[TaskRecord], out_dir: Path) -> dict:
    agg = aggregate(records)
    out_dir = Path(out_dir)
    (out_dir / "metrics.txt").write_text(format_table(records, agg))
    payload = {"aggregates": agg, "per_task": [asdict(r) for r in records]}
    (out_dir / "metrics.json").write_text(json.dumps(payload, indent=1, sort_keys=True))
    return agg
