"""Episode metrics and cross-run aggregation.

Forward distance is the drop in L1 distance to the target between the
episode's start and end, reported in 32-px move units. Format accuracy
is the fraction of queried turns whose reply matched the stage's output
format. Move accuracy judges each formatted move against the agent's
objective at decision time; by default only move turns enter the
denominator (shooting is neither right nor wrong), with the
all-formatted-turns denominator available behind a flag.

All functions are pure over turn records, so recomputing from a replay
log reproduces live-run values exactly.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field
from statistics import mean

from .stages import is_navigation
from .types import MOVE_DIRECTIONS, MOVE_STEP, Action, Pos, TurnRecord

DENOMINATOR_MODES = ("moves", "formatted")


class MetricsError(Exception):
    pass


def forward_distance(p_s: Pos, p_e: Pos, p_target: Pos) -> float:
    """(L1(p_s - p_target) - L1(p_e - p_target)) / 32."""
    return (p_s.l1(p_target) - p_e.l1(p_target)) / MOVE_STEP


def format_accuracy(records: list[TurnRecord]) -> float:
    if not records:
        raise MetricsError("format accuracy needs at least one turn")
    return sum(1 for r in records if r.format_ok) / len(records)


def move_accuracy(records: list[TurnRecord], denominator: str = "moves") -> float | None:
    """Fraction of formatted moves that strictly shrink the L1 gap to the
    objective; None when the denominator is empty."""
    if denominator not in DENOMINATOR_MODES:
        raise MetricsError(f"denominator must be one of {DENOMINATOR_MODES}")
    correct = 0
    moves = 0
    formatted = 0
    for r in records:
        if not r.format_ok:
            continue
        formatted += 1
        if r.action is None or r.action is Action.SHOOT or r.objective is None:
            continue
        moves += 1
        if _move_is_correct(r):
            correct += 1
    denom = moves if denominator == "moves" else formatted
    if denom == 0:
        return None
    return correct / denom


def _move_is_correct(r: TurnRecord) -> bool:
    dx, dy = MOVE_DIRECTIONS[r.action].delta
    before = r.pos_before
    after = Pos(before.x + dx * MOVE_STEP, before.y + dy * MOVE_STEP)
    return after.l1(r.objective) < before.l1(r.objective)


def episode_score(records: list[TurnRecord], primary_ids: list[int]) -> int:
    known = {r.agent for r in records}
    unknown = set(primary_ids) - known
    if unknown:
        raise MetricsError(f"unknown agent ids {sorted(unknown)}")
    return sum(r.score_delta for r in records if r.agent in primary_ids)


def goal_completion(f_dis: float, initial_distance: float) -> float:
    if initial_distance <= 0:
        raise MetricsError("initial distance must be positive")
    return max(-1.0, min(1.0, f_dis / initial_distance))


# ----------------------------------------------------------------------
# per-episode rollup
# ----------------------------------------------------------------------


@dataclass
class AgentMetrics:
    f_dis: float
    f_acc: float
    m_acc: float | None
    score: int
    initial_distance: float
    goal_completion: float | None


@dataclass
class EpisodeSummary:
    """One primary-side row: what the CSV and aggregation consume."""

    stage_id: int
    model: str
    seed: int
    f_dis: float
    f_acc: float
    m_acc: float | None
    score: int
    goal_completion: float | None
    end_reason: str
    turns: int
    per_agent: dict[int, AgentMetrics] = field(default_factory=dict)


def compute_episode(
    stage_id: int,
    model: str,
    seed: int,
    records: list[TurnRecord],
    targets: dict[int, Pos],
    primary_ids: list[int],
    end_reason: str,
    turns: int,
    denominator: str = "moves",
) -> EpisodeSummary:
    """Roll per-agent turn records up into one summary row.

    `targets` maps each agent to its distance target (the goal base on
    navigation stages, the nearest enemy base at spawn otherwise).
    """
    by_agent: dict[int, list[TurnRecord]] = {}
    for r in records:
        by_agent.setdefault(r.agent, []).append(r)

    per_agent: dict[int, AgentMetrics] = {}
    for agent_id, recs in sorted(by_agent.items()):
        recs.sort(key=lambda r: r.turn)
        p_s = recs[0].pos_before
        p_e = recs[-1].pos_after
        target = targets.get(agent_id)
        if target is None:
            raise MetricsError(f"no distance target for agent {agent_id}")
        f_dis = forward_distance(p_s, p_e, target)
        initial = p_s.l1(target) / MOVE_STEP
        per_agent[agent_id] = AgentMetrics(
            f_dis=f_dis,
            f_acc=format_accuracy(recs),
            m_acc=move_accuracy(recs, denominator),
            score=sum(r.score_delta for r in recs),
            initial_distance=initial,
            goal_completion=goal_completion(f_dis, initial) if initial > 0 else None,
        )

    primary = [per_agent[a] for a in primary_ids if a in per_agent]
    if not primary:
        raise MetricsError("no records for any primary agent")
    m_accs = [p.m_acc for p in primary if p.m_acc is not None]
    completions = [
        p.goal_completion for p in primary if p.goal_completion is not None
    ]
    return EpisodeSummary(
        stage_id=stage_id,
        model=model,
        seed=seed,
        f_dis=mean(p.f_dis for p in primary),
        f_acc=mean(p.f_acc for p in primary),
        m_acc=mean(m_accs) if m_accs else None,
        score=sum(p.score for p in primary),
        goal_completion=(
            mean(completions)
            if completions and is_navigation(stage_id)
            else None
        ),
        end_reason=end_reason,
        turns=turns,
        per_agent=per_agent,
    )


# ----------------------------------------------------------------------
# cross-run aggregation
# ----------------------------------------------------------------------


@dataclass
class StageAggregate:
    stage_id: int
    model: str
    runs: int
    f_dis: float
    f_acc: float
    m_acc: float | None
    score: float
    goal_completion: float | None


@dataclass
class MetricsReport:
    stages: list[StageAggregate]
    cross_stage_avg: dict[str, dict[str, float]]  # model -> {avg_dis, avg_score}


def aggregate(episodes: list[EpisodeSummary]) -> MetricsReport:
    """Arithmetic means per (model, stage), plus per-model averages of the
    stage means (distance for navigation stages, score for the rest)."""
    if not episodes:
        raise MetricsError("nothing to aggregate")
    groups: dict[tuple[str, int], list[EpisodeSummary]] = {}
    for ep in episodes:
        groups.setdefault((ep.model, ep.stage_id), []).append(ep)

    stages = []
    for (model, stage_id), eps in sorted(groups.items()):
        m_accs = [e.m_acc for e in eps if e.m_acc is not None]
        completions = [e.goal_completion for e in eps if e.goal_completion is not None]
        stages.append(
            StageAggregate(
                stage_id=stage_id,
                model=model,
                runs=len(eps),
                f_dis=mean(e.f_dis for e in eps),
                f_acc=mean(e.f_acc for e in eps),
                m_acc=mean(m_accs) if m_accs else None,
                score=mean(e.score for e in eps),
                goal_completion=mean(completions) if completions else None,
            )
        )

    cross: dict[str, dict[str, float]] = {}
    for model in sorted({s.model for s in stages}):
        own = [s for s in stages if s.model == model]
        nav = [s.f_dis for s in own if is_navigation(s.stage_id)]
        combat = [s.score for s in own if not is_navigation(s.stage_id)]
        entry: dict[str, float] = {}
        if nav:
            entry["avg_dis"] = mean(nav)
        if combat:
            entry["avg_score"] = mean(combat)
        cross[model] = entry
    return MetricsReport(stages=stages, cross_stage_avg=cross)


CSV_COLUMNS = (
    "stage",
    "model",
    "run",
    "f_dis",
    "f_acc",
    "m_acc",
    "score",
    "goal_completion",
    "end_reason",
    "turns",
)


def episodes_csv(episodes: list[EpisodeSummary]) -> str:
    """Deterministic per-episode CSV (sorted by model, stage, seed)."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for ep in sorted(episodes, key=lambda e: (e.model, e.stage_id, e.seed)):
        writer.writerow(
            [
                ep.stage_id,
                ep.model,
                ep.seed,
                f"{ep.f_dis:.4f}",
                f"{ep.f_acc:.4f}",
                "" if ep.m_acc is None else f"{ep.m_acc:.4f}",
                ep.score,
                "" if ep.goal_completion is None else f"{ep.goal_completion:.4f}",
                ep.end_reason,
                ep.turns,
            ]
        )
    return out.getvalue()


def summary_table(report: MetricsReport) -> str:
    """Human-readable per-stage table with the cross-stage average columns."""
    lines = []
    header = (
        f"{'model':<24} {'stage':>5} {'runs':>4} {'F Dis':>8} {'F Acc':>6} "
        f"{'M Acc':>6} {'Score':>7} {'Goal%':>6}"
    )
    lines.append(header)
    lines.append("-" * len(header))
    for s in report.stages:
        lines.append(
            f"{s.model:<24} {s.stage_id:>5} {s.runs:>4} {s.f_dis:>8.2f} "
            f"{s.f_acc:>6.2f} "
            f"{'-' if s.m_acc is None else f'{s.m_acc:.2f}':>6} "
            f"{s.score:>7.2f} "
            f"{'-' if s.goal_completion is None else f'{s.goal_completion:.2f}':>6}"
        )
    lines.append("")
    for model, entry in report.cross_stage_avg.items():
        parts = [f"{model}:"]
        if "avg_dis" in entry:
            parts.append(f"Avg. Dis = {entry['avg_dis']:.2f}")
        if "avg_score" in entry:
            parts.append(f"Avg. Score = {entry['avg_score']:.2f}")
        lines.append("  ".join(parts))
    return "\n".join(lines) + "\n"
