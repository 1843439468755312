"""Episode metrics and cross-run aggregation.

Forward distance is the drop in L1 distance to the target between the
episode's start and end, reported in 32-px move units. Format accuracy
is the fraction of queried turns whose reply matched the stage's output
format. Move accuracy judges each formatted move against the agent's
objective at decision time; by default only move turns enter the
denominator (shooting is neither right nor wrong), with the
all-formatted-turns denominator available behind a flag.

``Scores`` is the one definition of the five per-episode metrics (F Dis,
F Acc, M Acc, Score and goal completion), in order: an agent's metrics,
the episode row, the stage means and the end record are all ``Scores``,
and ``SCORES`` names its fields for the columns of ``episodes.csv``.
``write_reports`` writes a suite's ``episodes.csv`` and ``summary.txt``,
for ``bab run`` and ``bab report`` alike.

All other functions are pure over turn records, so recomputing from a
replay log reproduces live-run values exactly.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field, fields
from pathlib import Path
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


def goal_completion(f_dis: float, initial_distance: float) -> float:
    if initial_distance <= 0:
        raise MetricsError("initial distance must be positive")
    return max(-1.0, min(1.0, f_dis / initial_distance))


def mean_of(values) -> float | None:
    """The mean of the values that are not None; None when none is left."""
    present = [v for v in values if v is not None]
    return mean(present) if present else None


# ----------------------------------------------------------------------
# per-episode rollup
# ----------------------------------------------------------------------


@dataclass
class Scores:
    """The five per-episode metrics, in the order that every report lists
    them. An episode's score is a sum of hits, an int; a stage's is a mean."""

    f_dis: float
    f_acc: float
    m_acc: float | None
    score: float
    goal_completion: float | None


SCORES = tuple(f.name for f in fields(Scores))


@dataclass
class EpisodeSummary(Scores):
    """One primary-side row: what the CSV and aggregation consume."""

    stage_id: int
    model: str
    seed: int
    end_reason: str
    turns: int
    per_agent: dict[int, Scores] = field(default_factory=dict)


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
    navigation stages, the nearest enemy base at spawn otherwise). The
    primary side's row holds the means of its agents' metrics, but its
    score is their sum, and goal completion is kept on navigation stages
    only.
    """
    by_agent: dict[int, list[TurnRecord]] = {}
    for r in records:
        by_agent.setdefault(r.agent, []).append(r)

    per_agent: dict[int, Scores] = {}
    for agent_id, recs in sorted(by_agent.items()):
        recs.sort(key=lambda r: r.turn)
        p_s = recs[0].pos_before
        p_e = recs[-1].pos_after
        target = targets.get(agent_id)
        if target is None:
            raise MetricsError(f"no distance target for agent {agent_id}")
        f_dis = forward_distance(p_s, p_e, target)
        initial = p_s.l1(target) / MOVE_STEP
        per_agent[agent_id] = Scores(
            f_dis=f_dis,
            f_acc=format_accuracy(recs),
            m_acc=move_accuracy(recs, denominator),
            score=sum(r.score_delta for r in recs),
            goal_completion=goal_completion(f_dis, initial) if initial > 0 else None,
        )

    primary = [per_agent[a] for a in primary_ids if a in per_agent]
    if not primary:
        raise MetricsError("no records for any primary agent")
    rollup = {name: mean_of(getattr(p, name) for p in primary) for name in SCORES}
    rollup["score"] = sum(p.score for p in primary)
    if not is_navigation(stage_id):
        rollup["goal_completion"] = None
    return EpisodeSummary(stage_id=stage_id, model=model, seed=seed, **rollup,
                          end_reason=end_reason, turns=turns, per_agent=per_agent)


# ----------------------------------------------------------------------
# cross-run aggregation
# ----------------------------------------------------------------------


@dataclass
class StageAggregate(Scores):
    stage_id: int
    model: str
    runs: int


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

    stages = [
        StageAggregate(stage_id=stage_id, model=model, runs=len(eps),
                       **{name: mean_of(getattr(e, name) for e in eps) for name in SCORES})
        for (model, stage_id), eps in sorted(groups.items())
    ]

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


CSV_COLUMNS = ("stage", "model", "run", *SCORES, "end_reason", "turns")


def episodes_csv(episodes: list[EpisodeSummary]) -> str:
    """Deterministic per-episode CSV (sorted by model, stage, seed). A
    rate is written to four places, a count (the score) as it is and a
    missing value as an empty cell."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for ep in sorted(episodes, key=lambda e: (e.model, e.stage_id, e.seed)):
        scores = [getattr(ep, name) for name in SCORES]
        writer.writerow([ep.stage_id, ep.model, ep.seed,
                         *("" if v is None else f"{v:.4f}" if isinstance(v, float) else v
                           for v in scores),
                         ep.end_reason, ep.turns])
    return out.getvalue()


def write_reports(episodes: list[EpisodeSummary], out_dir: Path) -> str:
    """Write the episodes' ``episodes.csv`` and their ``summary.txt`` into
    ``out_dir``; returns the summary table."""
    table = summary_table(aggregate(episodes))
    (out_dir / "episodes.csv").write_text(episodes_csv(episodes), encoding="utf-8")
    (out_dir / "summary.txt").write_text(table, encoding="utf-8")
    return table


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
