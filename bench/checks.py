"""Output checks the benchmark applies to every episode of every round.

The log is parsed here with ``json`` rather than with ``bab.replay``, and
F Dis, F Acc, M Acc and Score are recomputed from the paper's definitions
rather than with ``bab.metrics``. The other checks are properties every
correct episode has: moves are single 32-px steps inside the map, tanks
never overlap, scores add up, and episodes end for a reason that holds.
``check_episode`` returns the problems it found; none means it passed.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
from pathlib import Path

MAP_SIZE = 512
FOOTPRINT = 32
STEP = 32
MOVE_DELTAS = {
    "#Move_up#": (0, -1),
    "#Move_down#": (0, 1),
    "#Move_left#": (-1, 0),
    "#Move_right#": (1, 0),
}
METRIC_KEYS = ("f_dis", "f_acc", "m_acc", "score", "goal_completion")


def parse_log(path: Path) -> tuple[dict, list[dict], dict | None]:
    header, turns, end = {}, [], None
    for line in path.read_text(encoding="utf-8").splitlines():
        record = json.loads(line)
        if record["kind"] == "header":
            header = record
        elif record["kind"] == "turn":
            turns.append(record)
        elif record["kind"] == "end":
            end = record
    return header, turns, end


def _l1(a, b) -> int:
    return abs(a[0] - b[0]) + abs(a[1] - b[1])


def paper_metrics(header: dict, turns: list[dict]) -> dict:
    """F Dis, F Acc, M Acc and Score of the primary side.

    Per primary agent: F Dis is the drop in L1 distance to its target,
    from its first position to its last, in 32-px moves; F Acc the share
    of its replies in the stage's format; M Acc the share of its formatted
    moves whose 32-px step shrinks the L1 gap to that turn's objective.
    The episode takes the mean of F Dis, F Acc and of the defined M Acc
    values, and the sum of the scores.
    """
    by_agent: dict[int, list[dict]] = {}
    for rec in turns:
        by_agent.setdefault(rec["agent"], []).append(rec)
    targets = {int(k): v for k, v in header["targets"].items()}
    f_dis, f_acc, m_acc, score = [], [], [], 0
    for agent in header["primary_ids"]:
        recs = sorted(by_agent.get(agent, []), key=lambda r: r["turn"])
        if not recs:
            continue
        target = targets[agent]
        start, end = recs[0]["pos_before"], recs[-1]["pos_after"]
        f_dis.append((_l1(start, target) - _l1(end, target)) / STEP)
        f_acc.append(sum(r["format_ok"] for r in recs) / len(recs))
        moves = [
            r for r in recs
            if r["format_ok"] and r["action"] in MOVE_DELTAS and r["objective"]
        ]
        if moves:
            right = 0
            for r in moves:
                dx, dy = MOVE_DELTAS[r["action"]]
                x, y = r["pos_before"]
                stepped = (x + dx * STEP, y + dy * STEP)
                right += _l1(stepped, r["objective"]) < _l1(r["pos_before"], r["objective"])
            m_acc.append(right / len(moves))
        score += sum(r["score_delta"] for r in recs)
    return {
        "f_dis": sum(f_dis) / len(f_dis),
        "f_acc": sum(f_acc) / len(f_acc),
        "m_acc": sum(m_acc) / len(m_acc) if m_acc else None,
        "score": score,
    }


def agents_gone_early(last_turn: int, end_turns: int, world) -> bool:
    """Every agent died while the episode went on without them.

    ``run_episode`` then steps NPC-only turns that write no turn record,
    so ``replay_verify`` stops at the last logged turn and reports a final
    world hash mismatch: a fault in the program, not in the benchmark.
    """
    alive = any(t.kind.value == "agent" and t.health > 0 for t in world.tanks.values())
    return not alive and last_turn + 1 < end_turns


def _close(a, b) -> bool:
    if a is None or b is None:
        return a is b
    return math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-12)


def check_episode(path: Path, header: dict, turns: list[dict], end: dict, world,
                  summary, csv_row: dict | None, remote: bool) -> list[str]:
    """Every check on one complete episode log.

    ``header``, ``turns`` and ``end`` are the log as ``parse_log`` read it,
    ``world`` the live final world ``run_episode`` returned, ``summary``
    the ``EpisodeSummary`` that ``metrics_from_log`` recomputed from the
    log, ``csv_row`` the episode's row of ``episodes.csv``.
    """
    name = path.name
    problems: list[str] = []
    if csv_row is None:
        problems.append(f"{name}: no episodes.csv row")

    # the live world, the end record and the log-derived summary agree
    live_hash = hashlib.sha256(world.canonical_bytes()).hexdigest()
    if live_hash != end["world_hash"]:
        problems.append(f"{name}: end-record world hash differs from the live world")
    live = end["metrics"]
    for key in METRIC_KEYS:
        if getattr(summary, key) != live[key]:
            problems.append(f"{name}: metrics_from_log {key}={getattr(summary, key)!r}"
                            f" but the live summary has {live[key]!r}")
        if csv_row is not None:
            shown = "" if live[key] is None else (
                str(live[key]) if key == "score" else f"{live[key]:.4f}")
            if csv_row[key] != shown:
                problems.append(f"{name}: episodes.csv {key}={csv_row[key]!r},"
                                f" live summary {shown!r}")
    ours = paper_metrics(header, turns)
    for key, value in ours.items():
        if not _close(value, live[key]):
            problems.append(f"{name}: recomputed {key}={value!r}, program {live[key]!r}")

    # per-turn properties
    scores: dict[int, int] = {}
    for rec in turns:
        agent = rec["agent"]
        scores[agent] = scores.get(agent, 0) + rec["score_delta"]
        before, after = rec["pos_before"], rec["pos_after"]
        where = f"{name}: turn {rec['turn']} agent {agent}"
        if not rec["format_ok"]:
            problems.append(f"{where}: reply not in the stage's format: {rec['reply']!r}")
        if rec["outcome"]["result"] == "moved":
            dx, dy = MOVE_DELTAS[rec["action"]]
            if after != [before[0] + dx * STEP, before[1] + dy * STEP]:
                problems.append(f"{where}: moved {before} -> {after} for {rec['action']}")
            if not all(0 <= c <= MAP_SIZE - FOOTPRINT for c in after):
                problems.append(f"{where}: moved off the map to {after}")
        elif after != before:
            problems.append(f"{where}: {rec['outcome']['result']} changed position")
        if remote and (rec["attempts"] != 1 or rec["error"] is not None):
            problems.append(f"{where}: {rec['attempts']} attempts, error {rec['error']!r}")

    # the final world
    for agent, total in scores.items():
        if world.tanks[agent].score != total:
            problems.append(f"{name}: agent {agent} score_delta sums to {total},"
                            f" tank score is {world.tanks[agent].score}")
    live_tanks = [t for t in world.tanks.values() if t.health > 0]
    standing = [b for b in world.bases.values() if not b.destroyed]
    boxes = [(f"tank {t.id}", t.pos) for t in live_tanks] + [
        (f"base {b.id}", b.pos) for b in standing if b.solid
    ]
    for i, (a, pa) in enumerate(boxes):
        for b, pb in boxes[i + 1:]:
            if abs(pa[0] - pb[0]) < FOOTPRINT and abs(pa[1] - pb[1]) < FOOTPRINT:
                problems.append(f"{name}: {a} at {tuple(pa)} overlaps {b} at {tuple(pb)}")
    if end["turns"] > header["config"]["turn_cap"]:
        problems.append(f"{name}: {end['turns']} turns exceed the cap")
    if end["reason"] == "team_victory" and len(standing) > 1:
        problems.append(f"{name}: team_victory with {len(standing)} bases standing")
    if end["reason"] == "goal_reached":
        goal = header["layout"]["bases"][0]["pos"]
        if not any(t.kind.value == "agent" and list(t.pos) == goal for t in live_tanks):
            problems.append(f"{name}: goal_reached but no agent stands on {goal}")
    return problems


def csv_rows(path: Path) -> dict[tuple[int, str, int], dict]:
    """episodes.csv rows keyed by (stage, model, seed)."""
    rows = csv.DictReader(io.StringIO(path.read_text(encoding="utf-8")))
    return {(int(r["stage"]), r["model"], int(r["run"])): r for r in rows}
