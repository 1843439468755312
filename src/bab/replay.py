"""Replay logs: self-describing JSON-lines records plus re-simulation.

Each line is one record tagged with its kind: a ``header`` (resolved
stage config, seed, agent bindings, layout, distance targets), one
``turn`` record per live agent per turn, ``coop`` records for routed
cooperation events, and a final ``end`` record carrying the canonical
world hash. Lines are flushed as they are written, so a crash loses at
most the turn in flight, and any prefix cut at a line boundary is still
parseable and verifiable up to its last complete turn.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

from .coop import route_coop
from .engine import step_turn
from .metrics import EpisodeSummary, compute_episode
from .parsing import Action, CoopCommand, ParsedAction
from .stages import StageOverrides, load_stage
from .types import Orientation, Pos, TurnRecord, WorldState

LOG_VERSION = 1


class ReplayError(Exception):
    pass


def _dump(record: dict) -> str:
    return json.dumps(record, ensure_ascii=False, sort_keys=True, separators=(",", ":"))


class ReplayWriter:
    """Appends records to a log file, flushing after every line."""

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._fh = self.path.open("w", encoding="utf-8")

    def close(self) -> None:
        self._fh.close()

    def __enter__(self) -> "ReplayWriter":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def _write(self, record: dict) -> None:
        self._fh.write(_dump(record) + "\n")
        self._fh.flush()

    def write_header(
        self,
        world: WorldState,
        overrides: dict,
        agents: dict[int, dict],
        primary_ids: list[int],
        targets: dict[int, Pos],
        model: str,
        coop_enabled: bool,
        locale: str,
        macc_denominator: str,
    ) -> None:
        self._write(
            {
                "kind": "header",
                "version": LOG_VERSION,
                "stage_id": world.config.stage_id,
                "seed": world.seed,
                "overrides": overrides,
                "config": world.config.as_dict(),
                "model": model,
                "coop_enabled": coop_enabled,
                "locale": locale,
                "macc_denominator": macc_denominator,
                "agents": {str(k): v for k, v in sorted(agents.items())},
                "primary_ids": primary_ids,
                "targets": {str(k): list(v) for k, v in sorted(targets.items())},
                "layout": {
                    "tanks": [
                        {
                            "id": t.id,
                            "kind": t.kind.value,
                            "team": t.team,
                            "pos": list(t.pos),
                            "facing": t.facing.value,
                            "health": t.health,
                        }
                        for t in sorted(world.tanks.values(), key=lambda t: t.id)
                    ],
                    "bases": [
                        {
                            "id": b.id,
                            "team": b.team,
                            "pos": list(b.pos),
                            "solid": b.solid,
                        }
                        for b in sorted(world.bases.values(), key=lambda b: b.id)
                    ],
                    "wall_cells": len(world.walls),
                },
            }
        )

    def write_turn(self, record: TurnRecord) -> None:
        self._write(turn_record_to_dict(record))

    def write_coop(self, event: dict) -> None:
        record = {"event" if k == "kind" else k: v for k, v in event.items()}
        self._write({"kind": "coop", **record})

    def write_end(
        self, world: WorldState, summary: EpisodeSummary | None = None
    ) -> None:
        record: dict = {
            "kind": "end",
            "reason": world.status.value if world.status else "running",
            "winner_team": world.winner_team,
            "turns": world.turn,
            "world_hash": world.world_hash(),
        }
        if summary is not None:
            record["metrics"] = {
                "f_dis": summary.f_dis,
                "f_acc": summary.f_acc,
                "m_acc": summary.m_acc,
                "score": summary.score,
                "goal_completion": summary.goal_completion,
            }
        self._write(record)


def turn_record_to_dict(r: TurnRecord) -> dict:
    return {
        "kind": "turn",
        "turn": r.turn,
        "agent": r.agent_id,
        "pos_before": list(r.pos_before),
        "pos_after": list(r.pos_after),
        "facing": r.facing_after.value,
        "action": r.action,
        "target": r.target_id,
        "coop": r.coop,
        "format_ok": r.format_ok,
        "outcome": r.outcome,
        "score_delta": r.score_delta,
        "objective": None if r.objective is None else list(r.objective),
        "alive_after": r.alive_after,
        "prompt_sha256": r.prompt_digest,
        "reply": r.raw_reply,
        "error": r.error,
        "attempts": r.attempts,
        "latency_ms": r.latency_ms,
    }


def turn_record_from_dict(d: dict) -> TurnRecord:
    return TurnRecord(
        turn=d["turn"],
        agent_id=d["agent"],
        pos_before=Pos(*d["pos_before"]),
        pos_after=Pos(*d["pos_after"]),
        facing_after=Orientation(d["facing"]),
        action=d["action"],
        target_id=d["target"],
        coop=d["coop"],
        format_ok=d["format_ok"],
        outcome=d["outcome"],
        score_delta=d["score_delta"],
        objective=None if d["objective"] is None else Pos(*d["objective"]),
        alive_after=d["alive_after"],
        prompt_digest=d.get("prompt_sha256", ""),
        raw_reply=d.get("reply", ""),
        error=d.get("error"),
        attempts=d.get("attempts", 0),
        latency_ms=d.get("latency_ms", 0.0),
    )


@dataclass
class ReplayLog:
    header: dict
    turns: list[dict]
    coops: list[dict]
    end: dict | None

    @property
    def turn_records(self) -> list[TurnRecord]:
        return [turn_record_from_dict(d) for d in self.turns]


def read_log(path: str | Path) -> ReplayLog:
    header = None
    turns: list[dict] = []
    coops: list[dict] = []
    end = None
    for i, line in enumerate(Path(path).read_text(encoding="utf-8").splitlines()):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ReplayError(f"{path}: bad record on line {i + 1}: {exc}") from exc
        kind = record.get("kind")
        if kind == "header":
            header = record
        elif kind == "turn":
            turns.append(record)
        elif kind == "coop":
            coops.append(record)
        elif kind == "end":
            end = record
        else:
            raise ReplayError(f"{path}: unknown record kind {kind!r} on line {i + 1}")
    if header is None:
        raise ReplayError(f"{path}: missing header record")
    return ReplayLog(header=header, turns=turns, coops=coops, end=end)


@dataclass(frozen=True)
class VerifyResult:
    ok: bool
    divergence_turn: int | None = None
    detail: str = ""

    def __bool__(self) -> bool:
        return self.ok


_COMPARED_FIELDS = (
    "pos_before",
    "pos_after",
    "facing",
    "action",
    "target",
    "format_ok",
    "outcome",
    "score_delta",
    "objective",
    "alive_after",
)


def replay_verify(log: ReplayLog | str | Path) -> VerifyResult:
    """Re-simulate from the header's seed applying the logged actions.

    Passes only if every per-turn outcome matches and, when the end
    record is present, the final canonical world hash matches too.
    Incomplete trailing turns (crash leftovers) are ignored. Turns after
    the last agent died write no records, so a finished log is played on
    without actions until the world ends.
    """
    if not isinstance(log, ReplayLog):
        log = read_log(log)
    header = log.header
    overrides = StageOverrides.from_mapping(header.get("overrides", {}))
    world = load_stage(header["stage_id"], header["seed"], overrides)
    coop_enabled = header.get("coop_enabled", True)

    by_turn: dict[int, list[dict]] = {}
    for rec in log.turns:
        by_turn.setdefault(rec["turn"], []).append(rec)

    for turn in sorted(by_turn):
        logged = {r["agent"]: r for r in by_turn[turn]}
        if world.status is not None:
            return VerifyResult(False, turn, "log continues past episode end")
        if turn != world.turn:
            return VerifyResult(False, turn, f"expected turn {world.turn}")
        live = {a.id for a in world.live_agents()}
        if set(logged) != live:
            if log.end is None and turn == max(by_turn):
                break  # truncated mid-turn; verified up to here
            return VerifyResult(False, turn, "turn records do not cover live agents")
        try:
            actions = {a_id: _parsed_from_record(rec) for a_id, rec in logged.items()}
        except (ValueError, KeyError) as exc:
            return VerifyResult(False, turn, f"unreadable turn record: {exc}")
        route_coop(world, actions, coop_enabled)
        for rec in step_turn(world, actions):
            replayed = turn_record_to_dict(rec)
            reference = logged[rec.agent_id]
            for key in _COMPARED_FIELDS:
                if replayed[key] != reference.get(key):
                    return VerifyResult(
                        False,
                        turn,
                        f"agent {rec.agent_id}: {key} diverged "
                        f"({replayed[key]!r} != {reference.get(key)!r})",
                    )

    if log.end is not None:
        while world.status is None and not world.live_agents():
            step_turn(world, {})
        end_hash = log.end.get("world_hash", "")
        if world.world_hash() != end_hash:
            return VerifyResult(False, None, "final world hash mismatch")
        reason = world.status.value if world.status else "running"
        if reason != log.end.get("reason"):
            return VerifyResult(False, None, "end reason mismatch")
    return VerifyResult(True)


def _parsed_from_record(rec: dict) -> ParsedAction:
    return ParsedAction(
        action=Action(rec["action"]) if rec["action"] else None,
        target_id=rec["target"],
        coop=CoopCommand.from_dict(rec["coop"]),
        format_ok=rec["format_ok"],
        raw=rec.get("reply", ""),
    )


def metrics_from_log(
    log: ReplayLog | str | Path, denominator: str | None = None
) -> EpisodeSummary:
    """Recompute the episode summary purely from a replay log."""
    if not isinstance(log, ReplayLog):
        log = read_log(log)
    header = log.header
    if log.end is None:
        raise ReplayError("log has no end record; episode incomplete")
    targets = {int(k): Pos(*v) for k, v in header["targets"].items()}
    return compute_episode(
        stage_id=header["stage_id"],
        model=header.get("model", "unknown"),
        seed=header["seed"],
        records=log.turn_records,
        targets=targets,
        primary_ids=list(header["primary_ids"]),
        end_reason=log.end["reason"],
        turns=log.end["turns"],
        denominator=denominator or header.get("macc_denominator", "moves"),
    )
