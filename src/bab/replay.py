"""Replay logs: self-describing JSON-lines records plus re-simulation.

Each line is one record tagged with its kind: a ``header`` (resolved
stage config, seed, agent bindings, layout, distance targets), one
``turn`` record per live agent per turn, ``coop`` records for routed
cooperation events, and a final ``end`` record carrying the canonical
world hash. A turn line is ``TurnRecord.to_dict()``, read back with
``TurnRecord.from_dict``. Lines are flushed as they are written, so a
crash loses at most the turn in flight, and any prefix cut at a line
boundary is still parseable and verifiable up to its last complete turn.

Replay feeds each turn's logged replies through ``engine.play_turn``,
the turn sequence the live run used, and checks every engine-filled turn
field, every coop line and, when present, the whole end record.
"""

from __future__ import annotations

import json
from dataclasses import MISSING, dataclass, fields
from pathlib import Path

from .engine import play_turn
from .metrics import EpisodeSummary, MetricsError, compute_episode
from .stages import StageOverrides, load_stage
from .types import Pos, StageLoadError, TurnRecord, WorldState

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
        self._write(record.to_dict())

    def write_coop(self, event: dict) -> None:
        self._write({"kind": "coop", **event})

    def write_end(self, world: WorldState, summary: EpisodeSummary) -> None:
        self._write(end_record(world, summary))


def end_record(world: WorldState, summary: EpisodeSummary) -> dict:
    """The end record of a world that has ended."""
    return {
        "kind": "end",
        "reason": world.status.value,
        "winner_team": world.winner_team,
        "turns": world.turn,
        "world_hash": world.world_hash(),
        "metrics": {
            "f_dis": summary.f_dis,
            "f_acc": summary.f_acc,
            "m_acc": summary.m_acc,
            "score": summary.score,
            "goal_completion": summary.goal_completion,
        },
    }


@dataclass
class ReplayLog:
    header: dict
    turns: list[TurnRecord]
    coops: list[dict]
    end: dict | None


# header and end keys that replay and metrics read without a default
_HEADER_KEYS = ("stage_id", "seed", "targets", "primary_ids")
_END_KEYS = ("reason", "turns", "world_hash")


def read_log(path: str | Path) -> ReplayLog:
    """Read a log, decoding each turn line into a ``TurnRecord``; a line
    that cannot be decoded, a coop line without an integer ``turn``, a
    header without one of ``_HEADER_KEYS`` or an end record without one
    of ``_END_KEYS`` raises ``ReplayError``."""
    header = None
    turn_lines: list[tuple[int, dict]] = []
    coops: list[dict] = []
    end = None
    for i, line in enumerate(Path(path).read_text(encoding="utf-8").splitlines()):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ReplayError(f"{path}: bad record on line {i + 1}: {exc}") from exc
        kind = record.get("kind") if isinstance(record, dict) else None
        if kind == "header":
            header = record
        elif kind == "turn":
            turn_lines.append((i + 1, record))
        elif kind == "coop":
            if not isinstance(record.get("turn"), int):
                raise ReplayError(f"{path}: coop record without a turn on line {i + 1}")
            coops.append(record)
        elif kind == "end":
            end = record
        else:
            raise ReplayError(f"{path}: unknown record kind {kind!r} on line {i + 1}")
    if header is None:
        raise ReplayError(f"{path}: missing header record")
    missing = [key for key in _HEADER_KEYS if key not in header]
    if missing:
        raise ReplayError(f"{path}: header lacks {', '.join(missing)}")
    missing = [key for key in _END_KEYS if end is not None and key not in end]
    if missing:
        raise ReplayError(f"{path}: end record lacks {', '.join(missing)}")
    turns: list[TurnRecord] = []
    for line_no, record in turn_lines:
        try:
            turns.append(TurnRecord.from_dict(record))
        except (KeyError, TypeError, ValueError) as exc:
            raise ReplayError(f"{path}: bad turn record on line {line_no}: {exc!r}") from exc
    return ReplayLog(header=header, turns=turns, coops=coops, end=end)


@dataclass(frozen=True)
class VerifyResult:
    ok: bool
    divergence_turn: int | None = None
    detail: str = ""

    def __bool__(self) -> bool:
        return self.ok


_ENGINE_FIELDS = tuple(f.name for f in fields(TurnRecord) if f.default is MISSING)


def replay_verify(log: ReplayLog | str | Path) -> VerifyResult:
    """Re-simulate from the header's seed, playing each turn's logged
    replies through ``play_turn`` as the live run did.

    Passes only if, turn by turn until the world ends, the records cover
    the live agents, every engine-filled field (action, target, coop,
    positions, outcome, score, objective, liveness) and the turn's coop
    lines match, no record is left over, and the end record, when
    present, equals the one rebuilt from the replayed world and the
    log's metrics. Turns after the last agent died have no records and
    play on with no replies. A log without an end record verifies up to
    its last complete turn.
    """
    if not isinstance(log, ReplayLog):
        log = read_log(log)
    header = log.header
    try:
        overrides = StageOverrides.from_mapping(header.get("overrides", {}))
        world = load_stage(header["stage_id"], header["seed"], overrides)
    except StageLoadError as exc:
        raise ReplayError(f"header stage does not load: {exc}") from None
    turns: dict[int, list[TurnRecord]] = {}
    for rec in log.turns:
        turns.setdefault(rec.turn, []).append(rec)
    coops: dict[int, list[dict]] = {}
    for line in log.coops:
        coops.setdefault(line["turn"], []).append(line)

    while world.status is None:
        turn = world.turn
        logged = {r.agent: r for r in turns.pop(turn, [])}
        if set(logged) != {a.id for a in world.live_agents()}:
            if log.end is None and not turns and set(coops) <= {turn}:
                return VerifyResult(True)  # truncated; verified up to here
            return VerifyResult(False, turn, "turn records do not cover live agents")
        replies = {a_id: rec.reply for a_id, rec in logged.items()}
        events, records = play_turn(world, replies, header.get("coop_enabled", True))
        for rec in records:
            for key in _ENGINE_FIELDS:
                replayed, recorded = getattr(rec, key), getattr(logged[rec.agent], key)
                if replayed != recorded:
                    detail = f"agent {rec.agent}: {key} diverged ({replayed!r} != {recorded!r})"
                    return VerifyResult(False, turn, detail)
        if [{"kind": "coop", **e} for e in events] != coops.pop(turn, []):
            return VerifyResult(False, turn, "coop lines diverged")

    if turns or coops:
        return VerifyResult(False, world.turn, "log continues past episode end")
    if log.end is not None:
        try:
            expected = end_record(world, metrics_from_log(log))
        except MetricsError as exc:
            raise ReplayError(f"metrics cannot be computed: {exc}") from None
        if expected != log.end:
            keys = sorted(k for k in {**expected, **log.end} if expected.get(k) != log.end.get(k))
            return VerifyResult(False, None, f"end record diverged: {', '.join(keys)}")
    return VerifyResult(True)


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
        records=log.turns,
        targets=targets,
        primary_ids=list(header["primary_ids"]),
        end_reason=log.end["reason"],
        turns=log.end["turns"],
        denominator=denominator or header.get("macc_denominator", "moves"),
    )
