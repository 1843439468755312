"""Replay logs: self-describing JSON-lines records plus re-simulation.

Each line is a JSON object tagged with its ``kind``, and the table
``RECORDS`` names the record each kind holds: one ``HeaderRecord``, a
``TurnRecord`` per live agent per turn, a ``CoopEvent`` per routed
cooperation event and one ``EndRecord``. ``ReplayWriter`` writes a
record's fields keyed by their names, a coop line and the records nested
in a line with ``types.encode``; ``read_log`` decodes every line through
``RECORDS`` with ``types.decode``, which checks each value against its
field's annotation. Lines are flushed as they are written, so a crash
loses at most the turn in flight, and any prefix cut at a line boundary
is still parseable and verifiable up to its last complete turn.

Replay loads the world that the header's stage, seed and overrides name,
and requires the header's ``config``, ``primary_ids``, ``targets`` and
``layout`` to equal those rebuilt from it; its other fields are the
run's inputs, taken as logged. It then feeds each turn's logged replies
through ``engine.play_turn``, the turn sequence the live run used, and
checks every engine-filled turn field, every coop line and, when
present, the whole end record.
"""

from __future__ import annotations

import json
from dataclasses import MISSING, dataclass, field, fields, replace
from itertools import zip_longest
from pathlib import Path

from .engine import base_objective, play_turn
from .metrics import SCORES, EpisodeSummary, MetricsError, Scores, compute_episode
from .stages import StageOverrides, load_stage
from .types import (CoopEvent, DecodeError, EndReason, Pos, StageConfig, StageLoadError,
                    TurnRecord, WorldState, decode, encode)

LOG_VERSION = 1


class ReplayError(Exception):
    pass


# json writes Pos as a list, a str enum as its value and a nested record with encode
_dump = json.JSONEncoder(ensure_ascii=False, sort_keys=True, separators=(",", ":"),
                         default=encode).encode


class ReplayWriter:
    """Appends records to a log file, flushing after every line."""

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._fh = self.path.open("w", encoding="utf-8")

    def close(self) -> None:
        self._fh.close()

    def _write(self, line: dict) -> None:
        self._fh.write(_dump(line) + "\n")
        self._fh.flush()

    def write_header(self, header: HeaderRecord) -> None:
        # json sorts keys before it makes them strings, so key the id maps by str(id)
        self._write({"kind": "header", **vars(header),
                     "targets": {str(k): v for k, v in header.targets.items()},
                     "agents": {str(k): v for k, v in header.agents.items()}})

    def write_turn(self, record: TurnRecord) -> None:
        self._write({"kind": "turn", **vars(record)})

    def write_coop(self, event: CoopEvent) -> None:
        self._write({"kind": "coop", **encode(event)})

    def write_end(self, end: EndRecord) -> None:
        self._write({"kind": "end", **vars(end)})


@dataclass
class HeaderRecord:
    """The first line of a log; the field names are its keys. A line may
    leave out the fields with a default, which readers have always
    filled in."""

    stage_id: int
    seed: int
    targets: dict[int, Pos]  # agent id -> distance target
    primary_ids: list[int]
    config: StageConfig
    layout: dict
    agents: dict[int, dict]  # agent id -> AgentSpec.as_dict()
    locale: str
    version: int
    overrides: StageOverrides = field(default_factory=StageOverrides)
    model: str = "unknown"
    coop_enabled: bool = True
    macc_denominator: str = "moves"


@dataclass
class EndRecord:
    """The last line of a complete log; the field names are its keys."""

    reason: EndReason
    winner_team: int | None
    turns: int
    world_hash: str
    metrics: Scores


RECORDS = {"header": HeaderRecord, "turn": TurnRecord, "coop": CoopEvent, "end": EndRecord}


def world_fields(world: WorldState) -> dict:
    """The header fields that follow from a world that has not started:
    the first team's agents are the primary ones (on single-agent stages,
    the one agent), and each agent's forward-distance target is fixed
    here."""
    agents = world.live_agents()
    layout = {
        "tanks": [{"id": t.id, "kind": t.kind.value, "team": t.team, "pos": list(t.pos),
                   "facing": t.facing.value, "health": t.health}
                  for t in sorted(world.tanks.values(), key=lambda t: t.id)],
        "bases": [{"id": b.id, "team": b.team, "pos": list(b.pos), "solid": b.solid}
                  for b in sorted(world.bases.values(), key=lambda b: b.id)],
        "wall_cells": len(world.walls),
    }
    return {"config": world.config, "primary_ids": [a.id for a in agents if a.team == 0],
            "targets": {a.id: base_objective(world, a) or a.pos for a in agents},
            "layout": layout}


def end_record(world: WorldState, summary: EpisodeSummary) -> EndRecord:
    """The end record of a world that has ended."""
    metrics = Scores(*(getattr(summary, name) for name in SCORES))
    return EndRecord(reason=world.status, winner_team=world.winner_team, turns=world.turn,
                     world_hash=world.world_hash(), metrics=metrics)


def episode_summary(header: HeaderRecord, records: list[TurnRecord], reason: EndReason,
                    turns: int, denominator: str | None = None) -> EpisodeSummary:
    """The summary row of an episode that ended for ``reason`` after ``turns``."""
    return compute_episode(
        stage_id=header.stage_id, model=header.model, seed=header.seed, records=records,
        targets=header.targets, primary_ids=header.primary_ids, end_reason=reason.value,
        turns=turns, denominator=denominator or header.macc_denominator,
    )


@dataclass
class ReplayLog:
    header: HeaderRecord
    turns: list[TurnRecord]
    coops: list[CoopEvent]
    end: EndRecord | None


def read_log(path: str | Path) -> ReplayLog:
    """Read a log in the order it was written, decoding each line into the
    record that ``RECORDS`` names for its kind. Text that is not UTF-8 or
    not JSON, a line of unknown kind, a first line that is not the header,
    a second header, a line after the end line, two turn lines for one
    (turn, agent), a header of another ``version`` than ``LOG_VERSION`` or
    a line that does not decode raises ``ReplayError``."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ReplayError(f"{path}: not UTF-8 text: {exc}") from None

    header = end = None
    turns: list[TurnRecord] = []
    coops: list[CoopEvent] = []
    seen: set[tuple[int, int]] = set()
    # "\n" alone ends a record: json.dumps(ensure_ascii=False) writes
    # U+2028, U+2029 and U+0085 raw inside strings, where splitlines breaks
    for line_no, line in enumerate(text.split("\n"), 1):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ReplayError(f"{path}: bad record on line {line_no}: {exc}") from exc
        kind = record.pop("kind", None) if isinstance(record, dict) else None
        if type(kind) is not str or kind not in RECORDS:
            raise ReplayError(f"{path}: unknown record kind {kind!r} on line {line_no}")
        if (header is None) != (kind == "header"):
            what = "missing header record" if header is None else "second header record"
            raise ReplayError(f"{path}: {what} on line {line_no}")
        if end is not None:
            raise ReplayError(f"{path}: {kind} record after the end record on line {line_no}")
        try:
            rec = decode(RECORDS[kind], record)
        except DecodeError as exc:
            what = "header" if kind == "header" else f"{kind} record"
            raise ReplayError(f"{path}: line {line_no}: {what} {exc}") from None
        if kind == "header":
            header = rec
            if header.version != LOG_VERSION:
                raise ReplayError(f"{path}: log version {header.version}, not {LOG_VERSION}")
        elif kind == "turn":
            if (rec.turn, rec.agent) in seen:
                raise ReplayError(f"{path}: second turn {rec.turn} record of agent "
                                  f"{rec.agent} on line {line_no}")
            seen.add((rec.turn, rec.agent))
            turns.append(rec)
        elif kind == "coop":
            coops.append(rec)
        else:
            end = rec
    if header is None:
        raise ReplayError(f"{path}: missing header record")
    return ReplayLog(header=header, turns=turns, coops=coops, end=end)


def load_world(header: HeaderRecord) -> WorldState:
    """The world that the header's stage, seed and overrides load, checked
    against the header's world-derived fields and the agent ids that key
    its ``agents`` map; ``ReplayError`` if it does not load or a field
    differs."""
    try:
        world = load_stage(header.stage_id, header.seed, header.overrides)
    except StageLoadError as exc:
        raise ReplayError(f"header stage does not load: {exc}") from None
    # the agents map keeps its logged specs, but must key the stage's agents
    agents = {agent.id: header.agents.get(agent.id) for agent in world.live_agents()}
    diverged = _diverged(replace(header, **world_fields(world), agents=agents), header)
    if diverged:
        raise ReplayError(f"header diverged from its stage: {', '.join(diverged)}")
    return world


def _diverged(expected, logged) -> list[str]:
    """The fields in which two records of one class differ."""
    return [f.name for f in fields(expected)
            if getattr(expected, f.name) != getattr(logged, f.name)]


@dataclass(frozen=True)
class VerifyResult:
    ok: bool
    divergence_turn: int | None = None
    detail: str = ""

    def __bool__(self) -> bool:
        return self.ok


_ENGINE_FIELDS = tuple(f.name for f in fields(TurnRecord) if f.default is MISSING)


def replay_verify(log: ReplayLog | str | Path) -> VerifyResult:
    """Re-simulate the world ``load_world`` gives for the header, playing
    each turn's logged replies through ``play_turn`` as the live run did.

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
    world = load_world(header)
    turns: dict[int, list[TurnRecord]] = {}
    for rec in log.turns:
        turns.setdefault(rec.turn, []).append(rec)
    coops: dict[int, list[CoopEvent]] = {}
    for event in log.coops:
        coops.setdefault(event.turn, []).append(event)

    while world.status is None:
        turn = world.turn
        logged = {r.agent: r for r in turns.pop(turn, [])}
        if set(logged) != {a.id for a in world.live_agents()}:
            if log.end is None and not turns and set(coops) <= {turn}:
                return VerifyResult(True)  # truncated; verified up to here
            return VerifyResult(False, turn, "turn records do not cover live agents")
        replies = {a_id: rec.reply for a_id, rec in logged.items()}
        events, records = play_turn(world, replies, header.coop_enabled)
        for rec in records:
            for key in _ENGINE_FIELDS:
                replayed, recorded = getattr(rec, key), getattr(logged[rec.agent], key)
                if replayed != recorded:
                    detail = f"agent {rec.agent}: {key} diverged ({replayed!r} != {recorded!r})"
                    return VerifyResult(False, turn, detail)
        logged_events = coops.pop(turn, [])
        if events != logged_events:  # name the first pair that differs; null for a missing one
            ours, theirs = next(p for p in zip_longest(events, logged_events) if p[0] != p[1])
            detail = f"coop lines diverged: logged {_dump(theirs)}, replayed {_dump(ours)}"
            return VerifyResult(False, turn, detail)

    if turns or coops:
        return VerifyResult(False, world.turn, "log continues past episode end")
    if log.end is not None:
        try:
            summary = episode_summary(header, log.turns, log.end.reason, log.end.turns)
        except MetricsError as exc:
            raise ReplayError(f"metrics cannot be computed: {exc}") from None
        diverged = _diverged(end_record(world, summary), log.end)
        if diverged:
            return VerifyResult(False, None, f"end record diverged: {', '.join(diverged)}")
    return VerifyResult(True)


def metrics_from_log(log: ReplayLog | str | Path, denominator: str | None = None) -> EpisodeSummary:
    """Recompute the episode summary purely from a replay log. Neither the
    turns nor the header are checked against the stage: ``replay_verify``
    and ``load_world`` do that."""
    if not isinstance(log, ReplayLog):
        log = read_log(log)
    if log.end is None:
        raise ReplayError("log has no end record; episode incomplete")
    return episode_summary(log.header, log.turns, log.end.reason, log.end.turns, denominator)
