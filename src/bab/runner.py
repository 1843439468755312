"""Episode and suite orchestration.

Each turn: render observations for the live agents, ask every agent's
backend to decide, parse the replies, route cooperation commands, then
resolve the turn and check termination. The primary slot is the first
agent or the first team of agents (team 0); every other agent binds to
the reference backend. Turn records stream to the replay log as they
happen.
"""

from __future__ import annotations

import hashlib
import logging
from dataclasses import dataclass, field
from pathlib import Path

from .agents import AgentError, AgentSpec, ChatExchange, make_backend
from .coop import route_coop
from .engine import base_objective, step_turn
from .metrics import (
    EpisodeSummary,
    aggregate,
    compute_episode,
    episodes_csv,
    summary_table,
)
from .parsing import parse_response
from .prompts import render_observation
from .replay import ReplayWriter
from .stages import StageOverrides, load_stage
from .types import Pos, TurnRecord, WorldState

log = logging.getLogger(__name__)


@dataclass
class RunConfig:
    stage_id: int
    seeds: list[int]
    primary: AgentSpec
    reference: AgentSpec
    coop_enabled: bool = True
    locale: str = "en"
    macc_denominator: str = "moves"
    out_dir: Path | None = None
    overrides: StageOverrides | None = None

    @property
    def runs(self) -> int:
        return len(self.seeds)

    @property
    def model_label(self) -> str:
        return self.primary.label


@dataclass
class EpisodeResult:
    summary: EpisodeSummary
    log_path: Path | None
    world: WorldState
    records: list[TurnRecord] = field(default_factory=list)


def primary_agent_ids(world: WorldState) -> list[int]:
    """The first team's agents; on single-agent stages, the one agent."""
    return [t.id for t in world.live_agents() if t.team == 0]


def distance_targets(world: WorldState) -> dict[int, Pos]:
    """Per-agent forward-distance target, fixed at episode start."""
    return {a.id: base_objective(world, a) or a.pos for a in world.live_agents()}


def run_episode(config: RunConfig, seed: int, log_path: Path | None = None) -> EpisodeResult:
    """Play one seeded episode to termination, streaming the replay log."""
    world = load_stage(config.stage_id, seed, config.overrides)
    primary_ids = primary_agent_ids(world)
    targets = distance_targets(world)

    backends = {}
    specs = {}
    for agent in world.live_agents():
        spec = config.primary if agent.id in primary_ids else config.reference
        backends[agent.id] = make_backend(
            spec, config.stage_id, agent.id, config.coop_enabled
        )
        specs[agent.id] = spec.as_dict()

    writer = ReplayWriter(log_path) if log_path is not None else None
    if writer is not None:
        writer.write_header(
            world,
            overrides=config.overrides.as_dict() if config.overrides else {},
            agents=specs,
            primary_ids=primary_ids,
            targets=targets,
            model=config.model_label,
            coop_enabled=config.coop_enabled,
            locale=config.locale,
            macc_denominator=config.macc_denominator,
        )

    all_records: list[TurnRecord] = []
    last_record: dict[int, TurnRecord] = {}
    try:
        while world.status is None:
            actions = {}
            meta = {}
            for agent in world.live_agents():
                prompt = render_observation(
                    world,
                    agent.id,
                    locale=config.locale,
                    last_record=last_record.get(agent.id),
                    coop_enabled=config.coop_enabled,
                )
                exchange = _safe_decide(backends[agent.id], prompt, world, agent.id)
                actions[agent.id] = parse_response(config.stage_id, exchange.response)
                meta[agent.id] = (prompt, exchange)

            coop_events = route_coop(world, actions, config.coop_enabled)
            records = step_turn(world, actions)

            if writer is not None:
                for event in coop_events:
                    writer.write_coop(event)
            for record in records:
                prompt, exchange = meta[record.agent_id]
                record.prompt_digest = hashlib.sha256(
                    prompt.encode("utf-8")
                ).hexdigest()
                record.raw_reply = exchange.response
                record.error = exchange.error
                record.attempts = exchange.attempt_count
                record.latency_ms = exchange.latency_ms
                last_record[record.agent_id] = record
                all_records.append(record)
                if writer is not None:
                    writer.write_turn(record)

        summary = compute_episode(
            stage_id=config.stage_id,
            model=config.model_label,
            seed=seed,
            records=all_records,
            targets=targets,
            primary_ids=primary_ids,
            end_reason=world.status.value,
            turns=world.turn,
            denominator=config.macc_denominator,
        )
        if writer is not None:
            writer.write_end(world, summary)
    finally:
        if writer is not None:
            writer.close()
    return EpisodeResult(summary=summary, log_path=log_path, world=world,
                         records=all_records)


def _safe_decide(backend, prompt: str, world: WorldState, agent_id: int) -> ChatExchange:
    """A failed remote call becomes a format-invalid turn, not an abort."""
    try:
        return backend.decide(prompt, world, agent_id)
    except AgentError as exc:
        log.warning("agent %d decision failed: %s", agent_id, exc)
        return ChatExchange(response="", error=str(exc))


def run_benchmark(configs: list[RunConfig], out_dir: str | Path) -> Path:
    """Run every (config, seed) episode; write logs, CSV, and summary.

    Per-episode failures are recorded and skipped; the suite carries on.
    """
    if not configs:
        raise ValueError("empty suite")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    episodes: list[EpisodeSummary] = []
    failures: list[str] = []
    for config in configs:
        for run_idx, seed in enumerate(config.seeds):
            name = f"stage{config.stage_id}_{config.model_label}_seed{seed}.jsonl"
            log_path = out / name
            try:
                result = run_episode(config, seed, log_path)
                episodes.append(result.summary)
            except Exception as exc:  # noqa: BLE001 - suite must survive episodes
                log.error("episode stage=%s seed=%s failed: %s",
                          config.stage_id, seed, exc)
                failures.append(f"stage{config.stage_id} seed{seed}: {exc}")

    if episodes:
        (out / "episodes.csv").write_text(episodes_csv(episodes), encoding="utf-8")
        report = aggregate(episodes)
        (out / "summary.txt").write_text(summary_table(report), encoding="utf-8")
    if failures:
        (out / "failures.txt").write_text("\n".join(failures) + "\n", encoding="utf-8")
    return out


__all__ = [
    "RunConfig",
    "EpisodeResult",
    "run_episode",
    "run_benchmark",
    "primary_agent_ids",
    "distance_targets",
]
