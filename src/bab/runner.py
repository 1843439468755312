"""Episode and suite orchestration.

Each turn: render observations for the live agents, ask every agent's
backend to decide, then hand the replies to ``engine.play_turn``, the
turn sequence that replay runs too. The primary slot is the first
agent or the first team of agents (team 0); every other agent binds to
the reference backend. Turn records stream to the replay log as they
happen. When the suite ends, ``metrics.write_reports`` writes its
``episodes.csv`` and ``summary.txt``, as ``bab report`` rewrites them
from the logs.

Every prompt of a turn is rendered from the same world, in one
``prompts.render_turn`` call, before any agent is asked, so one turn's
decisions do not depend on each other. When an episode has a remote
backend, its first live agent is asked on the episode's own thread and
the others at the same time on a decide pool of threads. Local backends
are asked one after another: they answer in microseconds, and handing
each of their decisions to a pool cost about a third of the local
workloads' decisions per second. Either way the replies are parsed,
routed, resolved and logged in ``live_agents()`` order, so the log does
not depend on which reply came back first.

A suite in which any config binds a remote backend plays its episodes
concurrently too, at most ``MAX_EPISODE_WORKERS`` at a time, and they
share one decide pool of ``MAX_DECIDE_WORKERS`` threads that lives for
the suite. So a suite has at most ``MAX_EPISODE_WORKERS +
MAX_DECIDE_WORKERS`` (24) requests in flight, whichever stages it plays.
An episode played on its own, outside a suite, opens its own decide pool
of one thread fewer than its agents, at most ``MAX_DECIDE_WORKERS``; a
one-agent episode opens none.
Episodes share no game state: each has its own seed, world, backends and
log file, and the suite collects their results in submission order, so
its outputs do not depend on which episode ended first. They do share
remote connections, which are kept alive per server for the whole
process, not per episode or per suite (see ``agents.RemotePolicy``): an
episode has nothing to close when it ends. A local suite plays
its episodes one after another: they are CPU-bound, and threads cannot
run Python code in parallel.

An episode that aborts while decisions are in flight (a backend raised
something other than ``AgentError``, or the run was interrupted) first
cancels those that have not started and waits for the others; a remote
decision ends by its deadline (see ``agents.RemotePolicy``). A suite
that is interrupted (any ``BaseException``, raised in an episode or in
the caller's thread) starts no queued episode, stops each running one at
the end of its current turn, waits for them, and re-raises.
"""

from __future__ import annotations

import hashlib
import logging
import threading
from concurrent.futures import Executor, ThreadPoolExecutor, wait
from dataclasses import dataclass, field
from pathlib import Path

from .agents import AgentError, AgentSpec, ChatExchange, RemotePolicy, make_backend
from .engine import play_turn
from .metrics import EpisodeSummary, write_reports
from .prompts import render_turn
from .replay import (LOG_VERSION, HeaderRecord, ReplayWriter, end_record, episode_summary,
                     world_fields)
from .stages import StageOverrides, load_stage
from .types import TurnRecord, WorldState

log = logging.getLogger(__name__)

MAX_DECIDE_WORKERS = 18
MAX_EPISODE_WORKERS = 6

# On a suite's episode threads, ``stop`` is the suite's stop event and
# ``decide_pool`` its decide pool.
_suite = threading.local()


class EpisodeAborted(Exception):
    """The suite stopped while this episode was queued or running."""


@dataclass
class RunConfig:
    stage_id: int
    seeds: list[int]
    primary: AgentSpec
    reference: AgentSpec
    coop_enabled: bool = True
    locale: str = "en"
    macc_denominator: str = "moves"
    overrides: StageOverrides | None = None

    @property
    def model_label(self) -> str:
        return self.primary.label


# one episode of a suite: (config, seed, log path)
_Job = tuple[RunConfig, int, Path]


@dataclass
class EpisodeResult:
    summary: EpisodeSummary
    world: WorldState
    records: list[TurnRecord] = field(default_factory=list)


def run_episode(config: RunConfig, seed: int, log_path: Path | None = None) -> EpisodeResult:
    """Play one seeded episode to termination, streaming the replay log."""
    world = load_stage(config.stage_id, seed, config.overrides)
    derived = world_fields(world)
    specs = {
        agent.id: config.primary if agent.id in derived["primary_ids"] else config.reference
        for agent in world.live_agents()
    }
    header = HeaderRecord(
        stage_id=config.stage_id,
        seed=seed,
        version=LOG_VERSION,
        **derived,
        overrides=config.overrides or StageOverrides(),
        agents={agent_id: spec.as_dict() for agent_id, spec in specs.items()},
        model=config.model_label,
        coop_enabled=config.coop_enabled,
        locale=config.locale,
        macc_denominator=config.macc_denominator,
    )
    backends = {
        agent_id: make_backend(spec, config.stage_id, agent_id, config.coop_enabled)
        for agent_id, spec in specs.items()
    }

    writer = ReplayWriter(log_path) if log_path is not None else None
    if writer is not None:
        writer.write_header(header)

    all_records: list[TurnRecord] = []
    last_record: dict[int, TurnRecord] = {}
    pool = own_pool = None
    if any(isinstance(b, RemotePolicy) for b in backends.values()):
        pool = getattr(_suite, "decide_pool", None)
        if pool is None and len(backends) > 1:
            pool = own_pool = ThreadPoolExecutor(
                max_workers=min(MAX_DECIDE_WORKERS, len(backends) - 1),
                thread_name_prefix="bab-decide",
            )

    def decide(agent_id: int, prompt: str) -> ChatExchange:
        return _safe_decide(backends[agent_id], prompt, world, agent_id)

    try:
        while world.status is None:
            stop = getattr(_suite, "stop", None)
            if stop is not None and stop.is_set():
                raise EpisodeAborted(f"suite stopped before turn {world.turn}")
            agent_ids = [agent.id for agent in world.live_agents()]
            prompts = render_turn(world, agent_ids, config.locale, last_record,
                                  config.coop_enabled)
            exchanges = (_decide_all(pool, decide, agent_ids, prompts) if pool is not None
                         else list(map(decide, agent_ids, prompts)))
            meta = dict(zip(agent_ids, zip(prompts, exchanges)))
            replies = {agent_id: exchange.response for agent_id, (_, exchange) in meta.items()}
            coop_events, records = play_turn(world, replies, config.coop_enabled)

            if writer is not None:
                for event in coop_events:
                    writer.write_coop(event)
            for record in records:
                prompt, exchange = meta[record.agent]
                record.prompt_sha256 = hashlib.sha256(
                    prompt.encode("utf-8")
                ).hexdigest()
                record.error = exchange.error
                record.attempts = exchange.attempt_count
                record.latency_ms = exchange.latency_ms
                last_record[record.agent] = record
                all_records.append(record)
                if writer is not None:
                    writer.write_turn(record)

        summary = episode_summary(header, all_records, world.status, world.turn)
        if writer is not None:
            writer.write_end(end_record(world, summary))
    finally:
        if own_pool is not None:
            own_pool.shutdown()
        if writer is not None:
            writer.close()
    return EpisodeResult(summary=summary, world=world, records=all_records)


def _decide_all(pool: Executor, decide, agent_ids: list[int],
                prompts: list[str]) -> list[ChatExchange]:
    """Ask the first agent on this thread and the others on ``pool``; the
    exchanges in ``agent_ids`` order."""
    if not agent_ids:  # every agent died; the NPCs play on
        return []
    futures = [pool.submit(decide, agent_id, prompt)
               for agent_id, prompt in zip(agent_ids[1:], prompts[1:])]
    try:
        first = decide(agent_ids[0], prompts[0])
        return [first] + [future.result() for future in futures]
    except BaseException:
        # the pool may be the suite's: cancel this turn's queued decisions
        # and wait for its running ones, which end by their deadlines
        for future in futures:
            future.cancel()
        wait(futures)
        raise


def _safe_decide(backend, prompt: str, world: WorldState, agent_id: int) -> ChatExchange:
    """A failed remote call becomes a format-invalid turn, not an abort."""
    try:
        return backend.decide(prompt, world, agent_id)
    except AgentError as exc:
        log.warning("agent %d decision failed: %s", agent_id, exc)
        return ChatExchange(response="", error=str(exc))


def run_benchmark(configs: list[RunConfig], out_dir: str | Path) -> Path:
    """Run every (config, seed) episode; write its log, then the suite's
    reports with ``metrics.write_reports``.

    Per-episode failures are recorded and skipped; the suite carries on.
    A suite with a remote backend plays its episodes on the episode pool,
    which bounds the requests in flight (see the module docstring); a
    local suite plays them one after another. Either way every episode
    goes through the module's ``run_episode(config, seed, log_path)``,
    and ``episodes.csv``, ``summary.txt`` and ``failures.txt`` list the
    episodes in submission order. Raises ``ValueError`` before any
    episode runs when two episodes would write the same log.
    """
    if not configs:
        raise ValueError("empty suite")
    out = Path(out_dir)
    jobs: list[_Job] = []
    logs: set[Path] = set()
    for config in configs:
        # a model name such as org/name must not open a subdirectory
        label = config.model_label.replace("/", "_").replace("\\", "_")
        for seed in config.seeds:
            log_path = out / f"stage{config.stage_id}_{label}_seed{seed}.jsonl"
            if log_path in logs:
                raise ValueError(f"two episodes of the suite would write {log_path.name}")
            logs.add(log_path)
            jobs.append((config, seed, log_path))

    out.mkdir(parents=True, exist_ok=True)
    # an earlier run's outputs in this directory must not describe this one
    for stale in ("episodes.csv", "summary.txt", "failures.txt"):
        (out / stale).unlink(missing_ok=True)

    pooled = len(jobs) > 1 and any(
        spec.backend == "remote"
        for config in configs for spec in (config.primary, config.reference)
    )
    outcomes = _play_pooled(jobs) if pooled else map(_play, jobs)
    episodes: list[EpisodeSummary] = []
    failures: list[str] = []
    for outcome in outcomes:
        (failures if isinstance(outcome, str) else episodes).append(outcome)

    if episodes:
        write_reports(episodes, out)
    if failures:
        (out / "failures.txt").write_text("\n".join(failures) + "\n", encoding="utf-8")
    return out


def _play(job: _Job) -> EpisodeSummary | str:
    """One episode's summary, or its line in ``failures.txt``."""
    config, seed, log_path = job
    try:
        # the module global, looked up per call, so that a wrapper of it sees every episode
        return run_episode(config, seed, log_path).summary
    except Exception as exc:  # noqa: BLE001 - suite must survive episodes
        log.error("episode stage=%s seed=%s failed: %s", config.stage_id, seed, exc)
        return f"stage{config.stage_id} seed{seed}: {exc}"


def _play_pooled(jobs: list[_Job]) -> list[EpisodeSummary | str]:
    """``_play`` each job on the episode pool, with one decide pool for
    every episode; outcomes in job order."""
    stop = threading.Event()
    decide_pool = ThreadPoolExecutor(max_workers=MAX_DECIDE_WORKERS,
                                     thread_name_prefix="bab-decide")

    def play(job):
        if stop.is_set():
            raise EpisodeAborted("suite stopped before this episode started")
        _suite.stop = stop
        _suite.decide_pool = decide_pool
        try:
            return _play(job)
        except BaseException:
            stop.set()  # before this thread takes the next queued episode
            raise

    pool = ThreadPoolExecutor(max_workers=min(MAX_EPISODE_WORKERS, len(jobs)),
                              thread_name_prefix="bab-episode")
    try:
        futures = [pool.submit(play, job) for job in jobs]
        return [future.result() for future in futures]
    except BaseException:
        stop.set()
        raise
    finally:
        pool.shutdown(cancel_futures=True)
        decide_pool.shutdown()


__all__ = [
    "EpisodeAborted",
    "RunConfig",
    "EpisodeResult",
    "run_episode",
    "run_benchmark",
]
