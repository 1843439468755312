"""The benchmark's workloads, and the suites they run for a given seed.

Each workload is a closed loop from one process: one ``run_benchmark``
suite at a time, every episode in it played to its end before the next.
A run repeats the same suite (a round) until its time is up, so every
round attempts the same episodes and decisions.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path


@dataclass(frozen=True)
class Workload:
    name: str
    # one run config each: (stage, primary backend, reference backend)
    pairings: tuple[tuple[int, str, str], ...]
    locale: str
    seeds_per_stage: int
    turn_cap: int | None = None  # a turns override; None keeps the stage's cap
    # (stage, backend, seed) of an episode that fails every time through a
    # known fault in the program; it runs in every round, counted as failed
    fault_episode: tuple[int, str, int] | None = None
    # times each round audits its logs; more than one where a single audit
    # pass is too brief a sample to time steadily
    audit_passes: int = 1

    @property
    def stages(self) -> tuple[int, ...]:
        return tuple(sorted({stage for stage, _, _ in self.pairings}))

    @property
    def remote(self) -> bool:
        return any("remote" in pairing for pairing in self.pairings)


WORKLOADS = {
    w.name: w
    for w in (
        # Simulator-bound: every prompt scans ~1,700 wall cells, so the
        # observation render dominates. Both local backends take both slots.
        Workload(
            name="local-combat",
            pairings=tuple(
                (stage, primary, reference)
                for stage in (3, 4, 5, 6, 7)
                for primary, reference in (("random", "greedy"), ("greedy", "random"))
            ),
            locale="en",
            seeds_per_stage=2,
        ),
        # Many short single-agent episodes on sparse maps: stage load, log
        # header/end, metrics and the CSV weigh more; the zh templates.
        Workload(
            name="local-nav",
            pairings=(
                (1, "random", "random"),
                (1, "greedy", "greedy"),
                (2, "random", "random"),
                (2, "greedy", "greedy"),
            ),
            locale="zh",
            seeds_per_stage=20,
            fault_episode=(2, "greedy", 5984),
        ),
        # Latency-bound: 4 and 6 remote agents per turn, each decision a
        # round trip to the loopback stub with a fixed injected delay.
        Workload(
            name="remote-stub",
            pairings=((5, "remote", "remote"), (7, "remote", "remote")),
            locale="en",
            seeds_per_stage=3,
            turn_cap=10,
            audit_passes=10,  # one pass over 6 short logs takes ~70 ms
        ),
    )
}

STUB_DELAY_MS = 20.0
# The random backend's seed; fixed, so an episode seed fixes the episode.
RANDOM_BACKEND_SEED = 0
SEED_POOL_PATH = Path(__file__).resolve().parent / "seed_pool.json"


def plan_for(workload: Workload, bench_seed: int) -> dict[int, tuple[int, ...]]:
    """Episode seeds per stage, drawn from the screened pool by the bench seed."""
    pool = json.loads(SEED_POOL_PATH.read_text(encoding="utf-8"))[workload.name]
    rng = random.Random(f"bab-bench/{workload.name}/{bench_seed}")
    return {
        stage: tuple(sorted(rng.sample(pool[str(stage)], workload.seeds_per_stage)))
        for stage in workload.stages
    }


def run_configs(workload: Workload, plan: dict[int, tuple[int, ...]],
                base_url: str = "") -> list:
    """The ``RunConfig`` list one round hands to ``run_benchmark``."""
    from bab.agents import AgentSpec
    from bab.runner import RunConfig
    from bab.stages import StageOverrides

    def spec(backend: str, role: str) -> AgentSpec:
        if backend == "remote":
            return AgentSpec(backend="remote", role=role, model="stub",
                             base_url=base_url, timeout=30.0)
        return AgentSpec(backend=backend, role=role, seed=RANDOM_BACKEND_SEED)

    def config(stage: int, seeds, primary: str, reference: str) -> RunConfig:
        return RunConfig(
            stage_id=stage,
            seeds=list(seeds),
            primary=spec(primary, "primary"),
            reference=spec(reference, "reference"),
            coop_enabled=True,
            locale=workload.locale,
            overrides=overrides,
        )

    overrides = (
        StageOverrides(turns=workload.turn_cap) if workload.turn_cap is not None else None
    )
    configs = [
        config(stage, plan[stage], primary, reference)
        for stage, primary, reference in workload.pairings
        if stage in plan
    ]
    if workload.fault_episode is not None:
        stage, backend, seed = workload.fault_episode
        configs.append(config(stage, (seed,), backend, backend))
    return configs
