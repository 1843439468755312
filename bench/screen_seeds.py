#!/usr/bin/env python3
"""Rebuild ``seed_pool.json``, the episode seeds the workloads draw from.

    python3 bench/screen_seeds.py

Plays every candidate episode seed of every workload stage once with each
of the stage's backend pairings, and keeps the seeds on which no episode
loses all its agents before it ends. On those, ``run_episode`` steps on
without agents and writes no turn records, so ``replay_verify`` fails on
the log (see ``checks.agents_gone_early``). That fault would make the
share of failed episodes depend on the benchmark seed; the workload that
keeps it in view runs one such episode in every round instead.
"""

from __future__ import annotations

import json
import sys

from checks import agents_gone_early
from run import Stub, import_program
from workloads import SEED_POOL_PATH, WORKLOADS, run_configs

CANDIDATES = {"local-combat": 40, "local-nav": 200, "remote-stub": 40}


def main() -> int:
    import_program()
    from bab.runner import run_episode

    pool: dict[str, dict[str, list[int]]] = {}
    for workload in WORKLOADS.values():
        stub = Stub(0.0) if workload.remote else None
        try:
            pool[workload.name] = {}
            for stage in workload.stages:
                kept = []
                for seed in range(CANDIDATES[workload.name]):
                    configs = run_configs(workload, {stage: (seed,)},
                                          stub.url if stub else "")
                    results = [run_episode(c, seed) for c in configs if c.seeds == [seed]]
                    if not any(
                        agents_gone_early(r.records[-1].turn, r.world.turn, r.world)
                        for r in results
                    ):
                        kept.append(seed)
                pool[workload.name][str(stage)] = kept
                print(f"{workload.name} stage {stage}: kept {len(kept)} of "
                      f"{CANDIDATES[workload.name]}", file=sys.stderr)
        finally:
            if stub is not None:
                stub.close()
    SEED_POOL_PATH.write_text(dump_pool(pool), encoding="utf-8")
    return 0


def dump_pool(pool: dict[str, dict[str, list[int]]]) -> str:
    """JSON with one line per stage's seed list."""
    workloads = []
    for name, stages in pool.items():
        lines = ",\n".join(f'    "{stage}": {json.dumps(seeds)}' for stage, seeds in stages.items())
        workloads.append(f'  "{name}": {{\n{lines}\n  }}')
    return "{\n" + ",\n".join(workloads) + "\n}\n"


if __name__ == "__main__":
    sys.exit(main())
