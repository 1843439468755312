"""Whole episodes on the fast paths against the same episodes on the
simple paths of ``tests/reference.py``.

Each drawn episode is played twice with ``run_episode``: once as the
package plays it, and once with every reference patched in. The two
replay logs must be byte-identical, which compares every prompt digest,
every outcome, the wall count and the end record with its world hash.
"""

from __future__ import annotations

import random
import tempfile
from pathlib import Path
from unittest import mock

from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from bab import runner
from bab.agents import AgentSpec, ChatExchange
from bab.prompts import LOCALES
from bab.runner import RunConfig, run_episode
from bab.stages import StageOverrides, resolve_config
from bab.types import CoopTopology, StageLoadError

from reference import references, turn_replies


class Scripted:
    """Replies from a seeded function of (turn, agent), so both plays of
    an episode get the same replies, canned cooperation included."""

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def decide(self, prompt, world, agent_id):
        pick = random.Random(f"{self.seed}:{world.turn}:{agent_id}").choice
        return ChatExchange(turn_replies(world, pick)[agent_id])


def accepted(stage_id: int, overrides: StageOverrides) -> bool:
    try:
        resolve_config(stage_id, overrides)
    except StageLoadError:
        return False
    return True


@st.composite
def episodes(draw):
    stage_id = draw(st.integers(min_value=1, max_value=7))
    overrides = draw(st.builds(
        StageOverrides,
        turns=st.integers(min_value=1, max_value=8),
        agents=st.none() | st.integers(min_value=1, max_value=6),
        teams=st.none() | st.integers(min_value=1, max_value=3),
        bases=st.none() | st.integers(min_value=1, max_value=4),
        npcs=st.none() | st.integers(min_value=0, max_value=12),
        spawn_jitter_cells=st.none() | st.integers(min_value=0, max_value=3),
        wall_density=st.none() | st.floats(min_value=0.0, max_value=0.45),
        coop_topology=st.none() | st.sampled_from([t.value for t in CoopTopology]),
    ).filter(lambda overrides: accepted(stage_id, overrides)))
    return RunConfig(
        stage_id=stage_id,
        seeds=[draw(st.integers(min_value=0, max_value=2**32))],
        primary=AgentSpec(backend="random"),
        reference=AgentSpec(backend="random"),
        coop_enabled=draw(st.booleans()),
        locale=draw(st.sampled_from(LOCALES)),
        overrides=overrides,
    )


def play(config: RunConfig, path: Path) -> bytes | str:
    """The episode's replay log, or the message of its stage-load error."""
    seed = config.seeds[0]
    with mock.patch.object(runner, "make_backend", lambda *args: Scripted(seed)):
        try:
            run_episode(config, seed, path)
        except StageLoadError as exc:
            return str(exc)
    return path.read_bytes()


@given(config=episodes())
# no shrink phase, as in the wall-text test: a failing episode is
# reported in seconds, where shrinking it would take minutes
@settings(max_examples=100, deadline=None,
          phases=[Phase.explicit, Phase.reuse, Phase.generate])
def test_whole_episode_matches_the_references(config):
    with tempfile.TemporaryDirectory() as tmp:
        fast = play(config, Path(tmp) / "fast.jsonl")
        with references():
            simple = play(config, Path(tmp) / "simple.jsonl")
    assert simple == fast
