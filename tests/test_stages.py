from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import bab
from bab.stages import (
    STAGE_SETTINGS,
    StageOverrides,
    load_stage,
    resolve_config,
    team_of_agent,
)
from bab.types import (
    AGENT_HEALTH,
    NPC_HEALTH,
    CoopTopology,
    StageLoadError,
    TankKind,
)

from reference import overlapping_pairs, reference_load


def test_stage1_counts():
    w = load_stage(1, 7)
    assert len(w.live_agents()) == 1
    assert len(w.live_npcs()) == 0
    assert len(w.bases) == 1
    assert w.config.turn_cap == 60


def test_stage5_counts():
    w = load_stage(5, 7)
    agents = w.live_agents()
    assert len(agents) == 4
    assert sorted({a.team for a in agents}) == [0, 1]
    assert len(w.bases) == 2
    assert len(w.live_npcs()) == 10
    assert w.config.turn_cap == 80


@pytest.mark.parametrize("stage_id", range(1, 8))
def test_all_stages_match_settings_table(stage_id):
    w = load_stage(stage_id, 3)
    s = STAGE_SETTINGS[stage_id]
    assert w.config == s
    assert len(w.live_agents()) == s.n_agents
    assert len(w.live_npcs()) == s.n_npcs
    assert len(w.bases) == s.n_bases
    assert overlapping_pairs(w) == []
    for t in w.tanks.values():
        assert t.pos.x % 8 == 0 and t.pos.y % 8 == 0
        assert t.health == (AGENT_HEALTH if t.kind is TankKind.AGENT else NPC_HEALTH)


def test_identical_inputs_give_byte_identical_worlds():
    a = load_stage(1, 7)
    b = load_stage(1, 7)
    assert a.canonical_bytes() == b.canonical_bytes()
    assert a.world_hash() == b.world_hash()


def test_different_seeds_differ():
    assert load_stage(1, 7).world_hash() != load_stage(1, 8).world_hash()


def test_spawn_jitter_moves_agents_between_seeds():
    positions = {load_stage(1, s).tanks[1].pos for s in range(12)}
    assert len(positions) > 3


def test_navigation_base_is_not_solid():
    w = load_stage(1, 0)
    goal = next(iter(w.bases.values()))
    assert not goal.solid
    combat = load_stage(4, 0)
    assert all(b.solid for b in combat.bases.values())


def test_invalid_stage_id_rejected():
    with pytest.raises(StageLoadError):
        load_stage(0, 1)
    with pytest.raises(StageLoadError):
        load_stage(8, 1)


def test_override_counts_and_keys():
    ov = StageOverrides(agents=8, teams=4, bases=4, turns=100)
    w = load_stage(7, 1, ov)
    assert len(w.live_agents()) == 8
    assert len(w.bases) == 4
    assert w.config.turn_cap == 100
    with pytest.raises(StageLoadError, match="unknown stage-config keys"):
        StageOverrides.from_mapping({"agents": 4, "bogus": 1})
    # YAML keys need not be strings
    with pytest.raises(StageLoadError, match=r"unknown stage-config keys: \[1, 'bogus'\]"):
        StageOverrides.from_mapping({1: 2, "bogus": 1})


def test_override_file_roundtrip(tmp_path):
    path = tmp_path / "stage.yaml"
    path.write_text("agents: 4\nteams: 2\nwall_density: 0.0\n", encoding="utf-8")
    ov = StageOverrides.from_file(path)
    assert ov.agents == 4 and ov.teams == 2 and ov.wall_density == 0.0
    w = load_stage(4, 2, ov)
    assert len(w.live_agents()) == 4
    assert len(w.walls) == 0
    path.write_text("", encoding="utf-8")
    assert StageOverrides.from_file(path) == StageOverrides()
    path.write_text("- turns\n", encoding="utf-8")
    with pytest.raises(StageLoadError, match="key: value mapping"):
        StageOverrides.from_file(path)


def test_override_validation_errors():
    with pytest.raises(StageLoadError):
        resolve_config(4, StageOverrides(teams=3, agents=2))  # team without agent
    with pytest.raises(StageLoadError):
        resolve_config(4, StageOverrides(bases=1))  # fewer bases than teams
    with pytest.raises(StageLoadError):
        resolve_config(1, StageOverrides(wall_density=0.9))
    with pytest.raises(StageLoadError, match="too many agents"):
        load_stage(4, 1, StageOverrides(agents=20, teams=2))
    with pytest.raises(StageLoadError, match="one team"):
        resolve_config(1, StageOverrides(agents=2, teams=2))
    with pytest.raises(StageLoadError, match="two bases"):
        resolve_config(3, StageOverrides(bases=1))
    # values of the right type but out of range or unknown
    for override, message in (
        (StageOverrides(npcs=-1), "npcs must be >= 0"),
        (StageOverrides(turns=0), "turns must be >= 1"),
        (StageOverrides(agents=0), "agents and teams must be >= 1"),
        (StageOverrides(bases=5), "at most 4 bases supported"),
        (StageOverrides(spawn_jitter_cells=-1), "spawn_jitter_cells must be >= 0"),
    ):
        with pytest.raises(StageLoadError, match=f"^{message}$"):
            resolve_config(4, override)
    with pytest.raises(StageLoadError, match=r"coop_topology must be one of \['none'"):
        resolve_config(5, StageOverrides(coop_topology="bogus"))
    # each value must have its field's type
    for bad in ({"turns": "ten"}, {"agents": True}, {"npcs": 2.0}, {"spawn_jitter_cells": "1"},
                {"wall_density": "0.1"}, {"wall_density": False}, {"coop_topology": ["none"]}):
        with pytest.raises(StageLoadError, match=f"{next(iter(bad))!r} takes"):
            StageOverrides.from_mapping(bad)
    assert StageOverrides.from_mapping({"wall_density": 0, "turns": None}).wall_density == 0


def test_team_larger_than_its_spawn_offsets_is_refused_by_resolve_config():
    # the first team is the largest, with ceil(agents / teams) agents
    for stage_id, agents, teams in ((3, 9, 1), (7, 17, 2), (6, 25, 3)):
        with pytest.raises(StageLoadError,
                           match=r"too many agents for team 0: 9 \(max 8 per team\)"):
            resolve_config(stage_id, StageOverrides(agents=agents, teams=teams))
    assert resolve_config(7, StageOverrides(agents=16, teams=2)).n_agents == 16
    # a navigation stage spawns every agent around one anchor, with no offsets
    assert resolve_config(1, StageOverrides(agents=9)).n_agents == 9


def test_spawn_that_collides_after_every_draw_names_what_it_hits():
    # no jitter: all 100 draws land on the anchor, which agent 1 holds
    with pytest.raises(StageLoadError, match="^agent 2: spawn collides with agent 1$"):
        load_stage(1, 0, StageOverrides(agents=2, spawn_jitter_cells=0))


def test_goal_is_not_an_override():
    # the goal sets the reply format, and every combat goal plays the same
    with pytest.raises(StageLoadError, match=r"unknown stage-config keys: \['goal'\]"):
        StageOverrides.from_mapping({"goal": "static_coop"})


@pytest.mark.parametrize("stage_id", sorted(STAGE_SETTINGS))
@pytest.mark.parametrize("topology", list(CoopTopology))
def test_coop_topology_override_must_fit_the_stage(stage_id, topology):
    # cooperation stages route requests by any topology but none; the
    # other stages have no cooperation line to route
    overrides = StageOverrides(coop_topology=topology.value)
    if (topology is CoopTopology.NONE) == (STAGE_SETTINGS[stage_id].coop_topology
                                          is CoopTopology.NONE):
        assert resolve_config(stage_id, overrides).coop_topology is topology
    else:
        with pytest.raises(StageLoadError, match="coop_topology") as refused:
            resolve_config(stage_id, overrides)
        assert ("--no-coop" in str(refused.value)) == (topology is CoopTopology.NONE)


def test_team_assignment_blocks_first_team_first():
    teams = [team_of_agent(i, 6, 3) for i in range(6)]
    assert teams == [0, 0, 1, 1, 2, 2]
    uneven = [team_of_agent(i, 5, 3) for i in range(5)]
    assert uneven == [0, 0, 1, 1, 2]


def test_obstacle_free_override_has_no_walls():
    w = load_stage(1, 5, StageOverrides(wall_density=0.0))
    assert len(w.walls) == 0


def test_importing_bab_loads_no_yaml():
    # only StageOverrides.from_file reads YAML
    code = "import bab.cli, sys; assert 'yaml' not in sys.modules"
    src = str(Path(bab.__file__).parents[1])
    subprocess.run([sys.executable, "-c", code], check=True, env={**os.environ, "PYTHONPATH": src})


# ----------------------------------------------------------------------
# load_stage against the simple path
# ----------------------------------------------------------------------


seeds = st.one_of(
    st.integers(min_value=-2**63, max_value=2**63 - 1),
    st.integers(min_value=-100, max_value=100),
    st.integers(min_value=2**63 - 100, max_value=2**63 + 1),
    st.integers(min_value=-2**63 - 1, max_value=-2**63 + 100),
)
overrides = st.builds(
    StageOverrides,
    npcs=st.none() | st.integers(min_value=0, max_value=150),
    spawn_jitter_cells=st.none() | st.integers(min_value=0, max_value=4),
    wall_density=st.none() | st.sampled_from([0.0, 0.05, 0.42, 0.45])
    | st.floats(min_value=0.0, max_value=0.45),
    bases=st.none() | st.integers(min_value=1, max_value=4),
)


@given(stage_id=st.integers(min_value=1, max_value=7), seed=seeds, overrides=overrides)
@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_load_stage_matches_the_set_based_reference(stage_id, seed, overrides):
    try:
        expected = reference_load(stage_id, seed, overrides)
    except StageLoadError as exc:
        with pytest.raises(StageLoadError) as refused:
            load_stage(stage_id, seed, overrides)
        assert str(refused.value) == str(exc)
        return
    world = load_stage(stage_id, seed, overrides)
    assert world.tanks == expected.tanks
    assert world.bases == expected.bases
    assert world.walls.cells == expected.walls.cells
    assert world.rng_world.getstate() == expected.rng_world.getstate()
    assert world.rng_npc.getstate() == expected.rng_npc.getstate()
    assert world.world_hash() == expected.world_hash()
