from __future__ import annotations

import pytest

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
    Goal,
    StageLoadError,
    TankKind,
)

from test_engine import overlapping_pairs


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
    assert len(w.live_agents()) == s["agents"]
    assert len(w.live_npcs()) == s["npcs"]
    assert w.config.turn_cap == s["turns"]
    assert w.config.n_teams == s["teams"]
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


def test_override_file_roundtrip(tmp_path):
    path = tmp_path / "stage.yaml"
    path.write_text("agents: 4\nteams: 2\nwall_density: 0.0\n", encoding="utf-8")
    ov = StageOverrides.from_file(path)
    assert ov.agents == 4 and ov.teams == 2 and ov.wall_density == 0.0
    w = load_stage(4, 2, ov)
    assert len(w.live_agents()) == 4
    assert len(w.walls) == 0


def test_override_validation_errors():
    with pytest.raises(StageLoadError):
        resolve_config(4, StageOverrides(teams=3, agents=2))  # team without agent
    with pytest.raises(StageLoadError):
        resolve_config(4, StageOverrides(bases=1))  # fewer bases than teams
    with pytest.raises(StageLoadError):
        resolve_config(1, StageOverrides(wall_density=0.9))
    with pytest.raises(StageLoadError, match="too many agents"):
        load_stage(4, 1, StageOverrides(agents=20, teams=2))
    # the goal cannot move a stage between navigation and combat
    with pytest.raises(StageLoadError, match="does not fit"):
        resolve_config(4, StageOverrides(goal="navigation", bases=1))
    with pytest.raises(StageLoadError, match="does not fit"):
        resolve_config(1, StageOverrides(goal="competitive_task"))
    with pytest.raises(StageLoadError, match="does not fit"):
        resolve_config(2, StageOverrides(goal="cooperative_task", bases=2))
    with pytest.raises(StageLoadError, match="one team"):
        resolve_config(1, StageOverrides(agents=2, teams=2))
    with pytest.raises(StageLoadError, match="two bases"):
        resolve_config(3, StageOverrides(bases=1))


def test_team_assignment_blocks_first_team_first():
    teams = [team_of_agent(i, 6, 3) for i in range(6)]
    assert teams == [0, 0, 1, 1, 2, 2]
    uneven = [team_of_agent(i, 5, 3) for i in range(5)]
    assert uneven == [0, 0, 1, 1, 2]


def test_obstacle_free_override_has_no_walls():
    w = load_stage(1, 5, StageOverrides(wall_density=0.0))
    assert len(w.walls) == 0


def test_agents_coop_capable_npcs_not():
    w = load_stage(6, 2)
    for t in w.tanks.values():
        assert t.coop_capable == (t.kind is TankKind.AGENT)
