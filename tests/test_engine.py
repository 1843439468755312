from __future__ import annotations

import random

import pytest

from bab.engine import (
    apply_move,
    apply_shoot,
    check_termination,
    npc_policy,
    step_turn,
)
from bab.parsing import ParsedAction, parse_response
from bab.stages import load_stage
from bab.types import (
    Action,
    Base,
    Blocker,
    DeadEntityError,
    EndReason,
    EngineError,
    Goal,
    Orientation,
    Outcome,
    Pos,
    UnknownEntityError,
    WallGrid,
)

from conftest import agent, base, make_world, npc, wall_cells_for_rect
from reference import (brute_force_hit, marched_shot, overlapping_pairs, random_configuration,
                       shot_hit)


def parsed(action: Action, target: int | None = None) -> ParsedAction:
    return ParsedAction(action=action, target_id=target, coop=None, format_ok=True)


# ----------------------------------------------------------------------
# apply_move
# ----------------------------------------------------------------------


def test_move_steps_one_tank_length_and_rotates():
    w = make_world([agent(1, 128, 128, facing=Orientation.UP)])
    out = apply_move(w, 1, Orientation.RIGHT)
    assert out.result == "moved"
    assert w.tanks[1].pos == Pos(160, 128)
    assert w.tanks[1].facing is Orientation.RIGHT


def test_move_blocked_by_boundary_keeps_position():
    w = make_world([agent(1, 0, 128)])
    out = apply_move(w, 1, Orientation.LEFT)
    assert out == Outcome("blocked", blocker=Blocker.BOUNDARY)
    assert w.tanks[1].pos == Pos(0, 128)
    assert w.tanks[1].facing is Orientation.LEFT  # blocked moves still rotate


def test_move_blocked_by_wall_cell():
    w = make_world([agent(1, 128, 128)], walls=wall_cells_for_rect(160, 128))
    out = apply_move(w, 1, Orientation.RIGHT)
    assert out == Outcome("blocked", blocker=Blocker.WALL)
    assert w.tanks[1].pos == Pos(128, 128)


def test_move_blocked_by_tank_and_base():
    w = make_world(
        [agent(1, 128, 128), agent(2, 160, 128, team=1)],
        [base(101, 128, 96, team=0)],
    )
    assert apply_move(w, 1, Orientation.RIGHT).blocker is Blocker.TANK
    assert apply_move(w, 1, Orientation.UP).blocker is Blocker.BASE


def test_move_onto_non_solid_goal_base_allowed():
    w = make_world(
        [agent(1, 128, 128)],
        [base(101, 160, 128, solid=False)],
        goal=Goal.NAVIGATION, n_bases=1, n_teams=1, n_agents=1,
    )
    assert apply_move(w, 1, Orientation.RIGHT).result == "moved"
    assert w.tanks[1].pos == Pos(160, 128)


def test_move_rejects_dead_and_unknown_ids():
    w = make_world([agent(1, 128, 128, health=0)])
    with pytest.raises(DeadEntityError):
        apply_move(w, 1, Orientation.UP)
    with pytest.raises(UnknownEntityError):
        apply_move(w, 99, Orientation.UP)


# ----------------------------------------------------------------------
# apply_shoot
# ----------------------------------------------------------------------


def test_shoot_destroys_npc_ahead_and_scores_one():
    # NPC three tank-cells ahead of the shooter
    w = make_world([agent(1, 128, 256, facing=Orientation.UP), npc(2, 128, 160)])
    out = apply_shoot(w, 1)
    assert out.result == "hit_tank"
    assert out.target == 2 and out.destroyed
    assert w.tanks[1].score == 1
    assert not w.tanks[2].alive


def test_shoot_enemy_base_scores_five_and_eliminates_team():
    w = make_world(
        [agent(1, 448, 256, facing=Orientation.UP), agent(2, 32, 32, team=1)],
        [base(101, 448, 64, team=1), base(102, 64, 448, team=0)],
    )
    out = apply_shoot(w, 1)
    assert out.result == "hit_base" and out.target == 101
    assert w.tanks[1].score == 5
    assert w.bases[101].destroyed
    assert not w.tanks[2].alive  # team 1 falls with its base


def test_shoot_clear_line_hits_nothing():
    w = make_world([agent(1, 256, 256, facing=Orientation.DOWN)])
    out = apply_shoot(w, 1)
    assert out.result == "no_hit"
    assert w.tanks[1].score == 0


def test_shoot_removes_single_wall_cell():
    cells = wall_cells_for_rect(256, 128, 32, 16)  # 4x2 cluster over the lane
    w = make_world([agent(1, 256, 192, facing=Orientation.UP)], walls=set(cells))
    out = apply_shoot(w, 1)
    assert out.result == "hit_wall"
    assert out.cell == (272, 136)  # nearest centerline cell, bottom row
    assert len(w.walls) == len(cells) - 1
    assert (34, 17) not in w.walls


def test_friendly_fire_damages_without_scoring():
    w = make_world(
        [agent(1, 128, 256, facing=Orientation.UP), agent(2, 128, 128, team=0)],
        [base(101, 320, 64, team=0), base(102, 64, 448, team=1)],
    )
    out = apply_shoot(w, 1)
    assert out.result == "hit_tank" and out.target == 2
    assert w.tanks[2].health == 4
    assert w.tanks[1].score == 0
    # own base: damage, no score, own team eliminated
    w2 = make_world(
        [agent(1, 320, 256, facing=Orientation.UP)],
        [base(101, 320, 64, team=0), base(102, 64, 448, team=1)],
    )
    out2 = apply_shoot(w2, 1)
    assert out2.result == "hit_base" and w2.tanks[1].score == 0
    assert w2.bases[101].destroyed and not w2.tanks[1].alive


def test_npc_shooter_never_scores():
    w = make_world([npc(5, 128, 256, facing=Orientation.UP), agent(1, 128, 128)])
    out = apply_shoot(w, 5)
    assert out.result == "hit_tank"
    assert w.tanks[5].score == 0
    assert w.tanks[1].health == 4


# ----------------------------------------------------------------------
# brute-force ray oracle
# ----------------------------------------------------------------------


@pytest.mark.parametrize("seed", range(4))
def test_shoot_matches_brute_force_oracle(seed):
    rng = random.Random(seed)
    for _ in range(100):
        w = random_configuration(rng)
        shooter = rng.choice(list(w.tanks.values()))
        expected = brute_force_hit(w, shooter)
        assert shot_hit(apply_shoot(w, shooter.id)) == expected


# ----------------------------------------------------------------------
# one-pass ray vs the 8-px march
# ----------------------------------------------------------------------


def shot_effects(world, shoot, shooter_id):
    """Fire once, then undo the shot. Returns the outcome, the removed
    wall cells, every tank's health and score, every base's
    state, and the wall-cell probes, in order."""
    walls = world.walls
    cells = set(walls.cells)
    tanks = {t.id: (t.health, t.score) for t in world.tanks.values()}
    bases = {b.id: b.destroyed for b in world.bases.values()}
    probes = []
    walls.cell_at = lambda x, y: probes.append((x, y)) or WallGrid.cell_at(walls, x, y)
    try:
        out = shoot(world, shooter_id)
    finally:
        del walls.cell_at
    effects = (
        out, cells - world.walls.cells,
        {t.id: (t.health, t.score) for t in world.tanks.values()},
        {b.id: b.destroyed for b in world.bases.values()},
        probes,
    )
    for cell in effects[1]:
        walls.add(*cell)
    for t in world.tanks.values():
        t.health, t.score = tanks[t.id]
    for b in world.bases.values():
        b.destroyed = bases[b.id]
    return effects


def assert_same_shot(world, shooter_id):
    expected = shot_effects(world, marched_shot, shooter_id)
    assert shot_effects(world, apply_shoot, shooter_id) == expected


@pytest.mark.parametrize("stage_id", [3, 4, 5, 6, 7])
def test_one_pass_ray_matches_march_on_stage_worlds(stage_id):
    """Every facing from every 32-px position on a stage's dense walls,
    with the tanks taking turns as the shooter."""
    world = load_stage(stage_id, 0)
    tanks = list(world.tanks.values())
    positions = [(x, y) for x in range(0, 512, 32) for y in range(0, 512, 32)]
    for i, (x, y) in enumerate(positions):
        shooter = tanks[i % len(tanks)]
        home = shooter.pos, shooter.facing
        for facing in Orientation:
            shooter.pos, shooter.facing = Pos(x, y), facing
            assert_same_shot(world, shooter.id)
        shooter.pos, shooter.facing = home


RAY_EDGE_CASES = {
    "map-edge-up": ([agent(1, 0, 0, facing=Orientation.UP)], [], set()),
    "map-edge-left": ([agent(1, 0, 240, facing=Orientation.LEFT)], [], set()),
    "map-edge-down": ([agent(1, 480, 480, facing=Orientation.DOWN)], [], set()),
    "map-edge-right": ([agent(1, 480, 8, facing=Orientation.RIGHT)], [], set()),
    "edge-facing-in": ([agent(1, 480, 240, facing=Orientation.LEFT), npc(2, 0, 240)], [], set()),
    "adjacent-tank-up": ([agent(1, 128, 128), agent(2, 128, 96, team=1)], [], set()),
    "adjacent-tank-left": (
        [agent(1, 128, 128, facing=Orientation.LEFT), npc(2, 96, 112)], [], set()),
    "adjacent-tank-right": (
        [agent(1, 128, 128, facing=Orientation.RIGHT), npc(2, 160, 152)], [], set()),
    "overlapping-tank": ([agent(1, 128, 128), npc(2, 128, 104)], [], set()),
    "tank-behind": ([agent(1, 128, 128), npc(2, 128, 160)], [], set()),
    "tank-off-column": ([agent(1, 128, 128), npc(2, 161, 0)], [], set()),
    "tank-edge-of-column": ([agent(1, 128, 128), npc(2, 113, 0)], [], set()),
    "tank-unaligned": ([agent(1, 128, 128, facing=Orientation.DOWN), npc(2, 131, 203)], [], set()),
    "wall-and-tank-same-sample": (
        [agent(1, 128, 128), npc(2, 128, 64)], [], wall_cells_for_rect(144, 88)),
    "wall-before-tank": ([agent(1, 128, 128), npc(2, 128, 64)], [], wall_cells_for_rect(144, 104)),
    "wall-after-tank": ([agent(1, 128, 128), npc(2, 128, 64)], [], wall_cells_for_rect(144, 56)),
    "tank-and-base-same-sample": (
        [agent(1, 128, 128, facing=Orientation.DOWN), agent(2, 128, 192, team=1)],
        [base(101, 128, 192, team=1)], set()),
    "base-before-tank": (
        [agent(1, 128, 128, facing=Orientation.DOWN), agent(2, 128, 256, team=1)],
        [base(101, 136, 200, team=1)], set()),
    "two-tanks-same-sample": (
        [agent(1, 128, 128), npc(3, 120, 48), npc(2, 136, 48)], [], set()),
    "non-solid-base": (
        [agent(1, 128, 128, facing=Orientation.RIGHT)], [base(101, 256, 128, solid=False)], set()),
    "destroyed-base": (
        [agent(1, 128, 128, facing=Orientation.RIGHT)],
        [Base(id=101, team=1, pos=Pos(256, 128), destroyed=True)], set()),
    "dead-tank": (
        [agent(1, 128, 128, facing=Orientation.LEFT), agent(2, 64, 128, team=1, health=0)],
        [], set()),
}


@pytest.mark.parametrize("case", RAY_EDGE_CASES)
def test_one_pass_ray_matches_march_on_edge_cases(case):
    tanks, bases, walls = RAY_EDGE_CASES[case]
    assert_same_shot(make_world(tanks, bases, walls), 1)


# ----------------------------------------------------------------------
# npc_policy
# ----------------------------------------------------------------------


def test_npc_policy_golden_sequence():
    w = load_stage(2, 0)
    first_npc = w.live_npcs()[0].id
    drawn = [npc_policy(w, first_npc).value for _ in range(5)]
    assert drawn == [
        "#Move_right#", "#Shoot#", "#Move_down#", "#Move_up#", "#Move_left#",
    ]


def test_npc_policy_uniform_over_actions():
    w = load_stage(2, 1)
    npc_id = w.live_npcs()[0].id
    counts = {a: 0 for a in Action}
    n = 10_000
    for _ in range(n):
        counts[npc_policy(w, npc_id)] += 1
    for a, c in counts.items():
        assert 0.18 <= c / n <= 0.22, f"{a}: {c / n}"


def test_npc_policy_rejects_dead_and_agents():
    w = make_world([npc(2, 128, 128), agent(1, 256, 256)])
    w.tanks[2].health = 0
    with pytest.raises(DeadEntityError):
        npc_policy(w, 2)
    with pytest.raises(EngineError):
        npc_policy(w, 1)


# ----------------------------------------------------------------------
# step_turn
# ----------------------------------------------------------------------


def test_step_turn_resolves_in_id_order():
    # both agents race for the cell (160, 128); the lower id wins
    w = make_world(
        [agent(1, 128, 128), agent(2, 192, 128, team=1)],
        [base(101, 64, 448), base(102, 448, 64, team=1)],
    )
    records = step_turn(w, {
        1: parsed(Action.MOVE_RIGHT),
        2: parsed(Action.MOVE_LEFT),
    })
    assert records[0].outcome == Outcome("moved")
    assert records[1].outcome == Outcome("blocked", blocker=Blocker.TANK)
    assert w.tanks[1].pos == Pos(160, 128)
    assert w.tanks[2].pos == Pos(192, 128)
    assert w.turn == 1


def test_step_turn_invalid_action_is_noop():
    w = make_world(
        [agent(1, 128, 128)],
        [base(101, 64, 448), base(102, 448, 64, team=1)],
        n_agents=1,
    )
    records = step_turn(w, {1: parse_response(4, "I think we should flank.")})
    assert records[0].outcome == Outcome("noop", reason="invalid_format")
    assert not records[0].format_ok
    assert w.tanks[1].pos == Pos(128, 128)


def test_step_turn_requires_exact_live_agent_cover():
    w = make_world(
        [agent(1, 128, 128), agent(2, 192, 128, team=1)],
        [base(101, 64, 448), base(102, 448, 64, team=1)],
    )
    with pytest.raises(EngineError, match="missing"):
        step_turn(w, {1: parsed(Action.SHOOT)})
    with pytest.raises(EngineError, match="extra"):
        step_turn(w, {1: parsed(Action.SHOOT), 2: parsed(Action.SHOOT),
                      3: parsed(Action.SHOOT)})


def test_step_turn_deterministic_repetition():
    def run_once():
        w = load_stage(2, 5)
        hashes = []
        while w.status is None and w.turn < 15:
            actions = {
                a.id: parsed(Action.MOVE_RIGHT if w.turn % 2 else Action.SHOOT)
                for a in w.live_agents()
            }
            step_turn(w, actions)
            hashes.append(w.world_hash())
        return hashes

    assert run_once() == run_once()


def test_turn_counter_increments_until_end():
    w = make_world(
        [agent(1, 128, 128)],
        [base(101, 448, 64, solid=False)],
        goal=Goal.NAVIGATION, n_agents=1, n_teams=1, n_bases=1, turn_cap=3,
    )
    for expected in (1, 2, 3):
        step_turn(w, {1: parsed(Action.SHOOT)})
        assert w.turn == expected
    assert w.status is EndReason.TURN_CAP
    with pytest.raises(EngineError):
        step_turn(w, {1: parsed(Action.SHOOT)})


# ----------------------------------------------------------------------
# check_termination
# ----------------------------------------------------------------------


def test_navigation_goal_reached_on_exact_arrival():
    w = make_world(
        [agent(1, 448, 64)],
        [base(101, 448, 64, solid=False)],
        goal=Goal.NAVIGATION, n_agents=1, n_teams=1, n_bases=1,
    )
    status = check_termination(w)
    assert status == (EndReason.GOAL_REACHED, 0)


def test_navigation_one_step_away_keeps_running():
    w = make_world(
        [agent(1, 448, 96)],
        [base(101, 448, 64, solid=False)],
        goal=Goal.NAVIGATION, n_agents=1, n_teams=1, n_bases=1,
    )
    assert check_termination(w) is None


def test_combat_ends_when_one_team_remains():
    w = make_world(
        [agent(1, 128, 128), agent(2, 384, 384, team=1)],
        [base(101, 64, 448, team=0), base(102, 448, 64, team=1)],
    )
    assert check_termination(w) is None
    w.bases[102].destroyed = True
    assert check_termination(w) == (EndReason.TEAM_VICTORY, 0)


def test_turn_cap_reached():
    w = make_world(
        [agent(1, 128, 128), agent(2, 384, 384, team=1)],
        [base(101, 64, 448, team=0), base(102, 448, 64, team=1)],
        turn_cap=10,
    )
    w.turn = 10
    assert check_termination(w) == (EndReason.TURN_CAP, None)


# ----------------------------------------------------------------------
# conservation and exclusivity under fuzzing
# ----------------------------------------------------------------------


@pytest.mark.parametrize("seed", [11, 23])
def test_fuzzed_episode_invariants(seed):
    rng = random.Random(seed)
    w = load_stage(5, seed)
    wall_count = len(w.walls)
    health_total = sum(t.health for t in w.tanks.values())
    while w.status is None:
        actions = {
            a.id: parsed(rng.choice(list(Action)), target=rng.randint(0, 20))
            for a in w.live_agents()
        }
        score_before = {t.id: t.score for t in w.tanks.values()}
        records = step_turn(w, actions)

        assert len(w.walls) <= wall_count
        wall_count = len(w.walls)
        new_health = sum(t.health for t in w.tanks.values())
        assert new_health <= health_total
        health_total = new_health
        for t in w.tanks.values():
            assert t.score >= score_before[t.id]
        # score deltas decompose into 1-point tank hits and 5-point base hits
        tank_hits = sum(1 for r in records
                        if r.outcome.result == "hit_tank" and r.score_delta)
        base_hits = sum(1 for r in records
                        if r.outcome.result == "hit_base" and r.score_delta)
        assert sum(r.score_delta for r in records) == tank_hits + 5 * base_hits
        assert overlapping_pairs(w) == []
    assert w.turn <= w.config.turn_cap


def test_score_delta_decomposition():
    # dedicated check: every positive delta is exactly one scoring hit
    rng = random.Random(3)
    w = load_stage(4, 3)
    while w.status is None:
        actions = {
            a.id: parsed(rng.choice(list(Action)), target=0)
            for a in w.live_agents()
        }
        for r in step_turn(w, actions):
            if r.score_delta:
                kind = r.outcome.result
                assert (kind == "hit_tank" and r.score_delta == 1) or (
                    kind == "hit_base" and r.score_delta == 5
                )
