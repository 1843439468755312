"""Simulation operations: movement, hitscan shooting, NPC policy, turn
resolution, and termination.

Resolution rules:
- One action per entity per turn; entities resolve strictly in id order,
  live agents first, then NPC tanks. Each action applies atomically
  against the current state, so simultaneous conflicts never arise.
- A move always rotates the tank to the move direction, even when the
  step is blocked.
- Bullets are instantaneous hitscans: a point ray leaves the shooter's
  front-edge center and advances in 8-px samples until it meets the
  first wall cell, live tank footprint, blocking base footprint, or the
  map boundary.
"""

from __future__ import annotations

from .types import (
    BASE_HIT_SCORE,
    MAP_SIZE,
    MOVE_STEP,
    NOOP_OUTCOME,
    TANK_HIT_SCORE,
    TANK_SIZE,
    WALL_SIZE,
    Action,
    Blocker,
    EndReason,
    EngineError,
    Goal,
    MOVE_DIRECTIONS,
    MoveOutcome,
    Orientation,
    Pos,
    ShootOutcome,
    Tank,
    TankKind,
    TurnRecord,
    WorldState,
    in_bounds,
)
from .parsing import ParsedAction

NPC_ACTIONS = (
    Action.MOVE_UP,
    Action.MOVE_DOWN,
    Action.MOVE_LEFT,
    Action.MOVE_RIGHT,
    Action.SHOOT,
)


def apply_move(world: WorldState, entity_id: int, direction: Orientation) -> MoveOutcome:
    """Rotate the tank to `direction` and advance one 32-px step if the
    target footprint is free; report the blocker otherwise."""
    if not world.running:
        raise EngineError("world has ended")
    tank = world.require_tank(entity_id)
    tank.facing = direction
    dx, dy = direction.delta
    nx, ny = tank.pos.x + dx * MOVE_STEP, tank.pos.y + dy * MOVE_STEP
    if not in_bounds(nx, ny):
        return MoveOutcome(False, Blocker.BOUNDARY)
    if world.walls.overlaps_rect(nx, ny, TANK_SIZE, TANK_SIZE):
        return MoveOutcome(False, Blocker.WALL)
    if world.tank_at_rect(nx, ny, exclude_id=entity_id) is not None:
        return MoveOutcome(False, Blocker.TANK)
    if world.blocking_base_at_rect(nx, ny) is not None:
        return MoveOutcome(False, Blocker.BASE)
    tank.pos = Pos(nx, ny)
    return MoveOutcome(True)


def apply_shoot(world: WorldState, shooter_id: int) -> ShootOutcome:
    """Fire a hitscan ray along the shooter's facing.

    The first obstruction takes the hit: a wall cell is removed, a tank
    loses one health (and leaves the grid at zero), a blocking base is
    destroyed. Agent shooters score 1 for hitting a non-teammate tank
    and 5 for an enemy base; friendly fire damages but never scores.
    """
    if not world.running:
        raise EngineError("world has ended")
    shooter = world.require_tank(shooter_id)
    dx, dy = shooter.facing.delta
    px, py = _ray_start(shooter)
    while 0 <= px < MAP_SIZE and 0 <= py < MAP_SIZE:
        cell = world.walls.cell_at(px, py)
        if cell is not None:
            world.walls.remove(*cell)
            return ShootOutcome("hit_wall", cell=(cell[0] * WALL_SIZE, cell[1] * WALL_SIZE))
        target = world.tank_at_rect(px, py, exclude_id=shooter_id, size=1)
        if target is not None:
            return _resolve_tank_hit(world, shooter, target)
        base = world.blocking_base_at_rect(px, py, size=1)
        if base is not None:
            return _resolve_base_hit(world, shooter, base)
        px += dx * WALL_SIZE
        py += dy * WALL_SIZE
    return ShootOutcome("no_hit")


def _ray_start(shooter: Tank) -> tuple[int, int]:
    """First sample point: front-edge center, just outside the footprint."""
    cx = shooter.pos.x + TANK_SIZE // 2
    cy = shooter.pos.y + TANK_SIZE // 2
    if shooter.facing is Orientation.UP:
        return cx, shooter.pos.y - WALL_SIZE
    if shooter.facing is Orientation.DOWN:
        return cx, shooter.pos.y + TANK_SIZE
    if shooter.facing is Orientation.LEFT:
        return shooter.pos.x - WALL_SIZE, cy
    return shooter.pos.x + TANK_SIZE, cy


def _resolve_tank_hit(world: WorldState, shooter: Tank, target: Tank) -> ShootOutcome:
    target.health -= 1
    destroyed = target.health == 0
    score = 0
    if shooter.kind is TankKind.AGENT and not _same_team(shooter, target):
        score = TANK_HIT_SCORE
        shooter.score += score
    return ShootOutcome("hit_tank", target_id=target.id, destroyed=destroyed, score=score)


def _resolve_base_hit(world: WorldState, shooter: Tank, base) -> ShootOutcome:
    base.destroyed = True
    score = 0
    if shooter.kind is TankKind.AGENT and base.team != shooter.team:
        score = BASE_HIT_SCORE
        shooter.score += score
    # a team falls with its base: surviving tanks leave the grid
    for t in world.tanks.values():
        if t.alive and t.team == base.team:
            t.health = 0
    return ShootOutcome("hit_base", target_id=base.id, score=score)


def _same_team(a: Tank, b: Tank) -> bool:
    return a.team is not None and a.team == b.team


def npc_policy(world: WorldState, npc_id: int) -> Action:
    """Uniform draw over the five actions from the NPC RNG stream."""
    tank = world.require_tank(npc_id)
    if tank.kind is not TankKind.NPC:
        raise EngineError(f"tank {npc_id} is not an NPC")
    return world.rng_npc.choice(NPC_ACTIONS)


def step_turn(world: WorldState, actions: dict[int, ParsedAction]) -> list[TurnRecord]:
    """Resolve one turn: agents in id order, then NPCs in id order.

    `actions` must cover exactly the live agents. Format-invalid or
    absent commands resolve as no-ops. Returns one record per agent;
    the turn counter advances by one and the status is refreshed.
    """
    if not world.running:
        raise EngineError("world has ended")
    agents = world.live_agents()
    agent_ids = {a.id for a in agents}
    if set(actions) != agent_ids:
        missing = sorted(agent_ids - set(actions))
        extra = sorted(set(actions) - agent_ids)
        raise EngineError(
            f"actions must cover exactly the live agents; missing={missing} extra={extra}"
        )

    # decision-time snapshot: objectives and starting positions are taken
    # before anything moves this turn
    objectives = {a.id: _objective_for(world, a, actions[a.id]) for a in agents}
    pos_before = {a.id: a.pos for a in agents}

    records: list[TurnRecord] = []
    for agent in agents:
        parsed = actions[agent.id]
        score0 = agent.score
        if not agent.alive:
            outcome = {"result": "noop", "reason": "dead"}
        elif not parsed.format_ok or parsed.action is None:
            outcome = {"result": "noop", "reason": "invalid_format"}
        else:
            outcome = _apply_action(world, agent.id, parsed.action)
        records.append(
            TurnRecord(
                turn=world.turn,
                agent_id=agent.id,
                pos_before=pos_before[agent.id],
                pos_after=agent.pos,
                facing_after=agent.facing,
                action=parsed.action.value if parsed.action else None,
                target_id=parsed.target_id,
                coop=parsed.coop_dict(),
                format_ok=parsed.format_ok,
                outcome=outcome,
                score_delta=agent.score - score0,
                objective=objectives[agent.id],
                alive_after=agent.alive,
            )
        )

    for npc in world.live_npcs():
        if not npc.alive:  # killed earlier this turn; never queried
            continue
        _apply_action(world, npc.id, npc_policy(world, npc.id))

    world.last_turn_targets = {
        a_id: p.target_id
        for a_id, p in actions.items()
        if p.format_ok and p.target_id is not None
    }
    world.turn += 1

    status = check_termination(world)
    if status is not None:
        world.status, world.winner_team = status
        # death freezes position; records reflect post-turn liveness
        for rec in records:
            rec.alive_after = world.tanks[rec.agent_id].alive
    return records


def _apply_action(world: WorldState, entity_id: int, action: Action) -> dict:
    if action is Action.SHOOT:
        return apply_shoot(world, entity_id).to_dict()
    direction = MOVE_DIRECTIONS[action]
    return apply_move(world, entity_id, direction).to_dict()


def _objective_for(world: WorldState, agent: Tank, parsed: ParsedAction) -> Pos | None:
    """The position the agent is judged against this turn.

    The declared target when it names a live enemy tank (only combat
    replies name one), else the agent's base objective.
    """
    target = world.tanks.get(parsed.target_id)
    if target is not None and target.alive and not _same_team(agent, target):
        return target.pos
    return base_objective(world, agent)


def base_objective(world: WorldState, agent: Tank) -> Pos | None:
    """The goal base on navigation stages, else the nearest intact enemy
    base (ties to the lower id); None when there is none."""
    if world.config.goal is Goal.NAVIGATION:
        base = world.base_for_team(agent.team)
        return base.pos if base is not None else None
    enemy = [b for b in world.bases.values() if not b.destroyed and b.team != agent.team]
    if not enemy:
        return None
    return min(enemy, key=lambda b: (agent.pos.l1(b.pos), b.id)).pos


def check_termination(world: WorldState) -> tuple[EndReason, int | None] | None:
    """Evaluate the stage's end condition against the current state.

    Navigation: ends when a live agent stands exactly on the goal base,
    or at the turn cap. Combat: a team dies with its base; the episode
    ends when at most one team still has a standing base, or at the cap.
    """
    if world.status is not None:
        return world.status, world.winner_team
    if world.config.goal is Goal.NAVIGATION:
        goal = next(iter(world.bases.values()))
        for agent in world.live_agents():
            if agent.pos == goal.pos:
                return EndReason.GOAL_REACHED, agent.team
    else:
        alive = world.teams_alive()
        if len(alive) <= 1:
            winner = next(iter(alive)) if len(alive) == 1 else None
            return EndReason.TEAM_VICTORY, winner
    if world.turn >= world.config.turn_cap:
        return EndReason.TURN_CAP, None
    return None


def probe_ahead(world: WorldState, tank: Tank, direction: Orientation | None = None):
    """What occupies the 32-px cell one move ahead of the tank.

    Returns (kind, detail): ("boundary", None), ("wall", (x, y) of the
    first present wall cell), ("tank", Tank), ("base", Base), or
    ("clear", None). Mirrors the blocker priority of apply_move.
    """
    d = direction or tank.facing
    dx, dy = d.delta
    nx, ny = tank.pos.x + dx * MOVE_STEP, tank.pos.y + dy * MOVE_STEP
    if not in_bounds(nx, ny):
        return "boundary", None
    cell = next(world.walls.cells_in_rect(nx, ny, TANK_SIZE, TANK_SIZE), None)
    if cell is not None:
        return "wall", (cell[0] * WALL_SIZE, cell[1] * WALL_SIZE)
    other = world.tank_at_rect(nx, ny, exclude_id=tank.id)
    if other is not None:
        return "tank", other
    base = world.blocking_base_at_rect(nx, ny)
    if base is not None:
        return "base", base
    return "clear", None
