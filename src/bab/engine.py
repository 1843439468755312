"""Simulation operations: movement, hitscan shooting, NPC policy, turn
resolution, and termination.

``play_turn`` is the one turn sequence of live runs and replay: parse
every reply, route cooperation, then ``step_turn``.

Resolution rules:
- One action per entity per turn; entities resolve strictly in id order,
  live agents first, then NPC tanks. Each action applies atomically
  against the current state, so simultaneous conflicts never arise.
- A move always rotates the tank to the move direction, even when the
  step is blocked.
- Bullets are instantaneous hitscans: a point ray leaves the shooter's
  front-edge center and advances in 8-px samples until it meets the
  first wall cell, live tank footprint, blocking base footprint, or the
  map boundary. At one sample a wall cell goes before a tank, and a tank
  before a base.
- A shot is resolved in one pass. The first sample inside each live
  tank and blocking base footprint is solved in closed form; the nearest
  one bounds the walk along the ray's centre line, which probes each
  sample's wall cell until it meets a wall or reaches that footprint.
"""

from __future__ import annotations

from .types import (
    BASE_HIT_SCORE,
    MAP_SIZE,
    MOVE_STEP,
    TANK_HIT_SCORE,
    TANK_SIZE,
    WALL_SIZE,
    Action,
    Blocker,
    CoopEvent,
    EndReason,
    EngineError,
    Goal,
    MOVE_DIRECTIONS,
    Orientation,
    Outcome,
    Pos,
    Tank,
    TankKind,
    TurnRecord,
    WorldState,
    in_bounds,
)
from .coop import route_coop
from .parsing import ParsedAction, parse_response

ALL_ACTIONS = tuple(Action)


def apply_move(world: WorldState, entity_id: int, direction: Orientation) -> Outcome:
    """Rotate the tank to `direction` and advance one 32-px step if the
    target footprint is free; report the blocker otherwise."""
    if not world.running:
        raise EngineError("world has ended")
    tank = world.require_tank(entity_id)
    tank.facing = direction
    pos, blocker, _ = _step_ahead(world, tank, direction)
    if blocker is not None:
        return Outcome("blocked", blocker=blocker)
    tank.pos = pos
    return Outcome("moved")


def _step_ahead(world: WorldState, tank: Tank, direction: Orientation):
    """The one blocker rule for a 32-px step: (pos, blocker, detail).
    Boundary, then wall (detail: the first present cell's pixel origin),
    then another live tank, then a blocking base; None when free."""
    dx, dy = direction.delta
    pos = Pos(tank.pos.x + dx * MOVE_STEP, tank.pos.y + dy * MOVE_STEP)
    if not in_bounds(*pos):
        return pos, Blocker.BOUNDARY, None
    cell = world.walls.first_in_rect(*pos, TANK_SIZE, TANK_SIZE)
    if cell is not None:
        return pos, Blocker.WALL, (cell[0] * WALL_SIZE, cell[1] * WALL_SIZE)
    other = world.tank_at_rect(*pos, exclude_id=tank.id)
    if other is not None:
        return pos, Blocker.TANK, other
    base = world.blocking_base_at_rect(*pos)
    return pos, (Blocker.BASE if base is not None else None), base


def apply_shoot(world: WorldState, shooter_id: int) -> Outcome:
    """Fire a hitscan ray along the shooter's facing.

    The first obstruction takes the hit: a wall cell is removed
    (``hit_wall`` with its ``cell``), a tank loses one health and leaves
    the grid at zero (``hit_tank`` with its ``target`` id and whether it
    was ``destroyed``), a blocking base is destroyed (``hit_base`` with
    its ``target`` id); ``no_hit`` when the ray leaves the map. Agent
    shooters score 1 for hitting a non-teammate tank and 5 for an enemy
    base, added to the shooter's score; friendly fire damages but never
    scores.
    """
    if not world.running:
        raise EngineError("world has ended")
    shooter = world.require_tank(shooter_id)
    dx, dy = shooter.facing.delta
    px, py = _ray_start(shooter)
    hit_k, target = _first_footprint(world, shooter, px, py, dx, dy)
    k = 0
    while 0 <= px < MAP_SIZE and 0 <= py < MAP_SIZE:
        cell = world.walls.cell_at(px, py)
        if cell is not None:
            world.walls.remove(*cell)
            return Outcome("hit_wall", cell=Pos(cell[0] * WALL_SIZE, cell[1] * WALL_SIZE))
        if k == hit_k:
            if isinstance(target, Tank):
                return _resolve_tank_hit(world, shooter, target)
            return _resolve_base_hit(world, shooter, target)
        px += dx * WALL_SIZE
        py += dy * WALL_SIZE
        k += 1
    return Outcome("no_hit")


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


def _first_footprint(world: WorldState, shooter: Tank, px: int, py: int, dx: int, dy: int):
    """(k, entity) for the footprint that the ray from (px, py) enters
    first, k being the index of its first 8-px sample inside it; (-1,
    None) when the ray crosses none. Live non-shooter tanks come before
    blocking bases, each in dict order, so ties keep the march's order."""
    axis, d = (0, dx) if dx else (1, dy)  # axis 0: the ray travels along x
    start, across = (px, py) if axis == 0 else (py, px)
    best_k, best = -1, None
    candidates = [t for t in world.tanks.values() if t.alive and t.id != shooter.id]
    candidates += [b for b in world.bases.values() if b.blocking]
    for item in candidates:
        pos = item.pos
        if not pos[1 - axis] <= across < pos[1 - axis] + TANK_SIZE:
            continue
        # distance along the ray from the start to the footprint's near pixel
        near = pos[axis] if d > 0 else pos[axis] + TANK_SIZE - 1
        lo = (near - start) * d
        if lo <= -TANK_SIZE:
            continue  # behind the start sample
        k = max(0, -(-lo // WALL_SIZE))
        if best is None or k < best_k:
            best_k, best = k, item
    return best_k, best


def _resolve_tank_hit(world: WorldState, shooter: Tank, target: Tank) -> Outcome:
    target.health -= 1
    if shooter.kind is TankKind.AGENT and not _same_team(shooter, target):
        shooter.score += TANK_HIT_SCORE
    return Outcome("hit_tank", target=target.id, destroyed=target.health == 0)


def _resolve_base_hit(world: WorldState, shooter: Tank, base) -> Outcome:
    base.destroyed = True
    if shooter.kind is TankKind.AGENT and base.team != shooter.team:
        shooter.score += BASE_HIT_SCORE
    # a team falls with its base: surviving tanks leave the grid
    for t in world.tanks.values():
        if t.alive and t.team == base.team:
            t.health = 0
    return Outcome("hit_base", target=base.id)


def _same_team(a: Tank, b: Tank) -> bool:
    return a.team is not None and a.team == b.team


def npc_policy(world: WorldState, npc_id: int) -> Action:
    """Uniform draw over the five actions from the NPC RNG stream."""
    tank = world.require_tank(npc_id)
    if tank.kind is not TankKind.NPC:
        raise EngineError(f"tank {npc_id} is not an NPC")
    return world.rng_npc.choice(ALL_ACTIONS)


def play_turn(world: WorldState, replies: dict[int, str],
              coop_enabled: bool) -> tuple[list[CoopEvent], list[TurnRecord]]:
    """Parse each live agent's reply, route cooperation commands, resolve
    the turn: (coop events, turn records)."""
    actions = {a_id: parse_response(world.config.stage_id, raw) for a_id, raw in replies.items()}
    events = route_coop(world, actions, coop_enabled)
    return events, step_turn(world, actions)


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
            outcome = Outcome("noop", reason="dead")
        elif not parsed.format_ok or parsed.action is None:
            outcome = Outcome("noop", reason="invalid_format")
        else:
            outcome = _apply_action(world, agent.id, parsed.action)
        records.append(
            TurnRecord(
                turn=world.turn,
                agent=agent.id,
                pos_before=pos_before[agent.id],
                pos_after=agent.pos,
                facing=agent.facing,
                action=parsed.action,
                target=parsed.target_id,
                coop=parsed.coop,
                format_ok=parsed.format_ok,
                outcome=outcome,
                score_delta=agent.score - score0,
                objective=objectives[agent.id],
                alive_after=agent.alive,
                reply=parsed.raw,
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
    # death freezes position; records reflect liveness after the NPCs acted
    for rec in records:
        rec.alive_after = world.tanks[rec.agent].alive
    return records


def _apply_action(world: WorldState, entity_id: int, action: Action) -> Outcome:
    if action is Action.SHOOT:
        return apply_shoot(world, entity_id)
    return apply_move(world, entity_id, MOVE_DIRECTIONS[action])


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
    ("clear", None), by the blocker rule apply_move uses.
    """
    _, blocker, detail = _step_ahead(world, tank, direction or tank.facing)
    return (blocker.value, detail) if blocker is not None else ("clear", None)
