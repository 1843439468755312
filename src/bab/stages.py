"""Stage definitions and deterministic world construction.

Default settings for the seven stages (turn caps, entity counts, goals)
live in STAGE_SETTINGS, and each stage's reply and prompt format in
STAGE_PROTOCOLS. Layouts follow a fixed scheme: bases sit near map
corners, each team's agents spawn next to their own base (jittered in
whole 32-px cells), interference NPC tanks scatter over the central
region, and sparse wall clusters fill the rest. All randomness comes from
the world RNG stream, so identical (stage_id, seed, overrides) inputs
always produce byte-identical worlds.
"""

from __future__ import annotations

import random
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

import yaml

from .types import (
    AGENT_HEALTH,
    MAP_SIZE,
    MOVE_STEP,
    NPC_HEALTH,
    TANK_SIZE,
    WALL_SIZE,
    Base,
    CoopTopology,
    Goal,
    Orientation,
    Pos,
    StageConfig,
    StageLoadError,
    Tank,
    TankKind,
    WallGrid,
    WorldState,
    first_overlapping,
    in_bounds,
)

STAGE_SETTINGS: dict[int, dict] = {
    1: dict(turns=60, agents=1, teams=1, bases=1, npcs=0, wall_density=0.05,
            goal=Goal.NAVIGATION, coop_topology=CoopTopology.NONE),
    2: dict(turns=60, agents=1, teams=1, bases=1, npcs=10, wall_density=0.05,
            goal=Goal.NAVIGATION, coop_topology=CoopTopology.NONE),
    3: dict(turns=80, agents=2, teams=1, bases=2, npcs=10, wall_density=0.42,
            goal=Goal.COOPERATIVE, coop_topology=CoopTopology.INTRA_TEAM),
    4: dict(turns=80, agents=2, teams=2, bases=2, npcs=10, wall_density=0.42,
            goal=Goal.COMPETITIVE, coop_topology=CoopTopology.NONE),
    5: dict(turns=80, agents=4, teams=2, bases=2, npcs=10, wall_density=0.42,
            goal=Goal.STATIC_COOP, coop_topology=CoopTopology.INTRA_TEAM),
    6: dict(turns=80, agents=4, teams=4, bases=4, npcs=10, wall_density=0.42,
            goal=Goal.DYNAMIC_COOP, coop_topology=CoopTopology.INTER_TEAM),
    7: dict(turns=80, agents=6, teams=3, bases=3, npcs=10, wall_density=0.42,
            goal=Goal.HYBRID_COOP, coop_topology=CoopTopology.BOTH),
}


@dataclass(frozen=True)
class StageProtocol:
    """A stage's reply and prompt format.

    navigation: one team drives to a goal base; otherwise a combat stage.
    targeted: replies name an attack target ("Target <id>:").
    coop: replies use the attack marker and may add a cooperation line.
    typed: prompt tank tuples carry a normal/advanced type field.
    """

    navigation: bool = False
    targeted: bool = False
    coop: bool = False
    typed: bool = False


_NAV, _DUEL = StageProtocol(navigation=True), StageProtocol(targeted=True)
_COOP = StageProtocol(targeted=True, coop=True)
_TYPED = StageProtocol(targeted=True, coop=True, typed=True)
STAGE_PROTOCOLS = {1: _NAV, 2: _NAV, 3: _COOP, 4: _DUEL, 5: _COOP, 6: _TYPED, 7: _TYPED}


def coop_active(config: StageConfig, coop_enabled: bool) -> bool:
    """Whether prompts offer cooperation and local backends reply with it."""
    protocol = STAGE_PROTOCOLS[config.stage_id]
    return coop_enabled and protocol.coop and config.coop_topology is not CoopTopology.NONE


DEFAULT_SPAWN_JITTER_CELLS = 2

BASE_ID_OFFSET = 100

# Navigation stages: the lone agent starts in the bottom-left region and
# must cross the map to the goal base near the top-right corner. The
# anchor keeps two jitter cells of clearance from the map edges so the
# boundary does not funnel the spawn.
NAV_AGENT_ANCHOR = Pos(128, 384)
NAV_BASE_ANCHOR = Pos(448, 64)

# Combat stages: per-team base anchors, one map corner each. The anchors
# hug the edges and deliberately share no row or column, so no base sits
# in another's fire lane at load time.
BASE_CORNERS = [Pos(64, 448), Pos(448, 64), Pos(96, 32), Pos(416, 480)]

_CENTER = MAP_SIZE // 2

OVERRIDE_KEYS = (
    "turns",
    "agents",
    "teams",
    "bases",
    "npcs",
    "spawn_jitter_cells",
    "wall_density",
    "goal",
    "coop_topology",
)


@dataclass(frozen=True)
class StageOverrides:
    """Partial stage configuration; unset fields keep the stage defaults."""

    turns: int | None = None
    agents: int | None = None
    teams: int | None = None
    bases: int | None = None
    npcs: int | None = None
    spawn_jitter_cells: int | None = None
    wall_density: float | None = None
    goal: str | None = None
    coop_topology: str | None = None

    @classmethod
    def from_mapping(cls, data: dict) -> "StageOverrides":
        unknown = set(data) - set(OVERRIDE_KEYS)
        if unknown:
            raise StageLoadError(
                f"unknown stage-config keys: {sorted(unknown)}; "
                f"allowed: {list(OVERRIDE_KEYS)}"
            )
        return cls(**data)

    @classmethod
    def from_file(cls, path: str | Path) -> "StageOverrides":
        data = yaml.safe_load(Path(path).read_text(encoding="utf-8"))
        if data is None:
            data = {}
        if not isinstance(data, dict):
            raise StageLoadError(f"stage config {path} must be a key: value mapping")
        return cls.from_mapping(data)

    def as_dict(self) -> dict:
        return {k: v for k, v in self.__dict__.items() if v is not None}


def derive_seed(seed: int, tag: str) -> int:
    """Stable sub-stream seed; never uses Python's randomized hash()."""
    crc = zlib.crc32(tag.encode("utf-8")) & 0xFFFFFFFF
    return (seed & 0xFFFFFFFFFFFF) ^ (crc << 8)


def resolve_config(stage_id: int, overrides: StageOverrides | None = None) -> StageConfig:
    if stage_id not in STAGE_SETTINGS:
        raise StageLoadError(f"invalid stage id {stage_id}; expected 1..7")
    s = dict(STAGE_SETTINGS[stage_id])
    ov = overrides or StageOverrides()
    goal = Goal(ov.goal) if ov.goal is not None else s["goal"]
    topology = (
        CoopTopology(ov.coop_topology)
        if ov.coop_topology is not None
        else s["coop_topology"]
    )
    cfg = StageConfig(
        stage_id=stage_id,
        turn_cap=ov.turns if ov.turns is not None else s["turns"],
        n_agents=ov.agents if ov.agents is not None else s["agents"],
        n_teams=ov.teams if ov.teams is not None else s["teams"],
        n_bases=ov.bases if ov.bases is not None else s["bases"],
        n_npcs=ov.npcs if ov.npcs is not None else s["npcs"],
        goal=goal,
        coop_topology=topology,
        spawn_jitter_cells=(
            ov.spawn_jitter_cells
            if ov.spawn_jitter_cells is not None
            else DEFAULT_SPAWN_JITTER_CELLS
        ),
        wall_density=(
            ov.wall_density if ov.wall_density is not None else s["wall_density"]
        ),
    )
    _validate_config(cfg)
    return cfg


def _validate_config(cfg: StageConfig) -> None:
    if cfg.turn_cap < 1:
        raise StageLoadError("turns must be >= 1")
    if cfg.n_agents < 1 or cfg.n_teams < 1:
        raise StageLoadError("agents and teams must be >= 1")
    if cfg.n_agents < cfg.n_teams:
        raise StageLoadError("need at least one agent per team")
    navigation = STAGE_PROTOCOLS[cfg.stage_id].navigation
    if (cfg.goal is Goal.NAVIGATION) != navigation:
        raise StageLoadError(
            f"goal {cfg.goal.value!r} does not fit stage {cfg.stage_id}'s reply format"
        )
    if navigation:
        if cfg.n_teams != 1 or cfg.n_bases != 1:
            raise StageLoadError("navigation stages use exactly one team and one base")
    else:
        if cfg.n_bases < max(2, cfg.n_teams):
            raise StageLoadError("combat stages need two bases or more, one per team")
        if cfg.n_bases > len(BASE_CORNERS):
            raise StageLoadError(f"at most {len(BASE_CORNERS)} bases supported")
    if not 0.0 <= cfg.wall_density <= 0.45:
        raise StageLoadError("wall_density must be in [0, 0.45]")
    if cfg.spawn_jitter_cells < 0:
        raise StageLoadError("spawn_jitter_cells must be >= 0")


def team_of_agent(index: int, n_agents: int, n_teams: int) -> int:
    """Block assignment: the first team gets the first agents."""
    per_team, extra = divmod(n_agents, n_teams)
    sizes = [per_team + (1 if t < extra else 0) for t in range(n_teams)]
    team = 0
    while index >= sizes[team]:
        index -= sizes[team]
        team += 1
    return team


def load_stage(
    stage_id: int,
    seed: int,
    overrides: StageOverrides | None = None,
) -> WorldState:
    """Build a running world for the stage, deterministically from the seed."""
    cfg = resolve_config(stage_id, overrides)
    rng_world = random.Random(derive_seed(seed, "world"))
    rng_npc = random.Random(derive_seed(seed, "npc"))

    bases = _place_bases(cfg)
    walls = WallGrid()
    if cfg.wall_density > 0:
        for b in bases.values():
            if b.solid:
                _add_base_ring(walls, b.pos)

    tanks: dict[int, Tank] = {}
    placed = [_Placed(f"base {b.id}", b.pos) for b in bases.values()]

    for i in range(cfg.n_agents):
        agent_id = i + 1
        team = team_of_agent(i, cfg.n_agents, cfg.n_teams)
        anchor = _agent_anchor(cfg, bases, team, i)
        pos = _jitter_spawn(cfg, rng_world, anchor, placed, walls, f"agent {agent_id}")
        tanks[agent_id] = Tank(
            id=agent_id,
            kind=TankKind.AGENT,
            team=team,
            pos=pos,
            facing=_face_outward(pos),
            health=AGENT_HEALTH,
            coop_capable=True,
        )
        placed.append(_Placed(f"agent {agent_id}", pos))

    npc_cells = _npc_spawn_cells(cfg, rng_world, placed, walls)
    for j, pos in enumerate(npc_cells):
        npc_id = cfg.n_agents + 1 + j
        tanks[npc_id] = Tank(
            id=npc_id,
            kind=TankKind.NPC,
            team=None,
            pos=pos,
            facing=_face_outward(pos),
            health=NPC_HEALTH,
        )
        placed.append(_Placed(f"npc {npc_id}", pos))

    _scatter_walls(walls, cfg, rng_world, placed)

    return WorldState(
        config=cfg,
        seed=seed,
        tanks=tanks,
        bases=bases,
        walls=walls,
        rng_world=rng_world,
        rng_npc=rng_npc,
    )


# ----------------------------------------------------------------------
# placement helpers
# ----------------------------------------------------------------------


class _Placed(NamedTuple):
    """A footprint already on the map, named for error messages."""

    name: str
    pos: Pos


def _place_bases(cfg: StageConfig) -> dict[int, Base]:
    bases: dict[int, Base] = {}
    if cfg.goal is Goal.NAVIGATION:
        base_id = BASE_ID_OFFSET + 1
        bases[base_id] = Base(id=base_id, team=0, pos=NAV_BASE_ANCHOR, solid=False)
        return bases
    for k in range(cfg.n_bases):
        base_id = BASE_ID_OFFSET + 1 + k
        bases[base_id] = Base(id=base_id, team=k, pos=BASE_CORNERS[k], solid=True)
    return bases


def _agent_anchor(cfg: StageConfig, bases: dict[int, Base], team: int, index: int) -> Pos:
    if cfg.goal is Goal.NAVIGATION:
        return NAV_AGENT_ANCHOR
    base = next(b for b in bases.values() if b.team == team)
    sx = 1 if base.pos.x < _CENTER else -1
    sy = 1 if base.pos.y < _CENTER else -1
    # diagonal offsets only, clear of the base's wall ring: no agent
    # starts inside its own base's fire lane
    offsets = [
        (2, 1), (1, 2), (2, 2), (3, 1), (1, 3), (3, 3), (2, 3), (3, 2),
    ]
    rank = sum(
        1
        for i in range(index)
        if team_of_agent(i, cfg.n_agents, cfg.n_teams) == team
    )
    if rank >= len(offsets):
        raise StageLoadError(f"too many agents for team {team} (max {len(offsets)})")
    ox, oy = offsets[rank]
    return Pos(base.pos.x + ox * MOVE_STEP * sx, base.pos.y + oy * MOVE_STEP * sy)


def _face_outward(pos: Pos) -> Orientation:
    """Spawn facing the nearest map edge, away from the contested center."""
    dx = _CENTER - (pos.x + TANK_SIZE // 2)
    dy = _CENTER - (pos.y + TANK_SIZE // 2)
    if abs(dx) >= abs(dy):
        return Orientation.LEFT if dx >= 0 else Orientation.RIGHT
    return Orientation.UP if dy > 0 else Orientation.DOWN


def _add_base_ring(walls: WallGrid, pos: Pos, thickness: int = 2) -> None:
    """Protective wall layers around the base footprint (clipped at edges)."""
    lattice = MAP_SIZE // WALL_SIZE
    cx0, cy0 = pos.x // WALL_SIZE, pos.y // WALL_SIZE
    span = TANK_SIZE // WALL_SIZE  # 4 cells
    for cy in range(cy0 - thickness, cy0 + span + thickness):
        for cx in range(cx0 - thickness, cx0 + span + thickness):
            if cx0 <= cx < cx0 + span and cy0 <= cy < cy0 + span:
                continue  # the footprint itself
            if 0 <= cx < lattice and 0 <= cy < lattice:
                walls.add(cx, cy)


def _collides(pos: Pos, placed: list[_Placed], walls: WallGrid) -> str | None:
    if walls.overlaps_rect(pos.x, pos.y, TANK_SIZE, TANK_SIZE):
        return "a wall"
    hit = first_overlapping(placed, pos.x, pos.y, TANK_SIZE, TANK_SIZE)
    return hit.name if hit is not None else None


def _jitter_spawn(
    cfg: StageConfig,
    rng: random.Random,
    anchor: Pos,
    placed: list[_Placed],
    walls: WallGrid,
    name: str,
) -> Pos:
    j = cfg.spawn_jitter_cells
    for _ in range(100):
        pos = Pos(
            anchor.x + rng.randint(-j, j) * MOVE_STEP,
            anchor.y + rng.randint(-j, j) * MOVE_STEP,
        )
        if in_bounds(pos.x, pos.y) and _collides(pos, placed, walls) is None:
            return pos
    if not in_bounds(anchor.x, anchor.y):
        raise StageLoadError(f"{name}: spawn anchor {anchor} is out of bounds")
    hit = _collides(anchor, placed, walls)
    if hit is not None:
        raise StageLoadError(f"{name}: spawn collides with {hit}")
    return anchor


def _npc_spawn_cells(
    cfg: StageConfig,
    rng: random.Random,
    placed: list[_Placed],
    walls: WallGrid,
) -> list[Pos]:
    """Scatter NPCs over the interior, clear of agents and bases."""
    lo, hi = 2, (MAP_SIZE // MOVE_STEP) - 3  # cells 2..13 of 0..15
    candidates = [
        Pos(cx * MOVE_STEP, cy * MOVE_STEP)
        for cy in range(lo, hi + 1)
        for cx in range(lo, hi + 1)
    ]
    free = [
        p
        for p in candidates
        if _collides(p, placed, walls) is None
        and all(
            max(abs(p.x - q.x), abs(p.y - q.y)) >= 3 * MOVE_STEP for _, q in placed
        )
    ]
    if cfg.n_npcs > len(free):
        raise StageLoadError(
            f"cannot place {cfg.n_npcs} NPC tanks; only {len(free)} free cells"
        )
    return rng.sample(free, cfg.n_npcs)


def _scatter_walls(
    grid: WallGrid,
    cfg: StageConfig,
    rng: random.Random,
    placed: list[_Placed],
) -> None:
    """Drop rectangular wall clusters until the density budget is spent.

    Keep-out: one tank-length margin around agents and bases so no spawn
    is boxed in; NPC tanks only reserve their own footprint, so clutter
    lands among them too and fire lanes stay short.
    """
    lattice = MAP_SIZE // WALL_SIZE
    budget = int(cfg.wall_density * lattice * lattice)
    npcs = [p for p in placed if p.name.startswith("npc")]
    spawns = [p for p in placed if not p.name.startswith("npc")]
    m = TANK_SIZE  # keep-out margin around spawns

    attempts = 0
    while len(grid) < budget and attempts < 1200:
        attempts += 1
        w = rng.randint(2, 4)
        h = rng.randint(2, 4)
        cx = rng.randint(0, lattice - w)
        cy = rng.randint(0, lattice - h)
        x, y, pw, ph = cx * WALL_SIZE, cy * WALL_SIZE, w * WALL_SIZE, h * WALL_SIZE
        if first_overlapping(npcs, x, y, pw, ph) or first_overlapping(
            spawns, x - m, y - m, pw + 2 * m, ph + 2 * m
        ):
            continue
        for dy in range(h):
            for dx in range(w):
                grid.add(cx + dx, cy + dy)
