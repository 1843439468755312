"""Stage definitions and deterministic world construction.

STAGE_SETTINGS holds each of the seven stages' default StageConfig, which
overrides replace field by field. A stage's reply and prompt format
follows from its defaults: a navigation goal means replies name no attack
target, and a cooperation topology means replies use the attack marker
and may add a cooperation line; only the typed tank tuples of stages 6-7
are listed apart, in TYPED_STAGES. No override changes that format: the
goal is not an override key, and coop_topology may name another topology
on a cooperation stage but not none (a run turns cooperation off with
coop_enabled, ``bab run --no-coop``), and only none elsewhere. Layouts
follow a fixed scheme: bases sit near map corners, each team's agents
spawn next to their own base (jittered in whole 32-px cells),
interference NPC tanks scatter over the central region, and sparse wall
clusters fill the rest. All randomness comes from the world RNG stream,
so identical (stage_id, seed, overrides) inputs always produce
byte-identical worlds. The wall scatter works on lattice row bitmasks:
each drawn cluster is tested against one keep-out mask built per load
and ORed into the grid's rows, and its four values come from
``getrandbits`` by the algorithm of ``Random.randint``, so the stream,
and with it every layout, is the one that four ``randint`` calls and a
cell-by-cell scan would give.
"""

from __future__ import annotations

import random
import zlib
from dataclasses import dataclass, fields, replace
from functools import reduce
from operator import or_
from pathlib import Path
from typing import NamedTuple

from .types import (
    AGENT_HEALTH,
    MAP_SIZE,
    MOVE_STEP,
    NPC_HEALTH,
    TANK_SIZE,
    WALL_LATTICE,
    WALL_SIZE,
    Base,
    CoopTopology,
    DecodeError,
    Goal,
    Orientation,
    Pos,
    StageConfig,
    StageLoadError,
    Tank,
    TankKind,
    WallGrid,
    WorldState,
    decode,
    encode,
    first_overlapping,
    in_bounds,
)

STAGE_SETTINGS: dict[int, StageConfig] = {c.stage_id: c for c in (
    # fields in order: stage_id, turn_cap, n_agents, n_teams, n_bases, n_npcs,
    # goal, coop_topology, spawn_jitter_cells, wall_density
    StageConfig(1, 60, 1, 1, 1, 0, Goal.NAVIGATION, CoopTopology.NONE, 2, 0.05),
    StageConfig(2, 60, 1, 1, 1, 10, Goal.NAVIGATION, CoopTopology.NONE, 2, 0.05),
    StageConfig(3, 80, 2, 1, 2, 10, Goal.COOPERATIVE, CoopTopology.INTRA_TEAM, 2, 0.42),
    StageConfig(4, 80, 2, 2, 2, 10, Goal.COMPETITIVE, CoopTopology.NONE, 2, 0.42),
    StageConfig(5, 80, 4, 2, 2, 10, Goal.STATIC_COOP, CoopTopology.INTRA_TEAM, 2, 0.42),
    StageConfig(6, 80, 4, 4, 4, 10, Goal.DYNAMIC_COOP, CoopTopology.INTER_TEAM, 2, 0.42),
    StageConfig(7, 80, 6, 3, 3, 10, Goal.HYBRID_COOP, CoopTopology.BOTH, 2, 0.42),
)}

# prompt tank tuples carry a normal/advanced type field
TYPED_STAGES = frozenset({6, 7})


def is_navigation(stage_id: int) -> bool:
    """Whether one team drives to a goal base; the other stages are
    combat stages, whose replies name an attack target."""
    return STAGE_SETTINGS[stage_id].goal is Goal.NAVIGATION


def coop_format(stage_id: int) -> bool:
    """Whether replies use the attack marker and may add a cooperation line."""
    return STAGE_SETTINGS[stage_id].coop_topology is not CoopTopology.NONE


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

# Combat stages: each team's agents spawn at these (x, y) offsets from
# their base, in whole moves away from its corner, one per agent. They are
# diagonal only, clear of the base's wall ring: no agent starts inside its
# own base's fire lane.
AGENT_OFFSETS = [(2, 1), (1, 2), (2, 2), (3, 1), (1, 3), (3, 3), (2, 3), (3, 2)]

_CENTER = MAP_SIZE // 2

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
    coop_topology: str | None = None

    @classmethod
    def from_mapping(cls, data: dict) -> "StageOverrides":
        if not isinstance(data, dict):
            raise StageLoadError(f"stage config must be a key: value mapping, not {data!r}")
        unknown = set(data) - set(OVERRIDE_KEYS)
        if unknown:
            raise StageLoadError(
                f"unknown stage-config keys: {sorted(unknown, key=str)}; "
                f"allowed: {list(OVERRIDE_KEYS)}"
            )
        try:
            return decode(cls, data)
        except DecodeError as exc:
            raise StageLoadError(f"stage-config key {exc}") from None

    @classmethod
    def from_file(cls, path: str | Path) -> "StageOverrides":
        import yaml  # only stage-config files are YAML

        try:
            data = yaml.safe_load(Path(path).read_text(encoding="utf-8"))
        except yaml.YAMLError as exc:
            raise StageLoadError(f"stage config is not YAML: {exc}") from None
        return cls.from_mapping({} if data is None else data)


OVERRIDE_KEYS = tuple(f.name for f in fields(StageOverrides))


def derive_seed(seed: int, tag: str) -> int:
    """Stable sub-stream seed; never uses Python's randomized hash()."""
    crc = zlib.crc32(tag.encode("utf-8")) & 0xFFFFFFFF
    return (seed & 0xFFFFFFFFFFFF) ^ (crc << 8)


def check_seed(seed: int) -> None:
    """Refuse a seed that the world hash cannot pack as a signed 64-bit int."""
    if not -2**63 <= seed < 2**63:
        raise StageLoadError(f"seed {seed} is outside [-2**63, 2**63)")


# StageOverrides keys that are spelled differently in StageConfig
_CONFIG_FIELD = {"turns": "turn_cap", "agents": "n_agents", "teams": "n_teams",
                 "bases": "n_bases", "npcs": "n_npcs"}


def resolve_config(stage_id: int, overrides: StageOverrides | None = None) -> StageConfig:
    if stage_id not in STAGE_SETTINGS:
        raise StageLoadError(f"invalid stage id {stage_id}; expected 1..7")
    changes = {_CONFIG_FIELD.get(k, k): v
               for k, v in encode(overrides or StageOverrides()).items()}
    topology = changes.get("coop_topology")
    if topology is not None:
        try:
            changes["coop_topology"] = CoopTopology(topology)
        except ValueError:
            allowed = [m.value for m in CoopTopology]
            raise StageLoadError(
                f"coop_topology must be one of {allowed}, not {topology!r}") from None
    cfg = replace(STAGE_SETTINGS[stage_id], **changes)
    _validate_config(cfg)
    return cfg


def _validate_config(cfg: StageConfig) -> None:
    if cfg.turn_cap < 1:
        raise StageLoadError("turns must be >= 1")
    if cfg.n_agents < 1 or cfg.n_teams < 1:
        raise StageLoadError("agents and teams must be >= 1")
    if cfg.n_agents < cfg.n_teams:
        raise StageLoadError("need at least one agent per team")
    if cfg.n_npcs < 0:
        raise StageLoadError("npcs must be >= 0")
    cooperative = coop_format(cfg.stage_id)
    if (cfg.coop_topology is CoopTopology.NONE) == cooperative:
        hint = "; turn cooperation off with --no-coop" if cooperative else ""
        raise StageLoadError(f"coop_topology {cfg.coop_topology.value!r} does not fit "
                             f"stage {cfg.stage_id}'s reply format{hint}")
    if is_navigation(cfg.stage_id):
        if cfg.n_teams != 1 or cfg.n_bases != 1:
            raise StageLoadError("navigation stages use exactly one team and one base")
    else:
        if cfg.n_bases < max(2, cfg.n_teams):
            raise StageLoadError("combat stages need two bases or more, one per team")
        if cfg.n_bases > len(BASE_CORNERS):
            raise StageLoadError(f"at most {len(BASE_CORNERS)} bases supported")
        largest = -(-cfg.n_agents // cfg.n_teams)  # the first team's size
        if largest > len(AGENT_OFFSETS):
            raise StageLoadError(f"too many agents for team 0: {largest} "
                                 f"(max {len(AGENT_OFFSETS)} per team)")
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
    check_seed(seed)
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
    rank = sum(
        1
        for i in range(index)
        if team_of_agent(i, cfg.n_agents, cfg.n_teams) == team
    )
    ox, oy = AGENT_OFFSETS[rank]  # resolve_config caps a team's size
    return Pos(base.pos.x + ox * MOVE_STEP * sx, base.pos.y + oy * MOVE_STEP * sy)


def _face_outward(pos: Pos) -> Orientation:
    """Spawn facing the nearest map edge, away from the contested center."""
    dx = _CENTER - (pos.x + TANK_SIZE // 2)
    dy = _CENTER - (pos.y + TANK_SIZE // 2)
    if abs(dx) >= abs(dy):
        return Orientation.LEFT if dx >= 0 else Orientation.RIGHT
    return Orientation.UP if dy > 0 else Orientation.DOWN


def _add_base_ring(walls: WallGrid, pos: Pos) -> None:
    """Two protective wall layers around the base footprint (clipped at edges)."""
    cx0, cy0 = pos.x // WALL_SIZE, pos.y // WALL_SIZE
    span = TANK_SIZE // WALL_SIZE  # 4 cells
    for cy in range(cy0 - 2, cy0 + span + 2):
        for cx in range(cx0 - 2, cx0 + span + 2):
            if cx0 <= cx < cx0 + span and cy0 <= cy < cy0 + span:
                continue  # the footprint itself
            if 0 <= cx < WALL_LATTICE and 0 <= cy < WALL_LATTICE:
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
    """Scatter NPCs over the interior on 32-px cells free of walls, at
    least three such cells (Chebyshev) from every agent and base, which
    also keeps them clear of those footprints."""
    if not cfg.n_npcs:
        return []  # sampling none draws nothing from the stream
    lo, hi = 2, (MAP_SIZE // MOVE_STEP) - 3  # cells 2..13 of 0..15
    far = 3 * MOVE_STEP
    near = {
        (cx, cy)
        for _, q in placed
        for cy in range((q.y - far) // MOVE_STEP + 1, -(-(q.y + far) // MOVE_STEP))
        for cx in range((q.x - far) // MOVE_STEP + 1, -(-(q.x + far) // MOVE_STEP))
    }
    free = [
        Pos(cx * MOVE_STEP, cy * MOVE_STEP)
        for cy in range(lo, hi + 1)
        for cx in range(lo, hi + 1)
        if (cx, cy) not in near
        and not walls.overlaps_rect(cx * MOVE_STEP, cy * MOVE_STEP, TANK_SIZE, TANK_SIZE)
    ]
    if cfg.n_npcs > len(free):
        raise StageLoadError(
            f"cannot place {cfg.n_npcs} NPC tanks; only {len(free)} free cells"
        )
    return rng.sample(free, cfg.n_npcs)


def _keep_out_rows(placed: list[_Placed]) -> list[int]:
    """Per lattice row, the mask of cells no wall cluster may cover: each
    NPC footprint, and each agent and base footprint grown by one tank
    length so no spawn is boxed in."""
    rows = [0] * WALL_LATTICE
    for name, pos in placed:
        m = 0 if name.startswith("npc") else TANK_SIZE
        x0, y0, x1, y1 = pos.x - m, pos.y - m, pos.x + TANK_SIZE + m, pos.y + TANK_SIZE + m
        # the cells that intersect the half-open rect [x0, x1) x [y0, y1)
        cx0, cx1 = max(0, x0 // WALL_SIZE), min(WALL_LATTICE - 1, (x1 - 1) // WALL_SIZE)
        span = (2 << cx1) - (1 << cx0)
        for cy in range(max(0, y0 // WALL_SIZE), min(WALL_LATTICE - 1, (y1 - 1) // WALL_SIZE) + 1):
            rows[cy] |= span
    return rows


def _scatter_walls(
    grid: WallGrid,
    cfg: StageConfig,
    rng: random.Random,
    placed: list[_Placed],
) -> None:
    """Drop rectangular wall clusters until the density budget is spent.

    Each attempt draws a 2-4 x 2-4 cell cluster and its top-left cell, as
    four ``randint`` calls would, and drops it when it meets the keep-out
    mask (``_keep_out_rows``): NPC tanks reserve only their own footprint,
    so clutter lands among them too and fire lanes stay short.
    """
    budget = int(cfg.wall_density * WALL_LATTICE * WALL_LATTICE)
    keep_out = _keep_out_rows(placed)
    # reach[h][cy]: the keep-out cells of rows cy .. cy + h - 1
    reach = {h: [reduce(or_, keep_out[cy:cy + h]) for cy in range(WALL_LATTICE + 1 - h)]
             for h in (2, 3, 4)}
    getrandbits = rng.getrandbits

    def below(n: int) -> int:
        # CPython's Random.randrange(n): redraw n.bit_length() bits until < n
        k = n.bit_length()
        r = getrandbits(k)
        while r >= n:
            r = getrandbits(k)
        return r

    for _ in range(1200):
        if len(grid) >= budget:
            break
        w = 2 + below(3)
        h = 2 + below(3)
        cx = below(WALL_LATTICE + 1 - w)
        cy = below(WALL_LATTICE + 1 - h)
        if not reach[h][cy] & ((1 << w) - 1) << cx:
            grid.fill(cx, cy, w, h)
