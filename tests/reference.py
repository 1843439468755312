"""The simple paths that the fast paths of ``bab`` are checked against.

Each reference is written once here; the layer tests compare one fast
path with its reference on their own inputs, and ``references()``
patches every reference in at once, so that whole episodes played both
ways can be compared (``tests/test_whole_episode.py``). A new fast path
adds its simple path here and to ``references()``.
"""

from __future__ import annotations

import contextlib
import random
import struct
from unittest import mock

from hypothesis import strategies as st

from bab import engine, prompts, runner, stages
from bab.engine import _ray_start, _resolve_base_hit, _resolve_tank_hit
from bab.parsing import NO_COOP, CoopCommand, CoopKind, format_reply
from bab.prompts import MAP_WINDOW, render_observation
from bab.stages import coop_format, load_stage
from bab.types import Action, Goal, Orientation, Outcome, Pos, StageLoadError, first_overlapping

from conftest import agent, base, make_world, npc


# ----------------------------------------------------------------------
# the wall lattice
# ----------------------------------------------------------------------


class SetWalls:
    """The wall lattice as a plain set of (cx, cy) cells, with the calls
    that the fast paths make on a ``WallGrid``; every query scans the set."""

    def __init__(self, cells=None) -> None:
        self._cells = set(cells or ())

    @property
    def cells(self) -> frozenset:
        return frozenset(self._cells)

    def __len__(self) -> int:
        return len(self._cells)

    def __contains__(self, cell) -> bool:
        return cell in self._cells

    def add(self, cx: int, cy: int) -> None:
        self._cells.add((cx, cy))

    def remove(self, cx: int, cy: int) -> None:
        self._cells.discard((cx, cy))

    def fill(self, cx: int, cy: int, w: int, h: int) -> None:
        self._cells.update((cx + dx, cy + dy) for dx in range(w) for dy in range(h))

    def cell_at(self, x: int, y: int):
        cell = (x // 8, y // 8)
        return cell if cell in self._cells else None

    def first_in_rect(self, x: int, y: int, w: int, h: int):
        """Row-major scan of the lattice cells that the rect intersects."""
        for cy in range(max(0, y // 8), min(63, (y + h - 1) // 8) + 1):
            for cx in range(max(0, x // 8), min(63, (x + w - 1) // 8) + 1):
                if (cx, cy) in self._cells:
                    return (cx, cy)
        return None

    def overlaps_rect(self, x: int, y: int, w: int, h: int) -> bool:
        return self.first_in_rect(x, y, w, h) is not None

    def cells_text(self, xs: range, ys: range) -> str:
        return ", ".join(f"({cx * 8}, {cy * 8})" for cx in xs for cy in ys
                         if (cx, cy) in self._cells)

    def pack(self) -> bytes:
        cells = sorted(self._cells)
        return struct.pack(f"<i{2 * len(cells)}H", len(cells),
                           *(v for cell in cells for v in cell))


@st.composite
def cell_sets(draw):
    """Every lattice cell present with one drawn probability, from sparse
    maps to a full lattice."""
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**32)))
    density = draw(st.sampled_from([0.0, 0.02, 0.1, 0.4, 0.9, 1.0]))
    return {(x, y) for x in range(64) for y in range(64) if rng.random() < density}


# ----------------------------------------------------------------------
# the shot
# ----------------------------------------------------------------------


def marched_shot(world, shooter_id):
    """Reference for ``engine.apply_shoot``: march the ray 8 px at a time
    and test, at each sample, the wall cell, then every live tank, then
    every blocking base."""
    shooter = world.require_tank(shooter_id)
    dx, dy = shooter.facing.delta
    px, py = _ray_start(shooter)
    while 0 <= px < 512 and 0 <= py < 512:
        cell = world.walls.cell_at(px, py)
        if cell is not None:
            world.walls.remove(*cell)
            return Outcome("hit_wall", cell=Pos(cell[0] * 8, cell[1] * 8))
        target = first_overlapping(world.tanks.values(), px, py, 1, 1,
                                   lambda t: t.alive and t.id != shooter_id)
        if target is not None:
            return _resolve_tank_hit(world, shooter, target)
        base = first_overlapping(world.bases.values(), px, py, 1, 1, lambda b: b.blocking)
        if base is not None:
            return _resolve_base_hit(world, shooter, base)
        px += dx * 8
        py += dy * 8
    return Outcome("no_hit")


def solid_footprints(world):
    """Every solid as (kind, id, x, y, size): live tanks, blocking bases,
    then wall cells, whose id is their pixel origin."""
    return ([("tank", t.id, t.pos.x, t.pos.y, 32) for t in world.tanks.values() if t.alive]
            + [("base", b.id, b.pos.x, b.pos.y, 32) for b in world.bases.values() if b.blocking]
            + [("wall", (cx * 8, cy * 8), cx * 8, cy * 8, 8) for cx, cy in world.walls.cells])


def brute_force_hit(world, shooter):
    """Independent minimum-distance scan over every cell and footprint on
    the shooter's centerline ray (unlimited range)."""
    dx, dy = shooter.facing.delta
    cx = shooter.pos.x + 16
    cy = shooter.pos.y + 16

    def along(lo: int, hi: int) -> float | None:
        # distance at which the ray enters [lo, hi) on its travel axis,
        # measured from the shooter's footprint edge; None if behind
        if dx:
            start = shooter.pos.x + (32 if dx > 0 else 0)
            if dx > 0:
                d = lo - start
                return d if hi > start and d >= -32 and lo >= start else None
            d = start - hi
            return d if lo < start and hi <= start else None
        start = shooter.pos.y + (32 if dy > 0 else 0)
        if dy > 0:
            return lo - start if lo >= start else None
        return start - hi if hi <= start else None

    hits = []
    for kind, detail, x0, y0, size in solid_footprints(world):
        if (kind, detail) == ("tank", shooter.id):
            continue
        if dx and not (y0 <= cy < y0 + size):
            continue
        if dy and not (x0 <= cx < x0 + size):
            continue
        d = along(x0, x0 + size) if dx else along(y0, y0 + size)
        if d is not None:
            hits.append((d, kind, detail))
    if not hits:
        return ("none", None)
    d, kind, detail = min(hits, key=lambda h: h[0])
    return (kind, detail)


def shot_hit(out: Outcome):
    """A shot's outcome as ``brute_force_hit`` reports it."""
    return {
        "hit_wall": ("wall", out.cell),
        "hit_tank": ("tank", out.target),
        "hit_base": ("base", out.target),
        "no_hit": ("none", None),
    }[out.result]


def random_configuration(rng: random.Random):
    tanks = []
    bases = []
    occupied = []

    def free(x, y, size=32):
        return all(
            x >= ox + osz or ox >= x + size or y >= oy + osz or oy >= y + size
            for ox, oy, osz in occupied
        )

    for i in range(rng.randint(2, 6)):
        for _ in range(50):
            x, y = rng.randrange(0, 61) * 8, rng.randrange(0, 61) * 8
            if free(x, y):
                kind = agent if rng.random() < 0.5 else npc
                team = rng.randint(0, 1)
                t = agent(i + 1, x, y, team=team) if kind is agent else npc(i + 1, x, y)
                t.facing = rng.choice(list(Orientation))
                tanks.append(t)
                occupied.append((x, y, 32))
                break
    for j in range(rng.randint(0, 2)):
        for _ in range(50):
            x, y = rng.randrange(0, 61) * 8, rng.randrange(0, 61) * 8
            if free(x, y):
                bases.append(base(101 + j, x, y, team=j))
                occupied.append((x, y, 32))
                break
    walls = set()
    for _ in range(rng.randint(0, 80)):
        cx, cy = rng.randrange(64), rng.randrange(64)
        if free(cx * 8, cy * 8, 8):
            walls.add((cx, cy))
    return make_world(tanks, bases, walls)


def overlapping_pairs(world):
    """Every overlapping pair of solids that involves a tank or a base.

    Wall cells are distinct points of one 8-px lattice, so two of them
    never overlap and wall-wall pairs are not compared.
    """
    solids = solid_footprints(world)
    movers = sum(kind != "wall" for kind, *_ in solids)
    bad = []
    for i in range(movers):
        for j in range(i + 1, len(solids)):
            _, _, ax, ay, asz = solids[i]
            _, _, bx, by, bsz = solids[j]
            if ax < bx + bsz and bx < ax + asz and ay < by + bsz and by < ay + asz:
                bad.append((solids[i][:2], solids[j][:2]))
    return bad


# ----------------------------------------------------------------------
# the stage load
# ----------------------------------------------------------------------


def reference_npc_spawn_cells(cfg, rng, placed, walls):
    """Reference for ``stages._npc_spawn_cells``: every interior 32-px
    cell clear of walls and footprints, three cells or more from every
    agent and base; then rng.sample."""
    free = [
        p
        for p in (Pos(cx * 32, cy * 32) for cy in range(2, 14) for cx in range(2, 14))
        if not walls.overlaps_rect(p.x, p.y, 32, 32)
        and first_overlapping(placed, p.x, p.y, 32, 32) is None
        and all(max(abs(p.x - q.x), abs(p.y - q.y)) >= 96 for _, q in placed)
    ]
    if cfg.n_npcs > len(free):
        raise StageLoadError(f"cannot place {cfg.n_npcs} NPC tanks; only {len(free)} free cells")
    return rng.sample(free, cfg.n_npcs)


def reference_scatter_walls(grid, cfg, rng, placed):
    """Reference for ``stages._scatter_walls``: cluster by cluster on a
    plain set, with randint draws; a cluster is dropped when it overlaps
    an NPC footprint, or an agent or base footprint grown by 32 px on
    every side."""
    cells = set(grid.cells)
    budget = int(cfg.wall_density * 64 * 64)
    npcs = [p for p in placed if p.name.startswith("npc")]
    spawns = [p for p in placed if not p.name.startswith("npc")]
    attempts = 0
    while len(cells) < budget and attempts < 1200:
        attempts += 1
        w = rng.randint(2, 4)
        h = rng.randint(2, 4)
        cx = rng.randint(0, 64 - w)
        cy = rng.randint(0, 64 - h)
        x, y, pw, ph = cx * 8, cy * 8, w * 8, h * 8
        if first_overlapping(npcs, x, y, pw, ph) or first_overlapping(
            spawns, x - 32, y - 32, pw + 64, ph + 64
        ):
            continue
        cells.update((cx + dx, cy + dy) for dy in range(h) for dx in range(w))
    for cell in cells - grid.cells:
        grid.add(*cell)


def reference_load(stage_id, seed, overrides=None):
    with references():
        return load_stage(stage_id, seed, overrides)


# ----------------------------------------------------------------------
# the prompt
# ----------------------------------------------------------------------


def full_scan_walls(world, tank) -> str:
    """Reference for ``prompts._nearby_walls``: scan every wall cell,
    keeping those whose centre is within the window (and ahead of the
    tank on navigation stages)."""
    cx, cy = tank.center
    forward_only = world.config.goal is Goal.NAVIGATION
    dx, dy = tank.facing.delta
    kept = SetWalls()
    for wx, wy in world.walls.cells:
        mx, my = wx * 8 + 4, wy * 8 + 4
        if max(abs(mx - cx), abs(my - cy)) > MAP_WINDOW + 16:
            continue
        if forward_only and (mx - cx) * dx + (my - cy) * dy < 0:
            continue
        kept.add(wx, wy)
    return kept.cells_text(range(64), range(64))


def render_each(world, agent_ids, locale, last_records, coop_enabled):
    """Reference for ``prompts.render_turn``: one ``render_observation``
    per agent, so no block is shared between prompts."""
    return [render_observation(world, agent_id, locale, last_records.get(agent_id), coop_enabled)
            for agent_id in agent_ids]


# ----------------------------------------------------------------------
# every reference at once
# ----------------------------------------------------------------------


@contextlib.contextmanager
def references():
    """Patch every reference in for its fast path: the set-based wall
    lattice, NPC cells and wall scatter for the stage load, the marched
    shot, the full-scan wall text, and one render per agent."""
    with mock.patch.object(stages, "WallGrid", SetWalls), \
            mock.patch.object(stages, "_npc_spawn_cells", reference_npc_spawn_cells), \
            mock.patch.object(stages, "_scatter_walls", reference_scatter_walls), \
            mock.patch.object(engine, "apply_shoot", marched_shot), \
            mock.patch.object(prompts, "_nearby_walls", full_scan_walls), \
            mock.patch.object(runner, "render_turn", render_each):
        yield


def turn_replies(world, pick):
    """Every live agent's reply for the world's next turn, each choice made
    by ``pick`` from a list. On cooperation stages the first two turns are
    canned: the lowest agent asks the next one, which keeps (accepts) the
    turn after; later replies are picked."""
    stage_id = world.config.stage_id
    ids = [a.id for a in world.live_agents()]
    canned = {}
    if coop_format(stage_id) and len(ids) > 1 and world.turn < 2:
        sender, recipient = ids[:2]
        canned = ({sender: CoopCommand(CoopKind.REQUEST, recipient, "push together")},
                  {recipient: CoopCommand(CoopKind.KEEP)})[world.turn]
    coops = [None, NO_COOP, CoopCommand(CoopKind.KEEP), CoopCommand(CoopKind.STOP),
             *(CoopCommand(CoopKind.REQUEST, to, "go") for to in ids)]
    return {
        agent_id: format_reply(stage_id, pick(list(Action)), pick(sorted(world.tanks)),
                               canned[agent_id] if agent_id in canned else pick(coops))
        for agent_id in ids
    }
