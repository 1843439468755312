from __future__ import annotations

import random
from pathlib import Path

import pytest

from bab.agents import close_idle_connections
from bab.types import (
    AGENT_HEALTH,
    NPC_HEALTH,
    Base,
    CoopTopology,
    Goal,
    Orientation,
    Pos,
    StageConfig,
    Tank,
    TankKind,
    WallGrid,
    WorldState,
)

GOLDEN_DIR = Path(__file__).parent / "golden"
FIXTURE_DIR = Path(__file__).parent / "fixtures"


def make_config(**kw) -> StageConfig:
    defaults = dict(
        stage_id=4,
        turn_cap=80,
        n_agents=2,
        n_teams=2,
        n_bases=2,
        n_npcs=0,
        goal=Goal.COMPETITIVE,
        coop_topology=CoopTopology.NONE,
        spawn_jitter_cells=0,
        wall_density=0.0,
    )
    defaults.update(kw)
    return StageConfig(**defaults)


def make_world(
    tanks: list[Tank] | None = None,
    bases: list[Base] | None = None,
    walls: set[tuple[int, int]] | None = None,
    seed: int = 0,
    **config_kw,
) -> WorldState:
    """Hand-built world for focused engine tests."""
    config = make_config(**config_kw)
    return WorldState(
        config=config,
        seed=seed,
        tanks={t.id: t for t in (tanks or [])},
        bases={b.id: b for b in (bases or [])},
        walls=WallGrid(walls),
        rng_world=random.Random(seed),
        rng_npc=random.Random(seed + 1),
    )


def agent(tank_id: int, x: int, y: int, team: int = 0,
          facing: Orientation = Orientation.UP, health: int = AGENT_HEALTH) -> Tank:
    return Tank(id=tank_id, kind=TankKind.AGENT, team=team, pos=Pos(x, y),
                facing=facing, health=health)


def npc(tank_id: int, x: int, y: int,
        facing: Orientation = Orientation.DOWN) -> Tank:
    return Tank(id=tank_id, kind=TankKind.NPC, team=None, pos=Pos(x, y),
                facing=facing, health=NPC_HEALTH)


def base(base_id: int, x: int, y: int, team: int = 0, solid: bool = True) -> Base:
    return Base(id=base_id, team=team, pos=Pos(x, y), solid=solid)


def wall_cells_for_rect(x: int, y: int, w: int = 8, h: int = 8) -> set[tuple[int, int]]:
    """Wall-cell indices covering the pixel rect [x, x+w) x [y, y+h)."""
    return {
        (cx, cy)
        for cx in range(x // 8, (x + w - 1) // 8 + 1)
        for cy in range(y // 8, (y + h - 1) // 8 + 1)
    }


@pytest.fixture
def golden_dir() -> Path:
    return GOLDEN_DIR


@pytest.fixture
def fixture_dir() -> Path:
    return FIXTURE_DIR


@pytest.fixture(autouse=True)
def no_idle_connections():
    """Leave no kept-alive remote connection to the next test: a stub
    server's port may be handed to another test's server."""
    yield
    close_idle_connections()
