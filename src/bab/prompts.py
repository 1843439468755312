"""Observation-prompt rendering.

The per-stage template files under ``templates/`` carry the canonical
prompt text for both locales with ``{{slot}}`` placeholders marking the
fill points (turn counter, entity listings, local map block, last-round
feedback). Rendering is a pure function of its inputs: it never mutates
the world. It fills the wall grid's text cache (``WallGrid.cells_text``),
which is not world state.

``render_turn`` renders every prompt of a turn in one call, and
``render_observation`` is its one-agent case. What agents see alike is
built once per turn: one text line per live tank, the block of live
bases, and one block per team for its enemy tanks, own base, enemy bases
and last round's attack targets. Only the own tank, teammates,
cooperation history, local map, last operation and feedback are built
per agent. Each (stage, locale, coop) template is split once, on first
use, into its literal text and its slots; a slot records whether a value
that does not open a new line needs a leading space, so filling a prompt
is one join of those parts.

``_PHRASES`` is the one place for locale text outside ``templates/``:
enum words, the generated lines and the feedback sentences, one table
per locale, so no function here branches on the locale. ``LOCALES`` is
its key list.

Cooperation-only text is marked in the templates themselves as
``[[coop:...]]`` spans (options block, plan line, output-format line,
history slot, "you can cooperate" sentences). ``load_template`` keeps
each span's text when cooperation is on and drops the whole span when
it is off, so ablation runs see prompts with no cooperation section at
all.
"""

from __future__ import annotations

import re
from collections.abc import Mapping
from functools import lru_cache
from importlib import resources
from typing import NamedTuple

from .engine import probe_ahead
from .stages import TYPED_STAGES, is_navigation
from .types import (
    MOVE_DIRECTIONS,
    TANK_SIZE,
    WALL_LATTICE,
    WALL_SIZE,
    Base,
    Goal,
    Tank,
    TankKind,
    TurnRecord,
    WorldState,
)

MAP_WINDOW = 96  # L-inf radius, in px, of the local wall report
COOP_HISTORY_LIMIT = 5

_SLOT_RE = re.compile(r"\{\{(\w+)\}\}")
_COOP_RE = re.compile(r"\[\[coop:(.*?)\]\]", re.S)


# words are keyed by enum value (facing, tank type, disposition, blocker);
# lines and sentences are str.format patterns. Cooperation-only template
# text is not here: it is marked ``[[coop:...]]`` in the templates.
_PHRASES: dict[str, dict] = {
    "en": {
        "up": "up", "down": "down", "left": "left", "right": "right",
        "agent": "advanced", "npc": "normal",
        "pending": "pending", "accepted": "accepted", "rejected": "rejected",
        "stopped": "stopped",
        "wall": "a wall", "tank": "another tank", "base": "a base",
        "boundary": "the map boundary",
        "none": "None",
        "invalid": "Invalid output",
        "ahead": "Ahead: {}",
        "ahead_clear": "clear",
        "ahead_boundary": "map boundary",
        "ahead_wall": "wall at ({}, {})",
        "ahead_tank": "tank {}",
        "ahead_base": "base {}",
        "nearby_walls": "Nearby wall cells (x, y): {}",
        "coop_line": "Round {turn}: tank {src} -> tank {dst}: {body} [{disposition}]",
        "fb_moved": "Moved {facing}.",
        "fb_blocked": "Move blocked by {blocker}; now facing {facing}.",
        "fb_hit_wall": "Shot hit a wall cell at ({cell[0]}, {cell[1]}).",
        "fb_hit_tank": "Shot hit tank {target}.",
        "fb_destroyed": "Shot hit tank {target}; tank {target} was destroyed.",
        "fb_hit_base": "Shot hit base {target}; the base is destroyed.",
        "fb_no_hit": "Shot hit nothing.",
        "fb_noop": "No valid operation was executed.",
    },
    "zh": {
        "up": "上", "down": "下", "left": "左", "right": "右",
        "agent": "高级", "npc": "普通",
        "pending": "待定", "accepted": "已接受", "rejected": "已拒绝", "stopped": "已终止",
        "wall": "wall", "tank": "其他坦克", "base": "基地", "boundary": "地图边界",
        "none": "无",
        "invalid": "无效输出",
        "ahead": "前方: {}",
        "ahead_clear": "无障碍",
        "ahead_boundary": "地图边界",
        "ahead_wall": "wall ({}, {})",
        "ahead_tank": "坦克 {}",
        "ahead_base": "基地 {}",
        "nearby_walls": "附近wall单元(x, y): {}",
        "coop_line": "回合{turn}: 坦克{src} -> 坦克{dst}: {body} [{disposition}]",
        "fb_moved": "向{facing}移动成功。",
        "fb_blocked": "移动被{blocker}阻挡，当前朝向{facing}。",
        "fb_hit_wall": "射击命中wall({cell[0]}, {cell[1]})。",
        "fb_hit_tank": "射击命中坦克{target}。",
        "fb_destroyed": "射击命中坦克{target}，坦克{target}已被摧毁。",
        "fb_hit_base": "射击命中基地{target}，基地已被摧毁。",
        "fb_no_hit": "射击未命中任何目标。",
        "fb_noop": "未执行有效操作。",
    },
}
LOCALES = tuple(_PHRASES)


@lru_cache(maxsize=None)
def load_template(stage_id: int, locale: str, coop_enabled: bool = True) -> str:
    if locale not in LOCALES:
        raise ValueError(f"unknown locale {locale!r}; expected one of {LOCALES}")
    path = resources.files(__package__).joinpath(f"templates/stage{stage_id}_{locale}.txt")
    try:
        text = path.read_text(encoding="utf-8")
    except FileNotFoundError:
        raise ValueError(f"no template for stage {stage_id}") from None
    # a function replacement, so the kept text is never escape-processed
    return _COOP_RE.sub(lambda m: m.group(1) if coop_enabled else "", text)


def render_observation(
    world: WorldState,
    agent_id: int,
    locale: str = "en",
    last_record: TurnRecord | None = None,
    coop_enabled: bool = True,
) -> str:
    """Fill the stage template with one agent's view of the world."""
    return render_turn(world, [agent_id], locale, {agent_id: last_record}, coop_enabled)[0]


def render_turn(
    world: WorldState,
    agent_ids: list[int],
    locale: str = "en",
    last_records: Mapping[int, TurnRecord | None] | None = None,
    coop_enabled: bool = True,
) -> list[str]:
    """One prompt per id, in ``agent_ids`` order, each the stage template
    filled with that agent's view of the world. ``last_records`` maps an
    id to the agent's previous turn record; a missing id has none."""
    agents = [world.require_tank(agent_id) for agent_id in agent_ids]
    stage_id = world.config.stage_id
    parts = _template_parts(stage_id, locale, coop_enabled)
    p = _PHRASES[locale]
    navigation = is_navigation(stage_id)
    last_records = last_records or {}

    # the same for every prompt of the turn
    typed = stage_id in TYPED_STAGES
    tanks = sorted(world.live_tanks(), key=lambda t: t.id)
    lines = {t.id: _tank_line(t, p, typed) for t in tanks}
    bases = sorted((b for b in world.bases.values() if not b.destroyed), key=lambda b: b.id)
    targets = sorted(world.last_turn_targets.items())
    shared = {"turn": str(world.turn + 1), "bases": _base_lines(bases)}
    teams: dict[int | None, dict[str, str]] = {}

    prompts = []
    for agent in agents:
        team = agent.team
        if team not in teams:
            own_base = world.base_for_team(team)
            teams[team] = {
                "enemy_tanks": _block([lines[t.id] for t in tanks if t.team != team]),
                "own_base": _base_lines(
                    [own_base] if own_base is not None and not own_base.destroyed else []),
                "enemy_bases": _base_lines([b for b in bases if b.team != team]),
                "attack_targets": _block([
                    f"({a}, {t})" for a, t in targets if world.tanks[a].team == team
                ]),
            }
        record = last_records.get(agent.id)
        values = {
            **shared,
            **teams[team],
            "own_tank": "\n" + lines[agent.id],
            "teammates": _block([
                lines[t.id] for t in tanks
                if t.kind is TankKind.AGENT and t.team == team and t.id != agent.id
            ]),
            "coop_history": _coop_lines(world, agent.id, locale),
            "map_info": _map_lines(world, agent, locale),
            "last_op": _last_op_value(navigation, locale, record),
            "last_feedback": feedback_text(record, locale),
        }
        prompts.append(_join(parts, values))
    return prompts


class _Slot(NamedTuple):
    """A ``{{name}}`` fill point of a split template. ``spaced``: a value
    that does not open a new line is set off by one space, because the
    template has no whitespace right before the slot."""

    name: str
    spaced: bool


@lru_cache(maxsize=None)
def _template_parts(stage_id: int, locale: str, coop_enabled: bool) -> tuple[str | _Slot, ...]:
    """The template as its literal text and slots, in order."""
    template = load_template(stage_id, locale, coop_enabled)
    parts: list[str | _Slot] = []
    cursor = 0
    for m in _SLOT_RE.finditer(template):
        parts.append(template[cursor:m.start()])
        parts.append(_Slot(m.group(1), m.start() > 0 and template[m.start() - 1] not in " \t\n"))
        cursor = m.end()
    parts.append(template[cursor:])
    return tuple(parts)


def _join(parts: tuple[str | _Slot, ...], values: dict[str, str]) -> str:
    out = []
    for part in parts:
        if isinstance(part, str):
            out.append(part)
            continue
        value = values.get(part.name, "")
        if part.spaced and value and value[0] != "\n":
            value = " " + value
        out.append(value)
    return "".join(out)


def _block(lines: list[str]) -> str:
    return "".join("\n" + line for line in lines)


def _tank_line(tank: Tank, p: dict, typed: bool) -> str:
    kind = ", " + p[tank.kind.value] if typed else ""
    return f"({tank.id}, {tank.pos.x}, {tank.pos.y}, {p[tank.facing.value]}, {tank.health}{kind})"


def _base_lines(bases: list[Base]) -> str:
    """``bases`` in id order."""
    return _block([f"({b.id}, {b.pos.x}, {b.pos.y})" for b in bases])


def _coop_lines(world: WorldState, agent_id: int, locale: str) -> str:
    relevant = [
        m
        for m in world.coop_history
        if m.from_id == agent_id or m.to_id == agent_id
    ]
    p = _PHRASES[locale]
    return _block([
        p["coop_line"].format(turn=m.turn + 1, src=m.from_id, dst=m.to_id, body=m.body,
                              disposition=p[m.disposition.value])
        for m in relevant[-COOP_HISTORY_LIMIT:]
    ])


def _map_lines(world: WorldState, agent: Tank, locale: str) -> str:
    p = _PHRASES[locale]
    kind, detail = probe_ahead(world, agent)
    # a wall reports its cell origin, a tank or a base its id
    fields = detail if kind == "wall" else () if detail is None else (detail.id,)
    lines = [p["ahead"].format(p["ahead_" + kind].format(*fields))]
    walls = _nearby_walls(world, agent)
    if walls:
        lines.append(p["nearby_walls"].format(walls))
    return _block(lines)


def _nearby_walls(world: WorldState, agent: Tank) -> str:
    """The "(x, y)" origins of the wall cells whose centre is within the
    local window, x-major, joined by ", ". Navigation stages report only
    the half-plane ahead of the tank, (8 * i + 4 - c) * d >= 0 on the
    facing axis, which clips that axis's lattice range. The grid keeps
    each column's text (``WallGrid.cells_text``)."""
    cx, cy = agent.center
    reach = MAP_WINDOW + TANK_SIZE // 2
    xs, ys = _window(cx, reach), _window(cy, reach)
    if world.config.goal is Goal.NAVIGATION:
        dx, dy = agent.facing.delta
        xs, ys = _ahead(xs, cx, dx), _ahead(ys, cy, dy)
    return world.walls.cells_text(xs, ys)


def _window(c: int, reach: int) -> range:
    """Lattice indices i with |8 * i + 4 - c| <= reach, clipped to the map."""
    lo = -(-(c - reach - 4) // WALL_SIZE)
    hi = (c + reach - 4) // WALL_SIZE
    return range(max(0, lo), min(WALL_LATTICE - 1, hi) + 1)


def _ahead(indices: range, c: int, d: int) -> range:
    """The indices i in ``indices`` with (8 * i + 4 - c) * d >= 0."""
    if d > 0:
        return range(max(indices.start, -(-(c - 4) // WALL_SIZE)), indices.stop)
    if d < 0:
        return range(indices.start, min(indices.stop, (c - 4) // WALL_SIZE + 1))
    return indices


def _last_op_value(navigation: bool, locale: str, record: TurnRecord | None) -> str:
    p = _PHRASES[locale]
    if record is None:
        return p["none"]
    op = record.action.value if record.format_ok and record.action else p["invalid"]
    if navigation:
        return f"{op} - {feedback_text(record, locale)}"
    return op


def feedback_text(record: TurnRecord | None, locale: str) -> str:
    """One-sentence description of how the previous action resolved."""
    p = _PHRASES[locale]
    if record is None:
        return p["none"]
    outcome = record.outcome
    result = "destroyed" if outcome.destroyed else outcome.result
    fields = vars(outcome)
    if result in ("moved", "blocked"):
        fields = {**fields, "facing": p[MOVE_DIRECTIONS[record.action].value]}
        if outcome.blocker is not None:
            fields["blocker"] = p[outcome.blocker.value]
    return p.get(f"fb_{result}", p["fb_noop"]).format(**fields)
