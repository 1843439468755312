"""Observation-prompt rendering.

The per-stage template files under ``templates/`` carry the canonical
prompt text for both locales with ``{{slot}}`` placeholders marking the
fill points (turn counter, entity listings, local map block, last-round
feedback). Rendering is a pure function of its inputs: it never mutates
the world. It fills the wall grid's text cache (``WallGrid.cells_text``),
which is not world state.

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
from functools import lru_cache
from importlib import resources

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
    """Fill the stage template with the agent's view of the world."""
    agent = world.require_tank(agent_id)
    stage_id = world.config.stage_id
    template = load_template(stage_id, locale, coop_enabled)

    typed = stage_id in TYPED_STAGES
    teammates = [
        t for t in world.live_agents() if t.team == agent.team and t.id != agent_id
    ]
    enemies = sorted(
        (t for t in world.live_tanks() if t.team != agent.team), key=lambda t: t.id
    )
    own_base = world.base_for_team(agent.team)
    enemy_bases = sorted(
        (b for b in world.bases.values() if not b.destroyed and b.team != agent.team),
        key=lambda b: b.id,
    )

    values = {
        "turn": str(world.turn + 1),
        "own_tank": _tank_lines([agent], locale, typed),
        "teammates": _tank_lines(teammates, locale, typed),
        "enemy_tanks": _tank_lines(enemies, locale, typed),
        "bases": _base_lines([b for b in world.bases.values() if not b.destroyed]),
        "own_base": _base_lines([own_base] if own_base and not own_base.destroyed else []),
        "enemy_bases": _base_lines(enemy_bases),
        "attack_targets": _target_lines(world, agent),
        "coop_history": _coop_lines(world, agent_id, locale),
        "map_info": _map_lines(world, agent, locale),
        "last_op": _last_op_value(is_navigation(stage_id), locale, last_record),
        "last_feedback": feedback_text(last_record, locale),
    }
    return _fill(template, values)


def _fill(template: str, values: dict[str, str]) -> str:
    def sub(m: re.Match) -> str:
        value = values.get(m.group(1), "")
        if not value or value.startswith("\n"):
            return value
        prev = template[m.start() - 1] if m.start() > 0 else "\n"
        return value if prev in " \t\n" else " " + value

    return _SLOT_RE.sub(sub, template)


def _block(lines: list[str]) -> str:
    return "".join("\n" + line for line in lines)


def _tank_lines(tanks: list[Tank], locale: str, typed: bool) -> str:
    p = _PHRASES[locale]
    lines = []
    for t in tanks:
        fields = [str(t.id), str(t.pos.x), str(t.pos.y), p[t.facing.value], str(t.health)]
        if typed:
            fields.append(p[t.kind.value])
        lines.append("(" + ", ".join(fields) + ")")
    return _block(lines)


def _base_lines(bases: list[Base]) -> str:
    return _block([f"({b.id}, {b.pos.x}, {b.pos.y})" for b in sorted(bases, key=lambda b: b.id)])


def _target_lines(world: WorldState, agent: Tank) -> str:
    pairs = [
        (a_id, t_id)
        for a_id, t_id in sorted(world.last_turn_targets.items())
        if world.tanks[a_id].team == agent.team
    ]
    return _block([f"({a}, {t})" for a, t in pairs])


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
