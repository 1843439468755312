"""Observation-prompt rendering.

The per-stage template files under ``templates/`` carry the canonical
prompt text for both locales with ``{{slot}}`` placeholders marking the
fill points (turn counter, entity listings, local map block, last-round
feedback). Rendering is a pure function of its inputs: it never mutates
the world.

With cooperation disabled, every cooperation surface (options block,
plan line, output-format line, history slot, "you can cooperate"
sentences) is removed from the template before filling, so ablation runs
see prompts with no cooperation section at all.
"""

from __future__ import annotations

import re
from functools import lru_cache
from importlib import resources

from .engine import probe_ahead
from .stages import STAGE_PROTOCOLS, coop_active
from .types import (
    Base,
    Disposition,
    Goal,
    Orientation,
    Tank,
    TankKind,
    TurnRecord,
    WorldState,
    TANK_SIZE,
)

LOCALES = ("en", "zh")
MAP_WINDOW = 96  # L-inf radius, in px, of the local wall report
COOP_HISTORY_LIMIT = 5

_SLOT_RE = re.compile(r"\{\{(\w+)\}\}")

_DIR_WORDS = {
    "en": {o: o.value for o in Orientation},
    "zh": {
        Orientation.UP: "上",
        Orientation.DOWN: "下",
        Orientation.LEFT: "左",
        Orientation.RIGHT: "右",
    },
}
_TYPE_WORDS = {
    "en": {TankKind.AGENT: "advanced", TankKind.NPC: "normal"},
    "zh": {TankKind.AGENT: "高级", TankKind.NPC: "普通"},
}
_DISPOSITION_WORDS = {
    "en": {d: d.value for d in Disposition},
    "zh": {
        Disposition.PENDING: "待定",
        Disposition.ACCEPTED: "已接受",
        Disposition.REJECTED: "已拒绝",
        Disposition.STOPPED: "已终止",
    },
}
_BLOCKER_WORDS = {
    "en": {"wall": "a wall", "tank": "another tank", "base": "a base",
           "boundary": "the map boundary"},
    "zh": {"wall": "wall", "tank": "其他坦克", "base": "基地", "boundary": "地图边界"},
}

# cooperation surfaces removed for ablation runs, per locale
_COOP_SENTENCES = {
    "en": [
        " To achieve the ultimate goal, you can cooperate with your teammate.",
        " To achieve the ultimate goal, you can cooperate with an enemy to"
        " eliminate other enemies.",
        " To achieve the ultimate goal, you can cooperate with your teammates,"
        " or temporarily cooperate with an enemy to eliminate other enemies.",
        " You can also choose cooperation options to decide whether to"
        " cooperate with teammates.",
    ],
    "zh": [
        "你可以与你的队友协作完成目标。",
        "为了完成最终目标，你可以与某个敌人协作消灭其它敌人。",
        "为了完成最终目标，你可以与你的队友协作，也可以暂时与某个敌人协作消灭其它敌人。",
        "并可以选择协作选项决定是否与队友协作攻击。",
    ],
}
_COOP_NOTE = {
    "en": (
        "- You can only output one control operation and one cooperation"
        " operation each time.",
        "- You can only output one control operation each time.",
    ),
    "zh": ("- 你每次只能输出一个控制操作和一个协作操作。", "- 你每次只能输出一个操作。"),
}
_COOP_LINE_PREFIXES = (
    "#Cooperation options:",
    "#Cooperation operation:",
    "- Cooperation plan:",
    "- Tanks have two types: normal and advanced.",
    "#协作选项:",
    "#协作操作:",
    "- 协作计划:",
    "- 坦克有普通和高级两种类型",
)
_COOP_HISTORY_HEADERS = ("Historical cooperation attack information:", "历史协作攻击信息:")


@lru_cache(maxsize=None)
def load_template(stage_id: int, locale: str, coop_enabled: bool = True) -> str:
    if locale not in LOCALES:
        raise ValueError(f"unknown locale {locale!r}; expected one of {LOCALES}")
    path = resources.files(__package__).joinpath(f"templates/stage{stage_id}_{locale}.txt")
    try:
        text = path.read_text(encoding="utf-8")
    except FileNotFoundError:
        raise ValueError(f"no template for stage {stage_id}") from None
    if not coop_enabled:
        text = _strip_coop(text, locale)
    return text


def _strip_coop(text: str, locale: str) -> str:
    for sentence in _COOP_SENTENCES[locale]:
        text = text.replace(sentence, "")
    old, new = _COOP_NOTE[locale]
    text = text.replace(old, new)

    lines = text.split("\n")
    out: list[str] = []
    skip_bullets = False
    skip_blank = False
    for line in lines:
        stripped = line.split("{{")[0]
        if skip_bullets:
            if line.startswith("- #"):
                continue
            skip_bullets = False
            if line == "":
                continue
        if skip_blank:
            skip_blank = False
            if line == "":
                continue
        if any(stripped.startswith(p) for p in _COOP_LINE_PREFIXES):
            skip_bullets = stripped.startswith(("#Cooperation options:", "#协作选项:"))
            continue
        if any(stripped.startswith(h) for h in _COOP_HISTORY_HEADERS):
            skip_blank = True
            continue
        out.append(line)
    return "\n".join(out)


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
    protocol = STAGE_PROTOCOLS[stage_id]
    template = load_template(stage_id, locale, coop_active(world.config, coop_enabled))

    typed = protocol.typed
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
        "last_op": _last_op_value(protocol.navigation, locale, last_record),
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
    words = _DIR_WORDS[locale]
    lines = []
    for t in tanks:
        fields = [str(t.id), str(t.pos.x), str(t.pos.y), words[t.facing], str(t.health)]
        if typed:
            fields.append(_TYPE_WORDS[locale][t.kind])
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
    words = _DISPOSITION_WORDS[locale]
    lines = []
    for m in relevant[-COOP_HISTORY_LIMIT:]:
        if locale == "zh":
            lines.append(
                f"回合{m.turn + 1}: 坦克{m.from_id} -> 坦克{m.to_id}:"
                f" {m.body} [{words[m.disposition]}]"
            )
        else:
            lines.append(
                f"Round {m.turn + 1}: tank {m.from_id} -> tank {m.to_id}:"
                f" {m.body} [{words[m.disposition]}]"
            )
    return _block(lines)


def _map_lines(world: WorldState, agent: Tank, locale: str) -> str:
    kind, detail = probe_ahead(world, agent)
    if kind == "clear":
        ahead = "clear" if locale == "en" else "无障碍"
    elif kind == "boundary":
        ahead = "map boundary" if locale == "en" else "地图边界"
    elif kind == "wall":
        x, y = detail
        ahead = f"wall at ({x}, {y})" if locale == "en" else f"wall ({x}, {y})"
    elif kind == "tank":
        ahead = f"tank {detail.id}" if locale == "en" else f"坦克 {detail.id}"
    else:
        ahead = f"base {detail.id}" if locale == "en" else f"基地 {detail.id}"
    lines = [f"Ahead: {ahead}" if locale == "en" else f"前方: {ahead}"]

    walls = _nearby_walls(world, agent)
    if walls:
        listing = ", ".join(f"({x}, {y})" for x, y in walls)
        if locale == "en":
            lines.append(f"Nearby wall cells (x, y): {listing}")
        else:
            lines.append(f"附近wall单元(x, y): {listing}")
    return _block(lines)


def _nearby_walls(world: WorldState, agent: Tank) -> list[tuple[int, int]]:
    """Wall-cell origins within the local window; navigation stages only
    report the half-plane ahead of the tank."""
    cx, cy = agent.center
    forward_only = world.config.goal is Goal.NAVIGATION
    dx, dy = agent.facing.delta
    cells = []
    for wx, wy in sorted(world.walls.cells):
        x, y = wx * 8, wy * 8
        mx, my = x + 4, y + 4
        if max(abs(mx - cx), abs(my - cy)) > MAP_WINDOW + TANK_SIZE // 2:
            continue
        if forward_only and (mx - cx) * dx + (my - cy) * dy < 0:
            continue
        cells.append((x, y))
    return cells


def _last_op_value(navigation: bool, locale: str, record: TurnRecord | None) -> str:
    if record is None:
        return "None" if locale == "en" else "无"
    op = record.action if record.format_ok and record.action else (
        "Invalid output" if locale == "en" else "无效输出"
    )
    if navigation:
        return f"{op} - {feedback_text(record, locale)}"
    return op


def feedback_text(record: TurnRecord | None, locale: str) -> str:
    """One-sentence description of how the previous action resolved."""
    if record is None:
        return "None" if locale == "en" else "无"
    outcome = record.outcome
    result = outcome.get("result")
    en = locale == "en"
    if result == "moved":
        word = _DIR_WORDS[locale][_action_direction(record.action)]
        return f"Moved {word}." if en else f"向{word}移动成功。"
    if result == "blocked":
        bw = _BLOCKER_WORDS[locale][outcome["blocker"]]
        dw = _DIR_WORDS[locale][_action_direction(record.action)]
        if en:
            return f"Move blocked by {bw}; now facing {dw}."
        return f"移动被{bw}阻挡，当前朝向{dw}。"
    if result == "hit_wall":
        x, y = outcome["cell"]
        return f"Shot hit a wall cell at ({x}, {y})." if en else f"射击命中wall({x}, {y})。"
    if result == "hit_tank":
        t = outcome["target"]
        if outcome.get("destroyed"):
            return (
                f"Shot hit tank {t}; tank {t} was destroyed."
                if en
                else f"射击命中坦克{t}，坦克{t}已被摧毁。"
            )
        return f"Shot hit tank {t}." if en else f"射击命中坦克{t}。"
    if result == "hit_base":
        b = outcome["target"]
        return (
            f"Shot hit base {b}; the base is destroyed."
            if en
            else f"射击命中基地{b}，基地已被摧毁。"
        )
    if result == "no_hit":
        return "Shot hit nothing." if en else "射击未命中任何目标。"
    return "No valid operation was executed." if en else "未执行有效操作。"


def _action_direction(token: str | None) -> Orientation:
    from .types import Action, MOVE_DIRECTIONS

    return MOVE_DIRECTIONS[Action(token)]
