from __future__ import annotations

import hashlib
import random
import re
from dataclasses import replace

import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from bab.coop import route_coop
from bab.engine import play_turn, step_turn
from bab.parsing import (
    CoopCommand,
    CoopKind,
    NO_COOP,
    ParsedAction,
    format_reply,
    parse_response,
)
from bab.prompts import (
    _PHRASES,
    LOCALES,
    _nearby_walls,
    feedback_text,
    load_template,
    render_observation,
    render_turn,
)
from bab.stages import load_stage
from bab.types import (
    Action,
    Blocker,
    CoopEvent,
    Disposition,
    Goal,
    Orientation,
    Outcome,
    Pos,
    TurnRecord,
    WallGrid,
)

from conftest import agent, base, make_world
from reference import cell_sets, full_scan_walls, render_each, turn_replies

SLOT_RE = re.compile(r"\{\{(\w+)\}\}")
ALL_STAGES = list(range(1, 8))


def parsed_coop(coop: CoopCommand | None, target: int = 3) -> ParsedAction:
    return ParsedAction(action=Action.SHOOT, target_id=target, coop=coop,
                        format_ok=True)


# ----------------------------------------------------------------------
# template data files
# ----------------------------------------------------------------------


@pytest.mark.parametrize("stage_id", ALL_STAGES)
@pytest.mark.parametrize("locale", LOCALES)
def test_template_matches_golden_outside_slots(stage_id, locale, golden_dir):
    template = load_template(stage_id, locale)
    golden = (golden_dir / f"stage{stage_id}_{locale}.txt").read_text(encoding="utf-8")
    assert SLOT_RE.sub("", template) == golden


@pytest.mark.parametrize("stage_id", ALL_STAGES)
@pytest.mark.parametrize("locale", LOCALES)
def test_rendered_prompt_differs_only_inside_slots(stage_id, locale):
    """Every literal template segment appears, in order, in the output."""
    w = load_stage(stage_id, 9)
    text = render_observation(w, 1, locale=locale)
    template = load_template(stage_id, locale)
    cursor = 0
    for segment in SLOT_RE.split(template)[::2]:  # literal parts
        idx = text.find(segment, cursor)
        assert idx >= 0, f"missing literal segment {segment[:60]!r}"
        cursor = idx + len(segment)


def test_stage1_prompt_contains_operation_options():
    w = load_stage(1, 0)
    text = render_observation(w, 1)
    assert "#Operation options:" in text
    assert "- #Shoot#: Shoot" in text


def test_stage5_prompt_contains_cooperation_options():
    w = load_stage(5, 0)
    text = render_observation(w, 1)
    assert "#Cooperation options:" in text
    assert "- #No_coop#: No cooperation needed" in text


def test_rendering_is_pure():
    w = load_stage(3, 4)
    a = render_observation(w, 1, locale="zh")
    b = render_observation(w, 1, locale="zh")
    assert a == b
    assert w.world_hash() == load_stage(3, 4).world_hash()  # untouched


def test_render_rejects_dead_agent_and_bad_locale():
    w = load_stage(5, 0)
    ids = [a.id for a in w.live_agents()]
    with pytest.raises(ValueError):
        render_observation(w, 1, locale="fr")
    with pytest.raises(ValueError):
        render_turn(w, ids, locale="fr")
    w.tanks[1].health = 0
    from bab.types import DeadEntityError

    with pytest.raises(DeadEntityError):
        render_observation(w, 1)
    with pytest.raises(DeadEntityError):
        render_turn(w, ids)


def test_prompt_shows_state_values():
    w = load_stage(2, 1)
    me = w.tanks[1]
    text = render_observation(w, 1)
    assert f"({me.id}, {me.pos.x}, {me.pos.y}, {me.facing.value}, 5)" in text
    goal = next(iter(w.bases.values()))
    assert f"({goal.id}, {goal.pos.x}, {goal.pos.y})" in text
    # all ten interfering tanks listed
    for t in w.live_npcs():
        assert f"({t.id}, {t.pos.x}, {t.pos.y}" in text


def test_typed_stages_show_tank_types():
    w = load_stage(6, 1)
    en = render_observation(w, 1)
    assert ", advanced)" in en
    assert ", normal)" in en
    zh = render_observation(w, 1, locale="zh")
    assert "高级)" in zh and "普通)" in zh


def test_last_feedback_rendered():
    w = load_stage(4, 1)
    actions = {a.id: ParsedAction(Action.MOVE_UP, 0, None, True)
               for a in w.live_agents()}
    records = step_turn(w, actions)
    mine = next(r for r in records if r.agent == 1)
    text = render_observation(w, 1, last_record=mine)
    assert "#Move_up#" in text.split("#Last round operation:")[1]


# every feedback branch as (action, outcome); pinned per locale below
FEEDBACK_CASES = {
    "none": None,
    "moved": (Action.MOVE_LEFT, Outcome("moved")),
    "blocked_wall": (Action.MOVE_UP, Outcome("blocked", blocker=Blocker.WALL)),
    "blocked_tank": (Action.MOVE_DOWN, Outcome("blocked", blocker=Blocker.TANK)),
    "blocked_base": (Action.MOVE_LEFT, Outcome("blocked", blocker=Blocker.BASE)),
    "blocked_boundary": (Action.MOVE_RIGHT, Outcome("blocked", blocker=Blocker.BOUNDARY)),
    "hit_wall": (Action.SHOOT, Outcome("hit_wall", cell=Pos(40, 96))),
    "hit_tank": (Action.SHOOT, Outcome("hit_tank", target=7, destroyed=False)),
    "destroyed": (Action.SHOOT, Outcome("hit_tank", target=7, destroyed=True)),
    "hit_base": (Action.SHOOT, Outcome("hit_base", target=102)),
    "no_hit": (Action.SHOOT, Outcome("no_hit")),
    "noop": (None, Outcome("noop", reason="invalid_format")),
}
# what sits one move ahead of agent 1 at (200, 200) facing up
AHEAD_CASES = {
    "clear": {},
    "boundary": {"tanks": [agent(1, 200, 0)]},
    "wall": {"walls": {(25, 21)}},
    "tank": {"tanks": [agent(1, 200, 200), agent(2, 200, 168, team=1)]},
    "base": {"bases": [base(101, 200, 168, team=1)]},
}
PHRASE_PINS = {
    "en": {
        "none": "None",
        "moved": "Moved left.",
        "blocked_wall": "Move blocked by a wall; now facing up.",
        "blocked_tank": "Move blocked by another tank; now facing down.",
        "blocked_base": "Move blocked by a base; now facing left.",
        "blocked_boundary": "Move blocked by the map boundary; now facing right.",
        "hit_wall": "Shot hit a wall cell at (40, 96).",
        "hit_tank": "Shot hit tank 7.",
        "destroyed": "Shot hit tank 7; tank 7 was destroyed.",
        "hit_base": "Shot hit base 102; the base is destroyed.",
        "no_hit": "Shot hit nothing.",
        "noop": "No valid operation was executed.",
        "ahead_clear": "Ahead: clear",
        "ahead_boundary": "Ahead: map boundary",
        "ahead_wall": "Ahead: wall at (200, 168)",
        "ahead_tank": "Ahead: tank 2",
        "ahead_base": "Ahead: base 101",
    },
    "zh": {
        "none": "无",
        "moved": "向左移动成功。",
        "blocked_wall": "移动被wall阻挡，当前朝向上。",
        "blocked_tank": "移动被其他坦克阻挡，当前朝向下。",
        "blocked_base": "移动被基地阻挡，当前朝向左。",
        "blocked_boundary": "移动被地图边界阻挡，当前朝向右。",
        "hit_wall": "射击命中wall(40, 96)。",
        "hit_tank": "射击命中坦克7。",
        "destroyed": "射击命中坦克7，坦克7已被摧毁。",
        "hit_base": "射击命中基地102，基地已被摧毁。",
        "no_hit": "射击未命中任何目标。",
        "noop": "未执行有效操作。",
        "ahead_clear": "前方: 无障碍",
        "ahead_boundary": "前方: 地图边界",
        "ahead_wall": "前方: wall (200, 168)",
        "ahead_tank": "前方: 坦克 2",
        "ahead_base": "前方: 基地 101",
    },
}


def feedback_record(action: Action | None, outcome: Outcome) -> TurnRecord:
    return TurnRecord(turn=0, agent=1, pos_before=Pos(200, 200), pos_after=Pos(200, 200),
                      facing=Orientation.UP, action=action, target=None, coop=None,
                      format_ok=action is not None, outcome=outcome, score_delta=0,
                      objective=None, alive_after=True)


@pytest.mark.parametrize("locale", LOCALES)
def test_locale_phrases(locale):
    pins = PHRASE_PINS[locale]
    for name, case in FEEDBACK_CASES.items():
        record = feedback_record(*case) if case is not None else None
        assert feedback_text(record, locale) == pins[name], name
    for kind, world_kw in AHEAD_CASES.items():
        w = make_world(**{"tanks": [agent(1, 200, 200)], **world_kw})
        assert pins[f"ahead_{kind}"] in render_observation(w, 1, locale).split("\n"), kind
    # every locale defines the same phrases
    assert _PHRASES[locale].keys() == _PHRASES[LOCALES[0]].keys()


# ----------------------------------------------------------------------
# local wall window
# ----------------------------------------------------------------------


# tank origins: the map edges, the 8-px lattice, any pixel, and origins
# whose centre (origin + 16) is a cell centre 8 * i + 4, where the
# half-plane ahead of the tank includes that cell's row or column
tank_coord = st.one_of(
    st.sampled_from([0, 8, 16, 24, 32, 448, 456, 464, 472, 480]),
    st.integers(min_value=0, max_value=60).map(lambda i: i * 8),
    st.integers(min_value=0, max_value=480),
    st.integers(min_value=0, max_value=59).map(lambda i: i * 8 + 4),
)
lattice = st.integers(min_value=0, max_value=63)
wall_edits = st.lists(st.tuples(st.sampled_from(["add", "remove"]), lattice, lattice),
                      max_size=12)


@given(
    data=st.data(),
    walls=cell_sets(),
    goal=st.sampled_from([Goal.NAVIGATION, Goal.COMPETITIVE]),
)
# no shrink phase: shrinking a failing example of these dense wall sets
# takes minutes, while the unshrunk example is reported in seconds
@settings(max_examples=300, deadline=None,
          phases=[Phase.explicit, Phase.reuse, Phase.generate])
def test_nearby_walls_matches_full_scan(data, walls, goal):
    """One world rendered from several tank origins, in every facing, with
    drawn ``add`` and ``remove`` calls between renders, so cached column
    text must follow every change."""
    w = make_world([agent(1, 0, 0)], walls=walls, goal=goal)
    tank = w.tanks[1]
    for _ in range(data.draw(st.integers(min_value=1, max_value=4))):
        tank.pos = Pos(data.draw(tank_coord), data.draw(tank_coord))
        for facing in Orientation:
            tank.facing = facing
            assert _nearby_walls(w, tank) == full_scan_walls(w, tank)
        for op, cx, cy in data.draw(wall_edits):
            getattr(w.walls, op)(cx, cy)


@pytest.mark.parametrize("stage_id", [1, 7])
def test_rendering_leaves_the_world_unchanged(stage_id):
    """Renders between wall removals change nothing a hash or a query of
    the grid can see: the world equals one built fresh from its cells."""
    world = load_stage(stage_id, 0)
    cells = set(world.walls.cells)
    rng = random.Random(stage_id)
    for _ in range(40):
        before = world.world_hash()
        ids = [a.id for a in world.live_agents()]
        for locale in LOCALES:
            for agent_id in ids:
                render_observation(world, agent_id, locale)
            render_turn(world, ids, locale)
        assert world.world_hash() == before
        cell = rng.choice(sorted(cells))
        world.walls.remove(*cell)
        cells.discard(cell)
    fresh = WallGrid(cells)
    assert world.walls.cells == fresh.cells == cells
    assert world.world_hash() == replace(world, walls=fresh).world_hash()
    assert len(world.walls) == len(fresh)
    lattice_cells = [(x, y) for x in range(64) for y in range(64)]
    assert [c in world.walls for c in lattice_cells] == [c in fresh for c in lattice_cells]


@given(
    data=st.data(),
    stage_id=st.sampled_from(ALL_STAGES),
    seed=st.integers(min_value=0, max_value=2**32),
    locale=st.sampled_from(LOCALES),
    coop_enabled=st.booleans(),
)
@settings(max_examples=60, deadline=None)
def test_render_turn_equals_one_render_per_agent(data, stage_id, seed, locale, coop_enabled):
    """Blocks built once per turn and shared across agents leak nothing
    from one agent's prompt into another's: after k played turns, with
    tanks killed and bases destroyed, one ``render_turn`` call gives each
    agent the prompt it gets rendered alone, in the order asked."""
    world = load_stage(stage_id, seed)
    last_records = {}

    def pick(options):
        return data.draw(st.sampled_from(options))

    for _ in range(data.draw(st.integers(min_value=0, max_value=12), label="turns")):
        if world.status is not None:
            break
        _, records = play_turn(world, turn_replies(world, pick), coop_enabled)
        last_records.update((r.agent, r) for r in records)
    if stage_id == 3 and coop_enabled and world.turn >= 2:
        assert world.coop_history
    for tank_id in data.draw(st.lists(st.sampled_from(sorted(world.tanks)), max_size=4),
                             label="killed"):
        world.tanks[tank_id].health = 0
    for base_id in data.draw(st.lists(st.sampled_from(sorted(world.bases)), max_size=2),
                             label="destroyed"):
        world.bases[base_id].destroyed = True
    ids = data.draw(st.permutations([a.id for a in world.live_agents()]), label="ids")
    alone = render_each(world, ids, locale, last_records, coop_enabled)
    assert render_turn(world, ids, locale, last_records, coop_enabled) == alone


# ----------------------------------------------------------------------
# parse_response
# ----------------------------------------------------------------------


def test_parse_stage1_move():
    p = parse_response(1, "#Operation: #Move_up#")
    assert p.format_ok and p.action is Action.MOVE_UP
    assert p.target_id is None and p.coop is None


def test_parse_stage5_attack_and_coop():
    raw = "#Attack operation: Target 3: #Shoot#\n#Cooperation operation: #No_coop#"
    p = parse_response(5, raw)
    assert p.format_ok
    assert p.action is Action.SHOOT
    assert p.target_id == 3
    assert p.coop == NO_COOP


def test_parse_prose_is_invalid():
    p = parse_response(1, "I think we should flank.")
    assert not p.format_ok and p.action is None


def test_parse_takes_last_marker_occurrence():
    raw = (
        "The format is #Operation: {Specific operation command}\n"
        "#Operation: #Move_left#"
    )
    p = parse_response(1, raw)
    assert p.format_ok and p.action is Action.MOVE_LEFT


def test_parse_rejects_two_action_tokens_on_marker_line():
    p = parse_response(1, "#Operation: #Move_up# or #Shoot#")
    assert not p.format_ok and p.action is None


def test_parse_stage4_requires_target_clause():
    assert parse_response(4, "#Operation: Target 7: #Shoot#").format_ok
    missing = parse_response(4, "#Operation: #Shoot#")
    assert not missing.format_ok and missing.action is None
    garbled = parse_response(4, "#Operation: Target seven: #Shoot#")
    assert not garbled.format_ok


def test_parse_chinese_markers():
    p = parse_response(1, "#思考过程: ...\n#操作: #Move_down#")
    assert p.format_ok and p.action is Action.MOVE_DOWN
    p5 = parse_response(5, "#攻击操作: Target 12: #Move_right#\n#协作操作: #Keep_coop#")
    assert p5.format_ok and p5.target_id == 12
    assert p5.coop.kind is CoopKind.KEEP
    p4 = parse_response(4, "#操作: Target 3: #Move_left#")
    assert p4.format_ok and p4.action is Action.MOVE_LEFT


def test_parse_request_coop_variants():
    for raw, to, msg in [
        ("#Cooperation operation: #Request_coop# 2: focus tank 9", 2, "focus tank 9"),
        ("#Cooperation operation: #Request_coop# {Teammate tank ID 4}: go left",
         4, "go left"),
        ("#协作操作: #Request_coop# {坦克编号7}: 一起攻击", 7, "一起攻击"),
    ]:
        p = parse_response(5, "#Attack operation: Target 1: #Shoot#\n" + raw)
        assert p.coop is not None, raw
        assert p.coop.kind is CoopKind.REQUEST
        assert p.coop.to == to
        assert p.coop.message == msg


def test_malformed_coop_line_keeps_action_format_ok():
    # a request with no recipient id is no cooperation command either
    for coop_line in ("maybe later", "#Request_coop# help me"):
        raw = f"#Attack operation: Target 3: #Shoot#\n#Cooperation operation: {coop_line}"
        p = parse_response(5, raw)
        assert p.format_ok and p.action is Action.SHOOT and p.target_id == 3
        assert p.coop is None


def test_wrong_marker_for_stage_is_invalid():
    # coop stages require the attack marker, not the plain one
    p = parse_response(5, "#Operation: Target 3: #Shoot#")
    assert not p.format_ok


def test_parse_never_raises_on_garbage():
    for raw in ["", "####", "#Operation:", "#Operation: \n", "Target 3",
                "#Move_up#", "#Operation: #Move_upward#", "\x00\x01"]:
        for stage_id in ALL_STAGES:
            p = parse_response(stage_id, raw)
            assert not p.format_ok


# ----------------------------------------------------------------------
# reply round-trip
# ----------------------------------------------------------------------

coop_strategy = st.one_of(
    st.none(),
    st.just(NO_COOP),
    st.just(CoopCommand(CoopKind.KEEP)),
    st.just(CoopCommand(CoopKind.STOP)),
    st.builds(
        lambda to, msg: CoopCommand(CoopKind.REQUEST, to, msg),
        st.integers(min_value=1, max_value=99),
        st.text(
            alphabet=st.characters(blacklist_characters="#\n{}", min_codepoint=32),
            min_size=1,
            max_size=40,
        ).map(str.strip).filter(bool),
    ),
)


@given(
    stage_id=st.sampled_from(ALL_STAGES),
    action=st.sampled_from(list(Action)),
    target=st.integers(min_value=0, max_value=999),
    coop=coop_strategy,
)
@settings(max_examples=300)
def test_format_reply_round_trips(stage_id, action, target, coop):
    raw = format_reply(stage_id, action, target, coop)
    p = parse_response(stage_id, raw)
    assert p.format_ok
    assert p.action is action
    if stage_id >= 3:
        assert p.target_id == target
    if stage_id in (3, 5, 6, 7) and coop is not None:
        assert p.coop == coop
    else:
        assert p.coop is None or stage_id in (3, 5, 6, 7)


# ----------------------------------------------------------------------
# cooperation routing
# ----------------------------------------------------------------------


def coop_world(topology="intra", stage_id=5):
    from bab.types import CoopTopology

    topo = {
        "intra": CoopTopology.INTRA_TEAM,
        "inter": CoopTopology.INTER_TEAM,
        "both": CoopTopology.BOTH,
    }[topology]
    return make_world(
        [
            agent(1, 64, 384, team=0),
            agent(2, 128, 448, team=0),
            agent(3, 384, 64, team=1),
            agent(4, 448, 128, team=1),
        ],
        [base(101, 64, 448, team=0), base(102, 448, 64, team=1)],
        stage_id=stage_id,
        n_agents=4,
        n_teams=2,
        goal=Goal.STATIC_COOP,
        coop_topology=topo,
    )


def noop_actions(world):
    return {a.id: parsed_coop(None) for a in world.live_agents()}


def test_request_to_teammate_lands_in_next_prompt():
    w = coop_world("intra")
    actions = noop_actions(w)
    actions[1] = parsed_coop(CoopCommand(CoopKind.REQUEST, 2, "rush their base"))
    events = route_coop(w, actions, True)
    assert [e.event for e in events] == ["request"]
    step_turn(w, actions)
    text = render_observation(w, 2)
    history = text.split("Historical cooperation attack information:")[1]
    assert "rush their base" in history.split("Map information")[0]


def test_cross_team_request_dropped_in_intra_stage():
    w = coop_world("intra")
    actions = noop_actions(w)
    actions[1] = parsed_coop(CoopCommand(CoopKind.REQUEST, 3, "truce?"))
    events = route_coop(w, actions, True)
    assert events[0].event == "drop"
    assert w.coop_history == []


def test_same_team_request_dropped_in_inter_stage():
    w = coop_world("inter", stage_id=6)
    actions = noop_actions(w)
    actions[1] = parsed_coop(CoopCommand(CoopKind.REQUEST, 2, "hold"))
    actions[3] = parsed_coop(CoopCommand(CoopKind.REQUEST, 1, "team up on 2?"))
    events = route_coop(w, actions, True)
    kinds = {e.from_: e.event for e in events}
    assert kinds[1] == "drop"
    assert kinds[3] == "request"


def test_request_to_npc_or_dead_agent_dropped():
    from conftest import npc as make_npc

    w = coop_world("both", stage_id=7)
    w.tanks[9] = make_npc(9, 256, 256)
    actions = noop_actions(w)
    actions[1] = parsed_coop(CoopCommand(CoopKind.REQUEST, 9, "hello npc"))
    actions[2] = parsed_coop(CoopCommand(CoopKind.REQUEST, 99, "hello void"))
    events = route_coop(w, actions, True)
    assert all(e.event == "drop" for e in events)


def test_acceptance_inferred_from_next_command():
    w = coop_world("intra")
    actions = noop_actions(w)
    actions[1] = parsed_coop(CoopCommand(CoopKind.REQUEST, 2, "plan A"))
    route_coop(w, actions, True)
    step_turn(w, actions)

    follow = noop_actions(w)
    follow[2] = parsed_coop(CoopCommand(CoopKind.KEEP))
    events = route_coop(w, follow, True)
    assert CoopEvent(turn=1, event="accept", from_=2, to=1) in events
    assert (1, 2) in w.coop_pairs
    assert w.coop_history[0].disposition is Disposition.ACCEPTED


def test_rejection_inferred_from_no_coop():
    w = coop_world("intra")
    actions = noop_actions(w)
    actions[1] = parsed_coop(CoopCommand(CoopKind.REQUEST, 2, "plan B"))
    route_coop(w, actions, True)
    step_turn(w, actions)

    follow = noop_actions(w)
    follow[2] = parsed_coop(NO_COOP)
    route_coop(w, follow, True)
    assert w.coop_pairs == set()
    assert w.coop_history[0].disposition is Disposition.REJECTED


def test_stop_coop_clears_active_pairs():
    w = coop_world("intra")
    actions = noop_actions(w)
    actions[1] = parsed_coop(CoopCommand(CoopKind.REQUEST, 2, "plan C"))
    route_coop(w, actions, True)
    step_turn(w, actions)
    follow = noop_actions(w)
    follow[2] = parsed_coop(CoopCommand(CoopKind.REQUEST, 1, "agreed"))
    route_coop(w, follow, True)
    assert w.coop_pairs == {(1, 2)}

    stop = noop_actions(w)
    stop[1] = parsed_coop(CoopCommand(CoopKind.STOP))
    events = route_coop(w, stop, True)
    assert [e.event for e in events] == ["stop"]
    assert w.coop_pairs == set()
    # 2's request of this turn is not seen yet, so it stays pending
    assert [m.disposition for m in w.coop_history] == [Disposition.STOPPED,
                                                       Disposition.PENDING]
    with pytest.raises(AttributeError):
        w.coop_pairs.add((1, 2))  # derived from the history, never stored


def test_route_disabled_discards_everything():
    w = coop_world("intra")
    actions = noop_actions(w)
    actions[1] = parsed_coop(CoopCommand(CoopKind.REQUEST, 2, "secret"))
    events = route_coop(w, actions, False)
    assert events == []
    assert w.coop_history == [] and w.coop_pairs == set()


# (stage, seed) -> world_hash after COOP_SCRIPT, which leaves one message of
# each disposition and one active pair, so the hash's pair and message
# sections are both pinned
COOP_HASH_PINS = {
    (5, 3): "1bd829e4a1acf9887e01b88532c7a13cc72102a8be1fe638c62f93770ecf5054",
    (7, 4): "2059bbe394b5b591f221ed06ac084ccfac9e7620ed9b537cc3f8052d7790706b",
}

# turn -> {agent: cooperation command}; every other live agent sends none
COOP_SCRIPT = [
    {1: CoopCommand(CoopKind.REQUEST, 2, "push left"), 3: CoopCommand(CoopKind.REQUEST, 4, "hold")},
    {2: CoopCommand(CoopKind.KEEP), 4: NO_COOP},  # 2 accepts 1; 4 rejects 3
    {1: CoopCommand(CoopKind.STOP), 3: CoopCommand(CoopKind.REQUEST, 4, "again")},
    {4: CoopCommand(CoopKind.REQUEST, 3, "with you")},  # accepts 3, asks back
]


@pytest.mark.parametrize("case", sorted(COOP_HASH_PINS), ids=lambda c: f"stage{c[0]}-seed{c[1]}")
def test_world_hash_with_cooperation_state_is_pinned(case):
    stage_id, seed = case
    w = load_stage(stage_id, seed)
    events = []
    for commands in COOP_SCRIPT:
        replies = {a.id: format_reply(stage_id, Action.SHOOT, 0, commands.get(a.id))
                   for a in w.live_agents()}
        events += [e.event for e in play_turn(w, replies, True)[0]]
    assert events == ["request", "request", "accept", "keep", "reject", "stop",
                      "request", "accept", "request"]
    assert [(m.from_id, m.to_id, m.disposition) for m in w.coop_history] == [
        (1, 2, Disposition.STOPPED),
        (3, 4, Disposition.REJECTED),
        (3, 4, Disposition.ACCEPTED),
        (4, 3, Disposition.PENDING),
    ]
    assert w.coop_pairs == {(3, 4)}
    assert w.world_hash() == COOP_HASH_PINS[case]


# ----------------------------------------------------------------------
# ablation: no cooperation surface at all
# ----------------------------------------------------------------------


# (stage, locale, coop_enabled) -> sha256 of load_template's text, so an
# edit to a template or to its [[coop:...]] spans shows in both variants
TEMPLATE_PINS = {
    (1, "en", True): "cae066e7f2b0510f3f24062207b1ae287ef157e290014b0df028c9723b7a4a45",
    (1, "en", False): "cae066e7f2b0510f3f24062207b1ae287ef157e290014b0df028c9723b7a4a45",
    (1, "zh", True): "8ea3a4045a3b5c05dd631999db4c0aa255da03bc62347b536cb1abfc1d5cdeaf",
    (1, "zh", False): "8ea3a4045a3b5c05dd631999db4c0aa255da03bc62347b536cb1abfc1d5cdeaf",
    (2, "en", True): "bb6d934a14f1da7ad0f6c3193d47b032bc699ffb5a93b847a1867dff7e3447e5",
    (2, "en", False): "bb6d934a14f1da7ad0f6c3193d47b032bc699ffb5a93b847a1867dff7e3447e5",
    (2, "zh", True): "216eae134824936475ab95c4aec6c9a4fa6a4b120b54dbbbf3069424a755c535",
    (2, "zh", False): "216eae134824936475ab95c4aec6c9a4fa6a4b120b54dbbbf3069424a755c535",
    (3, "en", True): "4aab4e1a64f7a176fd558cf226a4313765c4bccdcc02aabeda4f237fff94b54e",
    (3, "en", False): "e1be3bcda6eb96605f74afd1dc430766b3901c6b3da36ee045031215066be7da",
    (3, "zh", True): "f875fe2a6796d9abf736910d8de93655633fc4d883b78f13f764b30d8b5260c6",
    (3, "zh", False): "ae81f9b453fc2506ecf8ba210a0e8b0e1370fbb39aeec20576ffbe51e3aa43c3",
    (4, "en", True): "9d1e34e34d07e08a442feda64a244312182d946c8e947dba76c7dd33a857184f",
    (4, "en", False): "9d1e34e34d07e08a442feda64a244312182d946c8e947dba76c7dd33a857184f",
    (4, "zh", True): "2ee86011868cbcb5061e533f44ebc2a2ef0aa6e29958f47f404bb854d3856efc",
    (4, "zh", False): "2ee86011868cbcb5061e533f44ebc2a2ef0aa6e29958f47f404bb854d3856efc",
    (5, "en", True): "4aab4e1a64f7a176fd558cf226a4313765c4bccdcc02aabeda4f237fff94b54e",
    (5, "en", False): "e1be3bcda6eb96605f74afd1dc430766b3901c6b3da36ee045031215066be7da",
    (5, "zh", True): "f875fe2a6796d9abf736910d8de93655633fc4d883b78f13f764b30d8b5260c6",
    (5, "zh", False): "ae81f9b453fc2506ecf8ba210a0e8b0e1370fbb39aeec20576ffbe51e3aa43c3",
    (6, "en", True): "2dca6f3dc047961ff6c1fe22abd04eaf5fd3ffc5ff46c9c869b249f75396be57",
    (6, "en", False): "bbf90c3713595bf7c784f04423aa621e31d0a1a2210497ab0954b1c0cf7ef9f6",
    (6, "zh", True): "7a0a293e738d445f3fa55fed3df2204f57ff73279230207fbc9466c7ca9eb600",
    (6, "zh", False): "ca53542063ed0d55e9b9106e97e4980fb29ab481f540a1ed020423c12c76e52b",
    (7, "en", True): "b3742d64b921193d25dfa2531a3042ff384e23400f4c05e2f0b9d0594bd4e808",
    (7, "en", False): "67c164107f15418258c040e1052347d699709a1f734ceeb52398f0297e6c030c",
    (7, "zh", True): "e4a10211995d1c3c056d71565512edecb345abef528817311eba39545ceac3cc",
    (7, "zh", False): "b840a6c1ac6c359bd75b55bf4c0b809ad6b283fad36ba7d48076aa33b4eced6d",
}


@pytest.mark.parametrize("case", sorted(TEMPLATE_PINS), ids=lambda c: f"{c[0]}-{c[1]}-{c[2]}")
def test_template_text_is_pinned(case):
    text = load_template(*case)
    assert "[[" not in text and "]]" not in text
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == TEMPLATE_PINS[case]


@pytest.mark.parametrize("stage_id", [3, 5, 6, 7])
@pytest.mark.parametrize("locale", LOCALES)
def test_no_coop_prompts_have_no_cooperation_section(stage_id, locale):
    w = load_stage(stage_id, 2)
    text = render_observation(w, 1, locale=locale, coop_enabled=False)
    assert "#Cooperation" not in text
    assert "#协作" not in text
    assert "Request_coop" not in text
    assert "cooperate" not in text.lower() or locale == "zh"
    assert "协作" not in text


def test_no_coop_prompt_keeps_operation_format_line():
    w = load_stage(5, 2)
    text = render_observation(w, 1, coop_enabled=False)
    assert "#Attack operation: Target {Enemy tank ID}: {Specific operation command}" in text
    assert "- You can only output one control operation each time." in text


def test_no_coop_run_has_empty_mailboxes():
    w = load_stage(5, 2)
    for _ in range(5):
        actions = {
            a.id: parsed_coop(CoopCommand(CoopKind.REQUEST, 1 + (a.id % 4), "msg"))
            for a in w.live_agents()
        }
        route_coop(w, actions, False)
        step_turn(w, actions)
    assert w.coop_history == []
    assert w.coop_pairs == set()


def test_local_backends_leave_the_coop_line_out_when_coop_is_off():
    from bab.agents import AgentSpec, make_backend

    for stage_id in (3, 5):
        w = load_stage(stage_id, 1)
        for backend in ("random", "greedy"):
            policy = make_backend(AgentSpec(backend=backend, seed=3), stage_id, 1, False)
            reply = policy.decide(render_observation(w, 1, coop_enabled=False), w, 1).response
            assert "#Cooperation operation:" not in reply
            parsed = parse_response(stage_id, reply)
            assert parsed.format_ok and parsed.coop is None
