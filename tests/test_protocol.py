from __future__ import annotations

import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bab.coop import route_coop
from bab.engine import step_turn
from bab.parsing import (
    CoopCommand,
    CoopKind,
    NO_COOP,
    ParsedAction,
    format_reply,
    parse_response,
)
from bab.prompts import LOCALES, load_template, render_observation
from bab.stages import load_stage
from bab.types import Action, Disposition, Goal

from conftest import agent, base, make_world

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
    w = load_stage(1, 0)
    with pytest.raises(ValueError):
        render_observation(w, 1, locale="fr")
    w.tanks[1].health = 0
    from bab.types import DeadEntityError

    with pytest.raises(DeadEntityError):
        render_observation(w, 1)


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
    mine = next(r for r in records if r.agent_id == 1)
    text = render_observation(w, 1, last_record=mine)
    assert "#Move_up#" in text.split("#Last round operation:")[1]


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
    for raw, to_id, msg in [
        ("#Cooperation operation: #Request_coop# 2: focus tank 9", 2, "focus tank 9"),
        ("#Cooperation operation: #Request_coop# {Teammate tank ID 4}: go left",
         4, "go left"),
        ("#协作操作: #Request_coop# {坦克编号7}: 一起攻击", 7, "一起攻击"),
    ]:
        p = parse_response(5, "#Attack operation: Target 1: #Shoot#\n" + raw)
        assert p.coop is not None, raw
        assert p.coop.kind is CoopKind.REQUEST
        assert p.coop.to_id == to_id
        assert p.coop.message == msg


def test_malformed_coop_line_keeps_action_format_ok():
    raw = "#Attack operation: Target 3: #Shoot#\n#Cooperation operation: maybe later"
    p = parse_response(5, raw)
    assert p.format_ok and p.action is Action.SHOOT
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
    assert [e["kind"] for e in events] == ["request"]
    step_turn(w, actions)
    text = render_observation(w, 2)
    history = text.split("Historical cooperation attack information:")[1]
    assert "rush their base" in history.split("Map information")[0]


def test_cross_team_request_dropped_in_intra_stage():
    w = coop_world("intra")
    actions = noop_actions(w)
    actions[1] = parsed_coop(CoopCommand(CoopKind.REQUEST, 3, "truce?"))
    events = route_coop(w, actions, True)
    assert events[0]["kind"] == "drop"
    assert w.coop_history == []


def test_same_team_request_dropped_in_inter_stage():
    w = coop_world("inter", stage_id=6)
    actions = noop_actions(w)
    actions[1] = parsed_coop(CoopCommand(CoopKind.REQUEST, 2, "hold"))
    actions[3] = parsed_coop(CoopCommand(CoopKind.REQUEST, 1, "team up on 2?"))
    events = route_coop(w, actions, True)
    kinds = {e["from"]: e["kind"] for e in events}
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
    assert all(e["kind"] == "drop" for e in events)


def test_acceptance_inferred_from_next_command():
    w = coop_world("intra")
    actions = noop_actions(w)
    actions[1] = parsed_coop(CoopCommand(CoopKind.REQUEST, 2, "plan A"))
    route_coop(w, actions, True)
    step_turn(w, actions)

    follow = noop_actions(w)
    follow[2] = parsed_coop(CoopCommand(CoopKind.KEEP))
    events = route_coop(w, follow, True)
    assert {"turn": 1, "kind": "accept", "from": 2, "to": 1} in events
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
    w.coop_pairs.add((1, 2))
    actions = noop_actions(w)
    actions[1] = parsed_coop(CoopCommand(CoopKind.STOP))
    route_coop(w, actions, True)
    assert w.coop_pairs == set()


def test_route_disabled_discards_everything():
    w = coop_world("intra")
    actions = noop_actions(w)
    actions[1] = parsed_coop(CoopCommand(CoopKind.REQUEST, 2, "secret"))
    events = route_coop(w, actions, False)
    assert events == []
    assert w.coop_history == [] and w.coop_pairs == set()


# ----------------------------------------------------------------------
# ablation: no cooperation surface at all
# ----------------------------------------------------------------------


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


def test_topology_none_override_strips_coop_sections():
    from bab.agents import AgentSpec, make_backend
    from bab.stages import StageOverrides, load_stage as _load

    w = _load(5, 1, StageOverrides(coop_topology="none"))
    text = render_observation(w, 1, coop_enabled=True)
    assert "#Cooperation" not in text and "#协作" not in render_observation(
        w, 1, locale="zh", coop_enabled=True
    )
    # the local backends follow the prompt and leave the cooperation line out
    for stage_id in (3, 5):
        w = _load(stage_id, 1, StageOverrides(coop_topology="none"))
        for backend in ("random", "greedy"):
            policy = make_backend(AgentSpec(backend=backend, seed=3), stage_id, 1, True)
            reply = policy.decide(render_observation(w, 1), w, 1).response
            assert "#Cooperation operation:" not in reply
            parsed = parse_response(stage_id, reply)
            assert parsed.format_ok and parsed.coop is None
