from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bab.metrics import (
    EpisodeSummary,
    MetricsError,
    aggregate,
    compute_episode,
    episodes_csv,
    format_accuracy,
    forward_distance,
    goal_completion,
    move_accuracy,
    summary_table,
)
from bab.parsing import parse_response
from bab.types import Action, Orientation, Outcome, Pos, TurnRecord


def record(turn, agent_id=1, action=None, format_ok=True, pos=(256, 256),
           objective=(256, 64), score_delta=0, outcome=None):
    pos = Pos(*pos)
    return TurnRecord(
        turn=turn,
        agent=agent_id,
        pos_before=pos,
        pos_after=pos,
        facing=Orientation.UP,
        action=action,
        target=None,
        coop=None,
        format_ok=format_ok,
        outcome=outcome or Outcome("noop"),
        score_delta=score_delta,
        objective=Pos(*objective) if objective else None,
        alive_after=True,
    )


# ----------------------------------------------------------------------
# forward distance
# ----------------------------------------------------------------------


def test_forward_distance_zero_when_static():
    p = Pos(64, 448)
    assert forward_distance(p, p, Pos(448, 64)) == 0.0


def test_forward_distance_full_course():
    assert forward_distance(Pos(64, 448), Pos(448, 64), Pos(448, 64)) == 24.0


def test_forward_distance_negative_when_retreating():
    assert forward_distance(Pos(256, 256), Pos(256, 320), Pos(256, 64)) == -2.0


@given(
    xs=st.integers(0, 480), ys=st.integers(0, 480),
    xe=st.integers(0, 480), ye=st.integers(0, 480),
    xt=st.integers(0, 480), yt=st.integers(0, 480),
)
@settings(max_examples=200)
def test_forward_distance_antisymmetric(xs, ys, xe, ye, xt, yt):
    s, e, t = Pos(xs, ys), Pos(xe, ye), Pos(xt, yt)
    assert forward_distance(s, e, t) == -forward_distance(e, s, t)


# ----------------------------------------------------------------------
# format accuracy
# ----------------------------------------------------------------------


def test_format_accuracy_perfect():
    records = [record(t, action=Action.MOVE_UP) for t in range(60)]
    assert format_accuracy(records) == 1.0


def test_format_accuracy_all_garbage():
    records = [record(t, format_ok=False) for t in range(10)]
    assert format_accuracy(records) == 0.0


def test_format_accuracy_from_canned_transcript(fixture_dir):
    """The fixture holds 25 replies; lines 8 and 20 (1-based) are, by
    construction, the only malformed ones: 23/25 = 0.92."""
    lines = (fixture_dir / "stage1_23of25.jsonl").read_text().splitlines()
    replies = [json.loads(line) for line in lines]
    assert len(replies) == 25
    records = [
        record(t, action=None, format_ok=parse_response(1, raw).format_ok)
        for t, raw in enumerate(replies)
    ]
    assert format_accuracy(records) == pytest.approx(0.92)


def test_format_accuracy_requires_turns():
    with pytest.raises(MetricsError):
        format_accuracy([])


# ----------------------------------------------------------------------
# move accuracy
# ----------------------------------------------------------------------


def test_move_toward_base_counts_correct():
    recs = [record(0, action=Action.MOVE_UP)]  # (256,256) -> base (256,64)
    assert move_accuracy(recs) == 1.0


def test_move_accuracy_mixed_sequence_excludes_shoot():
    recs = [
        record(0, action=Action.MOVE_UP),
        record(1, action=Action.MOVE_LEFT),
        record(2, action=Action.SHOOT),
        record(3, action=Action.MOVE_UP),
    ]
    assert move_accuracy(recs) == pytest.approx(2 / 3)


def test_move_accuracy_formatted_denominator_mode():
    recs = [
        record(0, action=Action.MOVE_UP),
        record(1, action=Action.MOVE_LEFT),
        record(2, action=Action.SHOOT),
        record(3, action=Action.MOVE_UP),
    ]
    assert move_accuracy(recs, "formatted") == pytest.approx(2 / 4)


def test_move_accuracy_undefined_without_moves():
    recs = [record(0, action=Action.SHOOT), record(1, format_ok=False)]
    assert move_accuracy(recs) is None
    with pytest.raises(MetricsError):
        move_accuracy(recs, "bogus")


def test_move_accuracy_judged_at_decision_position():
    # moving up from below the base is correct; from above it is not
    above = record(0, action=Action.MOVE_UP, pos=(256, 32), objective=(256, 64))
    assert move_accuracy([above]) == 0.0


# ----------------------------------------------------------------------
# goal completion
# ----------------------------------------------------------------------


def test_goal_completion_values():
    assert goal_completion(24.0, 24.0) == 1.0
    assert goal_completion(0.0, 24.0) == 0.0
    assert goal_completion(12.0, 24.0) == 0.5
    assert goal_completion(-40.0, 24.0) == -1.0  # clamped
    with pytest.raises(MetricsError):
        goal_completion(1.0, 0.0)


# ----------------------------------------------------------------------
# per-episode rollup and aggregation
# ----------------------------------------------------------------------


def summary(stage, score, seed=0, model="m", f_dis=1.0):
    return EpisodeSummary(
        stage_id=stage, model=model, seed=seed, f_dis=f_dis, f_acc=1.0,
        m_acc=0.5, score=score, goal_completion=None, end_reason="turn_cap",
        turns=80,
    )


def test_aggregate_cross_stage_average_of_stage_means():
    episodes = [summary(4, s, seed=i) for i, s in enumerate([5, 6, 5, 5, 6, 5, 5, 6, 5, 5])]
    episodes += [summary(5, s, seed=i) for i, s in enumerate([4, 5, 4, 4, 5, 4, 4, 5, 4, 4])]
    report = aggregate(episodes)
    by_stage = {s.stage_id: s for s in report.stages}
    assert by_stage[4].score == pytest.approx(5.3)
    assert by_stage[5].score == pytest.approx(4.3)
    assert report.cross_stage_avg["m"]["avg_score"] == pytest.approx(4.8)


def test_aggregate_single_run_equals_itself():
    report = aggregate([summary(4, 3)])
    assert report.stages[0].score == 3.0
    assert report.stages[0].runs == 1


def test_aggregate_is_order_invariant():
    eps = [summary(4, s, seed=i) for i, s in enumerate([1, 2, 3])]
    a = aggregate(eps)
    b = aggregate(list(reversed(eps)))
    assert a == b


def test_csv_layout_and_determinism():
    eps = [summary(4, 2, seed=1), summary(4, 1, seed=0)]
    text = episodes_csv(eps)
    lines = text.strip().split("\n")
    assert lines[0] == (
        "stage,model,run,f_dis,f_acc,m_acc,score,goal_completion,end_reason,turns"
    )
    assert lines[1].startswith("4,m,0,")
    assert episodes_csv(list(reversed(eps))) == text


def test_summary_table_mentions_average_columns():
    eps = [summary(1, 0, f_dis=2.0), summary(2, 0, f_dis=4.0), summary(4, 3)]
    text = summary_table(aggregate(eps))
    assert "Avg. Dis = 3.00" in text
    assert "Avg. Score = 3.00" in text


def test_compute_episode_rolls_up_primary_team():
    records = [
        record(0, agent_id=1, action=Action.MOVE_UP, pos=(256, 256)),
        record(0, agent_id=2, action=Action.SHOOT, score_delta=1,
               outcome=Outcome("hit_tank", target=9, destroyed=True)),
        record(1, agent_id=1, action=Action.MOVE_UP, pos=(256, 224)),
        record(1, agent_id=2, format_ok=False),
        record(2, agent_id=1, action=Action.SHOOT, pos=(256, 224), score_delta=5,
               outcome=Outcome("hit_base", target=102)),
    ]
    targets = {1: Pos(256, 64), 2: Pos(256, 64)}
    ep = compute_episode(
        stage_id=5, model="m", seed=0, records=records, targets=targets,
        primary_ids=[1, 2], end_reason="turn_cap", turns=3,
    )
    assert ep.score == 1 + 5  # an NPC kill plus a base hit, summed over the side
    assert ep.f_acc == pytest.approx((2 / 2 + 1 / 2) / 2)
    assert ep.per_agent[1].m_acc == 1.0
    assert ep.per_agent[1].f_dis == 1.0  # one 32-px step closer across turns
