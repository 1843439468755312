from __future__ import annotations

import json
from pathlib import Path

import pytest

from bab.agents import AgentSpec
from bab.replay import (
    ReplayError,
    metrics_from_log,
    read_log,
    replay_verify,
)
from bab.runner import RunConfig, run_episode
from bab.stages import StageOverrides


def small_config(stage_id=2, coop=True, **kw) -> RunConfig:
    return RunConfig(
        stage_id=stage_id,
        seeds=[0],
        primary=AgentSpec(backend="random", seed=1),
        reference=AgentSpec(backend="random", seed=2),
        coop_enabled=coop,
        **kw,
    )


@pytest.fixture
def episode_log(tmp_path) -> Path:
    path = tmp_path / "episode.jsonl"
    run_episode(small_config(), 0, path)
    return path


def test_log_is_json_lines_with_known_kinds(episode_log):
    kinds = [json.loads(line)["kind"] for line in episode_log.read_text().splitlines()]
    assert kinds[0] == "header"
    assert kinds[-1] == "end"
    assert set(kinds) <= {"header", "turn", "coop", "end"}


def test_header_carries_run_context(episode_log):
    log = read_log(episode_log)
    h = log.header
    assert h["stage_id"] == 2 and h["seed"] == 0
    assert h["coop_enabled"] is True
    assert h["primary_ids"] == [1]
    assert h["config"]["turn_cap"] == 60
    assert h["layout"]["bases"][0]["id"] == 101
    assert log.end is not None
    assert len(log.end["world_hash"]) == 64


def test_untampered_log_verifies(episode_log):
    result = replay_verify(episode_log)
    assert result.ok, result


def test_flipped_action_fails_at_that_turn(episode_log):
    lines = episode_log.read_text().splitlines()
    idx, record = next(
        (i, json.loads(line))
        for i, line in enumerate(lines)
        if json.loads(line)["kind"] == "turn"
        and json.loads(line)["action"] == "#Move_up#"
    )
    record["action"] = "#Move_down#"
    lines[idx] = json.dumps(record, ensure_ascii=False, sort_keys=True,
                            separators=(",", ":"))
    tampered = episode_log.with_name("tampered.jsonl")
    tampered.write_text("\n".join(lines) + "\n", encoding="utf-8")

    result = replay_verify(tampered)
    assert not result.ok
    assert result.divergence_turn == record["turn"]


def test_edited_footer_hash_fails_at_footer(episode_log):
    lines = episode_log.read_text().splitlines()
    end = json.loads(lines[-1])
    end["world_hash"] = "0" * 64
    lines[-1] = json.dumps(end, sort_keys=True, separators=(",", ":"))
    tampered = episode_log.with_name("badhash.jsonl")
    tampered.write_text("\n".join(lines) + "\n", encoding="utf-8")

    result = replay_verify(tampered)
    assert not result.ok
    assert result.divergence_turn is None
    assert "hash" in result.detail


def test_truncated_prefix_still_parses_and_verifies(episode_log):
    lines = episode_log.read_text().splitlines()
    cut = len(lines) // 2
    prefix = episode_log.with_name("prefix.jsonl")
    prefix.write_text("\n".join(lines[:cut]) + "\n", encoding="utf-8")

    log = read_log(prefix)
    assert log.end is None
    assert replay_verify(log).ok


def test_metrics_recomputed_from_log_match_live(episode_log):
    live = run_episode(small_config(), 0).summary
    replayed = metrics_from_log(episode_log)
    assert replayed.f_dis == live.f_dis
    assert replayed.f_acc == live.f_acc
    assert replayed.m_acc == live.m_acc
    assert replayed.score == live.score
    assert replayed.end_reason == live.end_reason


def test_rerun_produces_byte_identical_log(tmp_path):
    a = tmp_path / "a.jsonl"
    b = tmp_path / "b.jsonl"
    run_episode(small_config(stage_id=5), 3, a)
    run_episode(small_config(stage_id=5), 3, b)
    assert a.read_bytes() == b.read_bytes()


def test_overrides_flow_through_header_and_verify(tmp_path):
    path = tmp_path / "ov.jsonl"
    cfg = small_config(stage_id=4, overrides=StageOverrides(npcs=2, turns=20))
    run_episode(cfg, 1, path)
    log = read_log(path)
    assert log.header["overrides"] == {"npcs": 2, "turns": 20}
    assert log.header["config"]["n_npcs"] == 2
    assert replay_verify(log).ok


def test_coop_stage_log_verifies_with_messages(tmp_path):
    # canned replies that exercise request -> accept -> stop routing
    import json as j

    t1 = tmp_path / "a1.jsonl"
    replies1 = [
        "#Attack operation: Target 3: #Shoot#\n"
        "#Cooperation operation: #Request_coop# 2: push together",
        "#Attack operation: Target 3: #Move_up#\n#Cooperation operation: #Keep_coop#",
        "#Attack operation: Target 3: #Shoot#\n#Cooperation operation: #Stop_coop#",
    ] + ["#Attack operation: Target 3: #Shoot#\n#Cooperation operation: #No_coop#"] * 40
    t1.write_text("\n".join(j.dumps(r) for r in replies1), encoding="utf-8")

    # stage 3 binds both agents as primary; each gets its own cursor over
    # the same transcript file
    cfg = RunConfig(
        stage_id=3,
        seeds=[2],
        primary=AgentSpec(backend="canned", transcript_path=str(t1)),
        reference=AgentSpec(backend="random", seed=5),
        overrides=StageOverrides(turns=12),
    )
    path = tmp_path / "coop.jsonl"
    result = run_episode(cfg, 2, path)
    log = read_log(path)
    routed = [r for r in log.coops if r["event"] == "request"]
    assert routed, "expected at least one routed request"
    assert replay_verify(log).ok
    assert result.world.coop_history


def test_log_with_every_agent_dead_verifies(tmp_path):
    # the lone agent dies at turn 47; the NPCs play on to the cap with no
    # turn records, and replay must play those turns too
    cfg = RunConfig(
        stage_id=2,
        seeds=[5984],
        primary=AgentSpec(backend="greedy"),
        reference=AgentSpec(backend="greedy"),
    )
    path = tmp_path / "dead.jsonl"
    result = run_episode(cfg, 5984, path)
    log = read_log(path)
    assert not result.world.live_agents()
    assert log.turns[-1]["turn"] + 1 < log.end["turns"]
    assert replay_verify(log).ok


def test_missing_turns_with_live_agents_fail(episode_log):
    log = read_log(episode_log)
    assert log.turns[-1]["alive_after"]
    last = log.turns[-1]["turn"]
    log.turns = [r for r in log.turns if r["turn"] != last]
    result = replay_verify(log)
    assert not result.ok
    assert "hash" in result.detail


def test_read_log_rejects_garbage(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text("not json\n", encoding="utf-8")
    with pytest.raises(ReplayError):
        read_log(path)
    path.write_text('{"kind":"turn","turn":0}\n', encoding="utf-8")
    with pytest.raises(ReplayError, match="missing header"):
        read_log(path)
