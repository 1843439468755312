from __future__ import annotations

import json
from pathlib import Path

import pytest

from bab.agents import AgentSpec
from bab.cli import EXIT_VERIFY_FAIL, main
from bab.replay import (
    HeaderRecord,
    ReplayError,
    metrics_from_log,
    read_log,
    replay_verify,
)
from bab.runner import RunConfig, run_episode
from bab.stages import StageOverrides
from bab.types import DecodeError, Orientation, Pos, TurnRecord, decode


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
    assert h.stage_id == 2 and h.seed == 0
    assert h.coop_enabled is True
    assert h.primary_ids == [1]
    assert h.config.turn_cap == 60
    assert h.layout["bases"][0]["id"] == 101
    assert log.end is not None
    assert len(log.end.world_hash) == 64


def test_untampered_log_verifies(episode_log):
    result = replay_verify(episode_log)
    assert result.ok, result


@pytest.fixture(scope="module")
def stage_logs(tmp_path_factory) -> dict[int, Path]:
    logs = {}
    for stage_id in (2, 5, 7):
        logs[stage_id] = tmp_path_factory.mktemp("logs") / f"stage{stage_id}.jsonl"
        run_episode(small_config(stage_id=stage_id), 0, logs[stage_id])
    return logs


def _edit(record: dict, field: str) -> bool:
    """Edit ``field`` of a turn line in place; False if it has nothing to edit."""
    if field == "action" and record["action"] == "#Move_up#":
        record["action"] = "#Move_down#"
    elif field == "reply" and "#Move_up#" in record["reply"]:
        record["reply"] = record["reply"].replace("#Move_up#", "#Move_down#")
    elif field == "coop" and record["coop"] is not None:
        swapped = "keep_coop" if record["coop"]["kind"] == "stop_coop" else "stop_coop"
        record["coop"] = {"kind": swapped}
    else:
        return False
    return True


@pytest.mark.parametrize("stage_id, field", [
    (2, "action"), (2, "reply"),
    (5, "action"), (5, "reply"), (5, "coop"),
    (7, "action"), (7, "reply"), (7, "coop"),
], ids=str)
def test_edited_turn_field_fails_at_that_turn(stage_logs, tmp_path, stage_id, field):
    lines = stage_logs[stage_id].read_text(encoding="utf-8").splitlines()
    idx, record = next(
        (i, record)
        for i, record in enumerate(map(json.loads, lines))
        if record["kind"] == "turn" and _edit(record, field)
    )
    lines[idx] = json.dumps(record, ensure_ascii=False, sort_keys=True,
                            separators=(",", ":"))
    tampered = tmp_path / "tampered.jsonl"
    tampered.write_text("\n".join(lines) + "\n", encoding="utf-8")

    assert replay_verify(stage_logs[stage_id]).ok
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
    assert log.header.overrides == StageOverrides(npcs=2, turns=20)
    assert log.header.config.n_npcs == 2
    assert replay_verify(log).ok


def run_coop_episode(tmp_path):
    """Stage 3 with canned replies that exercise request -> accept -> stop
    routing: (log path, episode result)."""
    t1 = tmp_path / "a1.jsonl"
    replies1 = [
        "#Attack operation: Target 3: #Shoot#\n"
        "#Cooperation operation: #Request_coop# 2: push together",
        "#Attack operation: Target 3: #Move_up#\n#Cooperation operation: #Keep_coop#",
        "#Attack operation: Target 3: #Shoot#\n#Cooperation operation: #Stop_coop#",
    ] + ["#Attack operation: Target 3: #Shoot#\n#Cooperation operation: #No_coop#"] * 40
    t1.write_text("\n".join(json.dumps(r) for r in replies1), encoding="utf-8")

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
    return path, run_episode(cfg, 2, path)


def test_coop_stage_log_verifies_with_messages(tmp_path):
    path, result = run_coop_episode(tmp_path)
    log = read_log(path)
    routed = [r for r in log.coops if r.event == "request"]
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
    assert log.turns[-1].alive_after is False
    assert log.turns[-1].turn + 1 < log.end.turns
    assert replay_verify(log).ok


def test_missing_turns_with_live_agents_fail(episode_log):
    log = read_log(episode_log)
    assert log.turns[-1].alive_after
    last = log.turns[-1].turn
    log.turns = [r for r in log.turns if r.turn != last]
    result = replay_verify(log)
    assert not result.ok
    assert result.divergence_turn == last
    assert "do not cover live agents" in result.detail


def dump(record: dict) -> str:
    return json.dumps(record, ensure_ascii=False, sort_keys=True, separators=(",", ":"))


def assert_tamper_fails(lines: list[str], tampered: Path, turn: int | None, detail: str,
                        capsys) -> None:
    """Write ``lines`` to ``tampered``: replay fails there, and so does ``bab verify``."""
    tampered.write_text("\n".join(lines) + "\n", encoding="utf-8")
    result = replay_verify(tampered)
    assert not result.ok
    assert result.divergence_turn == turn
    assert detail in result.detail
    capsys.readouterr()
    assert main(["verify", str(tampered)]) == EXIT_VERIFY_FAIL
    assert capsys.readouterr().out.startswith("FAIL")


def _coop_index(lines: list[str], pick=lambda record: True) -> int:
    return next(i for i, line in enumerate(lines)
                if json.loads(line)["kind"] == "coop" and pick(json.loads(line)))


@pytest.mark.parametrize("tamper", ["drop-one", "event", "message", "drop-all", "forge"])
def test_edited_coop_lines_fail_at_that_turn(tmp_path, capsys, tamper):
    path, _ = run_coop_episode(tmp_path)
    assert replay_verify(path).ok
    lines = path.read_text(encoding="utf-8").splitlines()
    idx = _coop_index(lines, lambda record: tamper != "message" or "message" in record)
    record = json.loads(lines[idx])
    turn = record["turn"]
    detail = "coop lines diverged"
    if tamper == "drop-one":
        del lines[idx]
    elif tamper == "event":
        record["event"] = "reject" if record["event"] != "reject" else "accept"
        lines[idx] = dump(record)
        # the detail names the tampered line, whose first key is its event
        detail += f': logged {{"event":"{record["event"]}"'
    elif tamper == "message":
        record["message"] += " now"
        lines[idx] = dump(record)
    elif tamper == "drop-all":
        lines = [line for line in lines if json.loads(line)["kind"] != "coop"]
    else:
        # a coop line at a later turn where nothing was routed
        turn = 6
        assert not any(json.loads(line).get("turn") == turn for line in lines
                       if json.loads(line)["kind"] == "coop")
        first = next(i for i, line in enumerate(lines) if json.loads(line).get("turn") == turn)
        lines.insert(first, dump({"kind": "coop", "turn": turn, "event": "keep", "from": 1}))
    assert_tamper_fails(lines, tmp_path / "tampered.jsonl", turn, detail, capsys)


def test_record_after_the_end_fails(tmp_path, capsys):
    path, _ = run_coop_episode(tmp_path)
    lines = path.read_text(encoding="utf-8").splitlines()
    end = json.loads(lines[-1])
    record = json.loads(lines[_coop_index(lines)])
    lines.insert(-1, dump({**record, "turn": end["turns"]}))
    assert_tamper_fails(lines, tmp_path / "tampered.jsonl", end["turns"],
                        "log continues past episode end", capsys)


@pytest.mark.parametrize("key, edit", [
    ("turns", lambda end: end.update(turns=999)),
    ("winner_team", lambda end: end.update(winner_team=7)),
    ("metrics", lambda end: end["metrics"].update(score=1234)),
], ids=["turns", "winner_team", "metrics"])
def test_edited_end_record_fails_at_footer(episode_log, capsys, key, edit):
    lines = episode_log.read_text(encoding="utf-8").splitlines()
    end = json.loads(lines[-1])
    edit(end)
    lines[-1] = dump(end)
    assert_tamper_fails(lines, episode_log.with_name("tampered.jsonl"), None,
                        f"end record diverged: {key}", capsys)


def test_read_log_rejects_garbage(tmp_path, episode_log):
    path = tmp_path / "bad.jsonl"
    path.write_text("not json\n", encoding="utf-8")
    with pytest.raises(ReplayError):
        read_log(path)
    path.write_text("[1, 2]\n", encoding="utf-8")
    with pytest.raises(ReplayError, match="unknown record kind"):
        read_log(path)
    path.write_text('{"kind":"turn","turn":0}\n', encoding="utf-8")
    with pytest.raises(ReplayError, match="missing header"):
        read_log(path)
    header = episode_log.read_text(encoding="utf-8").splitlines()[0]
    path.write_text(header + '\n{"kind":"coop","turn":[0],"event":"keep","from":1}\n',
                    encoding="utf-8")
    with pytest.raises(ReplayError,
                       match=r"line 2: coop record 'turn' takes an integer, not \[0\]"):
        read_log(path)


@pytest.mark.parametrize("reorder, error", [
    (lambda lines: [lines[1], *lines], "missing header record on line 1"),
    (lambda lines: [*lines[:2], lines[0], *lines[2:]], "second header record on line 3"),
    (lambda lines: [*lines[:-2], lines[-1], lines[-2]], "after the end record"),
    (lambda lines: [*lines[:2], *lines[1:]], "second turn 0 record of agent 1 on line 3"),
], ids=["turn-first", "header-twice", "line-after-end", "turn-twice"])
def test_read_log_takes_lines_in_written_order(episode_log, reorder, error):
    """A log is read in the order it was written: one header first, at most
    one end line, last, and one turn line per (turn, agent)."""
    lines = episode_log.read_text(encoding="utf-8").splitlines()
    assert json.loads(lines[1])["kind"] == "turn"
    episode_log.write_text("\n".join(reorder(lines)) + "\n", encoding="utf-8")
    with pytest.raises(ReplayError, match=error):
        read_log(episode_log)


@pytest.mark.parametrize("key", ["stage_id", "seed", "targets", "primary_ids"])
def test_header_missing_a_key_is_a_replay_error(episode_log, key):
    lines = episode_log.read_text(encoding="utf-8").splitlines()
    header = json.loads(lines[0])
    del header[key]
    lines[0] = json.dumps(header, sort_keys=True, separators=(",", ":"))
    episode_log.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(ReplayError, match=f"header lacks {key}"):
        read_log(episode_log)
    with pytest.raises(ReplayError):
        replay_verify(episode_log)
    with pytest.raises(ReplayError):
        metrics_from_log(episode_log)


@pytest.mark.parametrize("key", ["reason", "turns", "world_hash"])
def test_end_record_missing_a_key_is_a_replay_error(episode_log, key):
    lines = episode_log.read_text(encoding="utf-8").splitlines()
    end = json.loads(lines[-1])
    assert end["kind"] == "end"
    del end[key]
    lines[-1] = json.dumps(end, sort_keys=True, separators=(",", ":"))
    episode_log.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(ReplayError, match=f"end record lacks {key}"):
        read_log(episode_log)
    with pytest.raises(ReplayError):
        replay_verify(episode_log)
    with pytest.raises(ReplayError):
        metrics_from_log(episode_log)


def test_bare_header_is_a_replay_error(tmp_path):
    path = tmp_path / "bare.jsonl"
    path.write_text('{"kind":"header","seed":0}\n', encoding="utf-8")
    with pytest.raises(ReplayError, match="header lacks stage_id, targets, primary_ids"):
        read_log(path)


@pytest.mark.parametrize("edit", [
    lambda record: record.pop("agent"),
    lambda record: record.update(reply=None),
], ids=["missing-agent", "null-reply"])
def test_malformed_turn_line_is_a_replay_error(episode_log, edit):
    lines = episode_log.read_text(encoding="utf-8").splitlines()
    record = json.loads(lines[1])
    assert record["kind"] == "turn"
    edit(record)
    lines[1] = json.dumps(record, sort_keys=True, separators=(",", ":"))
    episode_log.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(ReplayError, match="line 2"):
        read_log(episode_log)


def test_decode_checks_each_value_against_its_annotation(episode_log):
    lines = episode_log.read_text(encoding="utf-8").splitlines()
    turn, header = json.loads(lines[1]), json.loads(lines[0])
    del turn["kind"], header["kind"]
    # a float field keeps an int as it is; None fills an optional field
    record = decode(TurnRecord, {**turn, "latency_ms": 3, "objective": None})
    assert record.latency_ms == 3 and type(record.latency_ms) is int
    assert record.objective is None
    assert record.pos_before == Pos(*turn["pos_before"])
    assert record.facing is Orientation(turn["facing"])
    targets = {int(k): Pos(*v) for k, v in header["targets"].items()}
    assert decode(HeaderRecord, header).targets == targets
    for cls, line, key, value, expected in [
        (TurnRecord, turn, "agent", True, "an integer"),
        (TurnRecord, turn, "latency_ms", False, "a number"),
        (TurnRecord, turn, "pos_after", [0, 0, 0], r"\[x, y\]"),
        (TurnRecord, turn, "facing", "north", r"one of \['up', 'down', 'left', 'right'\]"),
        (TurnRecord, turn, "target", "3", "an integer"),
        (HeaderRecord, header, "primary_ids", [1.0], "a list, each an integer"),
        (HeaderRecord, header, "targets", {"one": [0, 0]}, r"an object of id: \[x, y\]"),
        (HeaderRecord, header, "targets", {"01": [0, 0]}, r"an object of id: \[x, y\]"),
    ]:
        with pytest.raises(DecodeError, match=f"'{key}' takes {expected}, not "):
            decode(cls, {**line, key: value})
    with pytest.raises(DecodeError, match=r"^has keys that name no field: \['bonus', 'kind'\]$"):
        decode(TurnRecord, {**turn, "kind": "turn", "bonus": 5})
    with pytest.raises(DecodeError, match="^lacks stage_id, seed$"):
        decode(HeaderRecord, {k: v for k, v in header.items() if k not in ("seed", "stage_id")})
