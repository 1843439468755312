"""Acceptance suite: one test per criterion, each printing a PASS line.

Everything here runs offline with local decision policies; run with
``pytest tests/test_acceptance.py -v -s`` to see the per-criterion lines.
"""

from __future__ import annotations

import json
import math
import random
import time
from statistics import mean

import pytest

from bab.agents import AgentSpec
from bab.coop import route_coop
from bab.engine import apply_shoot, step_turn
from bab.parsing import CoopCommand, CoopKind, NO_COOP, parse_response
from bab.prompts import render_observation
from bab.replay import ReplayError, metrics_from_log, read_log, replay_verify
from bab.runner import RunConfig, run_benchmark, run_episode
from bab.stages import StageOverrides, load_stage
from bab.types import Action, Pos

from reference import brute_force_hit, random_configuration, shot_hit


def _report(criterion: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def random_run(stage_id: int, seed: int, **kw):
    config = RunConfig(
        stage_id=stage_id,
        seeds=[seed],
        primary=AgentSpec(backend="random", seed=seed),
        reference=AgentSpec(backend="random", seed=seed + 10_000),
        **kw,
    )
    return run_episode(config, seed)


# ----------------------------------------------------------------------
# 1 + 2: random baseline on the navigation stages
# ----------------------------------------------------------------------


def test_criterion_1_random_baseline_stage1():
    start = time.monotonic()
    summaries = [random_run(1, seed).summary for seed in range(200)]
    elapsed = time.monotonic() - start
    m_acc = mean(s.m_acc for s in summaries if s.m_acc is not None)
    f_dis = mean(s.f_dis for s in summaries)
    ok = 0.45 <= m_acc <= 0.55 and -1.0 <= f_dis <= 3.0 and elapsed < 120
    _report(
        1, ok,
        f"stage 1 random x200: M Acc={m_acc:.3f} (in [0.45,0.55]), "
        f"F Dis={f_dis:+.2f} (in [-1,3]), {elapsed:.1f}s (<120s)",
    )


def test_criterion_2_random_baseline_stage2():
    summaries = [random_run(2, seed).summary for seed in range(200)]
    m_acc = mean(s.m_acc for s in summaries if s.m_acc is not None)
    f_dis = mean(s.f_dis for s in summaries)
    ok = 0.47 <= m_acc <= 0.57 and -1.0 <= f_dis <= 3.5
    _report(
        2, ok,
        f"stage 2 random x200: M Acc={m_acc:.3f} (in [0.47,0.57]), "
        f"F Dis={f_dis:+.2f} (in [-1,3.5])",
    )


# ----------------------------------------------------------------------
# 3: random-vs-random scores on the combat stages
# ----------------------------------------------------------------------


REFERENCE_RANDOM_SCORES = {4: 0.2, 5: 0.2, 6: 0.4, 7: 0.6}


@pytest.mark.parametrize("stage_id", [4, 5, 6, 7])
def test_criterion_3_random_scores(stage_id):
    scores = [random_run(stage_id, seed).summary.score for seed in range(100)]
    expected = REFERENCE_RANDOM_SCORES[stage_id]
    got = mean(scores)
    ok = abs(got - expected) <= 0.5
    _report(
        3, ok,
        f"stage {stage_id} random x100: mean score={got:.2f} "
        f"(reference {expected} +/- 0.5)",
    )


# ----------------------------------------------------------------------
# 4: greedy-oracle navigation
# ----------------------------------------------------------------------


def test_criterion_4_oracle_navigation():
    overrides = StageOverrides(wall_density=0.0)
    failures = []
    for seed in range(100):
        config = RunConfig(
            stage_id=1,
            seeds=[seed],
            primary=AgentSpec(backend="greedy"),
            reference=AgentSpec(backend="random"),
            overrides=overrides,
        )
        result = run_episode(config, seed)
        start = Pos(*result.records[0].pos_before)
        goal = next(iter(result.world.bases.values())).pos
        expected_turns = math.ceil(abs(start.x - goal.x) / 32) + math.ceil(
            abs(start.y - goal.y) / 32
        )
        s = result.summary
        if not (
            s.goal_completion == 1.0
            and s.m_acc == 1.0
            and result.world.turn == expected_turns
        ):
            failures.append((seed, s.goal_completion, s.m_acc, result.world.turn,
                             expected_turns))
    _report(
        4, not failures,
        f"greedy oracle on 100 obstacle-free stage-1 seeds: goal completion 1.0, "
        f"M Acc 1.0, exact turn counts; failures={failures[:3]}",
    )


# ----------------------------------------------------------------------
# 5: determinism and replay verification
# ----------------------------------------------------------------------


def _suite_configs(out=None):
    return [
        RunConfig(
            stage_id=1, seeds=[0, 1],
            primary=AgentSpec(backend="random", seed=9),
            reference=AgentSpec(backend="random", seed=10),
        ),
        RunConfig(
            stage_id=5, seeds=[2],
            primary=AgentSpec(backend="random", seed=11),
            reference=AgentSpec(backend="random", seed=12),
        ),
    ]


def test_criterion_5_determinism_and_verify(tmp_path):
    dir_a = run_benchmark(_suite_configs(), tmp_path / "a")
    dir_b = run_benchmark(_suite_configs(), tmp_path / "b")

    names = sorted(p.name for p in dir_a.glob("*"))
    identical = all(
        (dir_a / n).read_bytes() == (dir_b / n).read_bytes() for n in names
    )
    verified = all(replay_verify(p).ok for p in dir_a.glob("*.jsonl"))

    # single-byte action mutation must fail verification
    victim = sorted(dir_a.glob("*.jsonl"))[0]
    lines = victim.read_text().splitlines()
    mutated = False
    for i, line in enumerate(lines):
        record = json.loads(line)
        if record["kind"] == "turn" and record["action"] == "#Move_up#":
            lines[i] = line.replace("#Move_up#", "#Move_un#", 1)
            mutated = True
            break
        if record["kind"] == "turn" and record["action"] == "#Shoot#":
            lines[i] = line.replace("#Shoot#", "#Shont#", 1)
            mutated = True
            break
    assert mutated, "no mutable action found"
    tampered = tmp_path / "tampered.jsonl"
    tampered.write_text("\n".join(lines) + "\n", encoding="utf-8")
    try:  # read_log refuses the unknown action; a log that decodes must diverge
        tamper_fails = not replay_verify(tampered).ok
    except ReplayError:
        tamper_fails = True

    ok = identical and verified and tamper_fails
    _report(
        5, ok,
        f"suite rerun byte-identical={identical} ({len(names)} files), "
        f"all logs verify={verified}, mutated log fails={tamper_fails}",
    )


# ----------------------------------------------------------------------
# 6: parser fidelity over the canonical output-format blocks
# ----------------------------------------------------------------------

# one filled output-format block per stage and locale, with the expected
# (action, target, coop) recovery
CANONICAL_REPLIES = [
    (1, "#Thought process: \n- Movement plan: head for the base\n"
        "#Operation: #Move_up#",
     Action.MOVE_UP, None, None),
    (2, "#Thought process: \n- Movement plan: dodge, then advance\n"
        "#Operation: #Move_right#",
     Action.MOVE_RIGHT, None, None),
    (3, "#Thought process:\n- Attack target: tank 5 threatens our base\n"
        "- Attack plan: close in and fire\n- Cooperation plan: ask for help\n"
        "#Attack operation: Target 5: #Shoot#\n"
        "#Cooperation operation: #Request_coop# 2: focus fire on tank 5",
     Action.SHOOT, 5, CoopCommand(CoopKind.REQUEST, 2, "focus fire on tank 5")),
    (4, "#Thought process: \n- Attack target: keep pressure on tank 3\n"
        "- Attack plan: flank left\n#Operation: Target 3: #Move_left#",
     Action.MOVE_LEFT, 3, None),
    (5, "#Thought process:\n- Attack target: tank 7\n- Attack plan: advance\n"
        "- Cooperation plan: keep the current pact\n"
        "#Attack operation: Target 7: #Move_right#\n"
        "#Cooperation operation: #Keep_coop#",
     Action.MOVE_RIGHT, 7, CoopCommand(CoopKind.KEEP)),
    (6, "#Thought process:\n- Attack target: tank 11\n- Attack plan: fire now\n"
        "- Cooperation plan: break off the truce\n"
        "#Attack operation: Target 11: #Shoot#\n"
        "#Cooperation operation: #Stop_coop#",
     Action.SHOOT, 11, CoopCommand(CoopKind.STOP)),
    (7, "#Thought process:\n- Attack target: tank 4\n- Attack plan: push down\n"
        "- Cooperation plan: none needed\n"
        "#Attack operation: Target 4: #Move_down#\n"
        "#Cooperation operation: #No_coop#",
     Action.MOVE_DOWN, 4, NO_COOP),
    (1, "#思考过程: \n- 移动计划: 向基地移动\n#操作: #Move_down#",
     Action.MOVE_DOWN, None, None),
    (2, "#思考过程: \n- 移动计划: 先消灭挡路的敌人\n#操作: #Shoot#",
     Action.SHOOT, None, None),
    (3, "#思考过程: \n- 攻击目标: 坦克9\n- 攻击计划: 逼近后射击\n"
        "- 协作计划: 请求队友支援\n#攻击操作: Target 9: #Move_up#\n"
        "#协作操作: #Request_coop# 2: 一起攻击9号坦克",
     Action.MOVE_UP, 9, CoopCommand(CoopKind.REQUEST, 2, "一起攻击9号坦克")),
    (4, "#思考过程: \n- 攻击目标: 坦克3\n- 攻击计划: 向左包抄\n"
        "#操作: Target 3: #Move_left#",
     Action.MOVE_LEFT, 3, None),
    (5, "#思考过程: \n- 攻击目标: 坦克8\n- 攻击计划: 推进\n- 协作计划: 保持协作\n"
        "#攻击操作: Target 8: #Move_left#\n#协作操作: #Keep_coop#",
     Action.MOVE_LEFT, 8, CoopCommand(CoopKind.KEEP)),
    (6, "#思考过程: \n- 攻击目标: 坦克12\n- 攻击计划: 开火\n- 协作计划: 终止协作\n"
        "#攻击操作: Target 12: #Shoot#\n#协作操作: #Stop_coop#",
     Action.SHOOT, 12, CoopCommand(CoopKind.STOP)),
    (7, "#思考过程: \n- 攻击目标: 坦克6\n- 攻击计划: 下压\n- 协作计划: 无需协作\n"
        "#攻击操作: Target 6: #Move_down#\n#协作操作: #No_coop#",
     Action.MOVE_DOWN, 6, NO_COOP),
]

ADVERSARIAL_REPLIES = [
    # no marker at all
    (1, ""), (1, "Let me think about this."), (5, "#Move_up#"),
    (1, "Operation: #Move_up#"), (4, "Target 3: #Shoot#"),
    # marker but no token
    (1, "#Operation:"), (1, "#Operation: "), (1, "#Operation: advance"),
    (5, "#Attack operation: Target 3:"), (1, "#操作: 向上"),
    # bad or mangled tokens
    (1, "#Operation: #Move_upward#"), (1, "#Operation: Move_up"),
    (1, "#Operation: #move_up#"), (1, "#Operation: #MoveUp#"),
    (2, "#Operation: ##Shoot"), (1, "#Operation: #Sh oot#"),
    # two tokens on the marker line
    (1, "#Operation: #Move_up# #Shoot#"),
    (5, "#Attack operation: Target 3: #Move_up# then #Move_left#"),
    (2, "#Operation: #Move_up# or maybe #Move_down#"),
    # missing or malformed target clause on targeted stages
    (4, "#Operation: #Shoot#"), (4, "#Operation: Target: #Shoot#"),
    (4, "#Operation: Target three: #Shoot#"),
    (4, "#Operation: Target -3: #Shoot#"),
    (5, "#Attack operation: #Shoot#"),
    (6, "#Attack operation: Target: #Move_up#"),
    (7, "#Attack operation: Target x: #Move_up#"),
    (3, "#Attack operation: #Move_left#"),
    # wrong marker for the stage
    (5, "#Operation: Target 3: #Shoot#"), (3, "#Operation: #Move_up#"),
    (6, "#操作: Target 3: #Shoot#"), (1, "#Attack operation: Target 1: #Shoot#"),
    (2, "#攻击操作: Target 2: #Move_up#"),
    # token separated from the marker line
    (1, "#Operation:\n#Move_up#"), (4, "#Operation: Target 3:\n#Shoot#"),
    (5, "#Attack operation: Target 3:\n#Shoot#"),
    # assorted garbage
    (1, "#operation: #Move_up#"), (1, "# Operation: #Move_up#"),
    (1, "#OPERATION: #Move_up#"), (1, "#Operation #Move_up#"),
    (4, "#Operation Target 3: #Shoot#"), (1, "''"), (1, "null"),
    (1, "#Operation: #Move_up"), (1, "#Operation: Move_up#"),
    (5, "#Attack operation: Target 3.5: #Shoot#"),
    (1, "<game>#Operation:</game>"), (1, "🙂🙂🙂"),
    (2, "#操作:#"), (3, "#攻击操作: Target : #Shoot#"),
    (4, "#Operation: Target 003 #Shoot#"),
]


def test_criterion_6_parser_fidelity():
    assert len(ADVERSARIAL_REPLIES) == 50
    bad_canonical = []
    for stage_id, raw, action, target, coop in CANONICAL_REPLIES:
        p = parse_response(stage_id, raw)
        if not (
            p.format_ok
            and p.action is action
            and p.target_id == target
            and p.coop == coop
        ):
            bad_canonical.append((stage_id, raw[:40], p))
    bad_adversarial = [
        (stage_id, raw)
        for stage_id, raw in ADVERSARIAL_REPLIES
        if parse_response(stage_id, raw).format_ok
    ]
    ok = not bad_canonical and not bad_adversarial
    _report(
        6, ok,
        f"{len(CANONICAL_REPLIES)} canonical blocks parse exactly, "
        f"50/50 adversarial replies rejected; "
        f"bad={bad_canonical[:2] or bad_adversarial[:2]}",
    )


# ----------------------------------------------------------------------
# 7: independent metrics oracle over replay logs
# ----------------------------------------------------------------------


def brute_force_metrics(log_path, agent_id: int):
    """Event-scan recomputation straight off the log's JSON lines: no
    shared code with the replay or metrics modules."""
    records = [json.loads(line) for line in log_path.read_text(encoding="utf-8").splitlines()]
    header = next(d for d in records if d["kind"] == "header")
    target = header["targets"][str(agent_id)]
    rows = [d for d in records if d["kind"] == "turn" and d["agent"] == agent_id]
    rows.sort(key=lambda d: d["turn"])

    def l1(p, q):
        return abs(p[0] - q[0]) + abs(p[1] - q[1])

    f_dis = (l1(rows[0]["pos_before"], target) - l1(rows[-1]["pos_after"], target)) / 32
    formatted = [d for d in rows if d["format_ok"]]
    f_acc = len(formatted) / len(rows)

    deltas = {
        "#Move_up#": (0, -32), "#Move_down#": (0, 32),
        "#Move_left#": (-32, 0), "#Move_right#": (32, 0),
    }
    correct = moves = 0
    for d in formatted:
        if d["action"] in deltas and d["objective"] is not None:
            moves += 1
            dx, dy = deltas[d["action"]]
            before = d["pos_before"]
            after = [before[0] + dx, before[1] + dy]
            if l1(after, d["objective"]) < l1(before, d["objective"]):
                correct += 1
    m_acc = correct / moves if moves else None

    score = 0
    for d in rows:
        out = d["outcome"]
        if d["score_delta"]:
            score += 1 if out["result"] == "hit_tank" else 5
    return f_dis, f_acc, m_acc, score


def test_criterion_7_metrics_oracle(tmp_path):
    mismatches = []
    cases = [(1, 3), (2, 4), (4, 5), (5, 6), (7, 7)]
    for stage_id, seed in cases:
        path = tmp_path / f"s{stage_id}_{seed}.jsonl"
        config = RunConfig(
            stage_id=stage_id, seeds=[seed],
            primary=AgentSpec(backend="random", seed=seed),
            reference=AgentSpec(backend="random", seed=seed + 10_000),
        )
        run_episode(config, seed, path)
        summary = metrics_from_log(path)
        for agent_id, metrics in summary.per_agent.items():
            f_dis, f_acc, m_acc, score = brute_force_metrics(path, agent_id)
            if (f_dis, f_acc, m_acc, score) != (
                metrics.f_dis, metrics.f_acc, metrics.m_acc, metrics.score
            ):
                mismatches.append((stage_id, seed, agent_id))
    _report(
        7, not mismatches,
        f"independent event scan reproduces F Dis/F Acc/M Acc/Score exactly on "
        f"{len(cases)} episodes; mismatches={mismatches}",
    )


# ----------------------------------------------------------------------
# 8: shooting oracle on 1,000 randomized configurations
# ----------------------------------------------------------------------


def test_criterion_8_shooting_oracle():
    rng = random.Random(2024)
    mismatches = 0
    for _ in range(1000):
        world = random_configuration(rng)
        shooter = rng.choice(list(world.tanks.values()))
        expected = brute_force_hit(world, shooter)
        if shot_hit(apply_shoot(world, shooter.id)) != expected:
            mismatches += 1
    _report(
        8, mismatches == 0,
        f"1000 randomized configurations: hitscan equals brute-force "
        f"minimum-distance intersection; mismatches={mismatches}",
    )


# ----------------------------------------------------------------------
# 9: the no-cooperation ablation
# ----------------------------------------------------------------------


def test_criterion_9_ablation(tmp_path):
    # a) live check: prompts carry no cooperation surface, router drops all
    world = load_stage(5, 4)
    from bab.agents import make_backend

    backends = {
        a.id: make_backend(AgentSpec(backend="random", seed=a.id), 5, a.id,
                           coop_enabled=False)
        for a in world.live_agents()
    }
    clean = True
    routed = 0
    while world.status is None:
        actions = {}
        for a in world.live_agents():
            prompt = render_observation(world, a.id, coop_enabled=False)
            if "#Cooperation" in prompt or "#协作" in prompt:
                clean = False
            actions[a.id] = parse_response(5, backends[a.id].decide(prompt, world, a.id).response)
            # force a coop attempt through the router anyway
            actions[a.id] = type(actions[a.id])(
                action=actions[a.id].action,
                target_id=actions[a.id].target_id,
                coop=CoopCommand(CoopKind.REQUEST, 1, "try me"),
                format_ok=actions[a.id].format_ok,
                raw=actions[a.id].raw,
            )
        routed += len(route_coop(world, actions, False))
        step_turn(world, actions)
    mailboxes_empty = not world.coop_history and not world.coop_pairs

    # b) log flag
    path = tmp_path / "ablation.jsonl"
    config = RunConfig(
        stage_id=5, seeds=[4],
        primary=AgentSpec(backend="random", seed=1),
        reference=AgentSpec(backend="random", seed=2),
        coop_enabled=False,
    )
    run_episode(config, 4, path)
    log = read_log(path)
    flagged = log.header.coop_enabled is False
    no_coop_records = not log.coops

    ok = clean and routed == 0 and mailboxes_empty and flagged and no_coop_records
    _report(
        9, ok,
        f"no-coop stage 5: prompts clean={clean}, routed={routed}, "
        f"mailboxes empty={mailboxes_empty}, log flagged={flagged}, "
        f"zero coop records={no_coop_records}",
    )
