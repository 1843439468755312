from __future__ import annotations

import itertools
import json
import time

import pytest

from bab import runner as runner_mod
from bab.agents import AgentError, AgentSpec, RemotePolicy
from bab.replay import read_log, replay_verify
from bab.runner import RunConfig, run_benchmark, run_episode
from bab.stages import StageOverrides, load_stage
from bab.types import StageLoadError

from chat_stub import (ChatStub, HashedReply, KeepAliveHashedReply, ShootingReply, serving,
                       threads_named)


def config(stage_id=4, primary="random", **kw):
    return RunConfig(
        stage_id=stage_id,
        seeds=[0],
        primary=AgentSpec(backend=primary, seed=1),
        reference=AgentSpec(backend="random", seed=2),
        **kw,
    )


def test_world_hash_pins():
    """Canonical serialization regression guard: any change to layout
    generation or field order shows up here first."""
    assert load_stage(1, 7).world_hash() == (
        "1e9215f7b6dfb807ea0456735a2ef3ed7c2094091bb4636eea87acdf4bb4a671"
    )
    assert load_stage(5, 0).world_hash() == (
        "32cbc3f98761de2e34deab975f1d8aff6759b289faf47ae049baac548b236faa"
    )


def test_primary_secondary_isolation(tmp_path):
    """Swapping the primary backend must not change what secondary agents
    see before the first divergent primary action."""
    log_a = tmp_path / "a.jsonl"
    log_b = tmp_path / "b.jsonl"
    run_episode(config(primary="random"), 0, log_a)
    run_episode(config(primary="greedy"), 0, log_b)

    def rows(path, agent_id):
        out = {}
        for line in path.read_text().splitlines():
            d = json.loads(line)
            if d.get("kind") == "turn" and d["agent"] == agent_id:
                out[d["turn"]] = d
        return out

    primary_a, primary_b = rows(log_a, 1), rows(log_b, 1)
    divergence = min(
        (t for t in primary_a if t in primary_b
         and primary_a[t]["action"] != primary_b[t]["action"]),
        default=max(primary_a) + 1,
    )
    secondary_a, secondary_b = rows(log_a, 2), rows(log_b, 2)
    for t in range(min(divergence, max(secondary_a, default=-1) + 1)):
        if t in secondary_a and t in secondary_b:
            assert secondary_a[t]["prompt_sha256"] == secondary_b[t]["prompt_sha256"]
    assert 0 in secondary_a and 0 in secondary_b  # at least the opening turn


def test_npc_overflow_is_a_load_error():
    with pytest.raises(StageLoadError, match="NPC tanks"):
        load_stage(2, 0, StageOverrides(npcs=500))


def failing_config():
    return RunConfig(
        stage_id=1,
        seeds=[0],
        primary=AgentSpec(backend="canned", transcript_path="/nonexistent.jsonl"),
        reference=AgentSpec(backend="random", seed=2),
    )


def test_benchmark_survives_episode_failures(tmp_path):
    good = config(stage_id=1)
    out = run_benchmark([failing_config(), good], tmp_path / "suite")
    assert (out / "failures.txt").exists()
    assert (out / "episodes.csv").exists()  # the good episode still reported


def test_rerun_clears_outputs_it_does_not_write(tmp_path):
    out = tmp_path / "suite"
    out.mkdir()
    (out / "failures.txt").write_text("stage1 seed0: old\n", encoding="utf-8")
    run_benchmark([config(stage_id=1)], out)
    assert not (out / "failures.txt").exists()
    # a suite in which every episode fails leaves no summary of the earlier one
    run_benchmark([failing_config()], out)
    assert (out / "failures.txt").exists()
    assert not (out / "episodes.csv").exists() and not (out / "summary.txt").exists()


def test_run_episode_counts_remote_failures_as_invalid_turns(tmp_path):
    # a backend that always raises produces format-invalid turns, not aborts
    from bab import runner as runner_mod
    from bab.agents import AgentError

    class ExplodingBackend:
        def decide(self, prompt, world, agent_id):
            raise AgentError("simulated outage")

    original = runner_mod.make_backend
    try:
        runner_mod.make_backend = lambda *a, **k: ExplodingBackend()
        result = run_episode(config(stage_id=1, overrides=StageOverrides(turns=5)), 0)
    finally:
        runner_mod.make_backend = original
    assert result.summary.f_acc == 0.0
    assert result.world.turn == 5
    assert all(r.error for r in result.records)


# ----------------------------------------------------------------------
# concurrent decisions against a threaded chat stub
# ----------------------------------------------------------------------


@pytest.fixture
def chat_stub():
    with serving(HashedReply) as stub:
        yield stub


def remote_config(stub, turns=6, model="stub"):
    spec = AgentSpec(backend="remote", model=model, base_url=stub.url, timeout=30.0)
    return RunConfig(stage_id=7, seeds=[3], primary=spec, reference=spec,
                     overrides=StageOverrides(turns=turns))


def test_remote_decisions_overlap_within_the_pool_bound(chat_stub, tmp_path):
    result = run_episode(remote_config(chat_stub), 3, tmp_path / "a.jsonl")
    agents = len(load_stage(7, 3).live_agents())
    # the first agent on the episode's thread, the others on its own pool
    assert 2 <= chat_stub.peak <= 1 + min(runner_mod.MAX_DECIDE_WORKERS, agents - 1)
    assert chat_stub.served == len(result.records)
    assert all(r.error is None and r.format_ok for r in result.records)
    assert threads_named("bab-decide") == []


# stage 3, seed 37: both agents, always shooting, are dead after turn 59
# of 80, and the NPCs play on with no agent to ask
DEAD_STAGE, DEAD_SEED = 3, 37


def test_remote_episode_plays_on_after_every_agent_died(tmp_path):
    with serving(ChatStub(ShootingReply, stage_id=DEAD_STAGE)) as stub:
        spec = AgentSpec(backend="remote", model="stub", timeout=30.0, base_url=stub.url)
        suite = RunConfig(stage_id=DEAD_STAGE, seeds=[DEAD_SEED, DEAD_SEED + 1],
                          primary=spec, reference=spec)
        # on the episode's own decide pool, then on a suite's shared one
        lone = tmp_path / "lone.jsonl"
        result = run_episode(suite, DEAD_SEED, lone)
        out = run_benchmark([suite], tmp_path / "suite")
    assert not result.world.live_agents()
    cap = load_stage(DEAD_STAGE, DEAD_SEED).config.turn_cap
    assert result.records[-1].turn + 1 < result.world.turn == cap
    assert not (out / "failures.txt").exists()
    in_suite = out / f"stage{DEAD_STAGE}_stub_seed{DEAD_SEED}.jsonl"
    for path in (lone, in_suite):
        log = read_log(path)
        assert log.end is not None and log.end.turns == result.world.turn
        assert log.turns[-1].turn + 1 < log.end.turns
        assert replay_verify(log).ok
    assert threads_named() == []


def test_model_name_with_a_slash_logs_into_the_out_dir(chat_stub, tmp_path):
    from bab.cli import EXIT_OK, main

    out = run_benchmark([remote_config(chat_stub, turns=2, model="org/name")], tmp_path / "out")
    logs = [p.name for p in out.iterdir() if p.suffix == ".jsonl"]
    assert logs == ["stage7_org_name_seed3.jsonl"]
    header = json.loads((out / logs[0]).read_text(encoding="utf-8").splitlines()[0])
    assert header["model"] == "org/name"
    assert (out / "episodes.csv").read_text(encoding="utf-8").splitlines()[1].startswith(
        "7,org/name,")
    assert main(["report", str(out)]) == EXIT_OK


def test_concurrent_logs_are_identical_but_for_latency(chat_stub, tmp_path):
    def log_without_latency(name):
        path = tmp_path / name
        run_episode(remote_config(chat_stub), 3, path)
        lines = [json.loads(line) for line in path.read_text().splitlines()]
        for record in lines:
            record.pop("latency_ms", None)
        return lines

    assert log_without_latency("a.jsonl") == log_without_latency("b.jsonl")


def test_concurrent_turn_records_follow_live_agent_order(chat_stub, tmp_path):
    path = tmp_path / "a.jsonl"
    run_episode(remote_config(chat_stub), 3, path)
    by_turn = {}
    for record in map(json.loads, path.read_text().splitlines()):
        if record["kind"] == "turn":
            by_turn.setdefault(record["turn"], []).append(record["agent"])
    opening = [a.id for a in load_stage(7, 3).live_agents()]
    assert by_turn[0] == opening
    for agents in by_turn.values():
        # live_agents() is ordered by id, and agents only ever drop out
        assert agents == [a for a in opening if a in agents]


def _one_agent_raises(monkeypatch, failing_agent, exc, first_bound_only=False):
    """Bind ``failing_agent`` to a remote backend whose decide raises
    ``exc``: in every episode, or in the first episode that binds it."""

    class Failing(RemotePolicy):
        def decide(self, prompt, world, agent_id):
            raise exc

    make_backend = runner_mod.make_backend
    bound = itertools.count()

    def bind(spec, stage_id, agent_id, coop_enabled=True):
        if agent_id == failing_agent and not (first_bound_only and next(bound)):
            return Failing(spec)
        return make_backend(spec, stage_id, agent_id, coop_enabled)

    monkeypatch.setattr(runner_mod, "make_backend", bind)


def test_agent_error_in_a_worker_is_that_agents_invalid_turn(chat_stub, tmp_path,
                                                             monkeypatch):
    _one_agent_raises(monkeypatch, 2, AgentError("simulated outage"))
    result = run_episode(remote_config(chat_stub), 3, tmp_path / "a.jsonl")
    failed = [r for r in result.records if r.agent == 2]
    others = [r for r in result.records if r.agent != 2]
    assert failed and all(r.error == "simulated outage" and not r.format_ok
                          for r in failed)
    assert others and all(r.error is None and r.format_ok for r in others)
    assert result.world.turn == 6
    assert threads_named("bab-decide") == []


def test_other_worker_exception_fails_the_episode(chat_stub, tmp_path, monkeypatch):
    _one_agent_raises(monkeypatch, 4, RuntimeError("backend bug"))
    out = run_benchmark([remote_config(chat_stub)], tmp_path / "suite")
    assert "stage7 seed3: backend bug" in (out / "failures.txt").read_text()
    assert not (out / "episodes.csv").exists()
    assert threads_named("bab-decide") == []


def test_local_backends_open_no_pool(monkeypatch, tmp_path):
    def no_pool(*args, **kwargs):
        raise AssertionError("local backends must not open a thread pool")

    monkeypatch.setattr(runner_mod, "ThreadPoolExecutor", no_pool)
    result = run_episode(config(stage_id=7, overrides=StageOverrides(turns=3)), 0)
    assert result.world.turn == 3
    suite = config(stage_id=7, overrides=StageOverrides(turns=3))
    suite.seeds = [0, 1, 2]
    out = run_benchmark([suite], tmp_path / "suite")
    assert len((out / "episodes.csv").read_text(encoding="utf-8").splitlines()) == 4
    assert not (out / "failures.txt").exists()


def test_out_of_range_seed_fails_before_its_episode_plays(tmp_path):
    for seed in (2**63, -2**63 - 1):
        with pytest.raises(StageLoadError, match="outside"):
            load_stage(1, seed)
    out = run_benchmark([RunConfig(stage_id=1, seeds=[2**63, 0],
                                   primary=AgentSpec(backend="random", seed=1),
                                   reference=AgentSpec(backend="random", seed=2))],
                        tmp_path / "suite")
    assert (out / "failures.txt").read_text(encoding="utf-8") == (
        f"stage1 seed{2**63}: seed {2**63} is outside [-2**63, 2**63)\n")
    assert not (out / f"stage1_random_seed{2**63}.jsonl").exists()
    assert (out / "episodes.csv").read_text(encoding="utf-8").splitlines()[1].startswith(
        "1,random,0,")


def test_duplicate_log_path_is_refused_before_any_episode(tmp_path):
    suite = config(stage_id=1)
    suite.seeds = [0, 1, 0]
    with pytest.raises(ValueError, match="stage1_random_seed0.jsonl"):
        run_benchmark([suite], tmp_path / "suite")
    assert not (tmp_path / "suite").exists()
    # two model names that map to one file name collide too
    slash = RunConfig(stage_id=1, seeds=[0], primary=AgentSpec(backend="remote", model="a/b"),
                      reference=AgentSpec(backend="random", seed=2))
    under = RunConfig(stage_id=1, seeds=[0], primary=AgentSpec(backend="remote", model="a_b"),
                      reference=AgentSpec(backend="random", seed=2))
    with pytest.raises(ValueError, match="stage1_a_b_seed0.jsonl"):
        run_benchmark([slash, under], tmp_path / "suite")


# ----------------------------------------------------------------------
# a remote suite's episodes on the episode pool
# ----------------------------------------------------------------------

SUITE_SEEDS = [3, 4, 5, 6, 7]


def remote_suite(stub, turns=4, seeds=SUITE_SEEDS):
    suite = remote_config(stub, turns=turns)
    suite.seeds = list(seeds)
    return suite


def test_concurrent_suite_matches_one_episode_at_a_time(chat_stub, tmp_path, monkeypatch):
    def run(name):
        out = run_benchmark([remote_suite(chat_stub)], tmp_path / name)
        logs = {}
        for path in sorted(out.glob("*.jsonl")):
            lines = [json.loads(line) for line in path.read_text().splitlines()]
            for record in lines:
                record.pop("latency_ms", None)
            logs[path.name] = lines
        return [(out / name).read_bytes() for name in ("episodes.csv", "summary.txt")], logs

    concurrent = run("pool")
    monkeypatch.setattr(runner_mod, "MAX_EPISODE_WORKERS", 1)
    sequential = run("one")
    assert len(concurrent[1]) == len(SUITE_SEEDS)
    assert concurrent == sequential
    assert threads_named() == []


def test_remote_suite_requests_stay_within_the_bound(chat_stub, tmp_path):
    # every reply takes long enough that the episodes' turns overlap
    chat_stub.delay_range = (0.05, 0.05)
    suite = remote_suite(chat_stub, seeds=range(3, 3 + runner_mod.MAX_EPISODE_WORKERS))
    out = run_benchmark([suite], tmp_path / "suite")
    assert chat_stub.peak <= runner_mod.MAX_EPISODE_WORKERS + runner_mod.MAX_DECIDE_WORKERS
    # more than the 18 that three stage-7 episodes, of six agents each, ask at once
    assert chat_stub.peak > 3 * len(load_stage(7, 3).live_agents())
    assert len((out / "episodes.csv").read_text().splitlines()) == 1 + len(suite.seeds)
    assert not (out / "failures.txt").exists()
    assert threads_named() == []


def test_failed_episodes_are_listed_in_submission_order(chat_stub, tmp_path, monkeypatch):
    play = runner_mod.run_episode

    def run_episode(config, seed, log_path):
        if seed == 4:
            time.sleep(0.3)  # so seed 6 fails first
            raise RuntimeError("late failure")
        if seed == 6:
            raise RuntimeError("early failure")
        return play(config, seed, log_path)

    monkeypatch.setattr(runner_mod, "run_episode", run_episode)
    out = run_benchmark([remote_suite(chat_stub)], tmp_path / "suite")
    assert (out / "failures.txt").read_text() == (
        "stage7 seed4: late failure\nstage7 seed6: early failure\n")
    rows = (out / "episodes.csv").read_text().splitlines()[1:]
    assert [int(row.split(",")[2]) for row in rows] == [3, 5, 7]
    assert threads_named() == []


def test_other_worker_exception_fails_only_its_episode_of_a_suite(chat_stub, tmp_path,
                                                                  monkeypatch):
    # the failed episode's turn leaves nothing on the suite's decide pool,
    # which goes on serving the other episodes
    _one_agent_raises(monkeypatch, 4, RuntimeError("backend bug"), first_bound_only=True)
    out = run_benchmark([remote_suite(chat_stub)], tmp_path / "suite")
    failures = (out / "failures.txt").read_text().splitlines()
    assert len(failures) == 1 and failures[0].endswith(": backend bug")
    rows = (out / "episodes.csv").read_text().splitlines()[1:]
    assert len(rows) == len(SUITE_SEEDS) - 1
    assert threads_named() == []


def test_interrupted_suite_starts_no_queued_episode(chat_stub, tmp_path, monkeypatch):
    play = runner_mod.run_episode
    workers = runner_mod.MAX_EPISODE_WORKERS
    seeds = list(range(3, 3 + workers + 2))  # two queued behind the running ones
    started = []

    def run_episode(config, seed, log_path):
        started.append(seed)
        if seed == seeds[1]:
            time.sleep(0.1)  # while the episodes beside it play their turns
            raise KeyboardInterrupt
        return play(config, seed, log_path)

    monkeypatch.setattr(runner_mod, "run_episode", run_episode)
    out = tmp_path / "suite"
    with pytest.raises(KeyboardInterrupt):
        run_benchmark([remote_suite(chat_stub, turns=40, seeds=seeds)], out)
    assert sorted(started) == seeds[:workers]
    running = sorted(out.glob("*.jsonl"))
    assert len(running) == workers - 1
    for path in running:  # stopped after some turns, before the end line
        kinds = [json.loads(line)["kind"] for line in path.read_text().splitlines()]
        assert "turn" in kinds and "end" not in kinds
        assert json.loads(path.read_text().splitlines()[-1])["turn"] < 39
    assert not (out / "episodes.csv").exists() and not (out / "failures.txt").exists()
    assert threads_named() == []


def test_a_later_suite_reuses_the_connections_of_an_earlier_one(tmp_path):
    with serving(ChatStub(KeepAliveHashedReply, stage_id=5)) as stub:
        # every reply takes long enough that a turn's requests overlap
        stub.delay_range = (0.05, 0.05)
        spec = AgentSpec(backend="remote", model="stub", timeout=30.0, base_url=stub.url)
        suite = RunConfig(stage_id=5, seeds=[0, 1, 2], primary=spec, reference=spec,
                          overrides=StageOverrides(turns=3))
        run_benchmark([suite], tmp_path / "first")
        opened = stub.connections
        assert 1 <= opened <= stub.peak
        run_benchmark([suite], tmp_path / "second")
        assert stub.connections == opened
    for out in ("first", "second"):
        assert not (tmp_path / out / "failures.txt").exists()
