from __future__ import annotations

import json
import math
import os
import random
import socket
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

from bab import agents
from bab.agents import (
    AgentError,
    AgentSpec,
    GreedyPolicy,
    RemotePolicy,
    make_backend,
    parse_model_name,
    split_prompt,
)
from bab.parsing import parse_response
from bab.prompts import render_observation
from bab.stages import StageOverrides, load_stage
from bab.types import Orientation, Pos

from chat_stub import (ChatHandler, KeepAlive, TrickleBody, TrickleHead, chat_body, serving,
                       threads_named)
from conftest import FIXTURE_DIR, agent, base, make_world, npc, wall_cells_for_rect


# ----------------------------------------------------------------------
# local backends always emit well-formed replies
# ----------------------------------------------------------------------


@pytest.mark.parametrize("stage_id", range(1, 8))
@pytest.mark.parametrize("backend", ["random", "greedy"])
def test_local_backends_are_always_well_formed(stage_id, backend):
    w = load_stage(stage_id, 11)
    for agent_id in [a.id for a in w.live_agents()]:
        policy = make_backend(
            AgentSpec(backend=backend, seed=5), stage_id, agent_id
        )
        for _ in range(20):
            reply = policy.decide("", w, agent_id).response
            assert parse_response(stage_id, reply).format_ok, reply


def test_random_backend_is_reproducible():
    w = load_stage(5, 3)
    spec = AgentSpec(backend="random", seed=42)

    def roll():
        policy = make_backend(spec, 5, 1)
        return [policy.decide("", w, 1).response for _ in range(30)]

    assert roll() == roll()


def test_random_backend_differs_across_agents():
    w = load_stage(5, 3)
    spec = AgentSpec(backend="random", seed=42)
    a = make_backend(spec, 5, 1)
    b = make_backend(spec, 5, 2)
    assert [a.decide("", w, 1).response for _ in range(20)] != [
        b.decide("", w, 2).response for _ in range(20)
    ]


def test_random_stage1_reply_shape_and_spread():
    w = load_stage(1, 0)
    policy = make_backend(AgentSpec(backend="random", seed=0), 1, 1)
    seen = set()
    for _ in range(200):
        reply = policy.decide("", w, 1).response
        assert reply.startswith("#Operation: #")
        seen.add(reply)
    assert len(seen) == 5  # all five actions drawn


# ----------------------------------------------------------------------
# greedy oracle
# ----------------------------------------------------------------------


def test_greedy_tie_breaks_horizontal():
    w = make_world(
        [agent(1, 64, 448)],
        [base(101, 448, 64, solid=False)],
        goal=__import__("bab.types", fromlist=["Goal"]).Goal.NAVIGATION,
        n_agents=1, n_teams=1, n_bases=1, stage_id=1,
    )
    reply = GreedyPolicy(1, True).decide("", w, 1).response
    assert reply == "#Operation: #Move_right#"


def test_greedy_moves_along_larger_gap():
    from bab.types import Goal

    w = make_world(
        [agent(1, 256, 256)],
        [base(101, 256, 64, solid=False)],
        goal=Goal.NAVIGATION, n_agents=1, n_teams=1, n_bases=1, stage_id=1,
    )
    assert GreedyPolicy(1, True).decide("", w, 1).response == "#Operation: #Move_up#"


def test_greedy_shoots_wall_ahead():
    from bab.types import Goal

    w = make_world(
        [agent(1, 256, 256)],
        [base(101, 256, 64, solid=False)],
        walls=wall_cells_for_rect(256, 224, 32, 32),
        goal=Goal.NAVIGATION, n_agents=1, n_teams=1, n_bases=1, stage_id=1,
    )
    assert GreedyPolicy(1, True).decide("", w, 1).response == "#Operation: #Shoot#"


def test_greedy_shoots_enemy_tank_ahead_and_targets_it():
    # enemy base straight up, interfering tank in the chosen lane
    w = make_world(
        [agent(1, 128, 256), npc(9, 128, 224)],
        [base(101, 64, 448, team=0), base(102, 128, 64, team=1)],
        n_agents=1, n_teams=2, stage_id=4,
    )
    w.tanks[1].facing = Orientation.UP
    reply = GreedyPolicy(4, True).decide("", w, 1).response
    assert reply == "#Operation: Target 9: #Shoot#"


def test_greedy_reaches_goal_in_exact_l1_steps():
    from bab.runner import RunConfig, run_episode

    overrides = StageOverrides(wall_density=0.0)
    for seed in range(20):
        cfg = RunConfig(
            stage_id=1,
            seeds=[seed],
            primary=AgentSpec(backend="greedy"),
            reference=AgentSpec(backend="random"),
            overrides=overrides,
        )
        result = run_episode(cfg, seed)
        world = result.world
        start = Pos(*result.records[0].pos_before)
        goal = next(iter(world.bases.values())).pos
        expected = math.ceil(abs(start.x - goal.x) / 32) + math.ceil(
            abs(start.y - goal.y) / 32
        )
        assert world.turn == expected
        assert result.summary.goal_completion == 1.0
        assert result.summary.m_acc == 1.0


# ----------------------------------------------------------------------
# canned transcripts
# ----------------------------------------------------------------------


def test_canned_replays_lines_then_errors(tmp_path):
    path = tmp_path / "transcript.jsonl"
    replies = ["#Operation: #Move_up#", "#Operation: #Shoot#"]
    path.write_text("\n".join(json.dumps(r) for r in replies), encoding="utf-8")
    policy = make_backend(
        AgentSpec(backend="canned", transcript_path=str(path)), 1, 1
    )
    w = load_stage(1, 0)
    assert policy.decide("", w, 1).response == replies[0]
    assert policy.decide("", w, 1).response == replies[1]
    with pytest.raises(AgentError, match="exhausted"):
        policy.decide("", w, 1)


@pytest.mark.parametrize("bad", ["5", "not json", "null", '["#Operation: #Shoot#"]'])
def test_canned_rejects_a_line_that_is_not_a_json_string(tmp_path, bad):
    path = tmp_path / "transcript.jsonl"
    path.write_text(json.dumps("#Operation: #Shoot#") + "\n\n" + bad + "\n", encoding="utf-8")
    spec = AgentSpec(backend="canned", transcript_path=str(path))
    with pytest.raises(AgentError, match="line 3 is not a JSON string"):
        make_backend(spec, 1, 1)


# ----------------------------------------------------------------------
# remote backend over a live HTTP stub
# ----------------------------------------------------------------------


@pytest.fixture
def stub_server():
    with serving(ChatHandler) as stub:
        yield stub


def test_remote_retries_malformed_bodies_then_succeeds(stub_server):
    stub_server.script = [
        (200, "{\"not\": \"chat\"}"),
        (500, "oops"),
        (200, chat_body("#Operation: #Move_up#")),
    ]
    spec = AgentSpec(backend="remote", model="test-model", base_url=stub_server.url,
                     retries=3)
    policy = RemotePolicy(spec, backoff_base=0.01)
    w = load_stage(1, 0)
    prompt = render_observation(w, 1)
    exchange = policy.decide(prompt, w, 1)
    assert exchange.response == "#Operation: #Move_up#"
    assert exchange.attempt_count == 3


def test_remote_exhausts_budget_and_raises(stub_server):
    stub_server.script = [(500, "bad")] * 4
    spec = AgentSpec(backend="remote", model="m", base_url=stub_server.url, retries=3)
    policy = RemotePolicy(spec, backoff_base=0.01)
    w = load_stage(1, 0)
    with pytest.raises(AgentError, match="after 4 attempts"):
        policy.decide("prompt", w, 1)


def test_remote_retries_a_null_reply_text(stub_server):
    null = json.dumps({"choices": [{"message": {"content": None}}]})
    spec = AgentSpec(backend="remote", model="m", base_url=stub_server.url, retries=1)
    policy = RemotePolicy(spec, backoff_base=0.01)
    w = load_stage(1, 0)
    stub_server.script = [(200, null), (200, chat_body("#Operation: #Move_up#"))]
    assert policy.decide("prompt", w, 1).attempt_count == 2
    stub_server.script = [(200, null), (200, null)]
    with pytest.raises(AgentError, match="after 2 attempts: missing assistant text"):
        policy.decide("prompt", w, 1)


def test_remote_with_nothing_listening_fails_after_its_retries():
    with socket.socket() as sock:  # a loopback port that no one listens on
        sock.bind(("127.0.0.1", 0))
        port = sock.getsockname()[1]
    spec = AgentSpec(backend="remote", model="m", base_url=f"http://127.0.0.1:{port}",
                     retries=2)
    policy = RemotePolicy(spec, backoff_base=0.01)
    with pytest.raises(AgentError, match="after 3 attempts: .*[Rr]efused"):
        policy.decide("prompt", load_stage(1, 0), 1)


def test_remote_sends_chat_payload_with_split_prompt(stub_server, monkeypatch):
    monkeypatch.setenv("BAB_API_KEY", "sekrit")
    stub_server.script = [(200, chat_body("ok"))]
    spec = AgentSpec(backend="remote", model="test-model", base_url=stub_server.url,
                     temperature=0.4, max_tokens=128)
    policy = RemotePolicy(spec, backoff_base=0.01)
    w = load_stage(5, 1)
    prompt = render_observation(w, 1)
    policy.decide(prompt, w, 1)

    sent = stub_server.requests_seen[0]
    assert sent["model"] == "test-model"
    assert sent["temperature"] == 0.4
    assert sent["max_tokens"] == 128
    roles = [m["role"] for m in sent["messages"]]
    assert roles == ["system", "user"]
    user = next(m for m in sent["messages"] if m["role"] == "user")
    system = next(m for m in sent["messages"] if m["role"] == "system")
    assert user["content"].startswith("<game>")
    assert user["content"].rstrip().endswith("</game>")
    assert "#Operation options:" in system["content"]
    # nothing lost in the split
    assert prompt == user["content"] + "\n\n" + system["content"]


def test_remote_decide_does_not_mutate_world(stub_server):
    stub_server.script = [(200, chat_body("#Operation: #Shoot#"))]
    spec = AgentSpec(backend="remote", model="m", base_url=stub_server.url)
    policy = RemotePolicy(spec, backoff_base=0.01)
    w = load_stage(1, 2)
    before = w.world_hash()
    policy.decide(render_observation(w, 1), w, 1)
    assert w.world_hash() == before


class FakeClock:
    """Stands in for ``time`` in ``bab.agents``: sleeps are recorded and
    advance the clock; each HTTP attempt takes ``post_s`` seconds, or
    times out when the time left before its deadline is shorter."""

    def __init__(self, policy: RemotePolicy, post_s: float = 0.0) -> None:
        self.now = 1000.0
        self.sleeps: list[float] = []
        self.attempts: list[tuple[float, float]] = []  # (start, time left)
        post = policy._post

        def timed_post(body, headers, deadline):
            timeout = deadline - self.now
            self.attempts.append((self.now, timeout))
            if post_s > timeout:
                self.now += timeout
                raise TimeoutError("read timed out")
            self.now += post_s
            return post(body, headers, deadline)

        policy._post = timed_post

    def monotonic(self) -> float:
        return self.now

    def sleep(self, seconds: float) -> None:
        self.sleeps.append(seconds)
        self.now += seconds


def clocked_policy(monkeypatch, stub_url, post_s=0.0, **spec_kw):
    spec = AgentSpec(backend="remote", model="m", base_url=stub_url, **spec_kw)
    policy = RemotePolicy(spec, backoff_base=0.5)
    clock = FakeClock(policy, post_s)
    monkeypatch.setattr(agents, "time", clock)
    return policy, clock


@pytest.mark.parametrize("status", [429, 503])
def test_remote_honours_retry_after_seconds(stub_server, monkeypatch, status):
    stub_server.script = [
        (status, "busy", {"Retry-After": "7"}),
        (200, chat_body("#Operation: #Shoot#")),
    ]
    policy, clock = clocked_policy(monkeypatch, stub_server.url, timeout=60.0)
    exchange = policy.decide("prompt", load_stage(1, 0), 1)
    assert exchange.response == "#Operation: #Shoot#"
    assert exchange.attempt_count == 2
    assert clock.sleeps == [7.0]
    # the second attempt gets the time left
    assert clock.attempts == [(1000.0, 60.0), (1007.0, 53.0)]


@pytest.mark.parametrize("status, retry_after", [
    (500, "7"),  # only 429 and 503 carry a Retry-After worth honouring
    (429, "Wed, 21 Oct 2026 07:28:00 GMT"),  # a date is not seconds
    (503, "-3"),
])
def test_remote_ignores_other_retry_after(stub_server, monkeypatch, status, retry_after):
    stub_server.script = [
        (status, "busy", {"Retry-After": retry_after}),
        (200, chat_body("ok")),
    ]
    policy, clock = clocked_policy(monkeypatch, stub_server.url)
    assert policy.decide("prompt", load_stage(1, 0), 1).response == "ok"
    assert len(clock.sleeps) == 1 and 0.0 <= clock.sleeps[0] <= 0.5


def test_remote_backoff_has_full_jitter_in_bounds(stub_server, monkeypatch):
    w = load_stage(1, 0)
    policy, clock = clocked_policy(monkeypatch, stub_server.url, retries=3)
    random.seed(0)
    global_state = random.getstate()
    for _ in range(20):
        stub_server.script = [(500, "bad")] * 4
        with pytest.raises(AgentError, match="after 4 attempts"):
            policy.decide("prompt", w, 1)
    assert random.getstate() == global_state  # a private generator drew them
    assert len(clock.sleeps) == 60
    caps = [0.5, 1.0, 2.0] * 20
    assert all(0.0 <= s <= cap for s, cap in zip(clock.sleeps, caps))
    assert len(set(clock.sleeps)) == 60  # drawn, not the fixed exponential steps
    assert sum(s / cap for s, cap in zip(clock.sleeps, caps)) / 60 < 0.8


def test_remote_deadline_covers_attempts_and_sleeps(stub_server, monkeypatch):
    stub_server.script = [(500, "bad")] * 20
    policy, clock = clocked_policy(monkeypatch, stub_server.url, post_s=2.0,
                                   timeout=7.0, retries=19)
    with pytest.raises(AgentError, match="7 s deadline"):
        policy.decide("prompt", load_stage(1, 0), 1)
    assert clock.now <= 1007.0
    assert 2 <= len(clock.attempts) <= 4
    # each attempt's HTTP timeout is the time left before the deadline
    for start, timeout in clock.attempts:
        assert timeout == pytest.approx(1007.0 - start)


def test_remote_attempt_times_out_at_the_deadline(stub_server, monkeypatch):
    policy, clock = clocked_policy(monkeypatch, stub_server.url, post_s=100.0,
                                   timeout=5.0, retries=3)
    with pytest.raises(AgentError, match="5 s deadline: read timed out"):
        policy.decide("prompt", load_stage(1, 0), 1)
    assert clock.attempts == [(1000.0, 5.0)]
    assert clock.now == 1005.0 and clock.sleeps == []


def test_remote_retry_after_past_the_deadline_fails_at_once(stub_server, monkeypatch):
    stub_server.script = [(429, "slow down", {"Retry-After": "120"})]
    policy, clock = clocked_policy(monkeypatch, stub_server.url, timeout=30.0)
    with pytest.raises(AgentError, match="30 s deadline: HTTP 429"):
        policy.decide("prompt", load_stage(1, 0), 1)
    assert clock.sleeps == []
    assert len(stub_server.requests_seen) == 1


def test_remote_deadline_failure_is_a_format_invalid_turn(stub_server, monkeypatch):
    from bab.runner import _safe_decide

    stub_server.script = [(503, "down", {"Retry-After": "120"})]
    policy, _ = clocked_policy(monkeypatch, stub_server.url, timeout=30.0)
    w = load_stage(1, 0)
    exchange = _safe_decide(policy, "prompt", w, 1)
    assert "deadline" in exchange.error
    assert not parse_response(1, exchange.response).format_ok


def test_remote_gives_up_a_trickled_body_at_the_deadline():
    # every byte comes well within a read timeout, so only the deadline
    # check between reads stops the body's 60 x 50 ms = 3 s
    with serving(TrickleBody) as stub:
        stub.script = [(200, chat_body("x" * 20)[:60])]
        stub.pause = 0.05
        policy = RemotePolicy(AgentSpec(backend="remote", model="m", base_url=stub.url,
                                        timeout=0.4, retries=0))
        start = time.monotonic()
        with pytest.raises(AgentError, match="not complete by the deadline"):
            policy.decide("prompt", load_stage(1, 0), 1)
        assert time.monotonic() - start < 1.0


def test_remote_assembles_a_trickled_body_within_the_deadline():
    with serving(TrickleBody) as stub:
        stub.pause = 0.002
        spec = AgentSpec(backend="remote", model="m", base_url=stub.url, timeout=10.0, retries=0)
        exchange = RemotePolicy(spec).decide("prompt", load_stage(1, 0), 1)
    assert exchange.response == "#Operation: #Shoot#"


def assert_trickled_head_given_up(at_once, tls=False):
    # about 70 bytes at 30 ms each take 2 s; the socket's deadline cuts them at 0.4 s
    with serving(TrickleHead, tls) as stub:
        stub.at_once = at_once
        policy = RemotePolicy(AgentSpec(backend="remote", model="m", base_url=stub.url,
                                        timeout=0.4, retries=0))
        start = time.monotonic()
        with pytest.raises(AgentError, match="not complete by the deadline"):
            policy.decide("prompt", load_stage(1, 0), 1)
        assert time.monotonic() - start < 0.4 + 0.3  # one 30 ms wait, and slack
        assert threads_named() == []


@pytest.mark.parametrize("at_once", [0, len(b"HTTP/1.1 200 OK\r\n")],
                         ids=["status-line", "headers"])
def test_remote_gives_up_a_trickled_head_at_the_deadline(at_once):
    assert_trickled_head_given_up(at_once)


@pytest.mark.parametrize("close_after_reply, connections", [(False, 1), (True, 4)])
def test_remote_keeps_one_connection_alive(close_after_reply, connections):
    # an idle connection that the server closed costs no attempt
    w = load_stage(1, 0)
    with serving(KeepAlive) as stub:
        stub.close_after_reply = close_after_reply
        policy = RemotePolicy(AgentSpec(backend="remote", model="m", base_url=stub.url))
        for _ in range(4):
            exchange = policy.decide("prompt", w, 1)
            assert (exchange.response, exchange.attempt_count) == ("#Operation: #Shoot#", 1)
            assert threads_named() == []
    assert stub.connections == connections


def test_concurrent_decisions_share_the_idle_connections():
    # more threads than cores, switching often: a connection taken twice
    # garbles its replies, and one lost on its way back is opened again
    w = load_stage(1, 0)
    threads = 8
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with serving(KeepAlive) as stub:
            policy = RemotePolicy(AgentSpec(backend="remote", model="m", base_url=stub.url,
                                            retries=0))
            with ThreadPoolExecutor(threads) as pool:
                exchanges = list(pool.map(lambda _: policy.decide("prompt", w, 1), range(200),
                                          timeout=60))
    finally:
        sys.setswitchinterval(interval)
    assert all((e.response, e.attempt_count) == ("#Operation: #Shoot#", 1) for e in exchanges)
    assert 1 <= stub.connections <= threads


def test_connections_to_one_server_are_opened_one_at_a_time(monkeypatch):
    # a first turn's burst of new connections past a small listen backlog
    # waits for a resent SYN, or is reset
    lock = threading.Lock()
    calls = {"total": 0, "open": 0, "peak": 0}
    connect = agents._DeadlineSocket.connect

    def counted(sock, address):
        with lock:
            calls["total"] += 1
            calls["open"] += 1
            calls["peak"] = max(calls["peak"], calls["open"])
        try:
            time.sleep(0.02)
            return connect(sock, address)
        finally:
            with lock:
                calls["open"] -= 1

    monkeypatch.setattr(agents._DeadlineSocket, "connect", counted)
    w = load_stage(1, 0)
    threads = 8
    start = threading.Barrier(threads)

    def first_decision(policy):
        start.wait()
        return policy.decide("prompt", w, 1)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with serving(KeepAlive) as stub:
            policy = RemotePolicy(AgentSpec(backend="remote", model="m", base_url=stub.url,
                                            retries=0))
            with ThreadPoolExecutor(threads) as pool:
                exchanges = list(pool.map(first_decision, [policy] * threads, timeout=60))
    finally:
        sys.setswitchinterval(interval)
    assert all((e.response, e.attempt_count) == ("#Operation: #Shoot#", 1) for e in exchanges)
    assert calls["total"] > 1 and calls["peak"] == 1


def test_a_decision_waiting_to_connect_fails_by_its_deadline(monkeypatch):
    connecting = threading.Event()
    connect = agents._DeadlineSocket.connect

    def slow(sock, address):
        connecting.set()
        time.sleep(0.6)
        return connect(sock, address)

    monkeypatch.setattr(agents._DeadlineSocket, "connect", slow)
    w = load_stage(1, 0)
    with serving(KeepAlive) as stub:
        patient = RemotePolicy(AgentSpec(backend="remote", model="m", base_url=stub.url,
                                         timeout=30.0, retries=0))
        hasty = RemotePolicy(AgentSpec(backend="remote", model="m", base_url=stub.url,
                                       timeout=0.2, retries=0))
        with ThreadPoolExecutor(1) as pool:
            opening = pool.submit(patient.decide, "prompt", w, 1)
            assert connecting.wait(timeout=10)
            begun = time.monotonic()
            with pytest.raises(AgentError, match="deadline"):
                hasty.decide("prompt", w, 1)
            assert time.monotonic() - begun < 0.2 + 0.15
            assert opening.result(timeout=60).attempt_count == 1


def test_an_address_lookup_does_not_hold_up_other_connects(monkeypatch):
    # a lookup that waits on a slow resolver is made before the decision
    # takes its turn to connect
    looking_up = threading.Event()
    resolved = threading.Event()
    getaddrinfo = socket.getaddrinfo

    def first_waits(*args, **kwargs):
        if not looking_up.is_set():
            looking_up.set()
            assert resolved.wait(timeout=10)
        return getaddrinfo(*args, **kwargs)

    monkeypatch.setattr(socket, "getaddrinfo", first_waits)
    w = load_stage(1, 0)
    with serving(KeepAlive) as stub:
        policy = RemotePolicy(AgentSpec(backend="remote", model="m", base_url=stub.url,
                                        timeout=5.0, retries=0))
        with ThreadPoolExecutor(1) as pool:
            waiting = pool.submit(policy.decide, "prompt", w, 1)
            assert looking_up.wait(timeout=10)
            try:
                assert policy.decide("prompt", w, 1).attempt_count == 1
            finally:
                resolved.set()
            assert waiting.result(timeout=60).attempt_count == 1


def test_policies_one_after_another_share_one_connection():
    w = load_stage(1, 0)
    with serving(KeepAlive) as stub:
        for _ in range(2):
            policy = RemotePolicy(AgentSpec(backend="remote", model="m", base_url=stub.url))
            assert policy.decide("prompt", w, 1).attempt_count == 1
        assert stub.connections == 1
        agents.close_idle_connections()
        assert policy.decide("prompt", w, 1).attempt_count == 1
    assert stub.connections == 2


def test_idle_connections_are_closed_at_exit():
    # a socket the interpreter finalizes at exit warns in dev mode
    src = str(Path(agents.__file__).parents[1])
    with serving(KeepAlive) as stub:
        code = ("from bab.agents import AgentSpec, RemotePolicy; from bab.stages import load_stage; "
                f"spec = AgentSpec(backend='remote', model='m', base_url={stub.url!r}); "
                "assert RemotePolicy(spec).decide('prompt', load_stage(1, 0), 1).attempt_count == 1")
        child = subprocess.run([sys.executable, "-X", "dev", "-c", code], capture_output=True,
                               text=True, env={**os.environ, "PYTHONPATH": src}, timeout=60)
    assert child.returncode == 0, child.stderr
    assert "ResourceWarning" not in child.stderr


# ----------------------------------------------------------------------
# the remote backend over TLS, trusting the self-signed fixture certificate
# ----------------------------------------------------------------------


@pytest.fixture
def trust_fixture_cert(monkeypatch):
    monkeypatch.setenv("SSL_CERT_FILE", str(FIXTURE_DIR / "tls_cert.pem"))
    monkeypatch.delenv("SSL_CERT_DIR", raising=False)


def test_remote_keeps_one_tls_connection_alive(trust_fixture_cert):
    w = load_stage(1, 0)
    with serving(KeepAlive, tls=True) as stub:
        policy = RemotePolicy(AgentSpec(backend="remote", model="m", base_url=stub.url))
        for _ in range(3):
            exchange = policy.decide("prompt", w, 1)
            assert (exchange.response, exchange.attempt_count) == ("#Operation: #Shoot#", 1)
    assert stub.connections == 1


@pytest.mark.parametrize("at_once", [0, len(b"HTTP/1.1 200 OK\r\n")],
                         ids=["status-line", "headers"])
def test_remote_gives_up_a_trickled_tls_head_at_the_deadline(trust_fixture_cert, at_once):
    assert_trickled_head_given_up(at_once, tls=True)


def test_remote_refuses_a_certificate_it_does_not_trust(monkeypatch, trust_fixture_cert):
    w = load_stage(1, 0)
    with serving(KeepAlive, tls=True) as stub:
        spec = AgentSpec(backend="remote", model="m", base_url=stub.url, retries=0)
        assert RemotePolicy(spec).decide("prompt", w, 1).attempt_count == 1
        # the connection verified under the fixture CA stays idle, but a
        # policy that no longer trusts that CA does not take it
        monkeypatch.delenv("SSL_CERT_FILE")
        with pytest.raises(AgentError, match="CERTIFICATE_VERIFY_FAILED"):
            RemotePolicy(spec).decide("prompt", w, 1)


# ----------------------------------------------------------------------
# model-name parsing
# ----------------------------------------------------------------------


def test_parse_model_name_forms(tmp_path, monkeypatch):
    monkeypatch.delenv("BAB_BASE_URL", raising=False)
    assert parse_model_name("greedy").backend == "greedy"
    assert parse_model_name("random").backend == "random"
    assert parse_model_name("random:7").seed == 7
    transcript = tmp_path / "x.jsonl"
    transcript.write_text("", encoding="utf-8")
    spec = parse_model_name(f"canned:{transcript}")
    assert spec.backend == "canned" and spec.transcript_path == str(transcript)
    for path in (tmp_path / "missing.jsonl", tmp_path):
        with pytest.raises(AgentError, match="is not a file"):
            parse_model_name(f"canned:{path}")
    remote = parse_model_name("gpt-x", base_url="http://h")
    assert remote.backend == "remote" and remote.base_url == "http://h"
    with pytest.raises(AgentError, match="base URL"):
        parse_model_name("gpt-x")
    assert parse_model_name("gpt-x", base_url="https://h:8443/v1").base_url == "https://h:8443/v1"
    # each of these cost every decision all its attempts and their backoff
    for url in ("localhost:8080", "127.0.0.1:9/v1", "ftp://h/v1", "http:///v1", "http://h:0"):
        with pytest.raises(AgentError, match="not an http:// or https:// URL"):
            parse_model_name("gpt-x", base_url=url)
    with pytest.raises(ValueError, match="Port"):
        parse_model_name("gpt-x", base_url="http://h:port/v1")
    monkeypatch.setenv("BAB_BASE_URL", "http://env-host")
    assert parse_model_name("gpt-x").base_url == "http://env-host"
    monkeypatch.setenv("BAB_BASE_URL", "localhost:8080")
    with pytest.raises(AgentError, match="not an http:// or https:// URL"):
        parse_model_name("gpt-x")


def test_split_prompt_covers_all_templates():
    for stage_id in range(1, 8):
        w = load_stage(stage_id, 1)
        prompt = render_observation(w, 1)
        user, system = split_prompt(prompt)
        assert user.endswith("</game>")
        assert system  # instructions are non-empty
