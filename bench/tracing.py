"""Per-layer tracing from outside the program.

The tracer wraps the public functions of each ``bab`` module and records,
for every call, its self time: the call's duration minus the durations of
the wrapped calls nested inside it (``probe_ahead`` inside
``render_observation``, ``step_turn`` inside ``replay_verify``, ...).

``runner``, ``replay``, ``agents`` and ``prompts`` bind their imports with
``from ... import``, so a wrapper is installed under every name in every
loaded ``bab`` module that refers to the original function; methods are
wrapped on their class. ``uninstall`` puts every original back.
"""

from __future__ import annotations

import math
import statistics
import sys
import time
from collections import defaultdict


class Tracer:
    def __init__(self) -> None:
        self.self_ns: dict[str, list[int]] = defaultdict(list)
        self.values: dict[str, list[float]] = defaultdict(list)
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []  # nested wrapped time of each open call
        self._restore: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    # wrappers
    # ------------------------------------------------------------------

    def _wrap(self, fn, layer, observe=None, inclusive: bool = False):
        stack = self._stack
        clock = time.perf_counter_ns
        if isinstance(layer, str):
            samples = self.self_ns[layer]
            layer_of = None
        else:
            samples = None
            layer_of = layer

        def traced(*args, **kwargs):
            stack.append(0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                took = clock() - start
                nested = stack.pop()
                if stack:
                    stack[-1] += took
            spent = took if inclusive else took - nested
            (samples if layer_of is None else self.self_ns[layer_of(args)]).append(spent)
            if observe is not None:
                observe(args, result, spent)
            return result

        traced.__wrapped__ = fn
        return traced

    def _counter(self, fn, name: str):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    def _replace(self, owner, attr: str, wrapped) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapped)

    def wrap_function(self, module, name: str, layer, observe=None,
                      inclusive: bool = False) -> None:
        """Wrap ``module.name`` under every ``bab`` name bound to it."""
        original = getattr(module, name)
        wrapped = self._wrap(original, layer, observe, inclusive)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "bab" or mod_name.startswith("bab.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._replace(mod, attr, wrapped)

    def wrap_method(self, cls, name: str, layer, observe=None) -> None:
        self._replace(cls, name, self._wrap(getattr(cls, name), layer, observe))

    def count_method(self, cls, name: str, counter: str) -> None:
        self._replace(cls, name, self._counter(getattr(cls, name), counter))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------------
    # the program's layers
    # ------------------------------------------------------------------

    def install(self, stub_delay_ms: float | None) -> None:
        from bab import agents, coop, engine, metrics, parsing, prompts, replay, runner
        from bab import stages, types

        values = self.values

        def episode(args):
            return f"episode.stage{args[0].stage_id}"

        def rendered(args, prompt, spent):
            values["render.prompt_chars"].append(len(prompt))

        def decided(args, exchange, spent):
            values["decide.attempts"].append(exchange.attempt_count)
            if stub_delay_ms is not None:
                values["decide.overhead_ms"].append(spent / 1e6 - stub_delay_ms)

        def parsed(args, action, spent):
            values["parse.format_ok"].append(1.0 if action.format_ok else 0.0)

        def routed(args, events, spent):
            self.counts["coop.events"] += len(events)

        self.wrap_function(runner, "run_episode", episode, inclusive=True)
        self.wrap_function(stages, "load_stage", "load")
        self.wrap_function(prompts, "render_observation", "render", rendered)
        for policy in (agents.RandomPolicy, agents.GreedyPolicy, agents.RemotePolicy):
            self.wrap_method(policy, "decide", "decide", decided)
        self.wrap_function(parsing, "parse_response", "parse", parsed)
        self.wrap_function(coop, "route_coop", "coop", routed)
        self.wrap_function(engine, "step_turn", "step")
        self.wrap_function(engine, "apply_shoot", "shoot")
        self.wrap_function(engine, "apply_move", "move")
        self.wrap_function(engine, "probe_ahead", "probe")
        self.count_method(types.WallGrid, "cell_at", "shoot.cell_probes")
        for method in ("write_header", "write_turn", "write_coop", "write_end"):
            self.wrap_method(replay.ReplayWriter, method, "log_write")
        self.wrap_function(replay, "read_log", "read_log")
        self.wrap_function(replay, "replay_verify", "verify")
        self.wrap_function(metrics, "compute_episode", "metrics")
        self.wrap_method(types.WorldState, "world_hash", "hash")

    # ------------------------------------------------------------------
    # per-layer metrics
    # ------------------------------------------------------------------

    def metrics(self, rounds: int, stages: tuple[int, ...], remote: bool,
                log_bytes: int, overhead_pct: float) -> dict[str, tuple[float, str]]:
        """Every per-layer metric as name -> (value, unit).

        Counts (``.calls``, ``.records``, ``.events``) and busy times are
        per traced round, so they do not grow with the run's length; every
        round does the same work. A metric with no calls on this workload
        (another workload's stages, ``decide.overhead_ms_p50`` off the
        stub) reads 0.
        """
        t, v, c = self.self_ns, self.values, self.counts

        def pct(name: str, q: float, scale: float) -> float:
            data = sorted(t[name])
            if not data:
                return 0.0
            return data[max(0, math.ceil(q * len(data)) - 1)] / scale

        def p50(data) -> float:
            return statistics.median(data) if data else 0.0

        def mean(data) -> float:
            return statistics.fmean(data) if data else 0.0

        def calls(name: str) -> float:
            return len(t[name]) / rounds

        def busy_ms(name: str) -> float:
            return sum(t[name]) / 1e6 / rounds

        out: dict[str, tuple[float, str]] = {}
        for stage in range(1, 8):
            name = f"episode.stage{stage}"
            out[f"{name}.ms_p50"] = (pct(name, 0.5, 1e6) if stage in stages else 0.0, "ms")
        out["load.calls"] = (calls("load"), "count")
        out["load.us_p50"] = (pct("load", 0.5, 1e3), "us")
        out["render.calls"] = (calls("render"), "count")
        out["render.busy_ms"] = (busy_ms("render"), "ms")
        out["render.us_p50"] = (pct("render", 0.5, 1e3), "us")
        out["render.us_p99"] = (pct("render", 0.99, 1e3), "us")
        out["render.prompt_chars_p50"] = (p50(v["render.prompt_chars"]), "chars")
        out["render.prompt_chars_max"] = (max(v["render.prompt_chars"], default=0), "chars")
        out["decide.calls"] = (calls("decide"), "count")
        out["decide.busy_ms"] = (busy_ms("decide"), "ms")
        out["decide.us_p50"] = (pct("decide", 0.5, 1e3), "us")
        out["decide.us_p99"] = (pct("decide", 0.99, 1e3), "us")
        out["decide.attempts_per_call"] = (mean(v["decide.attempts"]), "attempts")
        out["decide.overhead_ms_p50"] = (
            p50(v["decide.overhead_ms"]) if remote else 0.0, "ms")
        out["parse.calls"] = (calls("parse"), "count")
        out["parse.us_p50"] = (pct("parse", 0.5, 1e3), "us")
        out["parse.format_ok_ratio"] = (mean(v["parse.format_ok"]), "ratio")
        out["coop.calls"] = (calls("coop"), "count")
        out["coop.us_p50"] = (pct("coop", 0.5, 1e3), "us")
        out["coop.events"] = (c["coop.events"] / rounds, "count")
        out["step.calls"] = (calls("step"), "count")
        out["step.busy_ms"] = (busy_ms("step"), "ms")
        out["step.us_p50"] = (pct("step", 0.5, 1e3), "us")
        out["shoot.calls"] = (calls("shoot"), "count")
        out["shoot.us_p50"] = (pct("shoot", 0.5, 1e3), "us")
        out["shoot.cell_probes_per_call"] = (
            c["shoot.cell_probes"] / len(t["shoot"]) if t["shoot"] else 0.0, "probes")
        out["move.us_p50"] = (pct("move", 0.5, 1e3), "us")
        out["probe.calls"] = (calls("probe"), "count")
        out["log_write.records"] = (calls("log_write"), "count")
        out["log_write.us_p50"] = (pct("log_write", 0.5, 1e3), "us")
        records = len(t["log_write"])
        out["log_write.bytes_per_record"] = (log_bytes / records if records else 0.0, "B")
        out["read_log.ms_p50"] = (pct("read_log", 0.5, 1e6), "ms")
        out["verify.ms_p50"] = (pct("verify", 0.5, 1e6), "ms")
        out["verify.busy_ms"] = (busy_ms("verify"), "ms")
        out["metrics.us_p50"] = (pct("metrics", 0.5, 1e3), "us")
        out["hash.calls"] = (calls("hash"), "count")
        out["hash.us_p50"] = (pct("hash", 0.5, 1e3), "us")
        out["trace.overhead_pct"] = (overhead_pct, "%")
        return out
