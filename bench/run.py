#!/usr/bin/env python3
"""End-to-end benchmark of the bab harness.

    python3 bench/run.py --workload local-combat --seed 1 --seconds 30 --trace 0

Runs from the root of a source checkout and imports ``bab`` from its
``src``. Each round hands the workload's suite to ``runner.run_benchmark``,
then audits every replay log it wrote with ``replay_verify`` and
``metrics_from_log`` and checks the outputs (see ``checks.py``). Rounds
repeat until ``--seconds`` have passed.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates
untraced and traced rounds and prints the per-layer metrics of the traced
ones, plus the tracing overhead between the two. The last line of stdout
is one JSON object: ``correct``, ``attempted`` and ``failed`` (episodes),
and ``metrics``. A failed check makes the command exit with 1.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import urllib.request
from dataclasses import dataclass, field
from pathlib import Path

import checks
from tracing import Tracer
from workloads import STUB_DELAY_MS, WORKLOADS, Workload, plan_for, run_configs

BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"
OUT_ROOT = BENCH_DIR / "out"
SETUP_PROBES = 7
PROCESS_WAIT_S = 30


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


def import_program():
    """Import ``bab`` from this checkout's ``src``, and nowhere else."""
    if not (SRC / "bab" / "__init__.py").is_file():
        raise BenchError(f"no bab package under {SRC}: not a bab source checkout")
    sys.path.insert(0, str(SRC))
    import bab

    if Path(bab.__file__).resolve().parent != (SRC / "bab").resolve():
        raise BenchError(f"imported bab from {bab.__file__}, not from {SRC}")
    return bab


class Stub:
    """The chat-completion stub, running in its own process."""

    def __init__(self, delay_ms: float) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, str(BENCH_DIR / "stub.py"), "--delay-ms", str(delay_ms)],
            stdout=subprocess.PIPE, text=True,
        )
        line = self.proc.stdout.readline()
        if not line.startswith("port "):
            self.close()
            raise BenchError(f"stub did not start: {line!r}")
        self.url = f"http://127.0.0.1:{int(line.split()[1])}"

    def requests_served(self) -> int:
        with urllib.request.urlopen(self.url + "/stats", timeout=10) as resp:
            return json.load(resp)["requests"]

    def close(self) -> None:
        self.proc.terminate()
        try:
            self.proc.wait(timeout=PROCESS_WAIT_S)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


@dataclass
class Env:
    """Everything set up before the first timed episode."""

    workload: Workload
    configs: list
    stub: Stub | None
    worlds: dict = field(default_factory=dict)  # log name -> live final world

    def close(self) -> None:
        if self.stub is not None:
            self.stub.close()


def set_up(workload: Workload, bench_seed: int) -> Env:
    """Imports, the stub being ready, and template loading."""
    import_program()
    from bab.prompts import load_template
    from bab.stages import resolve_config
    from bab.types import CoopTopology

    stub = Stub(STUB_DELAY_MS) if workload.remote else None
    try:
        for stage in workload.stages:
            coop = resolve_config(stage).coop_topology is not CoopTopology.NONE
            load_template(stage, workload.locale, coop)
        configs = run_configs(workload, plan_for(workload, bench_seed),
                              stub.url if stub else "")
    except BaseException:
        if stub is not None:
            stub.close()
        raise
    return Env(workload, configs, stub)


def measure_setup(args) -> float:
    """Median set-up time of fresh processes, from spawn to ready."""
    times = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", args.workload, "--seed", str(args.seed)],
            stdout=subprocess.PIPE, text=True,
        )
        try:
            line = proc.stdout.readline()
            times.append(time.perf_counter() - start)
        finally:
            proc.stdout.close()
            code = proc.wait(timeout=PROCESS_WAIT_S)
        if line.strip() != "ready" or code != 0:
            raise BenchError(f"set-up probe failed: exit {code}, said {line!r}")
    return statistics.median(times)


def capture_worlds(env: Env) -> None:
    """Keep each episode's final world for the checks.

    ``run_benchmark`` returns only the output directory, so the live
    worlds are taken from ``run_episode`` as it returns them. This costs
    one call per episode and is in place in untraced and traced rounds.
    """
    from bab import runner

    original = runner.run_episode

    def run_episode(config, seed, log_path=None):
        result = original(config, seed, log_path)
        env.worlds[Path(log_path).name] = result.world
        return result

    runner.run_episode = run_episode


@dataclass
class Round:
    suite_s: float
    audit_s: float
    audited: int  # turn records audited, over every audit pass
    failed: int  # episodes that raised, or failed through a known program fault
    decisions: int
    failed_decisions: int
    log_bytes: int
    problems: list[str]


def play_round(env: Env, out: Path, tracer: Tracer | None) -> Round:
    from bab import replay, runner  # looked up per call: the tracer may wrap them

    env.worlds.clear()
    served = env.stub.requests_served() if env.stub else 0
    if tracer is not None:
        tracer.install(STUB_DELAY_MS if env.stub else None)
    try:
        start = time.perf_counter()
        runner.run_benchmark(env.configs, out)
        suite_s = time.perf_counter() - start

        logs = sorted(out.glob("*.jsonl"))
        parsed = {path: checks.parse_log(path) for path in logs}
        complete = [path for path in logs if parsed[path][2] is not None]
        start = time.perf_counter()
        for _ in range(env.workload.audit_passes):
            audited = [(path, replay.replay_verify(path), replay.metrics_from_log(path))
                       for path in complete]
        audit_s = time.perf_counter() - start
    finally:
        if tracer is not None:
            tracer.uninstall()

    problems: list[str] = []
    rows = checks.csv_rows(out / "episodes.csv") if complete else {}
    decisions = failed_decisions = 0
    known_faults = 0
    for path, verdict, summary in audited:
        header, turns, end = parsed[path]
        world = env.worlds[path.name]
        decisions += len(turns)
        failed_decisions += sum(rec["error"] is not None for rec in turns)
        if not verdict.ok:
            if checks.agents_gone_early(turns[-1]["turn"], end["turns"], world):
                known_faults += 1
                continue
            problems.append(f"{path.name}: replay_verify failed at turn "
                            f"{verdict.divergence_turn}: {verdict.detail}")
        row = rows.get((header["stage_id"], header["model"], header["seed"]))
        problems += checks.check_episode(path, header, turns, end, world,
                                         summary, row, env.workload.remote)
    if len(rows) != len(complete):
        problems.append(f"episodes.csv has {len(rows)} rows for {len(complete)} episodes")
    if env.stub is not None:
        served = env.stub.requests_served() - served
        if served != decisions:
            problems.append(f"stub served {served} requests for {decisions} decisions")
    return Round(
        suite_s=suite_s,
        audit_s=audit_s,
        audited=decisions * env.workload.audit_passes,
        failed=sum(len(c.seeds) for c in env.configs) - len(complete) + known_faults,
        decisions=decisions,
        failed_decisions=failed_decisions,
        log_bytes=sum(path.stat().st_size for path in logs),
        problems=problems,
    )


def measure(env: Env, seconds: float, trace: bool) -> tuple[list[Round], list[Round], Tracer | None]:
    """Rounds until ``seconds`` have passed: (untraced, traced, tracer)."""
    OUT_ROOT.mkdir(exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(prefix=f"{env.workload.name}-", dir=OUT_ROOT))
    tracer = Tracer() if trace else None
    plain: list[Round] = []
    traced: list[Round] = []
    deadline = time.perf_counter() + seconds
    try:
        while True:
            out = run_dir / f"round{len(plain) + len(traced)}"
            tracing = trace and len(traced) < len(plain)
            done = play_round(env, out, tracer if tracing else None)
            shutil.rmtree(out)
            (traced if tracing else plain).append(done)
            print(f"round {len(plain) + len(traced) - 1}{' traced' if tracing else ''}: "
                  f"{done.decisions} decisions, suite {done.suite_s:.3f} s, "
                  f"audit {done.audit_s:.3f} s", file=sys.stderr)
            if done.problems:
                break
            if time.perf_counter() >= deadline and (not trace or traced):
                break
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    return plain, traced, tracer


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="bab end-to-end benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    # the stub is on loopback: never route it through a proxy
    os.environ["NO_PROXY"] = ",".join(
        filter(None, (os.environ.get("NO_PROXY"), "127.0.0.1", "localhost")))

    workload = WORKLOADS[args.workload]
    try:
        if args.setup_probe:
            set_up(workload, args.seed).close()
            print("ready", flush=True)
            return 0
        setup_s = None if args.trace else measure_setup(args)
        env = set_up(workload, args.seed)
        try:
            capture_worlds(env)
            plain, traced, tracer = measure(env, args.seconds, bool(args.trace))
        finally:
            env.close()
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2

    rounds = plain + traced
    attempted = sum(len(c.seeds) for c in env.configs) * len(rounds)
    failed = sum(r.failed for r in rounds)
    problems = [p for r in rounds for p in r.problems]
    decisions = sum(r.decisions for r in rounds)
    print(f"{workload.name}: {len(rounds)} rounds; episodes attempted {attempted}, "
          f"failed {failed}; decisions {decisions}, failed "
          f"{sum(r.failed_decisions for r in rounds)}")
    for problem in problems[:20]:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)

    if problems:
        named = {}  # measurements of wrong outputs mean nothing
    elif args.trace:
        def suite_s_per_decision(rs):
            return statistics.median(r.suite_s / r.decisions for r in rs)

        overhead = 100.0 * (suite_s_per_decision(traced) / suite_s_per_decision(plain) - 1)
        named = tracer.metrics(len(traced), workload.stages, workload.remote,
                               sum(r.log_bytes for r in traced), overhead)
    else:
        named = {
            "setup_s": (setup_s, "s"),
            # Pooled over the run's rounds, not a median of rounds: on a
            # shared host the CPU speed can flip between a fast and a slow
            # state every few seconds, and a median of rounds jumps with the
            # state that holds the majority, where the pooled rate averages.
            "decisions_per_s": (
                sum(r.decisions for r in plain) / sum(r.suite_s for r in plain), "1/s"),
            "audit_decisions_per_s": (
                sum(r.audited for r in plain) / sum(r.audit_s for r in plain), "1/s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in named.items()},
    }))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
