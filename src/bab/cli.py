"""Command-line interface.

Subcommands: ``run`` (play a stage over a seed list and emit logs plus
reports), ``report`` (recompute metrics from a directory of replay
logs, rewrite both of its reports, ``episodes.csv`` and
``summary.txt``, and print the summary), ``verify`` (re-simulate a log
and compare), and ``stages`` (print the built-in stage settings).

Exit codes: 0 success, 1 verification failure, 2 configuration error,
3 suite-level I/O failure.
"""

from __future__ import annotations

import argparse
import logging
import sys
from pathlib import Path

from .agents import AgentError, parse_model_name
from .metrics import DENOMINATOR_MODES, MetricsError, write_reports
from .prompts import LOCALES
from .replay import ReplayError, load_world, metrics_from_log, read_log, replay_verify
from .runner import RunConfig, run_benchmark
from .stages import (
    OVERRIDE_KEYS,
    STAGE_SETTINGS,
    StageLoadError,
    StageOverrides,
    check_seed,
    resolve_config,
)

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_CONFIG = 2
EXIT_IO = 3


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="bab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run one stage over a seed list")
    run.add_argument("--stage", type=int, required=True, help="stage id, 1..7")
    run.add_argument("--seed", type=int, default=0, help="first seed (default 0)")
    run.add_argument("--seeds", type=Path, help="file with one seed per line")
    run.add_argument("--runs", type=int, default=3, help="episodes to run (default 3)")
    run.add_argument("--primary-model", default="random",
                     help="model under test: remote name, or random[:SEED] | greedy | canned:PATH")
    run.add_argument("--primary-url", default="", help="primary chat endpoint base URL")
    run.add_argument("--ref-model", default="random",
                     help="reference model for secondary agents (same forms)")
    run.add_argument("--ref-url", default="", help="reference chat endpoint base URL")
    run.add_argument("--no-coop", action="store_true",
                     help="disable the cooperation interface (ablation)")
    run.add_argument("--locale", choices=LOCALES, default="en")
    run.add_argument("--macc-denominator", choices=DENOMINATOR_MODES, default="moves")
    run.add_argument("--stage-config", type=Path,
                     help=f"YAML file with stage overrides, keys: {', '.join(OVERRIDE_KEYS)};"
                          " coop_topology must fit the stage")
    run.add_argument("--out", type=Path, required=True, help="output directory")

    report = sub.add_parser("report", help="recompute metrics from replay logs")
    report.add_argument("dir", type=Path)
    report.add_argument("--macc-denominator", choices=DENOMINATOR_MODES)

    verify = sub.add_parser("verify", help="re-simulate a replay log and compare")
    verify.add_argument("log", type=Path)

    sub.add_parser("stages", help="print the stage settings defaults")
    return parser


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(message)s")
    args = build_parser().parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "report":
            return _cmd_report(args)
        if args.command == "verify":
            return _cmd_verify(args)
        return _cmd_stages()
    except (AgentError, StageLoadError, MetricsError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


def _resolve_seeds(args: argparse.Namespace) -> list[int]:
    """The run's seeds, each checked as ``load_stage`` checks it, so a
    seed the world hash cannot pack fails before any episode runs."""
    if args.seeds is not None:
        seeds = [int(line) for line in args.seeds.read_text(encoding="utf-8").split()]
        if not seeds:
            raise ValueError(f"seed file {args.seeds} is empty")
    elif args.runs < 1:
        raise ValueError("--runs must be >= 1")
    else:
        seeds = list(range(args.seed, args.seed + args.runs))
    for seed in seeds:
        check_seed(seed)
    return seeds


def _cmd_run(args: argparse.Namespace) -> int:
    seeds = _resolve_seeds(args)
    overrides = (
        StageOverrides.from_file(args.stage_config) if args.stage_config else None
    )
    resolve_config(args.stage, overrides)  # a refused config runs no episode
    config = RunConfig(
        stage_id=args.stage,
        seeds=seeds,
        primary=parse_model_name(args.primary_model, args.primary_url, "primary"),
        reference=parse_model_name(args.ref_model, args.ref_url, "secondary"),
        coop_enabled=not args.no_coop,
        locale=args.locale,
        macc_denominator=args.macc_denominator,
        overrides=overrides,
    )
    out = run_benchmark([config], args.out)
    summary = out / "summary.txt"
    if summary.exists():
        print(summary.read_text(encoding="utf-8"), end="")
    if (out / "failures.txt").exists():
        print(f"some episodes failed; see {out / 'failures.txt'}", file=sys.stderr)
        return EXIT_IO
    return EXIT_OK


def _cmd_report(args: argparse.Namespace) -> int:
    logs = sorted(args.dir.glob("*.jsonl"))
    if not logs:
        raise ValueError(f"no replay logs in {args.dir}")
    episodes = []
    for path in logs:
        try:
            log = read_log(path)
            load_world(log.header)  # a header that does not fit its stage is not scored
            episodes.append(metrics_from_log(log, args.macc_denominator))
        except (ReplayError, MetricsError) as exc:
            print(f"skipping {path.name}: {exc}", file=sys.stderr)
    if not episodes:
        raise ValueError("no complete episodes found")
    print(write_reports(episodes, args.dir), end="")
    return EXIT_OK


def _cmd_verify(args: argparse.Namespace) -> int:
    try:
        result = replay_verify(args.log)
    except ReplayError as exc:
        print(f"FAIL: {exc}")
        return EXIT_VERIFY_FAIL
    if result.ok:
        print("PASS")
        return EXIT_OK
    where = "footer" if result.divergence_turn is None else f"turn {result.divergence_turn}"
    print(f"FAIL at {where}: {result.detail}")
    return EXIT_VERIFY_FAIL


def _cmd_stages() -> int:
    print(f"{'stage':>5} {'turns':>5} {'agents':>6} {'teams':>5} {'bases':>5} "
          f"{'npcs':>4}  goal")
    for c in STAGE_SETTINGS.values():
        print(f"{c.stage_id:>5} {c.turn_cap:>5} {c.n_agents:>6} {c.n_teams:>5} "
              f"{c.n_bases:>5} {c.n_npcs:>4}  {c.goal.value}")
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
