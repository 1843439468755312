from __future__ import annotations

import json

import pytest

from bab.cli import EXIT_CONFIG, EXIT_IO, EXIT_OK, EXIT_VERIFY_FAIL, main
from bab.replay import read_log


def run_cli(*argv) -> int:
    return main(list(argv))


def test_stages_command_prints_table(capsys):
    assert run_cli("stages") == EXIT_OK
    assert capsys.readouterr().out == (
        "stage turns agents teams bases npcs  goal\n"
        "    1    60      1     1     1    0  navigation\n"
        "    2    60      1     1     1   10  navigation\n"
        "    3    80      2     1     2   10  cooperative_task\n"
        "    4    80      2     2     2   10  competitive_task\n"
        "    5    80      4     2     2   10  static_coop\n"
        "    6    80      4     4     4   10  dynamic_coop\n"
        "    7    80      6     3     3   10  hybrid_coop\n"
    )


def test_run_report_verify_cycle(tmp_path, capsys):
    out_dir = tmp_path / "out"
    code = run_cli(
        "run", "--stage", "1", "--seed", "0", "--runs", "2",
        "--primary-model", "random:3", "--out", str(out_dir),
    )
    assert code == EXIT_OK
    logs = sorted(out_dir.glob("*.jsonl"))
    assert len(logs) == 2
    assert (out_dir / "episodes.csv").exists()
    assert (out_dir / "summary.txt").exists()
    capsys.readouterr()

    assert run_cli("report", str(out_dir)) == EXIT_OK
    assert "F Dis" in capsys.readouterr().out

    assert run_cli("verify", str(logs[0])) == EXIT_OK
    assert "PASS" in capsys.readouterr().out


def test_verify_flags_tampered_log(tmp_path, capsys):
    out_dir = tmp_path / "out"
    run_cli("run", "--stage", "1", "--seed", "5", "--runs", "1",
            "--primary-model", "random", "--out", str(out_dir))
    log = next(out_dir.glob("*.jsonl"))
    lines = log.read_text().splitlines()
    for i, line in enumerate(lines):
        record = json.loads(line)
        if record["kind"] == "turn" and record["action"]:
            record["action"] = (
                "#Move_up#" if record["action"] != "#Move_up#" else "#Move_down#"
            )
            lines[i] = json.dumps(record, sort_keys=True, separators=(",", ":"))
            break
    log.write_text("\n".join(lines) + "\n", encoding="utf-8")
    capsys.readouterr()
    assert run_cli("verify", str(log)) == EXIT_VERIFY_FAIL
    assert "FAIL" in capsys.readouterr().out


def test_seed_file_sets_run_count(tmp_path):
    seeds = tmp_path / "seeds.txt"
    seeds.write_text("3\n5\n8\n", encoding="utf-8")
    out_dir = tmp_path / "out"
    code = run_cli(
        "run", "--stage", "1", "--seeds", str(seeds),
        "--primary-model", "random", "--out", str(out_dir),
    )
    assert code == EXIT_OK
    names = {p.name for p in out_dir.glob("*.jsonl")}
    assert names == {
        "stage1_random_seed3.jsonl",
        "stage1_random_seed5.jsonl",
        "stage1_random_seed8.jsonl",
    }


def test_seed_outside_signed_64_bits_is_a_config_error(tmp_path, capsys):
    # the world hash packs the seed as a signed 64-bit integer
    seeds = tmp_path / "seeds.txt"
    seeds.write_text(f"3\n{-2**63 - 1}\n", encoding="utf-8")
    out_dir = tmp_path / "out"
    for source in (("--seed", str(2**63)), ("--seed", str(2**63 - 1), "--runs", "2"),
                   ("--seeds", str(seeds))):
        assert run_cli("run", "--stage", "1", *source, "--primary-model", "random",
                       "--out", str(out_dir)) == EXIT_CONFIG
        assert "config error" in capsys.readouterr().err
        assert not out_dir.exists()  # no episode ran
    for seed in (-2**63, 2**63 - 1):  # the ends of the range run and verify
        assert run_cli("run", "--stage", "1", "--seed", str(seed), "--runs", "1",
                       "--primary-model", "random", "--out", str(out_dir)) == EXIT_OK
        assert run_cli("verify", str(out_dir / f"stage1_random_seed{seed}.jsonl")) == EXIT_OK


def test_repeated_seed_is_a_config_error(tmp_path, capsys):
    # two episodes would write one log, and episodes.csv would count it twice
    seeds = tmp_path / "seeds.txt"
    seeds.write_text("0\n0\n", encoding="utf-8")
    out_dir = tmp_path / "out"
    assert run_cli("run", "--stage", "1", "--seeds", str(seeds), "--primary-model", "random",
                   "--out", str(out_dir)) == EXIT_CONFIG
    assert "stage1_random_seed0.jsonl" in capsys.readouterr().err
    assert not out_dir.exists()


def test_no_coop_flag_recorded(tmp_path):
    out_dir = tmp_path / "out"
    run_cli("run", "--stage", "5", "--seed", "1", "--runs", "1",
            "--primary-model", "random", "--no-coop", "--out", str(out_dir))
    log = next(out_dir.glob("*.jsonl"))
    header = json.loads(log.read_text().splitlines()[0])
    assert header["coop_enabled"] is False


def test_stage_config_flag(tmp_path):
    cfg = tmp_path / "stage.yaml"
    cfg.write_text("npcs: 0\nturns: 5\n", encoding="utf-8")
    out_dir = tmp_path / "out"
    code = run_cli(
        "run", "--stage", "2", "--seed", "0", "--runs", "1",
        "--primary-model", "random", "--stage-config", str(cfg),
        "--out", str(out_dir),
    )
    assert code == EXIT_OK
    header = json.loads(next(out_dir.glob("*.jsonl")).read_text().splitlines()[0])
    assert header["config"]["n_npcs"] == 0
    assert header["config"]["turn_cap"] == 5


def test_config_errors_exit_2(tmp_path, capsys):
    assert run_cli("run", "--stage", "1", "--runs", "0",
                   "--primary-model", "random",
                   "--out", str(tmp_path / "x")) == EXIT_CONFIG
    # remote model without a base URL
    assert run_cli("run", "--stage", "1", "--primary-model", "gpt-x",
                   "--out", str(tmp_path / "y")) == EXIT_CONFIG
    assert run_cli("report", str(tmp_path / "empty-missing")) == EXIT_CONFIG


@pytest.mark.parametrize("url", ["localhost:8080", "127.0.0.1:9/v1", "ftp://h/v1"])
def test_base_url_that_is_not_http_is_a_config_error(tmp_path, capsys, url):
    out_dir = tmp_path / "out"
    assert run_cli("run", "--stage", "1", "--runs", "1", "--primary-model", "m",
                   "--primary-url", url, "--out", str(out_dir)) == EXIT_CONFIG
    assert "not an http:// or https:// URL" in capsys.readouterr().err
    assert not out_dir.exists()  # no episode ran


def test_override_of_wrong_type_is_a_config_error(tmp_path, capsys):
    cfg = tmp_path / "stage.yaml"
    out_dir = tmp_path / "out"
    for stage, yaml_text in (
        ("2", "turns: ten\n"),                 # wrong type
        ("4", "npcs: -1\n"),                   # out of range
        ("5", "coop_topology: none\n"),        # cooperation stage: --no-coop is the switch
        ("4", "coop_topology: intra_team\n"),  # a stage without cooperation
        ("9", ""),                             # no such stage
        ("1", "turns: [\n"),                   # not YAML
    ):
        cfg.write_text(yaml_text, encoding="utf-8")
        assert run_cli("run", "--stage", stage, "--runs", "2", "--primary-model", "random",
                       "--stage-config", str(cfg), "--out", str(out_dir)) == EXIT_CONFIG
        assert "config error" in capsys.readouterr().err
        assert not out_dir.exists()  # no episode ran, no failures.txt


def test_team_over_the_spawn_offsets_is_a_config_error(tmp_path, capsys):
    # the cap depends on the config alone, so no seed is tried
    cfg = tmp_path / "stage.yaml"
    cfg.write_text("agents: 9\nteams: 1\n", encoding="utf-8")
    out_dir = tmp_path / "out"
    assert run_cli("run", "--stage", "3", "--runs", "2", "--stage-config", str(cfg),
                   "--out", str(out_dir)) == EXIT_CONFIG
    assert "too many agents for team 0: 9 (max 8 per team)" in capsys.readouterr().err
    assert not out_dir.exists()  # no log, no failures.txt


def test_seed_file_that_is_empty_or_missing(tmp_path, capsys):
    seeds = tmp_path / "seeds.txt"
    seeds.write_text("\n", encoding="utf-8")
    out_dir = tmp_path / "out"
    assert run_cli("run", "--stage", "1", "--seeds", str(seeds),
                   "--out", str(out_dir)) == EXIT_CONFIG
    assert "is empty" in capsys.readouterr().err
    assert run_cli("run", "--stage", "1", "--seeds", str(tmp_path / "missing.txt"),
                   "--out", str(out_dir)) == EXIT_IO
    assert "i/o error" in capsys.readouterr().err
    assert not out_dir.exists()


def test_canned_transcript_that_is_missing_is_a_config_error(tmp_path, capsys):
    out_dir = tmp_path / "out"
    assert run_cli("run", "--stage", "1", "--runs", "1", "--primary-model",
                   f"canned:{tmp_path / 'missing.jsonl'}", "--out", str(out_dir)) == EXIT_CONFIG
    assert "is not a file" in capsys.readouterr().err
    assert not out_dir.exists()  # no episode ran, no failures.txt


def test_empty_log_fails_verify(tmp_path, capsys):
    log = tmp_path / "empty.jsonl"
    log.write_text("", encoding="utf-8")
    assert run_cli("verify", str(log)) == EXIT_VERIFY_FAIL
    assert "missing header record" in capsys.readouterr().out


def test_report_of_only_incomplete_logs_is_a_config_error(tmp_path, capsys):
    out_dir = tmp_path / "out"
    assert run_cli("run", "--stage", "1", "--runs", "1", "--out", str(out_dir)) == EXIT_OK
    logs = tmp_path / "logs"
    logs.mkdir()
    (logs / "empty.jsonl").write_text("", encoding="utf-8")
    lines = next(out_dir.glob("*.jsonl")).read_text(encoding="utf-8").splitlines(True)
    (logs / "cut.jsonl").write_text("".join(lines[:-1]), encoding="utf-8")
    capsys.readouterr()
    assert run_cli("report", str(logs)) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "skipping cut.jsonl: log has no end record" in err
    assert "skipping empty.jsonl:" in err and "missing header record" in err
    assert "no complete episodes found" in err
    assert not (logs / "episodes.csv").exists()


@pytest.mark.parametrize("char", ["\u2028", "\u2029", "\u0085"])
def test_reply_with_a_unicode_line_break_runs_verifies_and_reports(tmp_path, capsys, char):
    # str.splitlines breaks at these characters, and both the log and a
    # transcript hold them raw inside a JSON string
    cfg = tmp_path / "stage.yaml"
    cfg.write_text("turns: 3\n", encoding="utf-8")
    reply = f"#Operation: #Move_up#{char}ok"
    transcript = tmp_path / "replies.jsonl"
    transcript.write_text((json.dumps(reply, ensure_ascii=False) + "\n") * 3, encoding="utf-8")
    out_dir = tmp_path / "out"
    assert run_cli("run", "--stage", "1", "--runs", "1", "--primary-model",
                   f"canned:{transcript}", "--stage-config", str(cfg),
                   "--out", str(out_dir)) == EXIT_OK
    log = next(out_dir.glob("*.jsonl"))
    assert char in log.read_text(encoding="utf-8")
    assert [r.reply for r in read_log(log).turns] == [reply] * 3
    capsys.readouterr()
    assert run_cli("verify", str(log)) == EXIT_OK
    assert "PASS" in capsys.readouterr().out
    assert run_cli("report", str(out_dir)) == EXIT_OK
    assert "skipping" not in capsys.readouterr().err


def test_accepted_topology_override_runs_verifies_and_reports(tmp_path, capsys):
    # stage 7 routes requests both ways by default; intra_team drops the
    # cross-team request that agent 1 (team 0) sends to agent 3 (team 1)
    cfg = tmp_path / "stage.yaml"
    cfg.write_text("coop_topology: intra_team\nturns: 3\n", encoding="utf-8")
    transcript = tmp_path / "replies.jsonl"
    reply = "#Attack operation: Target 3: #Shoot#\n#Cooperation operation: #Request_coop# 3: go"
    transcript.write_text((json.dumps(reply) + "\n") * 3, encoding="utf-8")
    out_dir = tmp_path / "out"
    assert run_cli("run", "--stage", "7", "--runs", "1", "--primary-model",
                   f"canned:{transcript}", "--stage-config", str(cfg),
                   "--out", str(out_dir)) == EXIT_OK
    log = next(out_dir.glob("*.jsonl"))
    coops = read_log(log).coops
    assert coops and {r.event for r in coops} == {"drop"}
    assert {r.reason for r in coops} == {"cross-team request in an intra-team stage"}
    assert run_cli("verify", str(log)) == EXIT_OK
    assert run_cli("report", str(out_dir)) == EXIT_OK
    assert "skipping" not in capsys.readouterr().err


def test_header_override_of_wrong_type_fails_verify(tmp_path, capsys):
    out_dir = tmp_path / "out"
    assert run_cli("run", "--stage", "1", "--runs", "1", "--primary-model", "random",
                   "--out", str(out_dir)) == EXIT_OK
    log = next(out_dir.glob("*.jsonl"))
    lines = log.read_text(encoding="utf-8").splitlines()
    for overrides in ({"turns": "ten"}, None, {"npcs": -1}, {"coop_topology": "bogus"},
                      {"goal": "nope"}, {"goal": "navigation"},
                      {"coop_topology": "intra_team"}):
        header = json.loads(lines[0])
        header["overrides"] = overrides
        log.write_text("\n".join([json.dumps(header)] + lines[1:]) + "\n", encoding="utf-8")
        capsys.readouterr()

        assert run_cli("verify", str(log)) == EXIT_VERIFY_FAIL, overrides
        assert capsys.readouterr().out.startswith("FAIL:")
        assert run_cli("report", str(out_dir)) == EXIT_CONFIG, overrides
        assert f"skipping {log.name}:" in capsys.readouterr().err


def test_zh_locale_run(tmp_path):
    out_dir = tmp_path / "out"
    code = run_cli("run", "--stage", "1", "--seed", "0", "--runs", "1",
                   "--primary-model", "random", "--locale", "zh",
                   "--out", str(out_dir))
    assert code == EXIT_OK
    header = json.loads(next(out_dir.glob("*.jsonl")).read_text().splitlines()[0])
    assert header["locale"] == "zh"


def test_macc_denominator_flag(tmp_path):
    out_dir = tmp_path / "out"
    code = run_cli("run", "--stage", "1", "--seed", "0", "--runs", "1",
                   "--primary-model", "random",
                   "--macc-denominator", "formatted", "--out", str(out_dir))
    assert code == EXIT_OK
    header = json.loads(next(out_dir.glob("*.jsonl")).read_text().splitlines()[0])
    assert header["macc_denominator"] == "formatted"


def test_turn_line_missing_agent_fails_verify_and_is_skipped_by_report(tmp_path, capsys):
    out_dir = tmp_path / "out"
    assert run_cli("run", "--stage", "1", "--seed", "0", "--runs", "2",
                   "--primary-model", "random", "--out", str(out_dir)) == EXIT_OK
    bad = min(out_dir.glob("*.jsonl"))  # seed 0; seed 1 stays good
    lines = bad.read_text(encoding="utf-8").splitlines()
    record = json.loads(lines[1])
    del record["agent"]
    lines[1] = json.dumps(record, sort_keys=True, separators=(",", ":"))
    bad.write_text("\n".join(lines) + "\n", encoding="utf-8")
    capsys.readouterr()

    assert run_cli("verify", str(bad)) == EXIT_VERIFY_FAIL
    assert capsys.readouterr().out.startswith("FAIL:")

    assert run_cli("report", str(out_dir)) == EXIT_OK
    captured = capsys.readouterr()
    assert f"skipping {bad.name}" in captured.err
    assert "F Dis" in captured.out
    csv_lines = (out_dir / "episodes.csv").read_text(encoding="utf-8").splitlines()
    assert len(csv_lines) == 2 and csv_lines[1].startswith("1,random,1,")


def test_header_missing_keys_fails_verify_and_is_skipped_by_report(tmp_path, capsys):
    out_dir = tmp_path / "out"
    assert run_cli("run", "--stage", "1", "--seed", "0", "--runs", "1",
                   "--primary-model", "random", "--out", str(out_dir)) == EXIT_OK
    bad = out_dir / "bare.jsonl"
    bad.write_text('{"kind":"header","seed":0}\n'
                   '{"kind":"end","reason":"turn_cap","turns":0,"world_hash":""}\n',
                   encoding="utf-8")
    capsys.readouterr()

    assert run_cli("verify", str(bad)) == EXIT_VERIFY_FAIL
    assert capsys.readouterr().out.startswith("FAIL:")

    assert run_cli("report", str(out_dir)) == EXIT_OK
    captured = capsys.readouterr()
    assert f"skipping {bad.name}" in captured.err
    assert "F Dis" in captured.out


def test_header_unusable_by_metrics_is_skipped_by_report(tmp_path, capsys):
    """A header that names no target for an agent, or no primary agent
    that played, fails verify and costs that log alone in a report."""
    out_dir = tmp_path / "out"
    assert run_cli("run", "--stage", "1", "--seed", "0", "--runs", "2",
                   "--primary-model", "random", "--out", str(out_dir)) == EXIT_OK
    bad = min(out_dir.glob("*.jsonl"))  # seed 0; seed 1 stays good
    lines = bad.read_text(encoding="utf-8").splitlines()
    for key, value in (("targets", {}), ("primary_ids", [99])):
        header = json.loads(lines[0])
        header[key] = value
        bad.write_text("\n".join([json.dumps(header)] + lines[1:]) + "\n", encoding="utf-8")
        capsys.readouterr()

        assert run_cli("verify", str(bad)) == EXIT_VERIFY_FAIL, key
        assert capsys.readouterr().out.startswith("FAIL:")
        assert run_cli("report", str(out_dir)) == EXIT_OK, key
        captured = capsys.readouterr()
        assert f"skipping {bad.name}" in captured.err
        rows = (out_dir / "episodes.csv").read_text(encoding="utf-8").splitlines()
        assert len(rows) == 2  # the header row and the good log
        assert rows[1].startswith("1,random,1,")


def test_bare_end_record_fails_verify_and_is_skipped_by_report(tmp_path, capsys):
    out_dir = tmp_path / "out"
    assert run_cli("run", "--stage", "1", "--seed", "0", "--runs", "1",
                   "--primary-model", "random", "--out", str(out_dir)) == EXIT_OK
    good = next(out_dir.glob("*.jsonl"))
    lines = good.read_text(encoding="utf-8").splitlines()
    bad = out_dir / "bare_end.jsonl"
    bad.write_text("\n".join(lines[:-1] + ['{"kind":"end"}']) + "\n", encoding="utf-8")
    capsys.readouterr()

    assert run_cli("verify", str(bad)) == EXIT_VERIFY_FAIL
    assert capsys.readouterr().out.startswith("FAIL:")

    assert run_cli("report", str(out_dir)) == EXIT_OK
    captured = capsys.readouterr()
    assert f"skipping {bad.name}" in captured.err
    assert "F Dis" in captured.out
    assert len((out_dir / "episodes.csv").read_text().splitlines()) == 2  # the good log


def _set(key, value):
    return lambda record: record.update({key: value})


def _shift_first_tank(header):
    header["layout"]["tanks"][0]["pos"][0] += 32


def _turn_lines_twice(lines):
    return [copy for line in lines
            for copy in [line] * (2 if json.loads(line)["kind"] == "turn" else 1)]


# (line kind, edit): one value of a stage-4 log, edited in place; for kind
# "log", the edit takes and returns the log's lines, out of written order
TAMPERS = {
    "turn-turn-list": ("turn", _set("turn", [0])),
    "turn-agent-str": ("turn", _set("agent", "1")),
    "turn-score-delta-str": ("turn", _set("score_delta", "0")),
    "turn-format-ok-str": ("turn", _set("format_ok", "yes")),
    "header-seed-str": ("header", _set("seed", "0")),
    "header-targets-list": ("header", _set("targets", [])),
    "header-primary-ids-int": ("header", _set("primary_ids", 5)),
    "header-coop-enabled-str": ("header", _set("coop_enabled", "no")),
    "header-primary-ids-extra": ("header", _set("primary_ids", [1, 99])),
    "header-config-turn-cap": ("header", lambda h: h["config"].update(turn_cap=81)),
    "header-layout-tank-pos": ("header", _shift_first_tank),
    "header-targets-extra": ("header", lambda h: h["targets"].update({"99": [0, 0]})),
    "header-agents-key": ("header", lambda h: h["agents"].update({"x": {}})),
    "header-agents-renumbered": ("header", lambda h: h.update(
        agents={"99": next(iter(h["agents"].values()))})),
    "end-turns-str": ("end", lambda end: end.update(turns=str(end["turns"]))),
    "header-version-2": ("header", _set("version", 2)),
    "not-utf8": (None, None),
    # a key that names no field of the line's record
    "header-unknown-key": ("header", _set("bonus", 5)),
    "turn-unknown-key": ("turn", _set("bonus", 5)),
    "end-unknown-key": ("end", _set("bonus", 5)),
    # a value nested in the end line's metrics
    "end-metrics-unknown-key": ("end", lambda end: end["metrics"].update(bonus=5)),
    "end-metrics-score-str": ("end", lambda end: end["metrics"].update(score="6")),
    "end-metrics-missing-f-dis": ("end", lambda end: end["metrics"].pop("f_dis")),
    "log-turn-lines-twice": ("log", _turn_lines_twice),
    "log-end-before-turns": ("log", lambda lines: [lines[0], lines[-1], *lines[1:-1]]),
    "log-header-twice": ("log", lambda lines: [*lines, lines[0]]),
    "log-line-after-end": ("log", lambda lines: [*lines[:-2], lines[-1], lines[-2]]),
    # a coop line whose sender is not an id; stage-4 logs carry no coop lines
    "log-coop-from-str": ("log", lambda lines: [
        lines[0], '{"kind":"coop","turn":0,"event":"keep","from":"1"}', *lines[1:]]),
    # a value nested in a turn line
    "turn-action-unknown": ("turn", _set("action", "#Fly#")),
    "turn-outcome-unknown-key": ("turn", lambda turn: turn["outcome"].update(bonus=5)),
    "turn-outcome-result-int": ("turn", lambda turn: turn["outcome"].update(result=1)),
    "turn-coop-kind-unknown": ("turn", _set("coop", {"kind": "maybe_coop"})),
}


@pytest.fixture(scope="module")
def stage4_logs(tmp_path_factory):
    out_dir = tmp_path_factory.mktemp("stage4")
    assert main(["run", "--stage", "4", "--seed", "0", "--runs", "2",
                 "--primary-model", "random", "--out", str(out_dir)]) == EXIT_OK
    return sorted(out_dir.glob("*.jsonl"))  # seeds 0 and 1


@pytest.mark.parametrize("case", sorted(TAMPERS))
def test_tampered_log_fails_verify_and_is_skipped_by_report(tmp_path, capsys, stage4_logs,
                                                            case):
    """One bad value anywhere in a log fails ``bab verify`` cleanly, and a
    report skips that log and scores the good one."""
    source, good = stage4_logs
    kind, edit = TAMPERS[case]
    bad = tmp_path / source.name
    if kind is None:
        bad.write_bytes(b"\xff" + source.read_bytes())
    else:
        lines = source.read_text(encoding="utf-8").splitlines()
        if kind == "log":
            lines = edit(lines)
        else:
            i = next(i for i, line in enumerate(lines) if json.loads(line)["kind"] == kind)
            record = json.loads(lines[i])
            edit(record)
            lines[i] = json.dumps(record, sort_keys=True, separators=(",", ":"))
        bad.write_text("\n".join(lines) + "\n", encoding="utf-8")
    (tmp_path / good.name).write_bytes(good.read_bytes())
    capsys.readouterr()

    assert run_cli("verify", str(bad)) == EXIT_VERIFY_FAIL
    assert "FAIL" in capsys.readouterr().out

    assert run_cli("report", str(tmp_path)) == EXIT_OK
    assert f"skipping {bad.name}" in capsys.readouterr().err
    rows = (tmp_path / "episodes.csv").read_text(encoding="utf-8").splitlines()
    assert len(rows) == 2 and rows[1].startswith("4,random,1,")  # the good log
