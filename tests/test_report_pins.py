"""Report pins: the sha256 of the files a suite's reports are written to.

One fixed suite, stages 1-7 with a random primary against greedy
references and the other way round, on seeds 0 and 1, is run once into a
directory. Its ``episodes.csv`` and ``summary.txt`` are pinned, and so
are the ``episodes.csv`` and the printed table that ``bab report DIR
--macc-denominator formatted`` gives for the same logs. A change to the
metrics, their rollup, the stage means or the report layout changes one
of these digests, so a refactor that keeps them keeps the reports.
"""

from __future__ import annotations

import csv
import hashlib
import io
from contextlib import redirect_stdout
from statistics import mean

import pytest

from bab.agents import AgentSpec
from bab.cli import EXIT_OK, main
from bab.runner import RunConfig, run_benchmark

SEEDS = [0, 1]

REPORT_PINS = {
    "run/episodes.csv":
        "69f60261ae3247d5cb77e681552c269fd252670f7fb1a242f658ddfd0ce2ba96",
    "run/summary.txt":
        "c538a38469f3e005dbcd7e250ff0fb125c1348bea93520484fb21860b1763acf",
    "formatted/episodes.csv":
        "363c236cde998a6adce35f1c1b121c67150d0930290a016bec54640ab6119d57",
    "formatted/printed":
        "6049a128aececdb2470cc44d375b9ae2661e28b4bdb19f2a684b9742bac13b50",
}


def sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.fixture(scope="module")
def reports(tmp_path_factory):
    """The digests and texts of the run's reports and of the formatted report."""
    out = tmp_path_factory.mktemp("reports")
    configs = [
        RunConfig(stage_id=stage, seeds=list(SEEDS), primary=AgentSpec(backend=primary),
                  reference=AgentSpec(backend=reference, role="secondary"))
        for stage in range(1, 8)
        for primary, reference in (("random", "greedy"), ("greedy", "random"))
    ]
    run_benchmark(configs, out)
    assert not (out / "failures.txt").exists()
    found = {f"run/{name}": sha((out / name).read_bytes())
             for name in ("episodes.csv", "summary.txt")}
    printed = io.StringIO()
    with redirect_stdout(printed):
        assert main(["report", str(out), "--macc-denominator", "formatted"]) == EXIT_OK
    found["formatted/episodes.csv"] = sha((out / "episodes.csv").read_bytes())
    found["formatted/printed"] = sha(printed.getvalue().encode("utf-8"))
    return {
        "digests": found,
        "printed": printed.getvalue(),
        "summary": (out / "summary.txt").read_text(encoding="utf-8"),
        "csv": (out / "episodes.csv").read_text(encoding="utf-8"),
    }


@pytest.mark.parametrize("name", sorted(REPORT_PINS))
def test_report_bytes_are_pinned(reports, name):
    assert reports["digests"][name] == REPORT_PINS[name]


def test_report_rewrites_the_summary_it_prints(reports):
    # a report under another M Acc denominator rewrites both files
    assert reports["summary"] == reports["printed"]
    rows = list(csv.DictReader(io.StringIO(reports["csv"])))
    m_accs: dict[tuple[str, str], list[float]] = {}
    for row in rows:
        if row["m_acc"]:
            m_accs.setdefault((row["model"], row["stage"]), []).append(float(row["m_acc"]))
    table = {}
    for line in reports["summary"].splitlines()[2:]:
        cells = line.split()
        if len(cells) == 8:
            table[(cells[0], cells[1])] = cells[5]
    assert table and set(m_accs) <= set(table)
    for key, column in table.items():
        expected = f"{mean(m_accs[key]):.2f}" if key in m_accs else "-"
        assert column == expected, key
