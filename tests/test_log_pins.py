"""Whole-log pins: the sha256 of complete replay logs.

Every stage in both locales, once with a random primary against greedy
references and once the other way round, seed 0, plus ablation runs with
cooperation off (stage 5 in both locales, stage 7 in Chinese), plus one
stage-3 log of canned request -> accept -> stop replies, the only pin
whose log carries coop lines. A change
anywhere in layout, rendering, parsing, the local policies, turn
resolution, cooperation routing, metrics or log encoding changes one of
these digests, so a refactor that keeps them keeps behaviour. Every
line of every pinned log, header, turn, coop and end alike, must also
decode to the record that ``replay.RECORDS`` names for its kind, which
``ReplayWriter`` writes back byte-identically, and every pinned log must
pass ``replay_verify``.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from bab.agents import AgentSpec
from bab.replay import RECORDS, ReplayWriter, read_log, replay_verify
from bab.runner import RunConfig, run_episode
from bab.stages import StageOverrides
from bab.types import decode

PAIRINGS = {
    "random-greedy": ("random", "greedy"),
    "greedy-random": ("greedy", "random"),
}

# (stage, locale, pairing, coop_enabled) -> sha256 of the log file
LOG_PINS = {
    (1, "en", "random-greedy", True):
        "d616956c399ec2ce6e97ef080efcec289a11e9b5def088f0a6a47fa29dcb2754",
    (1, "en", "greedy-random", True):
        "e91a0fb98b87fc00b4d3f5a5793f04902bd3d681fdc0e5d1fd8358cb64c9121d",
    (1, "zh", "random-greedy", True):
        "fe795ebe3a9ff8b4a936536daaeb477778b8f1d50b053c157bab76660e3c547a",
    (1, "zh", "greedy-random", True):
        "ee950d59b74ca159f73451039e50d34e3b70f350369061444ed06cbf136ef69f",
    (2, "en", "random-greedy", True):
        "faecf343fe4ba6a538cd21bff6976418669bf28fa00c95e04c5e341612857d57",
    (2, "en", "greedy-random", True):
        "5a2c0793d1b601743161f90c165ebeb7b91cf347c17e628af94c7352de95cd66",
    (2, "zh", "random-greedy", True):
        "90ce153ab2d62e2573bfaa83e01d3b4d00483ee344814d7f32ed08af323bb952",
    (2, "zh", "greedy-random", True):
        "d8a7268075e2295bbe175840a645b71605135ceef4f7809a9d68b257fbb8ebd0",
    (3, "en", "random-greedy", True):
        "244e4338f7f9e066ad61fd7106aa6dff402bd6e302437c86f8954a0742bd3c1e",
    (3, "en", "greedy-random", True):
        "28480e8a72917be11c9415ee28da4072a5d297aacac3187547fae5973c76b5bc",
    (3, "zh", "random-greedy", True):
        "b0f3b3df7633cf8e1c2c637401d5b9daf2f7a9a275cc7a3acd85fd822e2191e8",
    (3, "zh", "greedy-random", True):
        "bed8c2270f4d5e3c9dd548c7ec675eba384972f2df01bfd45102c13d4e2a4dde",
    (4, "en", "random-greedy", True):
        "42da891da99cef25448542c7a397acf3465fdccebd96f03b9469df02cf297862",
    (4, "en", "greedy-random", True):
        "685c2980391fea080beb4914cc530b098388a6e35d2167c1ed089bf5753ac5af",
    (4, "zh", "random-greedy", True):
        "733e47084c2df29b5b1061ef89ce7ea2a178497e1cf6840ef6d396f2a8f1b4a9",
    (4, "zh", "greedy-random", True):
        "24812a927edd65911b6e32c132c497d368fc0c62c5b3dcf92179b2957bff7c0d",
    (5, "en", "random-greedy", True):
        "2066a097f867b995409aefdf56bd2e7551366c1fadcbff2481fa06513fa30766",
    (5, "en", "greedy-random", True):
        "bb5fae6d8f8c5b311655dd3c63d363556d60b40cdc5ecd40da8b1d9cbe7a4a35",
    (5, "zh", "random-greedy", True):
        "db6a75e2dc35dc16d98514421c9872e27a96d79f1ba479a8219cf2d27e75420e",
    (5, "zh", "greedy-random", True):
        "c6ead6400ff707eb4f29c69a8665dc991fbb181c6f8f2449800dc92a5dd5c534",
    (6, "en", "random-greedy", True):
        "b80800c7becccb6d9dd10a211af7fcf2ae54d5959419b8e0a40b2dcef97998cf",
    (6, "en", "greedy-random", True):
        "c240a5e7505cff72bfa4bb57117431e26f8972f9204617ecfd273ed057a818c4",
    (6, "zh", "random-greedy", True):
        "c7188194d35f6d09a549fbbfe88ce81da44c15a29e4e06751d5c0869fd49d786",
    (6, "zh", "greedy-random", True):
        "850bfba9f654c0c9af4f975ce3a12f56e9b71741a071fd2a0cf2046c0e62dc20",
    (7, "en", "random-greedy", True):
        "e3bc3f92bd3c35018af226f21e236a942a55f593e18ce672b315f61f0c6d097a",
    (7, "en", "greedy-random", True):
        "0e427cf808455898afc85a53146b21694945d3bd4e0d9983728b2d4d74b857c7",
    (7, "zh", "random-greedy", True):
        "3740741dd299310f4431a333816c086efd4be606113d404efb2b835b3a23297d",
    (7, "zh", "greedy-random", True):
        "6779c2cdf213c1f5683cbc889a276f8095a96ac3c39d27aa9028caea81bca4a3",
    (5, "en", "random-greedy", False):
        "c3705fb8af01f89e1c6e480d10652d56d43f5e4aa55a1e59d4038347bed1038b",
    (5, "zh", "random-greedy", False):
        "93361485ba6b60475fff67eeee14a3926d382a77c094612659e9c61b5894b0a5",
    (7, "zh", "random-greedy", False):
        "a4ad7b36c2fbe48a6c470f8f78902ef18613b7cc625386ba30168af91b52cb95",
}


def run_pinned(tmp_path, stage_id: int, locale: str, pairing: str,
               coop_enabled: bool) -> Path:
    primary, reference = PAIRINGS[pairing]
    config = RunConfig(
        stage_id=stage_id,
        seeds=[0],
        primary=AgentSpec(backend=primary, role="primary", seed=1),
        reference=AgentSpec(backend=reference, role="reference", seed=2),
        coop_enabled=coop_enabled,
        locale=locale,
    )
    path = tmp_path / "episode.jsonl"
    run_episode(config, 0, path)
    return path


def assert_lines_round_trip(path: Path) -> None:
    """Every line decodes to its kind's record, which the writer's method
    for that kind writes back as the same bytes."""
    copy = ReplayWriter(path.with_name("copy.jsonl"))
    for line in path.read_text(encoding="utf-8").splitlines():
        record = json.loads(line)
        kind = record.pop("kind")
        getattr(copy, f"write_{kind}")(decode(RECORDS[kind], record))
    copy.close()
    assert copy.path.read_bytes() == path.read_bytes()


@pytest.mark.parametrize("case", sorted(LOG_PINS), ids=lambda c: "-".join(map(str, c)))
def test_whole_log_pins(tmp_path, case):
    path = run_pinned(tmp_path, *case)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == LOG_PINS[case]
    assert_lines_round_trip(path)
    assert replay_verify(path).ok


COOP_REPLIES = [
    "#Attack operation: Target 3: #Shoot#\n"
    "#Cooperation operation: #Request_coop# 2: push together",
    "#Attack operation: Target 3: #Move_up#\n#Cooperation operation: #Keep_coop#",
    "#Attack operation: Target 3: #Shoot#\n#Cooperation operation: #Stop_coop#",
] + ["#Attack operation: Target 3: #Shoot#\n#Cooperation operation: #No_coop#"] * 40

COOP_LOG_PIN = "e7450cdb6493ef910c1f440978eb382ef96fe186e1a524867a2131f78d62d317"


def test_coop_log_pin(tmp_path, monkeypatch):
    # the header names the transcript by its path, so keep it relative
    monkeypatch.chdir(tmp_path)
    Path("replies.jsonl").write_text(
        "\n".join(json.dumps(r) for r in COOP_REPLIES), encoding="utf-8")
    config = RunConfig(
        stage_id=3,
        seeds=[2],
        primary=AgentSpec(backend="canned", transcript_path="replies.jsonl"),
        reference=AgentSpec(backend="random", seed=5),
        overrides=StageOverrides(turns=12),
    )
    path = tmp_path / "coop.jsonl"
    run_episode(config, 2, path)
    assert {c.event for c in read_log(path).coops} >= {"request", "accept", "stop"}
    assert hashlib.sha256(path.read_bytes()).hexdigest() == COOP_LOG_PIN
    assert_lines_round_trip(path)
    assert replay_verify(path).ok
