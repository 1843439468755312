"""Whole-log pins: the sha256 of complete replay logs.

Every stage in both locales, once with a random primary against greedy
references and once the other way round, seed 0, plus one ablation run
with cooperation off. A change anywhere in layout, rendering, parsing,
the local policies, turn resolution, cooperation routing, metrics or log
encoding changes one of these digests, so a refactor that keeps them
keeps behaviour.
"""

from __future__ import annotations

import hashlib

import pytest

from bab.agents import AgentSpec
from bab.runner import RunConfig, run_episode

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
        "1928c54ebc578f28a22fad771e767693d9cbf5df78fca3b02bddae8ad2b2f36e",
    (5, "en", "greedy-random", True):
        "bb5fae6d8f8c5b311655dd3c63d363556d60b40cdc5ecd40da8b1d9cbe7a4a35",
    (5, "zh", "random-greedy", True):
        "68f34aa2423ba21cba28f111d039011c8d6514cfa169c1157a11321682ef6a72",
    (5, "zh", "greedy-random", True):
        "c6ead6400ff707eb4f29c69a8665dc991fbb181c6f8f2449800dc92a5dd5c534",
    (6, "en", "random-greedy", True):
        "7591d21ec0d5e623fca16e82384e7698458b3166c9973e352f35b6922fd96a04",
    (6, "en", "greedy-random", True):
        "c240a5e7505cff72bfa4bb57117431e26f8972f9204617ecfd273ed057a818c4",
    (6, "zh", "random-greedy", True):
        "b9e96ada5e9cef270eedc55d2cee27008ff1eb1ae4c7916c1f4172af9cac2dbf",
    (6, "zh", "greedy-random", True):
        "850bfba9f654c0c9af4f975ce3a12f56e9b71741a071fd2a0cf2046c0e62dc20",
    (7, "en", "random-greedy", True):
        "b47c110e9de8ced9012823983c3a2dc327de9624f7fa94b06a6f3239b8fe471e",
    (7, "en", "greedy-random", True):
        "0e427cf808455898afc85a53146b21694945d3bd4e0d9983728b2d4d74b857c7",
    (7, "zh", "random-greedy", True):
        "06860ebfb3f281c78fc4a083e7afc915d0f9d46bd1079454ca0d45c4e1b11430",
    (7, "zh", "greedy-random", True):
        "6779c2cdf213c1f5683cbc889a276f8095a96ac3c39d27aa9028caea81bca4a3",
    (5, "en", "random-greedy", False):
        "9397acb4f65f81a0cbee525b0783b2247a09bf40fe5f76ae0c2176969771ff7a",
}


def log_sha256(tmp_path, stage_id: int, locale: str, pairing: str,
               coop_enabled: bool) -> str:
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
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("case", sorted(LOG_PINS), ids=lambda c: "-".join(map(str, c)))
def test_whole_log_pins(tmp_path, case):
    assert log_sha256(tmp_path, *case) == LOG_PINS[case]
