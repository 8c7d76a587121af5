"""Pinned canonical exports of the trimmed scenario configs.

The engine and offline regressions pin rows only, so a change to the
aggregates or the series would pass them. This pins the SHA-256 of
summary_to_json and summary_to_csv for every trimmed config of
test_harness.small_config at master seeds 0-2. For prediction the bp rows
and the *_bp aggregates are left out of DIGESTS, because the last digits of
BP's mse once moved with the BLAS thread count; BP_DIGESTS pins the whole
prediction summary, bp included, which gave the same bytes under one and
two OpenBLAS threads. A change meant to keep outputs byte-identical must
leave every digest in place.
"""

import hashlib
from dataclasses import replace

import pytest

from crspectrum.harness import run_scenario, summary_to_csv, summary_to_json
from test_harness import small_config

# (scenario, seed) -> (json sha256, csv sha256)
DIGESTS = {
    ("prediction", 0): ("298729d16212bf05d4b5b5d37e9d2e79caf6d6c542b0b54e342a56094eb54857", "840366ee7ec1b6020a8451dbf1b3373654ba292002b221ae4ee68bfc979f6f41"),
    ("prediction", 1): ("a39571e8482e664fde9efefdc40812c6cbf54f169f596fa772c7a3412a93bccf", "d361d0e3998dd8a79cb4c0a573a13533c59ddace017e8dfad12fb290b0615186"),
    ("prediction", 2): ("13b2888b3ce9e70a437459ca9079c3c09ac5f8615d5a5a495d0d8ba3c019654e", "cb69cf23e9f2640392fec1df39acbe039de321b8175abea4a10b5a79facc40c9"),
    ("fusion", 0): ("2ed3e8c843969944a06ead7c0cac6467a955f7bfe3f26edf4bb710e4301ad238", "66eee4e6de24db57ef8e251f06ae15bebb1b24f88a10f611c11b2ceafce237a4"),
    ("fusion", 1): ("460b7540f7954994d6a8c4830e888796bcd5ab3467f54295a66afa6337cc44bd", "2891f6e7c13205c8b0b37fd5f3db77dddfc4e967023862adbeaa43a7cad58ae7"),
    ("fusion", 2): ("f8d8c1ee72563a90f4e75517828c19d92f16026037da553fc2f0e780a3664043", "2b401017fb8cfa129e4d2e36a65a220f88e47cf49dc6c244e99d812111c8e458"),
    ("recommendation", 0): ("def8d564aec38467a7c340a76a3f3719a2b633e7087fbf734647254a83258451", "bf5b05c88247cac426f351f79d2c567a9fc1f469526f3dfd1f9b0af58404ee1d"),
    ("recommendation", 1): ("e4cc8d41606c911f3bc6bdd5543861d301e114a481034fef459983143a4c24d7", "8e1474adfc8c28508ad1c13c7736fd5f6b491fcbe1f882463738dc6ca399d085"),
    ("recommendation", 2): ("8786e1ee8a916a620eded7824b419b138a828b4603f7bd995ee3ec5b7bc3928f", "d533e5b9c8ec9f548b4b8a19b12799b5c0bb4fa4fd713911c4deeeb024cfed68"),
    ("decision-1", 0): ("a408441064fa76e6010302b98942b517b7babaca01ebbb1aea0589604fd342e4", "35ee44728861c7e2a9053b5a8efc82b2b23a989803bc9bbf24494cef8b4f84a1"),
    ("decision-1", 1): ("c5f3b563f2a8031d6704884eabd283b82de7593ff041de88df9ded5c95ed1335", "665a568fe4fa0f42e8f89a61b27b27d6d8c35898a8e5e0b263a789f353034e95"),
    ("decision-1", 2): ("ef216a3585b0a2af02c80613c2665efd17085a39f8ff8a5e3aacaa249a35bb1b", "5ab29f95bffda3271a289ad73adec770949e7094c967e82bebbfb7f8f5eeb344"),
    ("decision-2", 0): ("942208c12f5935e0436d9cc6df7b973ebf8b1b8ff496a6965865b79eee7b4496", "8c0ff32585e377ae08036fe055e503cee775c43ac90faba8440075b6f60bb8cd"),
    ("decision-2", 1): ("3b3876bf2d314a98ef1d29b6b46257b5a7a29cf64085543c9b373dccfea11c0c", "623c7b292c12e21774cd5181fec78029b7d7e1dba632cdf744e510bc0f0cc995"),
    ("decision-2", 2): ("300fc4916def6586714852aa4e41319ebdeec354b75a6726b15d6b5dc73e1c27", "9e81ed49e721d81c491d210948290cd13612436f6a16073a2db92f843b75c46c"),
}

# prediction seed -> (json sha256, csv sha256), bp rows and aggregates included
BP_DIGESTS = {
    0: ("9902d6d602bd95af99f4c6d3da946a783cc893e513d1f94fa7f2d933996f0cd3", "c959d316eca2aa3075ebab9b44d8296104d4c639b9cfc0bf32ce11e85e332659"),
    1: ("c14c46fe767706338c36d7aaea219486fb30821389174a2101961fdc67b527d1", "93a3bfbbb17f567c5f1c78a30688d5e2d6b8d191b4290c6d38cb1cd28240b395"),
    2: ("13100c900bb251e5a3cff116d508cc254a87c8b81f8a3490884d2b6e97471999", "e3f052df356e667ffb06cf99e55875403edc129b74d8be707fbfc4ee0adcf74c"),
}


def _digests(summary):
    return tuple(
        hashlib.sha256(text.encode()).hexdigest()
        for text in (summary_to_json(summary), summary_to_csv(summary))
    )


def _without_bp(summary):
    return replace(
        summary,
        rows=[r for r in summary.rows if r["method"] != "bp"],
        aggregates={
            k: v for k, v in summary.aggregates.items() if not k.endswith("_bp")
        },
    )


@pytest.mark.parametrize("scenario,seed", sorted(DIGESTS))
def test_exports_match_recorded_digests(scenario, seed):
    summary = run_scenario(small_config(scenario, seed=seed))
    if scenario == "prediction":
        summary = _without_bp(summary)
    assert _digests(summary) == DIGESTS[(scenario, seed)]


@pytest.mark.parametrize("seed", sorted(BP_DIGESTS))
def test_prediction_exports_with_bp_match_recorded_digests(seed):
    summary = run_scenario(small_config("prediction", seed=seed))
    assert _digests(summary) == BP_DIGESTS[seed]
