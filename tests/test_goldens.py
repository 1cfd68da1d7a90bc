"""Golden outputs at the n=5000 reference point.

The expected hashes are the ones the benchmark recorded in
perfbench/goldens.json; this module only reads them. Pipeline seed 0
clears every weighting stage, so it covers the distinguishing pass;
seed 1 stops at tuning. Seeds 19 (stops at tuning) and 22 (clears every
weighting stage) draw two partitions, so they show that nothing of a
rejected Las Vegas attempt leaks into the accepted one. The reference
graph itself is pinned by its edge digest. The benchmark's goldens hold
no digest of the modification arrays, so those of the two weighted
seeds are pinned here.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from irrstrength import PipelineParams, generate_random_regular, run_pipeline

GOLDENS = Path(__file__).resolve().parents[1] / "perfbench" / "goldens.json"


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.fixture(scope="module")
def reference_graph():
    return generate_random_regular(5000, 1242, seed=424242)


def test_reference_graph_is_pinned(reference_graph):
    # a different digest means seed 424242 names another graph, and every
    # golden below would be checked against it
    digest = sha256(reference_graph.edges.tobytes())
    assert digest == "996b56562fc87e9c3abf2265dc7e759260599dc9486c2ee399abbd12b0f7b2e3"


WEIGHTED = {"report", "weights", "sigma"}
MODIFICATIONS = {
    0: {
        "mod_count": "a8bce7a9a57321fdaa71401310fa428dda7a779ad1e41a30c2f235a839291dae",
        "last_mod_stage": "cc544cb7e7601a0112ad18260d4298023dfb627540cf0b1a7dfd41a748e4b96d",
    },
    22: {
        "mod_count": "05ae7285c7f359b80cf0d3083d4b9785775bccd3e2b120f345630e2b1bd076b2",
        "last_mod_stage": "2f50811c26e06800fe894a1c3a17b7f344c1d676dd0f3498385d982a0c1f1dd4",
    },
}


@pytest.mark.parametrize("seed, keys", [(0, WEIGHTED), (1, {"report"}), (19, {"report"}), (22, WEIGHTED)])
def test_pipeline_matches_goldens(reference_graph, seed, keys):
    want = json.loads(GOLDENS.read_text(encoding="utf-8"))["pipeline_5000"][str(seed)]
    assert set(want) == keys
    res = run_pipeline(reference_graph, PipelineParams(b=0.2, eps=0.05, mode="empirical"), seed=seed)
    got = {"report": sha256(res.to_text().encode("utf-8"))}
    if "weights" in want:
        want = {**want, **MODIFICATIONS[seed]}
        for name in ("weights", "sigma", "mod_count", "last_mod_stage"):
            got[name] = sha256(np.ascontiguousarray(getattr(res.state, name), dtype="<i8").tobytes())
    assert got == want
