"""Golden digests: the study path's values pinned in absolute terms.

Every other bit-identity test is relative (sharded == one-shot,
adaptive == one-shot, pooled == serial).  A sampling-stream change
that is consistent everywhere passes all of them; this corpus does not.
Each entry is the sha256 of one :class:`ScenarioResult`'s value tensor
(float64, C order, shape prefixed) at ``trials=2``, ``workers=1``, for
every registry experiment's ``build_study`` and every study file in
``examples/``, plus a small parametrized matrix crossing channel x
class mix x size grid x metric family.  The committed corpus records
the numpy version it was computed under, because NEP 19 lets
``Generator`` streams change between numpy releases.

The digests are never regenerated by the suite: a mismatch means the
sampling stream or a metric changed, and must be explained.
"""

from __future__ import annotations

import hashlib
import json
import pathlib
from typing import Dict, Iterator, Tuple

import numpy as np
import pytest

from repro.exceptions import ParameterError
from repro.experiments.registry import list_experiments
from repro.study import MetricSpec, Scenario, Study

HERE = pathlib.Path(__file__).resolve().parent
CORPUS = HERE / "golden_digests.json"
EXAMPLES = HERE.parent / "examples"
#: Example JSON files that are not studies.
NOT_STUDIES = ("chaos_spec.json",)
TRIALS = 2


def values_digest(values: np.ndarray) -> str:
    """sha256 over the shape and the float64 C-order bytes of *values*."""
    arr = np.ascontiguousarray(values, dtype=np.float64)
    h = hashlib.sha256(repr(arr.shape).encode())
    h.update(arr.tobytes())
    return h.hexdigest()


def corpus_studies() -> Iterator[Tuple[str, Study]]:
    """Every study the corpus covers, at ``TRIALS`` trials, by source."""
    for spec in list_experiments():
        if spec.build_study is not None:
            yield f"experiment:{spec.name}", spec.build_study(trials=TRIALS)
    for path in sorted(EXAMPLES.glob("*.json")):
        if path.name in NOT_STUDIES:
            continue
        study = Study.from_json(path.read_text())
        yield f"example:{path.name}", Study(
            tuple(s.with_trials(TRIALS) for s in study.scenarios)
        )


def compute_digests() -> Dict[str, str]:
    """``{"source/scenario": digest}`` for the whole corpus."""
    out: Dict[str, str] = {}
    for source, study in corpus_studies():
        for res in study.run(workers=1).results:
            out[f"{source}/{res.scenario.name}"] = values_digest(res.values)
    return out


@pytest.fixture(scope="module")
def committed() -> Dict[str, object]:
    return json.loads(CORPUS.read_text())


@pytest.fixture(scope="module")
def current() -> Dict[str, str]:
    return compute_digests()


def test_corpus_covers_every_study(committed, current):
    assert sorted(current) == sorted(committed["digests"])


def test_digests_match(committed, current):
    mismatches = [
        f"  {key}\n    committed {want} (numpy {committed['numpy']})\n"
        f"    current   {current.get(key)} (numpy {np.__version__})"
        for key, want in sorted(committed["digests"].items())
        if current.get(key) != want
    ]
    assert not mismatches, "golden digest mismatch:\n" + "\n".join(mismatches)


def test_digest_sees_shape_and_value():
    base = np.zeros((2, 3))
    assert values_digest(base) != values_digest(base.reshape(3, 2))
    bumped = base.copy()
    bumped[1, 2] = np.nextafter(0.0, 1.0)
    assert values_digest(base) != values_digest(bumped)
    assert values_digest(base) == values_digest(np.zeros((2, 3), dtype=np.float32))


# -- the scenario-shape matrix -------------------------------------------
#
# Small n, one cell per (channel, classes, grid, metric) combination.
# Combinations the validator rejects (a class mix needs the on/off
# channel) are pinned as ``ParameterError`` and carry no digest.

MATRIX_METRICS = {
    "connectivity": MetricSpec("connectivity"),
    "min_degree": MetricSpec("min_degree", k=2),
    "k_connectivity": MetricSpec("k_connectivity", k=2),
    "degree_count": MetricSpec("degree_count", h=1),
}


@pytest.fixture(params=["onoff", "disk"])
def matrix_channel(request):
    return request.param


@pytest.fixture(params=["none", "mix2"])
def matrix_classes(request):
    return request.param


@pytest.fixture(params=["plain", "sized"])
def matrix_grid(request):
    return request.param


@pytest.fixture(params=sorted(MATRIX_METRICS))
def matrix_metric(request):
    return request.param


def matrix_scenario(channel: str, classes: str, grid: str, metric: str) -> Scenario:
    """The matrix cell's scenario (raises ``ParameterError`` if invalid)."""
    mix = classes == "mix2"
    fields: Dict[str, object] = {
        "name": f"{channel}-{classes}-{grid}-{metric}",
        "pool_size": 300,
        "ring_sizes": [[10, 14], [14, 20]] if mix else [12, 16],
        "curves": [[1, 0.75], [2, 0.5]],
        "metrics": [MATRIX_METRICS[metric]],
        "trials": TRIALS,
        "seed": 1706,
        "channel": channel,
    }
    if grid == "sized":
        fields["num_nodes_grid"] = [30, 40]
    else:
        fields["num_nodes"] = 40
    if mix:
        fields["classes"] = {
            "mu": [0.4, 0.6],
            "channel_probs": [[0.9, 0.6], [0.6, 0.8]],
        }
    return Scenario(**fields)


def test_matrix_digest(
    committed, matrix_channel, matrix_classes, matrix_grid, matrix_metric
):
    key = f"{matrix_channel}-{matrix_classes}-{matrix_grid}-{matrix_metric}"
    if matrix_channel == "disk" and matrix_classes == "mix2":
        with pytest.raises(ParameterError, match="channel must be 'onoff'"):
            matrix_scenario(matrix_channel, matrix_classes, matrix_grid, matrix_metric)
        assert key not in committed["matrix"]
        return
    scenario = matrix_scenario(
        matrix_channel, matrix_classes, matrix_grid, matrix_metric
    )
    (res,) = Study((scenario,)).run(workers=1).results
    got = values_digest(res.values)
    want = committed["matrix"][key]
    assert got == want, (
        f"golden digest mismatch for {key}: committed {want} "
        f"(numpy {committed['numpy']}), current {got} (numpy {np.__version__})"
    )


def test_matrix_covers_every_valid_cell(committed):
    valid = {
        f"{c}-{k}-{g}-{m}"
        for c in ("onoff", "disk")
        for k in ("none", "mix2")
        for g in ("plain", "sized")
        for m in MATRIX_METRICS
        if not (c == "disk" and k == "mix2")
    }
    assert set(committed["matrix"]) == valid
