"""Golden digests: the study path's values pinned in absolute terms.

Every other bit-identity test is relative (sharded == one-shot,
adaptive == one-shot, numba == reference).  A sampling-stream change
that is consistent everywhere passes all of them; this corpus does not.
Each entry is the sha256 of one :class:`ScenarioResult`'s value tensor
(float64, C order, shape prefixed) at ``trials=2``, ``workers=1``, for
every registry experiment's ``build_study`` and every study file in
``examples/``.  The committed corpus records the numpy version it was
computed under, because NEP 19 lets ``Generator`` streams change
between numpy releases.

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

from repro.experiments.registry import list_experiments
from repro.study import Study

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
