"""Diagrams of 200-600 crossings, well past the property corpus.

The inputs are the benchmark's own generators (``perfbench/inputs.py``,
read-only) at larger sizes: reduced prime non-alternating closures for
``augment``, raw closures with nugatory and R2 moves for ``preprocess``.
Large inputs are where the merge loop meets many circles and fingers
whose first face borders the source circle more than once, and where
reduction runs long chains of moves.
"""

from __future__ import annotations

import json

from altknot import parse_pd, preprocess, serialize_pd, validate_diagram
from altknot.selfcheck import verify_augmentation

from conftest import (
    augment_recording_fingers,
    finger_base_verdicts,
    oracle_alternating_edges,
    oracle_bigon_faces,
    oracle_cut_vertices,
)

SEED = 0
# ``inputs.digest`` of json.dumps(augment(d).to_json(), sort_keys=True)
# over the augment inputs below; their fingers have first faces with
# more than one candidate base, so the pin fixes the base the
# construction picks
LARGE_REPORTS = "3d8fdac34f59721b4eacff55b14b3f214733651c9209b4bd2faca9f6c7807282"


def test_augment(bench_inputs, monkeypatch):
    diagrams = [parse_pd(x.pd) for x in bench_inputs.large_inputs(SEED, n=4, lo=200, hi=600)]
    results, arcs = augment_recording_fingers(monkeypatch, diagrams)
    for d, res in zip(diagrams, results):
        assert verify_augmentation(d, res) == []
    reports = [json.dumps(res.to_json(), sort_keys=True) for res in results]
    assert bench_inputs.digest(reports) == LARGE_REPORTS
    # every circle edge on a finger's first face is a good base, and
    # here some first faces have more than one
    verdicts = finger_base_verdicts(monkeypatch, arcs)
    assert len(verdicts) > len(arcs) > 0
    assert all(v == (True, []) for v in verdicts)


def test_preprocess(bench_inputs):
    for x in bench_inputs.reduce_inputs(SEED, n=4, lo=200, hi=600):
        out, trace = preprocess(parse_pd(x.pd))
        assert validate_diagram(out).valid, x.name
        assert oracle_cut_vertices(out) == [], x.name
        alternating = oracle_alternating_edges(serialize_pd(out))
        assert all(b <= alternating for b in oracle_bigon_faces(out)), x.name
        ts = [trace.t_before] + [step.t_after for step in trace.steps]
        assert all(a >= b for a, b in zip(ts, ts[1:])), x.name
