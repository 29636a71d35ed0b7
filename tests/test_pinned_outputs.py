"""Byte identity of the benchmark outputs.

The ``reduce`` and ``augment-large`` benchmark inputs for seed 0 are
rebuilt with ``perfbench/inputs.py`` and run through the package; the
sha256 digests of the inputs and of the ``serialize_pd`` outputs must
equal the ones pinned in ``perfbench/pinned.json``.  A change that alters
serialized output must say why and re-pin.  Nothing under ``perfbench/``
is written.

The face ids the CLI reports (``merges[].faces``, ``join_face``) are not
in ``serialize_pd``; ``AUGMENT_LARGE_REPORTS`` pins the whole
``AugmentationResult.to_json()`` of the seed-0 ``augment-large`` inputs.
A reduction can reach the same output through other moves, so
``REDUCE_TRACES`` pins the whole ``ReductionTrace.to_json()`` of the
seed-0 ``reduce`` inputs: each move's kind, crossings and twist count.
``CLI_BATCH_SVGS`` pins the bytes of ``render_svg``, which the CLI
writes for ``augment --emit-svg``, over the seed-0 ``cli-batch`` blocks.
``ANALYZE_REPORTS`` pins the whole ``analysis_report``, which the CLI
prints for ``analyze``, with the bigon ranks of each twist region.
"""

from __future__ import annotations

import json
from pathlib import Path

from altknot import analysis_report, augment, parse_pd, preprocess, render_svg, serialize_pd

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
SEED = 0
# digest (``inputs.digest``) of json.dumps(augment(d).to_json(),
# sort_keys=True) over the seed-0 augment-large inputs
AUGMENT_LARGE_REPORTS = "e8e233bd31aa683823f091718a1f798cf0b366df9a0f987287169c7a74ade6ea"
# digest of json.dumps(preprocess(d)[1].to_json(), sort_keys=True) over
# the seed-0 reduce inputs
REDUCE_TRACES = "55d74af0dc8d2e1fa95a83f8a7a2e46345e74ecd52c689ccd8dc379747d9d859"
# digest of render_svg over the input and the augment output of every
# eligible block of the seed-0 cli-batch files, in file order
CLI_BATCH_SVGS = "f8cddb53390f8d4ef3db0d8e360f5d20ba5f767d4392610fd22d2ee9b209fd26"
# digest of json.dumps(analysis_report(d), sort_keys=True) over the
# seed-0 reduce inputs, then every block of the seed-0 cli-batch files
# in file order
ANALYZE_REPORTS = "300243b321aab4fd117a69630eb8194923bd4d2ee32081a45876c4f8aa9ac8f1"


def _pins(workload: str) -> dict:
    return json.loads((PERFBENCH / "pinned.json").read_text())[workload][str(SEED)]


def test_reduce_outputs_match_pins(bench_inputs):
    items = bench_inputs.reduce_inputs(SEED, n=48, lo=30, hi=80)
    pins = _pins("reduce")
    assert bench_inputs.digest(x.pd for x in items) == pins["inputs"]
    outs = [serialize_pd(preprocess(parse_pd(x.pd))[0]) for x in items]
    assert bench_inputs.digest(outs) == pins["outputs"]


def test_reduce_traces_match_pin(bench_inputs):
    items = bench_inputs.reduce_inputs(SEED, n=48, lo=30, hi=80)
    traces = [json.dumps(preprocess(parse_pd(x.pd))[1].to_json(), sort_keys=True) for x in items]
    assert bench_inputs.digest(traces) == REDUCE_TRACES


def test_augment_large_outputs_match_pins(bench_inputs):
    items = bench_inputs.large_inputs(SEED, n=64, lo=50, hi=110)
    pins = _pins("augment-large")
    assert bench_inputs.digest(x.pd for x in items) == pins["inputs"]
    outs = [serialize_pd(augment(parse_pd(x.pd)).g) for x in items]
    assert bench_inputs.digest(outs) == pins["outputs"]


def test_augment_large_reports_match_pin(bench_inputs):
    items = bench_inputs.large_inputs(SEED, n=64, lo=50, hi=110)
    reports = [json.dumps(augment(parse_pd(x.pd)).to_json(), sort_keys=True) for x in items]
    assert bench_inputs.digest(reports) == AUGMENT_LARGE_REPORTS


def test_cli_batch_svgs_match_pin(bench_inputs):
    svgs = []
    for f in bench_inputs.batch_inputs(SEED, n_files=30, blocks=4):
        for block in f.blocks:
            if block.eligible:
                d = parse_pd(block.pd)
                svgs += [render_svg(d), render_svg(augment(d).g)]
    assert len(svgs) == 216
    assert bench_inputs.digest(svgs) == CLI_BATCH_SVGS


def test_analyze_reports_match_pin(bench_inputs):
    pds = [x.pd for x in bench_inputs.reduce_inputs(SEED, n=48, lo=30, hi=80)]
    for f in bench_inputs.batch_inputs(SEED, n_files=30, blocks=4):
        pds += [block.pd for block in f.blocks]
    assert len(pds) == 159
    reports = [json.dumps(analysis_report(parse_pd(pd)), sort_keys=True) for pd in pds]
    assert bench_inputs.digest(reports) == ANALYZE_REPORTS
