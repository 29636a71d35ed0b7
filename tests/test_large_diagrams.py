"""Diagrams of 200-1600 crossings, well past the property corpus.

The inputs are the benchmark's own generators (``perfbench/inputs.py``,
read-only) at larger sizes: reduced prime non-alternating closures for
``augment``, raw closures with nugatory and R2 moves for ``preprocess``.
Large inputs are where the merge loop meets many circles and fingers
whose first face borders the source circle more than once, and where
reduction runs long chains of moves.  The SVG embedding is checked
against the dense solve over every node, and its solve is sized.
"""

from __future__ import annotations

import json
import math
import random
from collections import Counter
from itertools import combinations

import pytest

from altknot import (
    analysis,
    augment,
    augmentation,
    build_cut_curves,
    classify_edges,
    face_set,
    find_merge_arc,
    overlay_unlink,
    parse_pd,
    reduction,
    render,
    render_svg,
    serialize_pd,
    validate_diagram,
)
from altknot.selfcheck import verify_augmentation

from conftest import (
    assert_overlay_matches_oracle,
    assert_positions_match_oracle,
    assert_preprocess_matches_oracle,
    augment_following_circle_faces,
    augment_recording_fingers,
    augment_recording_merge_arcs,
    finger_base_verdicts,
    oracle_alternating_edges,
    oracle_bigon_faces,
    oracle_curve_crossings,
    oracle_cut_vertices,
    oracle_finger_base,
    oracle_merge_arc,
    picked_finger_bases,
)

SEED = 0
# ``inputs.digest`` of json.dumps(augment(d).to_json(), sort_keys=True)
# over the augment inputs below; their fingers have first faces with
# more than one candidate base, so the pin fixes the base the
# construction picks
LARGE_REPORTS = "3d8fdac34f59721b4eacff55b14b3f214733651c9209b4bd2faca9f6c7807282"


def _augment_inputs(bench_inputs):
    return [parse_pd(x.pd) for x in bench_inputs.large_inputs(SEED, n=4, lo=200, hi=600)]


def test_augment(bench_inputs, monkeypatch):
    diagrams = _augment_inputs(bench_inputs)
    results, arcs = augment_recording_fingers(monkeypatch, diagrams)
    for d, res in zip(diagrams, results):
        assert verify_augmentation(d, res) == []
        g, aug = res.g, res.augmenting_component
        crossed = analysis.reconstruct_input(g, aug, d)
        assert crossed == oracle_curve_crossings(g, aug, d)
        assert sum(crossed.values()) == res.i_A_D
    reports = [json.dumps(res.to_json(), sort_keys=True) for res in results]
    assert bench_inputs.digest(reports) == LARGE_REPORTS
    # every circle edge on a finger's first face is a good base, and
    # here some first faces have more than one
    verdicts = finger_base_verdicts(monkeypatch, arcs)
    assert len(verdicts) > len(arcs) > 0
    assert all(v == [] for v in verdicts)
    # the base read off the first face is the least over every edge
    assert picked_finger_bases(monkeypatch, arcs) == [oracle_finger_base(g, arc) for g, arc in arcs]


def test_overlay(bench_inputs):
    # the one-pass overlay equals the builder's, record for record
    for d in _augment_inputs(bench_inputs):
        assert_overlay_matches_oracle(d)


def test_merge_arcs(bench_inputs, monkeypatch):
    # only the merges of positive cost search: the others build neither
    # the circle crossings nor the admissible steps
    counts = Counter()
    for name in ("_circle_crossings", "_admissible_edges"):
        def counted(*args, _real=getattr(augmentation, name), _name=name):
            counts[_name] += 1
            return _real(*args)

        monkeypatch.setattr(augmentation, name, counted)
    results, calls = augment_recording_merge_arcs(monkeypatch, _augment_inputs(bench_inputs))
    positive = sum(m.arc.phi > 0 for res in results for m in res.merges)
    assert 0 < positive < len(calls)
    assert counts == {"_circle_crossings": positive, "_admissible_edges": positive}
    for g, live, arc in calls:
        assert arc == oracle_merge_arc(g, live)
    # a map with three or more live circles and no two sharing a face
    assert any(len(live) >= 3 and arc.phi > 0 for _g, live, arc in calls)


def test_merge_arcs_between_circle_triples(bench_inputs):
    # triples of an overlay's circles no two of which share a face: the
    # cost is positive for every pair, so the least (cost, circle)
    # decides among three
    checked = 0
    for d in _augment_inputs(bench_inputs):
        g, cs = overlay_unlink(d, build_cut_curves(d))
        circles = sorted(c.component for c in cs.curves)[:10]
        faces = augmentation._curve_faces(g, face_set(g), circles)
        for trio in combinations(circles, 3):
            if not any(faces[a] & faces[b] for a, b in combinations(trio, 2)):
                want = oracle_merge_arc(g, list(trio))
                assert want.phi > 0
                assert find_merge_arc(g, list(trio)) == want
                checked += 1
    assert checked >= 20


def test_preprocess(bench_inputs):
    # audited move by move against the whole map, and equal to the
    # whole-map loop
    for x in bench_inputs.reduce_inputs(SEED, n=4, lo=200, hi=600):
        out, trace = assert_preprocess_matches_oracle(parse_pd(x.pd))
        assert validate_diagram(out).valid, x.name
        assert oracle_cut_vertices(out) == [], x.name
        alternating = oracle_alternating_edges(serialize_pd(out))
        assert all(b <= alternating for b in oracle_bigon_faces(out)), x.name
        ts = [trace.t_before] + [step.t_after for step in trace.steps]
        assert all(a >= b for a, b in zip(ts, ts[1:])), x.name


def test_preprocess_800(bench_inputs):
    # one closure of 800 crossings: the trace and output of the whole-map
    # loop, without the per-move audit
    (x,) = bench_inputs.reduce_inputs(SEED, n=1, lo=800, hi=800)
    out, trace = assert_preprocess_matches_oracle(parse_pd(x.pd), audit=False)
    assert trace.crossings_before == 800 and len(trace.steps) > 100
    assert validate_diagram(out).valid


@pytest.mark.parametrize("seed, n, audit", [(0, 400, True), (1, 800, False)])
def test_preprocess_walk_path(bench_inputs, monkeypatch, seed, n, audit):
    # closures with a move outside the merge facts: that move is
    # validated whole, and the loop goes on from the walked table
    (*_rest, x) = bench_inputs.reduce_inputs(seed, n=3, lo=n, hi=n)
    paths = Counter()
    real = reduction.check_move

    def check_move(b, faces, out, gone):
        failures, plan = real(b, faces, out, gone)
        paths["walk" if plan is None else "merge"] += 1
        return failures, plan

    monkeypatch.setattr(reduction, "check_move", check_move)
    out, trace = assert_preprocess_matches_oracle(parse_pd(x.pd), audit=audit)
    assert trace.crossings_before == n and validate_diagram(out).valid
    assert paths["walk"] >= 1 and sum(paths.values()) == len(trace.steps), paths


def _augment_audited(d):
    """``augment(d)`` with every stage the merge loop reaches checked as a
    whole map, and the result by the selfcheck."""
    stages = []
    res = augment(d, on_stage=lambda name, g: stages.append((name, g)))
    for name, g in stages:
        rep = validate_diagram(g)
        assert rep.valid, (name, rep.failures)
        assert classify_edges(g).is_alternating, name
    assert verify_augmentation(d, res) == []
    return res


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_augment_800(bench_inputs, seed):
    # one closure of 800 crossings per seed
    (x,) = bench_inputs.large_inputs(seed, n=1, lo=800, hi=800)
    d = parse_pd(x.pd)
    res = _augment_audited(d)
    assert len(d.crossings) == 800 and len(res.merges) > 20


def test_augment_1600(bench_inputs):
    # one closure of 1600 crossings: each of its 207 stages, the overlay
    # and a finger or join per merge, is checked as a whole map
    (x,) = bench_inputs.large_inputs(0, n=1, lo=1600, hi=1600)
    d = parse_pd(x.pd)
    res = _augment_audited(d)
    assert len(d.crossings) == 1600 and len(res.merges) == 103


@pytest.mark.parametrize("components", [2, 3])
def test_augment_800_links(bench_inputs, monkeypatch, components):
    # links of 800 crossings, whose loops merge some fifty circles: the
    # circle faces the loop carries are checked against a fresh read
    # after every edit, fingers included
    x = bench_inputs.eligible_item(random.Random(f"links/800/{components}"), "x", 800, components)
    d = parse_pd(x.pd)
    res = _augment_audited(d)
    assert len(d.crossings) == 800 and len(d.components()) == components
    (followed,), checked = augment_following_circle_faces(monkeypatch, [d])
    assert serialize_pd(followed.g) == serialize_pd(res.g)
    assert len(res.merges) > 40 and checked > len(res.merges)


def test_preprocess_relabels_n_log_n_corners(bench_inputs, monkeypatch):
    # each corner moves to another face handle only into a face of at
    # least twice its face's weight, so the moves of all 4n corners stay
    # within 4n log2(4n): a count, not a time
    held = []
    real = reduction._Moves.__init__

    def init(moves, d):
        real(moves, d)
        held.append(moves)

    monkeypatch.setattr(reduction._Moves, "__init__", init)
    (x,) = bench_inputs.reduce_inputs(SEED, n=1, lo=1600, hi=1600)
    out, trace = reduction.preprocess(parse_pd(x.pd))
    corners = 4 * trace.crossings_before
    relabelled = held[0].faces.relabelled
    assert len(trace.steps) > 500
    assert 0 < relabelled <= corners * math.ceil(math.log2(corners)), relabelled
    # the count read off the corner partition, and the one the moves
    # kept, are the twist partition's at this size too
    assert trace.t_before == analysis.twist_partition(parse_pd(x.pd)).t
    assert trace.t_after == analysis.twist_partition(out).t


def test_render_positions_200(bench_inputs):
    # the augmented map of a 200-crossing closure: the embedding equals
    # the dense solve over crossings and midpoints
    (x,) = bench_inputs.large_inputs(SEED, n=1, lo=200, hi=200)
    g = augment(parse_pd(x.pd)).g
    assert len(g.crossings) > 200
    assert not assert_positions_match_oracle(g)


def test_render_solves_on_crossings_only(bench_inputs, monkeypatch):
    # a count, not a time: the one solve of an 800-crossing map has at
    # most one row per crossing
    (x,) = bench_inputs.large_inputs(SEED, n=1, lo=800, hi=800)
    d = parse_pd(x.pd)
    rows = []
    real = render._solve

    def solve(a, b):
        rows.append(len(a))
        return real(a, b)

    monkeypatch.setattr(render, "_solve", solve)
    assert render_svg(d).startswith("<svg")
    assert len(rows) == 1 and 0 < rows[0] <= len(d.crossings) == 800
