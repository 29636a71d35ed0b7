"""What a merge of ``augment``'s loop reads, counted on the benchmark's
``augment-large`` seed-1 inputs (64 closures of 50-110 crossings).

The faces each circle borders are read from the circles' edges once per
``augment`` (``augmentation._curve_faces``) and then carried through
every finger and join (``augmentation._CircleFaces``), from the faces
each edit's table dropped and walked afresh.  So a merge of cost 0 reads
no whole map: only the merges that search, those of positive cost, list
the circles' faces by id.  The first test checks the carried faces
against a fresh read after every edit, and the second that the loop
refuses to go on when an edit's table is not there to follow; the
others pin the traffic.
"""

from __future__ import annotations

from collections import Counter

import pytest

from altknot import augment, augmentation, diagram, face_set, parse_pd
from altknot.diagram import Diagram
from altknot.errors import InvariantError

from conftest import TREFOIL, augment_following_circle_faces, same_table


@pytest.fixture(scope="module")
def seed1_texts(bench_inputs):
    return [x.pd for x in bench_inputs.large_inputs(1, n=64, lo=50, hi=110)]


@pytest.fixture(scope="module")
def seed1(seed1_texts):
    return [parse_pd(text) for text in seed1_texts]


def test_carried_circle_faces_are_those_of_every_edit(seed1, monkeypatch):
    results, checked = augment_following_circle_faces(monkeypatch, seed1)
    merges = sum(len(res.merges) for res in results)
    fingers = sum(m.arc.phi > 0 for res in results for m in res.merges)
    # one update per join, and one per finger that changed the map
    assert checked == merges + fingers
    assert merges > 200 and fingers > 10


def test_a_table_the_loop_cannot_follow_is_refused(seed1, monkeypatch):
    # a wrapper that takes the face_set memo after each splice leaves no
    # table for the carried faces to follow, and one that then walks the
    # splice's result whole leaves a table with no delta: either way the
    # merge loop stops with InvariantError rather than read the circles'
    # faces afresh
    d = next(d for d in seed1 if augment(d).merges)
    real = augmentation.join_curves

    for rewalk in (False, True):
        def join_curves(g, *args):
            out = real(g, *args)
            face_set(g)
            if rewalk:
                face_set(out)
            return out

        with monkeypatch.context() as m:
            m.setattr(augmentation, "join_curves", join_curves)
            with pytest.raises(InvariantError, match="cannot follow"):
                augment(d)


def test_an_augment_walks_two_maps_whole(seed1_texts, monkeypatch):
    # parse_pd walks each input whole, and augment only the overlay of its
    # cut circles: every finger and band splice derives its table from its
    # source's, and every whole-map fact goes on a table already held
    walks, real, stage = Counter(), diagram._whole_walk, [None]

    def counted(d, *lists):
        walks[stage[0]] += 1
        return real(d, *lists)

    def overlay_unlink(*args, _real=augmentation.overlay_unlink):
        stage[0] = "overlay_unlink"
        out = _real(*args)
        stage[0] = "augment"
        return out

    monkeypatch.setattr(diagram, "_whole_walk", counted)
    monkeypatch.setattr(augmentation, "overlay_unlink", overlay_unlink)
    for text in seed1_texts:
        stage[0] = "parse_pd"
        d = parse_pd(text)
        stage[0] = "augment"
        augment(d)
    assert walks == {"parse_pd": 64, "overlay_unlink": 64}


def test_every_table_of_an_augment_is_the_tuple_walk(seed1_texts, monkeypatch):
    # the 128 tables walked whole and the 313 a finger or band splice
    # derived from its source's, each read through its (crossing, slot)
    # view, are the walk on corner pairs
    from altknot import edits

    tables = Counter()
    real_full, real_local = diagram._whole_walk, edits._edited_face_set

    def full(d, *lists):
        fs = real_full(d, *lists)
        assert same_table(fs, d)
        tables["full"] += 1
        return fs

    def local(b, source_fs, out):
        fs = real_local(b, source_fs, out)
        assert same_table(fs, out)
        tables["local"] += 1
        return fs

    monkeypatch.setattr(diagram, "_whole_walk", full)
    monkeypatch.setattr(edits, "_edited_face_set", local)
    for text in seed1_texts:
        augment(parse_pd(text))
    assert tables == {"full": 128, "local": 313}


def test_circle_faces_are_read_once_per_augment(seed1, monkeypatch):
    counts = Counter()
    for name in ("_curve_faces", "_nearest_circles"):
        def counted(*args, _real=getattr(augmentation, name), _name=name, **kwargs):
            counts[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(augmentation, name, counted)
    seen = Counter()
    for d in seed1:
        counts.clear()
        res = augment(d)
        circles = len(res.cut_system.curves)
        positive = sum(m.arc.phi > 0 for m in res.merges)
        # read once when there is a merge, and searched only for a merge
        # of positive cost
        assert counts == Counter({"_curve_faces": int(circles > 1), "_nearest_circles": positive}), (
            circles, positive,
        )
        seen[circles > 1, positive > 0] += 1
    assert set(seen) == {(False, False), (True, False), (True, True)}, seen


def test_next_edge_id_builds_no_set(trefoil, monkeypatch):
    maps = [trefoil, parse_pd(TREFOIL + " O(9)"), parse_pd("O(3)"), Diagram({}, {})]
    built = []

    def counted_set(*args):
        built.append(args)
        return set(*args)

    monkeypatch.setattr(diagram, "set", counted_set, raising=False)
    assert [d.next_edge_id() for d in maps] == [7, 10, 4, 1]
    assert built == []
    # a set the module builds by name is seen
    trefoil.next_component_id()
    assert built
