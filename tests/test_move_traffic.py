"""What one ``preprocess`` move costs, counted on the benchmark's
``reduce`` seed-1 inputs (48 raw braid closures, 742 moves).

A move's ``merge_plan`` is worked out once, inside ``check_move``, and
``_Moves.advance`` reads the plan ``check_move`` returns.  The chain
walks of ``reduction._chains_meeting`` read the face partition's tables
directly and call none of its methods.  And every move of these inputs
passes its local checks, so the whole-map check that words a refused
edit (``edits._rejected``) never runs; nor does it on the benchmark's
``augment-large`` seed-1 inputs.  ``preprocess`` reads its twist count
off the corner partition and builds no ``TwistPartition``; the trace
comparisons of ``test_reduction.py`` keep ``twist_partition`` as the
oracle of every count.
Whether the verdicts are right is the business of the audits in
``test_local_check.py``; these tests pin the traffic.  The last one pins
the early stop of the chain walks on a small closure.
"""

from __future__ import annotations

import inspect
import sys
from collections import Counter

import pytest

from altknot import analysis, augment, diagram, edits, face_set, parse_pd, reduction
from altknot.generate import braid_closure

from conftest import same_table


@pytest.fixture(scope="module")
def seed1_texts(bench_inputs):
    return [x.pd for x in bench_inputs.reduce_inputs(1, n=48, lo=30, hi=80)]


@pytest.fixture(scope="module")
def seed1(seed1_texts):
    return [parse_pd(text) for text in seed1_texts]


def count_calls(monkeypatch, counts: Counter, owner, name: str) -> None:
    real = getattr(owner, name)

    def counted(*args, **kwargs):
        counts[name] += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)


def run(diagrams) -> int:
    """Moves made by ``preprocess`` over ``diagrams``."""
    return sum(len(reduction.preprocess(d)[1].steps) for d in diagrams)


def test_merge_plan_runs_once_per_move(seed1, monkeypatch):
    counts = Counter()
    count_calls(monkeypatch, counts, edits, "merge_plan")
    real_check, real_advance = reduction.check_move, reduction._Moves.advance
    per_move = Counter()  # (plans in the check, path) -> moves

    def check_move(b, faces, out, gone):
        before = counts["merge_plan"]
        failures, plan = real_check(b, faces, out, gone)
        path = "merge" if plan is not None else "walk"
        per_move[(counts["merge_plan"] - before, path)] += 1
        return failures, plan

    def advance(moves, cur, gone, plan):
        before = counts["merge_plan"]
        real_advance(moves, cur, gone, plan)
        assert counts["merge_plan"] == before

    monkeypatch.setattr(reduction, "check_move", check_move)
    monkeypatch.setattr(reduction._Moves, "advance", advance)
    assert run(seed1) == 742
    # every merge move plans once; of the 8 walked moves, 5 plan and find
    # no merge, and 3 are not joined straight across, so plan nothing
    assert per_move == {(1, "merge"): 734, (1, "walk"): 5, (0, "walk"): 3}
    assert counts["merge_plan"] == 739


def test_chain_walks_call_no_partition_method(seed1, monkeypatch):
    counts = Counter()
    inside = [False]
    for name, member in list(vars(edits.FacePartition).items()):
        if inspect.isfunction(member):
            real = member

            def counted(*args, _real=real, _name=name, **kwargs):
                if inside[0]:
                    counts[_name] += 1
                return _real(*args, **kwargs)

            monkeypatch.setattr(edits.FacePartition, name, counted)
    real_chains = reduction._chains_meeting

    def chains_meeting(faces, starts):
        counts["_chains_meeting"] += 1
        inside[0] = True
        try:
            return real_chains(faces, starts)
        finally:
            inside[0] = False

    monkeypatch.setattr(reduction, "_chains_meeting", chains_meeting)
    assert run(seed1) == 742
    # two counts per merge move, before and after it, and nothing else
    assert counts == {"_chains_meeting": 2 * 734}


def test_no_failure_is_worded(seed1, bench_inputs, monkeypatch):
    counts = Counter()
    for name in ("_check_records", "_check_strands", "_rejected"):
        count_calls(monkeypatch, counts, edits, name)
    assert run(seed1) == 742
    # every move passes the record checks and each merge move the strand
    # checks; the 8 walked moves are validated whole instead
    assert counts == {"_check_records": 742, "_check_strands": 734}
    # every finger and band splice of ``augment`` on the 64 inputs passes
    # both, and none is worded either
    counts.clear()
    for x in bench_inputs.large_inputs(1, n=64, lo=50, hi=110):
        augment(parse_pd(x.pd))
    assert counts == {"_check_records": 313, "_check_strands": 313}


def test_full_walks_of_the_reduce_op(seed1_texts, monkeypatch):
    # the benchmark's reduce op: parse_pd walks each input whole,
    # check_move each of the 8 moves it cannot check by a face merge, and
    # diagram_flags each output whose last move left no table; the edge
    # classes then go on the table the flags read
    walks, real, stage = Counter(), diagram._whole_walk, [None]

    def counted(d, *lists):
        walks[stage[0]] += 1
        return real(d, *lists)

    monkeypatch.setattr(diagram, "_whole_walk", counted)
    for text in seed1_texts:
        stage[0] = "parse_pd"
        d = parse_pd(text)
        stage[0] = "preprocess"
        out, _trace = reduction.preprocess(d)
        stage[0] = "diagram_flags"
        analysis.diagram_flags(out)
        stage[0] = "classify_edges"
        analysis.classify_edges(out)
    assert walks == {"parse_pd": 48, "preprocess": 8, "diagram_flags": 45}
    assert walks.total() == 101


def test_every_full_walk_of_the_reduce_op_is_the_tuple_walk(seed1_texts, monkeypatch):
    # each of the 101 tables the reduce op walks whole, read through its
    # (crossing, slot) view, is the walk on corner pairs
    real, walks = diagram._whole_walk, []

    def checked(d, *lists):
        fs = real(d, *lists)
        assert same_table(fs, d)
        walks.append(len(d.crossings))
        return fs

    monkeypatch.setattr(diagram, "_whole_walk", checked)
    for text in seed1_texts:
        out, _trace = reduction.preprocess(parse_pd(text))
        analysis.diagram_flags(out)
    assert len(walks) == 101


def test_preprocess_builds_no_twist_partition(seed1, monkeypatch):
    # counted wherever a module of the package holds the function, so an
    # import by name is counted too
    real, counts = analysis.twist_partition, Counter()

    def counted(*args, **kwargs):
        counts["twist_partition"] += 1
        return real(*args, **kwargs)

    for name, mod in list(sys.modules.items()):
        if name.split(".")[0] == "altknot" and getattr(mod, "twist_partition", None) is real:
            monkeypatch.setattr(mod, "twist_partition", counted)
    assert run(seed1) == 742
    assert counts == {}


def test_chain_walks_stop_once_one_group_is_going():
    # two chains: the nine crossings of the sigma-1 run, 0-8, a cycle of
    # bigons, and the three of the sigma-2 run, 9-11
    d = braid_closure([1] * 9 + [2, -2, 2], 3)
    faces = edits.FacePartition(face_set(d))

    class Reads(list):
        count = 0

        def __getitem__(self, key):
            Reads.count += 1
            return list.__getitem__(self, key)

    faces.face = Reads(faces.face)
    # (starts, chains, corners read): one start walks nothing; two walks
    # in one chain stop when they meet, after 4 of its 9 crossings; and
    # once the sigma-2 walks have covered their chain, the sigma-1 walk
    # stops short of covering its own
    for starts, chains, reads in (
        (set(), 0, 0), ({3}, 1, 0), ({0, 4}, 1, 16), ({0, 9}, 2, 24), ({0, 4, 9, 10}, 2, 28),
    ):
        Reads.count = 0
        assert reduction._chains_meeting(faces, starts) == chains, starts
        assert Reads.count == reads, starts
