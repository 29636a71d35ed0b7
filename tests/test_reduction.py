"""Reduction moves and the preprocess fixpoint."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from altknot import (
    classify_edges,
    detect_two_strand_torus,
    diagram_flags,
    face_set,
    flip_crossing,
    parse_pd,
    preprocess,
    serialize_pd,
    twist_partition,
    validate_diagram,
)
from altknot.diagram import Diagram
from altknot.generate import braid_closure, two_strand_torus

from conftest import (
    assert_preprocess_matches_oracle,
    corpus_diagrams,
    euler_by_piece,
    link_diagrams,
    oracle_move,
    oracle_r2_bigons,
    shadow_diagrams,
)

# four crossings, t = 1: one twist region through three bigons, which a
# nugatory crossing splits when it goes
RISING = "X(6,7,1,8) X(9,1,7,9) X(10,6,8,11) X(11,12,12,10)"

BRAID_LETTERS = st.lists(
    st.sampled_from([i for i in range(-4, 5) if i != 0]), min_size=1, max_size=25
)


def _flipped(word, flips):
    """The closure of ``word`` with its first ``flips`` crossings (in id
    order, cyclically) flipped."""
    d = braid_closure(word)
    for k in range(flips):
        d = flip_crossing(d, sorted(d.crossings)[k % len(d.crossings)])
    return d


class TestNugatory:
    def test_kink_unknot_to_loop(self, kink_unknot):
        out = oracle_move(kink_unknot, "nugatory", 0)
        assert not out.crossings and len(out.loops) == 1

    def test_kinked_trefoil(self):
        # trefoil with one kink on edge 3 (kink crossing id 3)
        d = parse_pd("X(1,4,2,5) X(3,6,4,1) X(5,2,6,8) X(3,7,7,8)")
        assert validate_diagram(d).valid
        out = oracle_move(d, "nugatory", 3)
        assert len(out.crossings) == 3
        assert detect_two_strand_torus(out) == 3
        assert classify_edges(out).is_alternating


    @settings(deadline=None, max_examples=40)
    @given(BRAID_LETTERS)
    def test_verdict_is_the_cut_vertex_test(self, word):
        # untwisting any crossing cut_vertices names leaves a valid map
        # with one crossing fewer
        from altknot.analysis import cut_vertices

        d = braid_closure(word)
        for c in cut_vertices(d):
            assert len(oracle_move(d, "nugatory", c).crossings) == len(d.crossings) - 1


class TestR2:
    def test_flipped_trefoil_bigon(self, trefoil):
        f = flip_crossing(trefoil, 0)
        faces = oracle_r2_bigons(f)
        assert faces
        out = oracle_move(f, "r2", faces[0])
        assert len(out.crossings) == 1

    def test_curl_to_single_loop(self, curl):
        faces = oracle_r2_bigons(curl)
        assert len(faces) == 1
        out = oracle_move(curl, "r2", faces[0])
        assert not out.crossings and len(out.loops) == 1

    def test_fused_strand_keeps_the_lower_outer_id(self):
        # the bigon's inner edges 1 and 2 have lower ids than its four
        # outer edges; each strand fuses into the lower of its two outer
        # edges (4 of 4, 1, 8 and 3 of 3, 2, 7), which welding one
        # crossing at a time through the inner edge would not give
        d = parse_pd("X(3,4,2,1) X(4,3,5,6) X(5,7,8,6) X(7,1,2,8)")
        fs = face_set(d)
        assert fs.edges(d, 2) == [1, 2] and {x >> 2 for x in fs.darts[2]} == {0, 3}
        assert 2 in oracle_r2_bigons(d)
        out = oracle_move(d, "r2", 2)
        assert sorted(out.edges) == [3, 4, 5, 6]
        # each fused edge runs between the far ends of its outer edges
        assert out.edges[4].ends == (d.edges[4].ends[1], d.edges[8].ends[0])
        assert out.edges[3].ends == (d.edges[3].ends[1], d.edges[7].ends[0])
        assert serialize_pd(out) == "X(4,3,5,6) X(5,3,4,6)"

    def test_flipped_hopf_to_two_loops(self):
        h = flip_crossing(two_strand_torus(2), 0)
        faces = oracle_r2_bigons(h)
        out = oracle_move(h, "r2", faces[0])
        assert not out.crossings and len(out.loops) == 2  # unlink preserved


class TestPreprocess:
    def test_standard_trefoil_fixpoint(self, trefoil):
        out, trace = preprocess(trefoil)
        assert not trace.steps
        assert serialize_pd(out) == serialize_pd(trefoil)

    def test_flipped_trefoil_reduces_to_loop(self, trefoil):
        out, trace = preprocess(flip_crossing(trefoil, 0))
        assert not out.crossings and len(out.loops) == 1
        kinds = [s.kind for s in trace.steps]
        assert kinds == ["r2", "nugatory"]

    def test_a_move_may_raise_the_twist_count_on_the_way(self):
        # a chain of bigons through a nugatory crossing: removing it splits
        # the chain, so t rises on the way; twist number is a count on
        # reduced diagrams, so only the whole run must not raise it
        d = parse_pd(RISING)
        out, trace = assert_preprocess_matches_oracle(d)
        assert [trace.t_before] + [s.t_after for s in trace.steps] == [1, 2, 1, 1, 0]
        assert serialize_pd(out) == "O(1)"
        flags = diagram_flags(out)
        assert flags.reduced and flags.r2_reduced

    def test_a_run_that_ends_with_more_twist_regions_raises(self, monkeypatch):
        from altknot import reduction
        from altknot.errors import ReductionInvariantError

        real = reduction._Moves.advance

        def advance(moves, *args):
            real(moves, *args)
            moves.t += 2

        monkeypatch.setattr(reduction._Moves, "advance", advance)
        # the output's count, 0, now reads 2 or more
        with pytest.raises(ReductionInvariantError, match=r"reduction raised the twist count 1 -> [2-9]"):
            preprocess(parse_pd(RISING))

    def test_kink_plus_r2_two_steps(self):
        # closed braid (sigma1^5 sigma2) has one nugatory crossing; a flip
        # then plants one R2 bigon: two steps to the standard trefoil
        d = flip_crossing(braid_closure([1, 1, 1, 1, 1, 2], strands=3), 0)
        out, trace = preprocess(d)
        assert [s.kind for s in trace.steps] == ["nugatory", "r2"]
        assert detect_two_strand_torus(out) == 3
        assert classify_edges(out).is_alternating
        assert trace.crossings_before == 6 and trace.crossings_after == 3

    def test_flipped_two_strand_torus(self):
        out, trace = preprocess(flip_crossing(two_strand_torus(5), 0))
        assert [s.kind for s in trace.steps] == ["r2"]
        assert detect_two_strand_torus(out) == 3

    @settings(deadline=None, max_examples=50)
    @given(BRAID_LETTERS, st.integers(0, 6))
    def test_fixpoint_flags_and_monotone_counts(self, word, flips):
        d = _flipped(word, flips)
        t0 = twist_partition(d).t
        # audited move by move, and equal to the whole-map loop
        out, trace = assert_preprocess_matches_oracle(d)
        fl = diagram_flags(out)
        assert fl.reduced and fl.r2_reduced
        counts = [trace.crossings_before] + [s.crossings_after for s in trace.steps]
        assert all(a > b for a, b in zip(counts, counts[1:]))
        ts = [trace.t_before] + [s.t_after for s in trace.steps]
        assert all(a >= b for a, b in zip(ts, ts[1:]))
        assert twist_partition(out).t <= t0
        assert validate_diagram(out).valid
        for v, e, f in euler_by_piece(out):
            assert v - e + f == 2
        # fixpoint really is a fixpoint
        again, trace2 = preprocess(out)
        assert not trace2.steps

    def test_edge_order_does_not_change_the_output(self, bench_inputs):
        # surgery hands its edges on in write order, so neither the output
        # nor the trace may depend on the order of a diagram's edges dict
        for item in bench_inputs.reduce_inputs(1, n=16, lo=30, hi=80):
            d = parse_pd(item.pd)
            rev = Diagram(d.crossings, dict(reversed(d.edges.items())), d.loops)
            assert list(rev.edges) != list(d.edges)
            out, trace = preprocess(d)
            rev_out, rev_trace = preprocess(rev)
            assert serialize_pd(rev_out) == serialize_pd(out), item.name
            assert rev_trace.to_json() == trace.to_json(), item.name


class TestWorklist:
    """``preprocess`` updates its candidate moves and twist count from
    each move's face-table delta.  Its outputs and traces must be those
    of the whole-map loop (``oracle_preprocess``), and after every move
    its cut vertices, R2 bigons and twist count those of the whole map
    (``preprocess_audited``).  ``TestPreprocess`` does the same on the
    ``BRAID_LETTERS`` words."""

    def test_corpus_and_link_inputs(self, monkeypatch):
        # every raw closure the corpus generators reduce, flipped
        # crossings and 31+-crossing links among them
        import altknot
        from altknot import generate

        traces = []

        def checked(d):
            out, trace = assert_preprocess_matches_oracle(d)
            traces.append(trace)
            return out, trace

        monkeypatch.setattr(generate, "preprocess", checked)
        monkeypatch.setattr(altknot, "preprocess", checked)
        corpus_diagrams(30)
        link_diagrams(4)
        kinds = {s.kind for trace in traces for s in trace.steps}
        assert len(traces) > 34 and kinds == {"nugatory", "r2"}

    def test_shadows_that_are_no_braid_closure(self):
        # medial graphs of random grid subgraphs with random crossings:
        # each reduces as the whole-map loop does, and each result that
        # meets augment's preconditions augments and passes the selfcheck
        from altknot import augment
        from altknot.selfcheck import verify_augmentation

        kinds, eligible = set(), 0
        for d in shadow_diagrams(200, seed=0):
            out, trace = assert_preprocess_matches_oracle(d)
            kinds.update(s.kind for s in trace.steps)
            fl = diagram_flags(out)
            if (not out.loops and fl.connected and fl.reduced and fl.r2_reduced and fl.prime
                    and classify_edges(out).is_non_alternating):
                eligible += 1
                assert verify_augmentation(out, augment(out)) == []
        assert kinds == {"nugatory", "r2"} and eligible >= 50, (kinds, eligible)

    def test_cut_vertex_made_by_a_merge(self, monkeypatch):
        # moves after which a crossing becomes a cut vertex because a merge
        # put two of its corners in one face, relabelling only one of them:
        # the crossing of every relabelled corner must be re-tested
        from altknot import edits, reduction

        found = []
        moved = []
        real_advance, real_merge = reduction._Moves.advance, edits.FacePartition.merge

        def merge(faces, handles):
            moved.append(real_merge(faces, handles))
            return moved[-1]

        def advance(moves, cur, gone, plan):
            before = set(moves.cuts)
            moved.clear()
            real_advance(moves, cur, gone, plan)
            if plan is not None:
                (relabelled,) = moved
                found.extend(sum(k >> 2 == c for k in relabelled) for c in moves.cuts - before)

        monkeypatch.setattr(edits.FacePartition, "merge", merge)
        monkeypatch.setattr(reduction._Moves, "advance", advance)
        for word, flips in (
            ([-1, 1, -1, -2, 2, 1, 2, -2, 2, -2, -1, 3, -3, 1, 3, 3, 2, -3, -1], 3),
            ([2, -2, 3, -1, 1, 3, -3, 1, -2, 3, 3, -3, -1, 3], 2),
        ):
            assert_preprocess_matches_oracle(_flipped(word, flips))
        assert found == [1, 1, 1, 1], found

    def test_independent_of_the_memo(self, monkeypatch, trefoil):
        # the face_set memo is taken by another diagram after every move's
        # check: preprocess holds each table itself, so nothing changes
        from altknot import reduction

        real = reduction.check_move
        checks = []

        def check(b, faces, out, gone):
            result = real(b, faces, out, gone)
            face_set(trefoil)
            checks.append(result)
            return result

        monkeypatch.setattr(reduction, "check_move", check)
        for word, flips in (
            ([1, -2, 1, 1, -2, 2, 3, -3, -1, 1], 4),
            ([2, -1, 2, 2, 1, -1, -1], 2),
            ([-2, 1, 2, -2, 2, -2, -3, 1, 3, 3, -1, -3, -3], 2),
        ):
            assert_preprocess_matches_oracle(_flipped(word, flips), audit=False)
        # the moves that took the walk path re-read the whole map after it
        assert len(checks) > 10 and any(plan is None for _failures, plan in checks)


def test_only_preprocess_makes_a_move():
    # a second route to a reduction move would need its own checks and
    # tests: in the package only preprocess builds a move and checks it
    import ast
    from pathlib import Path

    import altknot

    moves = ("check_move", "_nugatory_edit", "_r2_edit")
    users = set()
    for p in sorted(Path(altknot.__file__).parent.glob("*.py")):
        for top in ast.parse(p.read_text()).body:
            for node in ast.walk(top):
                name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
                if name in moves:
                    users.add((p.stem, getattr(top, "name", None), name))
    assert users == {("reduction", "preprocess", name) for name in moves}, users
