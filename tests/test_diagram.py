"""Diagram core: parsing, faces, labels, validation, local edits."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from altknot import (
    Sign,
    augment,
    face_set,
    flip_crossing,
    parse_pd,
    preprocess,
    serialize_pd,
    validate_diagram,
)
from altknot.diagram import (
    Crossing,
    Diagram,
    Edge,
    MapBuilder,
    _is_bigon,
    connected_pieces,
    mark_augmenting,
    restamp_origins,
)
from altknot.errors import (
    IncidenceError,
    InvariantError,
    PDSyntaxError,
    PreconditionError,
    SphericityError,
    UnknownComponent,
    UnknownCrossing,
    UnknownEdge,
)
from altknot.generate import braid_closure

from conftest import (
    GRANNY_SUM,
    TREFOIL,
    OracleFace,
    corner_view,
    drop_component,
    euler_by_piece,
    oracle_faces,
    oracle_labels_from_pd,
    oracle_validate_diagram,
    reattach,
    same_map,
    same_table,
    subdivide_edge_with_crossing,
)

def with_over_slots(d: Diagram, c: int, pair: tuple[int, int]) -> Diagram:
    """``d`` with the over strand of crossing ``c`` named by ``pair``."""
    crossings = dict(d.crossings)
    crossings[c] = Crossing(c, d.crossings[c].slots, pair)
    return Diagram(crossings, d.edges, d.loops, d.augmenting_component)


BRAID_LETTERS = st.lists(
    st.sampled_from([i for i in range(-4, 5) if i != 0]), min_size=1, max_size=25
)


class TestParse:
    def test_trefoil_counts(self, trefoil):
        rep = validate_diagram(trefoil)
        assert rep.valid
        assert (rep.v, rep.e, rep.f) == (3, 6, 5)
        assert rep.v - rep.e + rep.f == 2

    def test_trefoil_faces_frozen(self, trefoil):
        # hand-computed face walk: three bigons and two triangles
        got = sorted(sorted(set(es)) for es in face_set(trefoil).bounds.values())
        assert got == [[1, 3, 5], [1, 4], [2, 4, 6], [2, 5], [3, 6]]

    def test_zero_crossing_loop(self):
        d = parse_pd("O(1)")
        rep = validate_diagram(d)
        assert rep.valid and rep.v == 0 and rep.e == 0
        assert rep.f == 2  # inside and outside
        assert rep.components == 1

    def test_loop_faces_are_records_only(self):
        # a crossing-free loop has no darts, so the table lists only the
        # corner faces; f and the oracle's records still count the loop's
        # two
        d = parse_pd(TREFOIL + " O(7)")
        assert validate_diagram(d).f == 7
        fs = face_set(d)
        assert len(fs.darts) == len(fs.bounds) == 5
        assert oracle_faces(d)[-2:] == [OracleFace(5, (), (), 7), OracleFace(6, (), (), 7)]

    def test_hopf_faces_all_bigons(self, hopf):
        fs = face_set(hopf)
        assert len(fs.darts) == 4
        assert all(_is_bigon(ds) for ds in fs.darts.values())

    def test_bigon_is_two_corners_at_two_crossings(self, trefoil, curl, kink_unknot, granny_sum):
        # kinks give faces with two corners at one crossing; loops none
        ds = [trefoil, curl, kink_unknot, granny_sum, parse_pd("O(1)"), parse_pd(TREFOIL + " O(7)")]
        ds += [braid_closure(w, strands=3) for w in ([1, 1, 2], [1, -2, 1, -2], [1, 1, -1, 2, 2])]
        seen = set()
        for d in ds:
            darts = face_set(d).darts
            assert sorted(darts) == [f.dart for f in oracle_faces(d) if f.loop is None]
            for f in oracle_faces(d):
                if f.loop is None:
                    bigon = _is_bigon(darts[f.dart])
                    assert bigon == (f.degree == 2 and len(f.crossings()) == 2)
                    seen.add((f.degree, bigon))
        assert {(2, True), (2, False)} <= seen

    def test_lone_record_incidence(self):
        with pytest.raises(IncidenceError):
            parse_pd("X(1,2,3,4)")

    def test_syntax_errors(self):
        with pytest.raises(PDSyntaxError):
            parse_pd("X(1,2,3)")
        with pytest.raises(PDSyntaxError):
            parse_pd("Y(1,2,3,4)")
        with pytest.raises(PDSyntaxError):
            parse_pd("X(1,2,3,0) X(3,1,0,2)")

    @pytest.mark.parametrize("text", [
        "X(1_0,10,2,2)",  # int() reads "1_0" as 10
        "X(+1,2,2,1)",  # and "+1" as 1
        "X(\u0661,2,2,\u0661)",  # and Arabic-Indic digits as ids
    ])
    def test_ids_are_ascii_digits(self, text):
        with pytest.raises(PDSyntaxError, match="bad record body"):
            parse_pd(text)

    def test_ids_may_carry_whitespace(self):
        spaced = parse_pd("X(1, 4, 2, 5) X( 3,6 ,4,1 ) X(5,\t2,6,3)")
        assert serialize_pd(spaced) == serialize_pd(parse_pd(TREFOIL))

    def test_comments_and_whitespace(self):
        d = parse_pd("# header\nX(1,4,2,5)\n  X(3,6,4,1) # mid\nX(5,2,6,3)\n")
        assert validate_diagram(d).valid

    def test_genus_one_rotation_rejected(self):
        # swapping two slots of a trefoil crossing always leaves the sphere
        base = ["1", "4", "2", "5"]
        for i, j in itertools.combinations(range(4), 2):
            ids = list(base)
            ids[i], ids[j] = ids[j], ids[i]
            code = f"X({','.join(ids)}) X(3,6,4,1) X(5,2,6,3)"
            with pytest.raises(SphericityError):
                parse_pd(code)

    def test_sphere_beside_torus_rejected(self):
        # a trefoil beside a genus-one trefoil: the Euler sums are 2 and 0,
        # so the whole-map sum 2 falls short of 2P = 4
        beside = TREFOIL + " X(7,10,8,11) X(9,12,10,7) X(11,8,12,9)"
        d = parse_pd(beside)
        b = MapBuilder(d)
        reattach(b, 7, (3, 0), (3, 1))
        reattach(b, 10, (3, 1), (3, 0))
        torus = b.build()
        assert sorted(v - e + f for v, e, f in euler_by_piece(torus)) == [0, 2]
        rep = validate_diagram(torus)
        assert not rep.valid
        assert "sphericity: V-E+F = 2 on 2 pieces, not 4" in rep.failures
        with pytest.raises(SphericityError, match="on 2 pieces"):
            parse_pd(beside.replace("X(7,10,8,11)", "X(10,7,8,11)"))


class TestSerialize:
    def test_roundtrip_identity(self, trefoil):
        assert serialize_pd(trefoil) == TREFOIL
        assert same_map(parse_pd(serialize_pd(trefoil)), trefoil)

    def test_flip_rotates_record(self, trefoil):
        f = flip_crossing(trefoil, 0)
        text = serialize_pd(f)
        assert text.split()[0] == "X(4,2,5,1)"
        assert same_map(parse_pd(text), f)

    def test_empty(self):
        assert serialize_pd(parse_pd("")) == ""

    def test_over_pair_in_either_order(self, trefoil):
        # a legal over strand may name its two slots in either order, and
        # it reads the same record either way
        for pair, same in (((3, 1), (1, 3)), ((2, 0), (0, 2))):
            d = with_over_slots(trefoil, 0, pair)
            assert validate_diagram(d).valid
            assert serialize_pd(d) == serialize_pd(with_over_slots(trefoil, 0, same))
            assert same_map(parse_pd(serialize_pd(d)), with_over_slots(trefoil, 0, same))

    @settings(deadline=None, max_examples=60)
    @given(BRAID_LETTERS)
    def test_roundtrip_random_braids(self, word):
        d = braid_closure(word)
        assert same_map(parse_pd(serialize_pd(d)), d)


class TestLabels:
    def test_trefoil_all_alternating(self, trefoil):
        labs = {e: trefoil.edge_labels(e) for e in trefoil.edges}
        assert all({a.value, b.value} == {"+", "-"} for a, b in labs.values())
        oracle = oracle_labels_from_pd(TREFOIL)
        for e, (a, b) in labs.items():
            assert sorted([a.value, b.value]) == sorted(oracle[e])

    def test_flipped_trefoil_labels(self, trefoil):
        f = flip_crossing(trefoil, 0)
        labs = {e: {x.value for x in f.edge_labels(e)} for e in f.edges}
        assert labs[1] == {"+"} and labs[2] == {"+"}
        assert labs[4] == {"-"} and labs[5] == {"-"}
        assert labs[3] == {"+", "-"} and labs[6] == {"+", "-"}

    def test_loop_empty_mapping(self):
        # a crossing-free loop has no edge record, so no end to label
        d = parse_pd("O(1)")
        assert d.edges == {} and list(d.loops) == [1]
        with pytest.raises(KeyError):
            d.edge_labels(1)

    def test_sign_negation_involution(self):
        assert Sign.PLUS.opposite is Sign.MINUS
        assert Sign.MINUS.opposite is Sign.PLUS
        assert Sign.PLUS.opposite.opposite is Sign.PLUS
        assert len(list(Sign)) == 2

    def test_label_word_at_crossings(self, trefoil):
        for c in trefoil.crossings.values():
            word = [c.label(s) for s in range(4)]
            assert word in (
                [Sign.PLUS, Sign.MINUS, Sign.PLUS, Sign.MINUS],
                [Sign.MINUS, Sign.PLUS, Sign.MINUS, Sign.PLUS],
            )


class TestValidate:
    def test_bad_over_slots_flagged(self, trefoil):
        c0 = trefoil.crossings[0]
        hacked = Diagram(
            {**trefoil.crossings, 0: Crossing(0, c0.slots, (0, 1))},
            trefoil.edges,
            trefoil.loops,
        )
        rep = validate_diagram(hacked)
        assert not rep.valid
        assert any("labels" in msg for msg in rep.failures)

    @pytest.mark.parametrize("pair", [[1, 3], [0, 2]])
    def test_list_over_slots_refused(self, trefoil, pair):
        # a list equal to a legal pair is no legal over strand; its label
        # word would look legal, so the line names the value
        c0 = trefoil.crossings[0]
        hacked = Diagram({**trefoil.crossings, 0: Crossing(0, c0.slots, pair)}, trefoil.edges, trefoil.loops)
        rep = validate_diagram(hacked)
        assert rep.failures == [f"labels: crossing 0 has over_slots {pair!r}, not a tuple"]
        assert rep == oracle_validate_diagram(hacked)
        for stage in (preprocess, augment):
            with pytest.raises(PreconditionError) as err:
                stage(hacked)
            assert err.value.failed_flag == "valid"

    def test_face_degrees_sum_to_twice_edges(self, trefoil):
        total = sum(len(ds) for ds in face_set(trefoil).darts.values())
        assert total == 2 * len(trefoil.edges)

    def test_inconsistent_edge_ends_flagged(self, trefoil):
        e1 = trefoil.edges[1]
        hacked = Diagram(
            trefoil.crossings,
            {**trefoil.edges, 1: Edge(1, (e1.ends[0], (2, 0)), 1, 0)},
            trefoil.loops,
        )
        rep = validate_diagram(hacked)
        assert not rep.valid
        assert any("incidence" in m for m in rep.failures)

    def test_failures_are_reported_by_id(self, trefoil):
        # the tables in reverse id order: each check reports its failures
        # by id all the same, incidence and labels before components
        cr = {c: trefoil.crossings[c] for c in sorted(trefoil.crossings, reverse=True)}
        cr[2] = Crossing(2, cr[2].slots, (0, 1))
        cr[0] = Crossing(0, cr[0].slots, (2, 3))
        ed = {e: trefoil.edges[e] for e in sorted(trefoil.edges, reverse=True)}
        ed[6] = Edge(6, ((0, 0), (1, 1)), 6, 0)
        ed[3] = Edge(3, (ed[3].ends[0], (2, 0)), 3, 0)
        labels = [
            "labels: crossing 0 reads (--++) around, not (+-+-)",
            "labels: crossing 2 reads (++--) around, not (+-+-)",
        ]
        assert validate_diagram(Diagram(cr, ed, {4: 0})).failures == [
            "incidence: edge 3 ends ((1, 0), (2, 0)) do not match slots",
            "incidence: id 4 is both edge and loop",
            "incidence: edge 6 ends ((0, 0), (1, 1)) do not match slots",
        ] + labels
        ed = {e: Edge(e, r.ends, e, e % 3) for e, r in sorted(trefoil.edges.items(), reverse=True)}
        mixed = [(0, [1, 2]), (0, [1, 2]), (1, [0, 1]), (1, [0, 1]), (2, [0, 2]), (2, [0, 2])]
        assert validate_diagram(Diagram(cr, ed, {})).failures == labels + [
            f"components: strand through crossing {c} carries mixed ids {ids}" for c, ids in mixed
        ]

    @pytest.mark.parametrize("bad", [-1, "x"])
    def test_a_crossing_id_that_names_no_dart_is_refused(self, trefoil, monkeypatch, bad):
        # the face table names corner (c, s) by the dart 4 c + s, and
        # crossing -1 would wrap round to the last darts of its lists:
        # such a map is refused, as the first failure, before any face is
        # read, and the pipeline entries refuse it as invalid input
        from altknot import augment, diagram, preprocess
        from altknot.errors import PreconditionError

        def rename(end):
            c, s = end
            return (bad if c == 0 else c, s)

        cr = {bad if c == 0 else c: Crossing(bad if c == 0 else c, x.slots, x.over_slots)
              for c, x in trefoil.crossings.items()}
        ed = {e: Edge(e, tuple(map(rename, r.ends)), r.origin, r.component) for e, r in trefoil.edges.items()}
        d = Diagram(cr, ed)

        if bad == -1:
            # read on its own, the full walk refuses it too
            with pytest.raises(InvariantError, match="names no dart"):
                diagram._build_face_set(d)

        def walk(_d):
            raise AssertionError("a face was read")

        monkeypatch.setattr(diagram, "_build_face_set", walk)
        rep = validate_diagram(d)
        assert rep.failures == [f"ids: crossing id {bad!r} is not an integer >= 0"] and rep.f == 0
        for run in (augment, preprocess):
            with pytest.raises(PreconditionError) as err:
                run(d)
            assert err.value.failed_flag == "valid"
        # with illegal over strands at it and at crossing 2 too, the label
        # failures come in id order, an id that is no int last
        cr[bad] = Crossing(bad, cr[bad].slots, (0, 1))
        cr[2] = Crossing(2, cr[2].slots, (0, 1))
        assert validate_diagram(Diagram(cr, ed)).failures == [
            f"ids: crossing id {bad!r} is not an integer >= 0",
        ] + [f"labels: crossing {c} reads (++--) around, not (+-+-)" for c in ((-1, 2) if bad == -1 else (2, bad))]

    def test_a_surgery_that_adds_crossing_minus_one_is_refused(self, trefoil):
        # a local update never reads darts of a crossing without them:
        # the edit is refused in the whole map's words
        from altknot.edits import check_edit

        rec = trefoil.edges[1]
        b = MapBuilder(trefoil)
        b.remove_edge(1)
        b.add_crossing(-1, [0, 0, 0, 0], (1, 3))
        b.add_edge(1, [rec.ends[0], (-1, 0)], rec.origin, rec.component)
        b.add_edge(b.new_edge_id(), [(-1, 2), rec.ends[1]], rec.origin, rec.component)
        b.add_edge(b.new_edge_id(), [(-1, 1), (-1, 3)], None, 1)
        out = b.build()
        failures = check_edit(b, face_set(trefoil), out)
        assert failures == validate_diagram(out).failures == ["ids: crossing id -1 is not an integer >= 0"]

    @settings(deadline=None, max_examples=60)
    @given(BRAID_LETTERS)
    def test_braid_closures_validate(self, word):
        d = braid_closure(word)
        rep = validate_diagram(d)
        assert rep.valid, rep.failures
        for v, e, f in euler_by_piece(d):
            assert v - e + f == 2


class TestFlip:
    def test_involution(self, trefoil):
        assert same_map(flip_crossing(flip_crossing(trefoil, 1), 1), trefoil)

    def test_unknown_crossing(self):
        with pytest.raises(UnknownCrossing):
            flip_crossing(parse_pd(""), 0)

    def test_over_pair_in_either_order(self, trefoil):
        # the over strand moves to the other slot pair whichever order
        # its two slots are named in, so every label at the crossing turns
        for pair, flipped in (((2, 0), (1, 3)), ((3, 1), (0, 2)), ((0, 2), (1, 3)), ((1, 3), (0, 2))):
            d = with_over_slots(trefoil, 0, pair)
            f = flip_crossing(d, 0)
            assert f.crossings[0].over_slots == flipped
            assert all(f.label(0, s) is d.label(0, s).opposite for s in range(4))

    @pytest.mark.parametrize("pair", [[0, 2], [1, 3], (0, 1)])
    def test_illegal_over_strand_is_refused(self, trefoil, pair):
        # a list equal to a legal pair, or a pair of adjacent slots, names
        # no over strand: flipping it would hand back a legal-looking
        # crossing that validation then passes
        d = with_over_slots(trefoil, 0, pair)
        with pytest.raises(PreconditionError) as err:
            flip_crossing(d, 0)
        assert err.value.failed_flag == "valid"
        assert str(err.value) == f"crossing 0 has illegal over_slots {pair!r}"

    def test_changes_exactly_incident_edges(self, trefoil):
        from altknot import classify_edges

        f = flip_crossing(trefoil, 0)
        incident = set(trefoil.crossings[0].slots)
        assert set(classify_edges(f).non_alternating) == incident

    @settings(deadline=None, max_examples=40)
    @given(BRAID_LETTERS, st.integers(0, 100))
    def test_flip_toggles_alternation_of_incident_edges(self, word, pick):
        # edges with exactly one end at the crossing toggle; kink edges
        # (both ends there) have both labels flipped, preserving status
        from altknot import classify_edges

        d = braid_closure(word)
        c = sorted(d.crossings)[pick % len(d.crossings)]
        toggled = {
            e for e in set(d.crossings[c].slots)
            if sum(1 for cid, _s in d.edges[e].ends if cid == c) == 1
        }
        before = classify_edges(d).non_alternating
        after = classify_edges(flip_crossing(d, c)).non_alternating
        assert before ^ after == toggled


class TestSubdivide:
    def test_counts_labels_origins(self, trefoil):
        f = flip_crossing(trefoil, 0)  # edge 1 becomes (+,+)
        d2 = subdivide_edge_with_crossing(f, 1, Sign.MINUS)
        assert len(d2.crossings) == len(f.crossings) + 1
        assert len(d2.edges) == len(f.edges) + 2
        halves = [e for e in d2.edges if d2.edges[e].origin == 1 and e != 1]
        assert len(halves) == 2
        for h in halves:
            a, b = d2.edge_labels(h)
            assert a != b  # the forced sign makes both halves alternating

    def test_alternating_edge_subdivision(self, trefoil):
        # a {+,-} edge split with sign -: the half keeping the + end is
        # {+,-}, the half keeping the - end is forced to {-,-}
        d2 = subdivide_edge_with_crossing(trefoil, 3, Sign.MINUS)
        halves = sorted(e for e in d2.edges if d2.edges[e].origin == 3)
        labels = sorted(
            tuple(sorted(x.value for x in d2.edge_labels(h))) for h in halves
        )
        assert labels == [("+", "-"), ("-", "-")]

    def test_double_subdivision_keeps_origin(self, trefoil):
        d2 = subdivide_edge_with_crossing(trefoil, 3, Sign.MINUS)
        half = min(e for e in d2.edges if d2.edges[e].origin == 3)
        d3 = subdivide_edge_with_crossing(d2, half, Sign.PLUS)
        assert sum(1 for e in d3.edges.values() if e.origin == 3) == 3

    def test_lone_crossing_breaks_parity(self, trefoil):
        # a closed strand crossing another exactly once cannot stay in the
        # sphere; validation must flag it rather than pass silently
        d2 = subdivide_edge_with_crossing(trefoil, 3, Sign.MINUS)
        rep = validate_diagram(d2)
        assert not rep.valid
        assert any("sphericity" in msg for msg in rep.failures)
        v, e, f = euler_by_piece(d2)[0]
        assert v - e + f == 0  # torus

    def test_unknown_edge(self, trefoil):
        with pytest.raises(UnknownEdge):
            subdivide_edge_with_crossing(trefoil, 99, Sign.MINUS)


class TestMapBuilder:
    def test_build_is_a_snapshot(self, granny_sum):
        # writes made through the builder after build() leave the built
        # diagram as it was
        b = MapBuilder(granny_sum)
        b.set_component(1, 5)
        out = b.build()
        before = (dict(out.crossings), dict(out.edges), dict(out.loops))
        b.weld((0, 1), (0, 3))
        b.remove_crossing(0)
        reattach(b, 2, (2, 1), (2, 3))
        b.set_component(3, 7)
        b.add_crossing(9, [20, 21, 20, 21], (1, 3))
        b.add_edge(20, [(9, 0), (9, 2)], None, 8)
        b.loops[30] = 9
        assert (out.crossings, out.edges, out.loops) == before
        assert all(out.edges[e] is rec for e, rec in before[1].items())

    def test_writes_replace_records(self, granny_sum):
        b = MapBuilder(granny_sum)
        assert b.edges == granny_sum.edges and b.edges is not granny_sum.edges
        b.set_component(1, 0)  # no change: nothing touched
        assert not b.touched_edges
        b.set_component(1, 4)
        reattach(b, 2, (2, 1), (2, 3))
        out = b.build()
        assert out.edges[1] == Edge(1, granny_sum.edges[1].ends, 1, 4)
        assert (2, 3) in out.edges[2].ends and (2, 1) not in out.edges[2].ends
        assert b.touched_edges == {1, 2}
        # every untouched edge is the source's record itself
        assert all(out.edges[e] is granny_sum.edges[e] for e in out.edges if e not in b.touched_edges)

    def test_slots_and_over_read_through(self, granny_sum):
        # ``slots`` holds the own slots of the touched crossings still in
        # the map and ``over`` the over strand of each added crossing;
        # ``slots_at`` reads the source's tuple until a crossing is
        # written, and a removed crossing has no slots at all
        b = MapBuilder(granny_sum)
        src = granny_sum.crossings
        reattach(b, 2, (2, 1), (2, 3))
        b.remove_crossing(0)
        b.add_crossing(9, [20, 21, 20, 21], (0, 2))
        assert b.slots == {2: [src[2].slots[0], src[2].slots[1], src[2].slots[2], 2], 9: [20, 21, 20, 21]}
        assert b.over == {9: (0, 2)}
        assert b.touched_crossings == {0, 2, 9}
        assert all(b.slots_at(c) is src[c].slots for c in src if c not in (0, 2))
        assert b.slots_at(2) is b.slots[2] and b.slots_at(9) is b.slots[9]
        for c in (0, max(src) + 1):
            with pytest.raises(KeyError):
                b.slots_at(c)
        b.add_crossing(0, [1, 1, 1, 1], (1, 3))
        assert b.slots_at(0) == [1, 1, 1, 1] and b.over[0] == (1, 3)
        b.remove_crossing(9)
        assert 9 not in b.slots and 9 not in b.over

    def test_changed_edges_are_recorded_by_build(self, granny_sum):
        # removed, added and re-ended edges; not an edge whose component
        # alone was written, nor one re-added with its ends
        b = MapBuilder(granny_sum)
        assert b.changed_edges == []
        b.set_component(1, 4)
        reattach(b, 2, (2, 1), (2, 3))
        rec = b.edges[3]
        b.remove_edge(3)
        b.add_edge(3, list(rec.ends), rec.origin, rec.component)
        b.remove_edge(4)
        b.add_crossing(9, [30, 31, 30, 31], (1, 3))
        b.add_edge(30, [(9, 0), (9, 2)], None, 0)
        b.build()
        assert sorted(b.changed_edges) == [2, 4, 30]
        assert b.touched_edges == {1, 2, 3, 4, 30}

    def test_removing_a_missing_crossing_raises_key_error(self, granny_sum):
        b = MapBuilder(granny_sum)
        b.remove_crossing(0)
        for c in (0, max(granny_sum.crossings) + 1):
            with pytest.raises(KeyError):
                b.remove_crossing(c)
        assert 0 not in b.build().crossings
        # a crossing added again after its removal is built from the new
        # record, and one re-slotted keeps its source over strand
        b.add_crossing(0, list(granny_sum.crossings[0].slots), (0, 2))
        reattach(b, 2, (2, 1), (2, 3))
        out = b.build()
        assert out.crossings[0] == Crossing(0, granny_sum.crossings[0].slots, (0, 2))
        assert out.crossings[2].over_slots == granny_sum.crossings[2].over_slots


class TestStructure:
    def test_connected_pieces(self, trefoil, granny_sum):
        assert connected_pieces(trefoil) == 1
        assert connected_pieces(granny_sum) == 1
        two = parse_pd(TREFOIL + " O(7)")
        assert connected_pieces(two) == 1
        assert len(two.loops) == 1

    def test_components(self, trefoil, hopf):
        assert len(trefoil.components()) == 1
        assert len(hopf.components()) == 2

    def test_same_map_distinguishes(self, trefoil):
        assert not same_map(trefoil, flip_crossing(trefoil, 0))

    def test_drop_unknown_component(self, trefoil):
        # a parsed diagram: nothing to drop, so no relabelled copy either
        with pytest.raises(UnknownComponent):
            drop_component(trefoil, 7)

    def test_drop_unknown_component_of_an_augmentation(self):
        from altknot import augment

        from conftest import corpus_diagrams

        _seed, d = corpus_diagrams(1)[0]
        g = augment(d).g
        missing = max(g.components()) + 1
        # UnknownComponent, not the MappingError of a botched fusion
        with pytest.raises(UnknownComponent):
            drop_component(g, missing)

    def test_drop_a_crossing_free_component(self, trefoil):
        two = parse_pd(TREFOIL + " O(7)")
        out = drop_component(two, two.loops[7])
        assert not out.loops and out.crossings == trefoil.crossings

    def test_corner_cover(self, trefoil):
        fs = face_set(trefoil)
        corners = {(c, s) for c in trefoil.crossings for s in range(4)}
        assert set(corner_view(fs)) == corners
        assert len(fs.dart_face) == 4 * len(trefoil.crossings)

    def test_darts_are_corners_in_order(self, granny_sum):
        # dart 4 c + s names corner (c, s); a face's id is its least dart,
        # which is its least corner, and its darts start there
        fs = face_set(granny_sum)
        walk = [f for f in oracle_faces(granny_sum) if f.loop is None]
        assert [f.dart for f in walk] == sorted(fs.darts)
        for f in walk:
            ds = fs.darts[f.dart]
            assert f.corner_slots == tuple((x >> 2, x & 3) for x in ds)
            assert ds[0] == min(ds) == f.dart and all(fs.dart_face[x] == f.dart for x in ds)

    def test_a_gap_in_the_crossing_ids_leaves_darts_without_a_corner(self, granny_sum):
        # crossing 3 removed: its four darts name no corner
        from altknot.diagram import _build_face_set

        b = MapBuilder(granny_sum)
        b.weld((3, 0), (3, 2))
        b.weld((3, 1), (3, 3))
        b.remove_crossing(3)
        out = b.build()
        fs = _build_face_set(out)
        assert fs.dart_face[12:16] == [-1] * 4
        assert same_table(fs, out)


class TestFaceSetMemo:
    @staticmethod
    def _same_table(fs, d):
        from altknot.diagram import _build_face_set

        return same_table(fs, d) and same_table(_build_face_set(d), d)

    def test_interleaved_diagrams_get_their_own_table(self, trefoil, granny_sum):
        for d in (trefoil, granny_sum, trefoil, granny_sum, granny_sum):
            assert self._same_table(face_set(d), d)

    def test_equal_but_distinct_diagram_is_not_served_a_stale_table(self, trefoil):
        face_set(trefoil)
        flipped = flip_crossing(trefoil, 0)
        assert self._same_table(face_set(flipped), flipped)
        # the memo answers by identity, never by content
        twin = parse_pd(TREFOIL)
        assert face_set(twin) is not face_set(trefoil)

    def test_dead_diagram_does_not_answer_for_a_new_one(self):
        face_set(parse_pd(TREFOIL))
        d = braid_closure([1, -2, 1, -2], strands=3)
        assert self._same_table(face_set(d), d)

    def test_repeat_returns_the_same_table(self, granny_sum):
        assert face_set(granny_sum) is face_set(granny_sum)

    def test_broken_rotation_data_stops_the_walk(self, trefoil):
        from altknot.diagram import Edge, _build_face_set
        from altknot.errors import InvariantError

        # edge 1 claims the ends of edge 4: two edges now leave by the
        # same slot ends, and two slot ends lead nowhere
        edges = dict(trefoil.edges)
        edges[1] = Edge(1, trefoil.edges[4].ends, 1, 0)
        with pytest.raises(InvariantError):
            _build_face_set(Diagram(trefoil.crossings, edges))

    def test_twist_partition_kept_on_the_table(self, granny_sum):
        from altknot import twist_partition

        tp = twist_partition(granny_sum)
        assert twist_partition(granny_sum) is tp
        # a copy that shares the map shares the table and its partition
        assert twist_partition(mark_augmenting(granny_sum, 0)) is tp
        # an equal map built anew gets an equal partition of its own
        fresh = twist_partition(parse_pd(GRANNY_SUM))
        assert fresh is not tp and fresh == tp

    def test_pieces_and_edge_classes_kept_on_the_table(self, granny_sum):
        from altknot import classify_edges
        from altknot.diagram import _held_face_set

        fs = face_set(granny_sum)
        pieces, cls = connected_pieces(granny_sum), classify_edges(granny_sum)
        assert (fs.pieces, fs.classification) == (pieces, cls) and pieces == 1
        assert connected_pieces(granny_sum) == pieces
        assert classify_edges(granny_sum) is cls
        # copies that share the map take over the table and its facts
        copy = mark_augmenting(granny_sum, 0)
        assert _held_face_set(copy) is fs
        assert connected_pieces(copy) == pieces and classify_edges(copy) is cls
        copy = restamp_origins(copy)
        assert _held_face_set(copy) is fs
        assert connected_pieces(copy) == pieces and classify_edges(copy) is cls
        # an equal map built anew computes its own
        twin = parse_pd(GRANNY_SUM)
        twin_fs = face_set(twin)
        assert twin_fs is not fs and twin_fs.pieces == connected_pieces(twin) == pieces
        assert classify_edges(twin) is not cls and classify_edges(twin) == cls

    def test_facts_of_a_diagram_go_on_its_own_table(self, trefoil, granny_sum):
        from altknot import classify_edges
        from altknot.diagram import _held_face_set

        fs = face_set(trefoil)
        assert connected_pieces(granny_sum) == 1
        assert classify_edges(granny_sum).is_alternating
        # both facts went on the granny knot's own table, which the memo
        # now holds, and the trefoil's table kept none
        granny_fs = _held_face_set(granny_sum)
        assert granny_fs is not None and _held_face_set(trefoil) is None
        assert (granny_fs.pieces, granny_fs.classification) == (1, classify_edges(granny_sum))
        assert (fs.pieces, fs.classification) == (None, None)

    def test_only_the_diagram_module_reads_the_memo(self):
        # every other module reaches a table, and the facts kept on it,
        # through face_set
        from pathlib import Path

        import altknot

        package = Path(altknot.__file__).parent
        naming = sorted(
            p.name for p in package.glob("*.py")
            if "_held_face_set" in p.read_text() or "_last_face_set" in p.read_text()
        )
        assert naming == ["diagram.py"]

    def test_a_surgery_result_starts_with_no_facts(self, trefoil):
        from altknot import classify_edges
        from altknot.diagram import MapBuilder, _edited_face_set

        fs = face_set(trefoil)
        connected_pieces(trefoil)
        classify_edges(trefoil)
        b = MapBuilder(trefoil)
        # a flip: the same faces, other edge classes
        b.add_crossing(0, list(trefoil.crossings[0].slots), (0, 2))
        out = b.build()
        out_fs = _edited_face_set(b, fs, out)
        assert (out_fs.pieces, out_fs.classification, out_fs.partition) == (None, None, None)
        assert classify_edges(out) == classify_edges(flip_crossing(trefoil, 0))
        assert not classify_edges(out).is_alternating

    def test_no_derived_state_kept_on_the_diagram(self, granny_sum):
        from altknot import diagram_flags, twist_partition

        before = dict(vars(granny_sum))
        diagram_flags(granny_sum)
        twist_partition(granny_sum)
        assert vars(granny_sum) == before
