"""The augmentation pipeline: cut curves, overlay, merging, certificates."""

from dataclasses import replace

import pytest

from altknot import (
    augment,
    diagram,
    diagram_flags,
    build_cut_curves,
    certify_hyperbolic,
    classify_edges,
    detect_two_strand_torus,
    face_set,
    find_merge_arc,
    flip_crossing,
    join_curves,
    overlay_unlink,
    parse_pd,
    propagate_finger,
    serialize_pd,
    shading_classes,
    validate_diagram,
)
from altknot.augmentation import (
    MergeArc,
    _admissible_edges,
    _circle_crossings,
    _curve_faces,
    _d_bigon_faces,
    _nearest_circles,
    _thicken,
    _trace_arc,
)
from altknot.diagram import Diagram, Sign, _held_face_set, connected_pieces, is_connected
from altknot.errors import PreconditionError
from altknot.generate import random_knot_diagram, two_strand_torus
from altknot.selfcheck import verify_augmentation

from conftest import (
    TREFOIL,
    assert_overlay_matches_oracle,
    augment_by_stage,
    augment_recording_fingers,
    augment_recording_merge_arcs,
    corpus_diagrams,
    drop_component,
    euler_by_piece,
    finger_base_verdicts,
    link_diagrams,
    oracle_curve_crossings,
    oracle_finger_base,
    oracle_merge_arc,
    oracle_pieces,
    oracle_strand_runs,
    picked_finger_bases,
    refinement_check,
    same_map,
    shared_face,
    subdivide_edge_with_crossing,
)


def crossed_input_edges(g, d) -> dict[int, int]:
    """Crossing of ``g`` off ``d`` -> the edge of ``d`` whose strand passes
    it, by the strand runs of ``g`` out of ``d``'s crossings."""
    return {
        x: d.crossings[c].slots[s]
        for (c, s), (_end, _edges, passed) in oracle_strand_runs(g, set(d.crossings)).items()
        for x in passed
    }


class TestCutCurves:
    def test_flipped_trefoil_single_curve(self, trefoil):
        f = flip_crossing(trefoil, 0)
        cs = build_cut_curves(f)
        assert cs.thickened_crossings == frozenset({0})
        (curve,) = cs.curves
        # crosses the four edges around the flipped crossing, one circuit
        assert sorted(curve.edges) == [1, 2, 4, 5]
        labels = [f.edge_labels(e)[0].value for e in curve.edges]
        assert labels in (["+", "-"] * 2, ["-", "+"] * 2)

    def test_alternating_rejected(self, trefoil):
        with pytest.raises(PreconditionError):
            build_cut_curves(trefoil)

    def test_disconnected_rejected(self, trefoil):
        with pytest.raises(PreconditionError):
            build_cut_curves(parse_pd(TREFOIL + " O(9)"))

    def test_two_far_flips_two_curves(self):
        d = flip_crossing(flip_crossing(two_strand_torus(8), 0), 4)
        cs = build_cut_curves(d)
        assert len(cs.curves) == 2
        assert [len(c.edges) for c in cs.curves] == [4, 4]
        assert cs.thickened_crossings == frozenset({0, 4})

    def test_total_crossings_match_non_alternating(self):
        for seed, d in corpus_diagrams(10):
            cs = build_cut_curves(d)
            crossed = sorted(e for c in cs.curves for e in c.edges)
            assert crossed == sorted(classify_edges(d).non_alternating)

    def test_curve_signs_follow_labels(self, trefoil):
        # at every crossing the overlay adds, the curve passes over
        # exactly when the edge it crosses reads ++ (and under on --)
        seen = set()
        for d in [flip_crossing(trefoil, 0)] + [d for _seed, d in corpus_diagrams(4)]:
            g, cs = overlay_unlink(d, build_cut_curves(d))
            curves = {c.component for c in cs.curves}
            crossed_at = crossed_input_edges(g, d)
            assert crossed_at.keys() == set(g.crossings) - set(d.crossings)
            for x, crossed in crossed_at.items():
                c = g.crossings[x]
                on = [g.edges[e].component in curves for e in c.slots]
                assert on[0] != on[1]
                labels = d.edge_labels(crossed)
                curve_over = on[c.over_slots[0]]
                assert curve_over == (labels == (Sign.PLUS, Sign.PLUS)), (x, labels)
                seen.add(labels)
        assert seen == {(Sign.PLUS, Sign.PLUS), (Sign.MINUS, Sign.MINUS)}

    def test_either_class_works(self):
        # thickening the larger class, by the ribbon walk build_cut_curves
        # runs on the smaller one, satisfies the same promises and still
        # yields an alternating overlay
        for seed, d in corpus_diagrams(6):
            auto = build_cut_curves(d)
            other_sign = auto.thickened_class.opposite
            other = _thicken(d, classify_edges(d).non_alternating, shading_classes(d), other_sign)
            assert other.thickened_class == other_sign
            assert sorted(e for c in other.curves for e in c.edges) == sorted(
                e for c in auto.curves for e in c.edges
            )
            g, _cs = overlay_unlink(d, other)
            assert classify_edges(g).is_alternating


class TestOverlay:
    def test_one_pass_build_equals_the_builder(self, bench_inputs):
        # the overlay is built straight into the records; a builder, edit
        # by edit, gives the same records in the same order and the same
        # realized curves, on knots, links and the benchmark's inputs
        diagrams = [d for _seed, d in corpus_diagrams(40)] + [d for _seed, d in link_diagrams(16)]
        diagrams += [parse_pd(x.pd) for x in bench_inputs.large_inputs(1, n=64, lo=50, hi=110)]
        for d in diagrams:
            assert_overlay_matches_oracle(d)

    def test_flipped_trefoil_seven_crossings(self, trefoil):
        f = flip_crossing(trefoil, 0)
        g, cs2 = overlay_unlink(f, build_cut_curves(f))
        comps = [c.component for c in cs2.curves]
        assert len(g.crossings) == 7
        assert len(comps) == 1
        assert len(g.components()) == 2
        assert classify_edges(g).is_alternating
        assert is_connected(g)
        for v, e, fc in euler_by_piece(g):
            assert v - e + fc == 2

    def test_two_curve_overlay(self):
        d = flip_crossing(flip_crossing(two_strand_torus(8), 0), 4)
        g, cs2 = overlay_unlink(d, build_cut_curves(d))
        comps = [c.component for c in cs2.curves]
        assert len(comps) == 2
        assert classify_edges(g).is_alternating

    def test_forced_signs(self, trefoil):
        # at each curve crossing, the original strand carries the sign
        # opposite to the crossed edge's old double label
        f = flip_crossing(trefoil, 0)
        old_labels = {e: f.edge_labels(e)[0] for e in classify_edges(f).non_alternating}
        g, cs2 = overlay_unlink(f, build_cut_curves(f))
        (comp,) = [c.component for c in cs2.curves]
        crossed_at = crossed_input_edges(g, f)
        for c in g.crossings.values():
            comps = [g.edges[c.slots[0]].component, g.edges[c.slots[1]].component]
            if comp not in comps:
                continue
            d_slot = 1 if comps[0] == comp else 0
            assert g.label(c.id, d_slot) == old_labels[crossed_at[c.id]].opposite


class TestMergeArc:
    def test_two_flip_torus_direct_face(self):
        d = flip_crossing(flip_crossing(two_strand_torus(8), 0), 4)
        g, cs2 = overlay_unlink(d, build_cut_curves(d))
        comps = [c.component for c in cs2.curves]
        arc = find_merge_arc(g, comps)
        assert arc.phi == 0  # the big faces of the torus diagram touch both
        assert arc.source_curve == min(comps)

    def test_deterministic(self):
        for seed, d in corpus_diagrams(6, start_seed=40):
            cs = build_cut_curves(d)
            if len(cs.curves) < 2:
                continue
            g, cs2 = overlay_unlink(d, cs)
            comps = [c.component for c in cs2.curves]
            a1 = find_merge_arc(g, comps)
            a2 = find_merge_arc(g, comps)
            assert a1 == a2

    def test_merge_loop_calls_match_the_oracle(self, monkeypatch):
        # knots and links: every arc the merge loop asks for equals the
        # one the per-circle searches give
        diagrams = [d for _s, d in corpus_diagrams(40)] + [d for _s, d in link_diagrams(24)]
        _results, calls = augment_recording_merge_arcs(monkeypatch, diagrams)
        assert {arc.phi > 0 for _g, _live, arc in calls} == {False, True}
        for g, live, arc in calls:
            assert arc == oracle_merge_arc(g, live)

    def test_the_crossed_edge_filter_only_prunes(self, bench_inputs, monkeypatch):
        # an edge with an end at a circle crossing has both side faces on
        # that circle, so it joins two faces at distance 0 from it: the
        # search without the filter finds the same cost, source and arc
        diagrams = [parse_pd(x.pd) for seed in (0, 1) for x in bench_inputs.large_inputs(seed, n=64, lo=50, hi=110)]
        _results, calls = augment_recording_merge_arcs(monkeypatch, diagrams)
        searched = [(g, live, arc) for g, live, arc in calls if arc.phi > 0]
        assert len(searched) >= 30
        at_circles = pruned = 0
        for g, live, arc in searched:
            fs, comps = face_set(g), set(live)
            on_circles = _circle_crossings(g, comps)
            curve_faces = _curve_faces(g, fs, live)
            circle_at = {c: rec.component for rec in g.edges.values() if rec.component in comps for c, _s in rec.ends}
            for e, rec in g.edges.items():
                if rec.component in comps:
                    continue
                sides = set(fs.edge_sides(g, e))
                for c, _s in rec.ends:
                    if c in on_circles:
                        assert sides <= curve_faces[circle_at[c]], (e, c)
                        at_circles += 1
            filtered = _admissible_edges(g, fs, comps, on_circles)
            unfiltered = _admissible_table(g, fs, live, set())
            pruned += sum(map(len, unfiltered.values())) - sum(map(len, filtered.values()))
            best = _nearest_circles(filtered, curve_faces)
            assert best == (arc.phi, arc.source_curve)
            assert _nearest_circles(unfiltered, curve_faces) == best
            assert _trace_arc(unfiltered, curve_faces, *best) == arc
            assert _trace_arc(filtered, curve_faces, *best) == arc
        assert at_circles and pruned > 0

    def test_arc_respects_touched_edges(self):
        for seed, d in corpus_diagrams(20):
            cs = build_cut_curves(d)
            if len(cs.curves) < 2:
                continue
            g, cs2 = overlay_unlink(d, cs)
            comps = [c.component for c in cs2.curves]
            arc = find_merge_arc(g, comps)
            # the overlay keeps every input edge no circle crosses, by id
            crossed = {e for c in cs.curves for e in c.edges}
            for e in arc.edges:
                assert e in d.edges and e not in crossed
                assert g.edges[e].component not in comps
            assert len(set(arc.edges)) == arc.phi


def _admissible_table(g, fs, comps, on_circles):
    """Face -> (neighbouring face, edge) for every edge off the circles
    ``comps``, with no end in ``on_circles`` and off the original bigons,
    built edge by edge in id order."""
    banned = _d_bigon_faces(g, fs, set(comps))
    adj = {}
    for e, rec in sorted(g.edges.items()):
        if rec.component in set(comps) or not on_circles.isdisjoint(c for c, _s in rec.ends):
            continue
        l, r = fs.edge_sides(g, e)
        if l in banned or r in banned:
            continue
        adj.setdefault(l, []).append((r, e))
        adj.setdefault(r, []).append((l, e))
    return adj


def _synthetic_long_arcs(g, comps, length):
    """Admissible face paths of exactly ``length`` steps between two
    distinct curves, by brute-force enumeration."""
    fs = face_set(g)
    banned = _d_bigon_faces(g, fs, set(comps))
    adj = _admissible_table(g, fs, comps, _circle_crossings(g, set(comps)))
    curve_faces = _curve_faces(g, fs, comps)
    ci, cj = comps[0], comps[1]
    for f0 in sorted(curve_faces[ci] - banned):
        stack = [(f0, (f0,), (), frozenset())]
        while stack:
            f, fp, ep, used = stack.pop()
            if len(ep) == length:
                if f in curve_faces[cj] and f0 not in curve_faces[cj]:
                    yield MergeArc(ci, cj, fp, ep, length)
                continue
            for nf, e in adj.get(f, ()):
                if nf in fp or e in used:
                    continue
                stack.append((nf, fp + (nf,), ep + (e,), used | {e}))


class TestFinger:
    def _overlay_with_two_curves(self, start=0):
        for seed, d in corpus_diagrams(60, start_seed=start):
            cs = build_cut_curves(d)
            if len(cs.curves) >= 2:
                g, cs2 = overlay_unlink(d, cs)
                return d, g, [c.component for c in cs2.curves]
        pytest.skip("no two-curve overlay found")

    def test_single_edge_finger(self):
        found = 0
        for start in (0, 30, 60, 90):
            d, g, comps = self._overlay_with_two_curves(start)
            for arc in _synthetic_long_arcs(g, comps, 1):
                out = propagate_finger(g, arc)
                assert validate_diagram(out).valid
                assert classify_edges(out).is_alternating
                assert len(out.crossings) == len(g.crossings) + 2
                found += 1
                break
            if found:
                break
        assert found, "no length-1 arc available in the sampled overlays"

    def test_two_edge_finger_full_labels(self):
        found = 0
        for start in (0, 60, 120):
            d, g, comps = self._overlay_with_two_curves(start)
            for arc in _synthetic_long_arcs(g, comps, 2):
                out = propagate_finger(g, arc)
                rep = validate_diagram(out)
                assert rep.valid, rep.failures
                assert classify_edges(out).is_alternating
                assert len(out.crossings) == len(g.crossings) + 4
                for v, e, fc in euler_by_piece(out):
                    assert v - e + fc == 2
                # curve stays a single simple circle
                aug = arc.source_curve
                for c in out.crossings.values():
                    strand_comps = [
                        out.edges[c.slots[0]].component,
                        out.edges[c.slots[1]].component,
                    ]
                    assert strand_comps.count(aug) <= 1
                found += 1
                break
            if found:
                break
        assert found, "no two-edge arc available in the sampled overlays"

    def test_every_base_on_the_first_face_passes(self, monkeypatch):
        # propagate_finger builds on the least circle edge of the first
        # face and does not search: every such edge must be a good base
        diagrams = [d for _seed, d in corpus_diagrams(40) + link_diagrams(16)]
        _results, arcs = augment_recording_fingers(monkeypatch, diagrams)
        assert len(arcs) >= 3
        for d in diagrams:
            cs = build_cut_curves(d)
            if len(cs.curves) < 2:
                continue
            g, cs2 = overlay_unlink(d, cs)
            comps = [c.component for c in cs2.curves]
            for length in (1, 2):
                arcs += [(g, arc) for arc in _synthetic_long_arcs(g, comps, length)]
        verdicts = finger_base_verdicts(monkeypatch, arcs)
        assert len(verdicts) >= len(arcs) >= 100
        assert all(v == [] for v in verdicts)

    def test_base_is_the_least_circle_edge_on_the_first_face(self, monkeypatch):
        # the base read off the first face's boundary is the least over
        # every edge of the map
        diagrams = [d for _seed, d in corpus_diagrams(40) + link_diagrams(16)]
        _results, arcs = augment_recording_fingers(monkeypatch, diagrams)
        assert len(arcs) >= 3
        assert picked_finger_bases(monkeypatch, arcs) == [oracle_finger_base(g, arc) for g, arc in arcs]

    def test_base_is_the_least_of_several_candidates(self, monkeypatch, bench_inputs):
        # two augment-large inputs whose first finger face borders the
        # source circle along 3 and 6 edges: a greatest base differs there
        items = {x.name: x for x in bench_inputs.large_inputs(1, n=64, lo=50, hi=110)}
        diagrams = [parse_pd(items[name].pd) for name in ("a12", "a28")]
        _results, arcs = augment_recording_fingers(monkeypatch, diagrams)
        candidates = [
            [e for e in face_set(g).edges(g, arc.faces[0])
             if g.edges[e].component == arc.source_curve]
            for g, arc in arcs
        ]
        assert max(len(es) for es in candidates) >= 2
        assert picked_finger_bases(monkeypatch, arcs) == [oracle_finger_base(g, arc) for g, arc in arcs]

    def test_zero_length_arc_noop(self):
        d, g, comps = self._overlay_with_two_curves()
        arc = find_merge_arc(g, comps)
        if arc.phi != 0:
            pytest.skip("sampled overlay needs a real finger")
        assert propagate_finger(g, arc) is g


class TestJoin:
    def test_join_after_merge_arc(self):
        d, g, comps = TestFinger()._overlay_with_two_curves()
        arc = find_merge_arc(g, comps)
        g2 = propagate_finger(g, arc)
        face = shared_face(g2, arc.source_curve, arc.target_curve)
        g3 = join_curves(g2, arc.source_curve, arc.target_curve, face)
        assert validate_diagram(g3).valid
        assert classify_edges(g3).is_alternating
        assert len(g3.components()) == len(g2.components()) - 1

    def test_join_keeps_curves_simple(self):
        d, g, comps = TestFinger()._overlay_with_two_curves()
        arc = find_merge_arc(g, comps)
        g2 = propagate_finger(g, arc)
        face = shared_face(g2, arc.source_curve, arc.target_curve)
        g3 = join_curves(g2, arc.source_curve, arc.target_curve, face)
        merged = min(arc.source_curve, arc.target_curve)
        for c in g3.crossings.values():
            comps_at = [
                g3.edges[c.slots[0]].component,
                g3.edges[c.slots[1]].component,
            ]
            assert comps_at.count(merged) <= 1


def _labels_around_faces(g):
    """(departure labels, arrival labels) of each face of ``g`` with
    corners: at corner (c, s) the edge in slot s + 1 departs and the edge
    in slot s arrives."""
    return [
        ({g.label(x >> 2, x + 1) for x in ds}, {g.label(x >> 2, x) for x in ds})
        for ds in face_set(g).darts.values()
    ]


class TestFaceLabels:
    def test_one_departure_and_one_arrival_label_per_face(self):
        # the fact the band splice rests on: along each face of an
        # alternating diagram every departure carries one label and every
        # arrival the other
        checked = 0
        for _seed, d in corpus_diagrams(40) + link_diagrams(16):
            g, _cs = overlay_unlink(d, build_cut_curves(d))
            for m in (g, augment(d).g):
                for dep, arr in _labels_around_faces(m):
                    assert len(dep) == len(arr) == 1 and dep != arr
                    checked += 1
        assert checked > 1000
        # and about alternating diagrams only
        flipped = flip_crossing(parse_pd(TREFOIL), 0)
        assert any(len(dep) > 1 or len(arr) > 1 for dep, arr in _labels_around_faces(flipped))


class TestGuardRails:
    def test_no_path_error_for_phantom_curve(self):
        from altknot.errors import NoPathError

        d, g, comps = TestFinger()._overlay_with_two_curves()
        with pytest.raises(NoPathError):
            find_merge_arc(g, [comps[0], 9999])

    def test_join_error_when_face_misses_a_curve(self):
        # hand the join a face the target circle does not border: no pair
        # of circle edges exists there, and the join must fail loudly
        from altknot.errors import JoinError

        d, g, comps = TestFinger()._overlay_with_two_curves()
        fs = face_set(g)
        curve_faces = _curve_faces(g, fs, comps)
        only_ci = sorted(curve_faces[comps[0]] - curve_faces[comps[1]])
        if not only_ci:
            pytest.skip("every face of the first circle touches the second")
        with pytest.raises(JoinError):
            join_curves(g, comps[0], comps[1], only_ci[0])

    def test_join_error_without_a_build_when_the_first_pair_agrees(self, monkeypatch):
        # flip the crossing the target circle's first edge departs from:
        # the stubs the band would pair then carry one label, and the
        # join must refuse before it builds anything
        from altknot import augmentation
        from altknot.errors import JoinError

        d, g, comps = TestFinger()._overlay_with_two_curves()
        arc = find_merge_arc(g, comps)
        g = propagate_finger(g, arc)
        ci, cj = arc.source_curve, arc.target_curve
        face = shared_face(g, ci, cj)
        walk = augmentation._face_edge_walk(g, face_set(g), face)
        _ea, _dep_a, arr_a = next(w for w in walk if g.edges[w[0]].component == ci)
        _eb, dep_b, _arr_b = next(w for w in walk if g.edges[w[0]].component == cj)
        assert g.label(*arr_a) != g.label(*dep_b)
        # the circles never cross, so the two stubs sit at two crossings
        assert arr_a[0] != dep_b[0]
        flipped = flip_crossing(g, dep_b[0])
        assert flipped.label(*arr_a) == flipped.label(*dep_b)

        def no_build(_g):
            raise AssertionError("join_curves built a map")

        monkeypatch.setattr(augmentation, "MapBuilder", no_build)
        with pytest.raises(JoinError):
            join_curves(flipped, ci, cj, face)

    def test_ids_the_map_lacks_are_refused_without_a_build(self, monkeypatch):
        # a circle joined to itself, a face id past every dart, below
        # zero or naming a corner that is not its face's least, and an
        # arc through a face or an edge the map lacks are refused in the
        # package's own errors before anything is built, not with a bare
        # KeyError or IndexError
        from dataclasses import replace

        from altknot import augmentation
        from altknot.errors import JoinError, UnknownEdge, UnknownFace

        for start in (0, 30, 60, 90):
            d, g, comps = TestFinger()._overlay_with_two_curves(start)
            arc = next(_synthetic_long_arcs(g, comps, 1), None)
            if arc is not None:
                break
        ci, cj = arc.source_curve, arc.target_curve
        fs = face_set(g)
        on_ci = min(_curve_faces(g, fs, [ci])[ci])

        def no_build(_g):
            raise AssertionError("a stage built a map")

        monkeypatch.setattr(augmentation, "MapBuilder", no_build)
        with pytest.raises(JoinError):
            join_curves(g, ci, ci, on_ci)
        not_least = fs.darts[on_ci][1]
        assert not_least not in fs.darts
        for f in (len(fs.dart_face), -1, not_least):
            with pytest.raises(UnknownFace):
                join_curves(g, ci, cj, f)
            with pytest.raises(UnknownFace):
                propagate_finger(g, replace(arc, faces=(f,) + arc.faces[1:]))
            with pytest.raises(UnknownFace):
                propagate_finger(g, replace(arc, faces=arc.faces[:-1] + (f,)))
        with pytest.raises(UnknownEdge):
            propagate_finger(g, replace(arc, edges=(g.next_edge_id(),)))

    def test_loop_faces_are_refused_as_faces_the_map_lacks(self):
        # a crossing-free loop's two faces have no darts, so no id: the
        # table of the map with a loop added has the same faces, and the
        # stages refuse the ids past its darts that a loop face could be
        # taken to have, rather than reading an empty face
        from altknot.errors import UnknownFace

        for start in (0, 30, 60, 90):
            d, g, comps = TestFinger()._overlay_with_two_curves(start)
            arc = next(_synthetic_long_arcs(g, comps, 1), None)
            if arc is not None:
                break
        looped = Diagram(g.crossings, g.edges, {g.next_edge_id(): g.next_component_id()}, g.augmenting_component)
        ids = face_set(g).darts.keys()
        fs = face_set(looped)
        assert fs.darts.keys() == ids
        past = len(fs.dart_face)
        for f in (past, past + 1):
            with pytest.raises(UnknownFace):
                join_curves(looped, arc.source_curve, arc.target_curve, f)
            with pytest.raises(UnknownFace):
                propagate_finger(looped, replace(arc, faces=(f,) + arc.faces[1:]))

    def test_augment_deterministic(self):
        from altknot import serialize_pd

        (seed, d), = corpus_diagrams(1, start_seed=9)
        a = augment(d)
        b = augment(d)
        assert serialize_pd(a.g) == serialize_pd(b.g)
        assert a.to_json() == b.to_json()


class TestAugment:
    def test_preconditions(self, trefoil, kink_unknot, granny_sum):
        with pytest.raises(PreconditionError) as e:
            augment(trefoil)
        assert e.value.failed_flag == "non_alternating"
        with pytest.raises(PreconditionError):
            augment(kink_unknot)  # not reduced
        with pytest.raises(PreconditionError) as e:
            augment(flip_crossing(granny_sum, 0))
        assert e.value.failed_flag in ("prime", "r2_reduced")

    def test_flipped_trefoil_preprocesses_away(self, trefoil):
        from altknot import preprocess

        red, _ = preprocess(flip_crossing(trefoil, 0))
        with pytest.raises(PreconditionError):
            augment(red)  # the unknot loop is alternating

    def test_corpus_end_to_end(self):
        ks = 0
        for seed, d in corpus_diagrams(40):
            res = augment(d)
            assert verify_augmentation(d, res) == []
            assert len(res.merges) == len(res.cut_system.curves) - 1
            assert all(c.component is not None for c in res.cut_system.curves)
            ks += 1
        assert ks == 40

    def test_edge_order_does_not_change_the_report(self, bench_inputs):
        # surgery hands its edges on in write order, so no report may
        # depend on the order of a diagram's edges dict
        for item in bench_inputs.large_inputs(1, n=16, lo=50, hi=110):
            d = parse_pd(item.pd)
            rev = Diagram(d.crossings, dict(reversed(d.edges.items())), d.loops)
            assert list(rev.edges) != list(d.edges)
            assert augment(rev).to_json() == augment(d).to_json(), item.name

    def test_single_curve_case_has_no_merges(self, trefoil):
        # two adjacent flips on a bigger torus diagram give one curve
        for seed, d in corpus_diagrams(30):
            res = augment(d)
            if len(res.cut_system.curves) == 1:
                assert res.merges == []
                return
        pytest.skip("sampled corpus had no single-curve case")

    def test_blocks_that_are_not_twist_reduced(self, bench_inputs):
        # cli-batch blocks whose G has one crossing key shared by two
        # twist regions, so t_G is one more than its number of
        # twist-equivalence classes (ROADMAP item 1)
        want = {
            (0, "f8-b3"): (18, 30),
            (0, "f10-b3"): (5, 9),
            (1, "f26-b3"): (15, 29),
            (2, "f13-b1"): (8, 16),
        }
        blocks = {
            (seed, b.name): b
            for seed in (0, 1, 2)
            for f in bench_inputs.batch_inputs(seed, n_files=30, blocks=4)
            for b in f.blocks
        }
        for key, counts in want.items():
            d = parse_pd(blocks[key].pd)
            res = augment(d)
            assert (res.t_D, res.t_G) == counts, key
            assert verify_augmentation(d, res) == [], key

    def test_refinement_on_output(self):
        for seed, d in corpus_diagrams(8):
            res = augment(d)
            assert refinement_check(res.g, augmenting=res.augmenting_component, expected_d=d) == []
            assert res.t_G == res.t_D + res.i_A_D

    def test_multi_component_link_inputs(self):
        # the construction is stated for links, not just knots
        import random

        from altknot import preprocess
        from altknot.generate import braid_closure

        found = 0
        for seed in range(200):
            rng = random.Random(seed)
            strands = rng.randint(3, 5)
            gens = [i for i in range(-(strands - 1), strands) if i != 0]
            word = [rng.choice(gens) for _ in range(rng.randint(6, 18))]
            d = braid_closure(word, strands=strands)
            if d.loops or len(d.components()) < 2:
                continue
            for _ in range(rng.randint(1, 3)):
                d = flip_crossing(d, rng.choice(sorted(d.crossings)))
            d, _ = preprocess(d)
            if d.loops or not d.crossings or len(d.components()) < 2:
                continue
            fl = diagram_flags(d)
            cls = classify_edges(d)
            if not (fl.connected and fl.reduced and fl.r2_reduced
                    and fl.prime and cls.is_non_alternating):
                continue
            res = augment(d)
            assert verify_augmentation(d, res) == [], seed
            found += 1
            if found >= 6:
                break
        assert found >= 6


    def test_large_links_audited_stage_by_stage(self):
        # 2- and 3-component links above 30 crossings: every stage passes
        # the whole-map check, whatever the local checks in between said
        cases = link_diagrams(24)
        assert {len(d.components()) for _seed, d in cases} == {2, 3}
        merges = 0
        for seed, d in cases:
            assert len(d.crossings) > 30
            res, stages = augment_by_stage(augment, d)
            for name, g in stages:
                rep = validate_diagram(g)
                assert rep.valid, (seed, name, rep.failures)
                assert classify_edges(g).is_alternating, (seed, name)
            assert verify_augmentation(d, res) == [], seed
            merges += len(res.merges)
        assert merges >= 10


def _cases_for_caches():
    return [d for _seed, d in corpus_diagrams(8)] + [d for _seed, d in link_diagrams(4)]


def _finger_tip(res):
    """``res.g`` with a finger of its curve pushed across one edge, the
    first admissible edge on the least face the curve borders: the
    finger's tip and the middle piece of that edge bound a bigon, which
    no join removes.  None when no face the curve borders has one."""
    g, aug = res.g, res.augmenting_component
    fs = face_set(g)
    allowed = _admissible_edges(g, fs, {aug}, _circle_crossings(g, {aug}))
    faces = sorted({f for e, r in g.edges.items() if r.component == aug for f in fs.edge_sides(g, e)})
    for f0 in faces:
        for f1, e in sorted(allowed.get(f0, ())):
            return diagram.mark_augmenting(propagate_finger(g, MergeArc(aug, aug, (f0, f1), (e,), 1)), aug)
    return None


def _rebuilt(x):
    """An equal diagram the memo holds no table for."""
    return Diagram(dict(x.crossings), dict(x.edges), dict(x.loops), x.augmenting_component)


class TestWholeMapFactsOncePerMap:
    @staticmethod
    def _check_table(x, fs):
        # the facts kept on x's table equal those an equal diagram keeps
        # on a table of its own; the memo is put back, so that the merge
        # loop still follows the table it left
        assert fs.pieces is not None and fs.classification is not None
        twin = _rebuilt(x)
        held = diagram._last_face_set
        try:
            assert connected_pieces(twin) == fs.pieces
            assert classify_edges(twin) == fs.classification
            twin_fs = _held_face_set(twin)
            assert twin_fs is not fs and (twin_fs.pieces, twin_fs.classification) == (fs.pieces, fs.classification)
        finally:
            diagram._last_face_set = held

    def test_cached_facts_equal_fresh_ones(self, monkeypatch):
        # every table augment makes comes with its piece count: the
        # overlay's from its whole walk, each finger's and join's from
        # check_edit, so connected_pieces never counts one itself
        from altknot import augmentation, diagram as diagram_module, edits

        inputs = []
        real_cut_curves = augmentation.build_cut_curves

        def cut_curves(d):
            # the input, with the table augment left for it
            inputs.append((d, _held_face_set(d)))
            return real_cut_curves(d)

        uncounted = []
        real_pieces = diagram_module.connected_pieces

        def pieces(d):
            # face_set(d) is the table the real call reads
            if diagram_module.face_set(d).pieces is None:
                uncounted.append(d)
            return real_pieces(d)

        monkeypatch.setattr(augmentation, "build_cut_curves", cut_curves)
        monkeypatch.setattr(diagram_module, "connected_pieces", pieces)
        monkeypatch.setattr(edits, "connected_pieces", pieces)
        seen = {}
        for d in _cases_for_caches():
            inputs.clear()

            def check_stage(name, g):
                fs = _held_face_set(g)
                assert fs is not None, name
                assert fs.pieces == len(oracle_pieces(g)), name
                if name == "overlay":
                    # filled by the overlay's own checks
                    self._check_table(g, fs)
                seen[name] = seen.get(name, 0) + 1
                assert classify_edges(g) is fs.classification is not None
                self._check_table(g, fs)

            res, _stages = augment_by_stage(augment, d, each=check_stage)
            (d_in, d_fs), = inputs
            self._check_table(d_in, d_fs)
            g_fs = _held_face_set(res.g)
            assert g_fs is not None and g_fs.pieces == len(oracle_pieces(res.g))
            self._check_table(res.g, g_fs)
        assert seen["overlay"] > 0 and seen["finger"] > 0 and seen["join"] > 0
        assert uncounted == []

    def test_refinement_report_equals_the_public_check(self):
        # certify's check 7 and the independent oracle agree on each
        # output, which both pass, and on the output with a finger tip
        # pushed into it, which both refuse
        from altknot import twist_partition
        from altknot.augmentation import certify

        refused = 0
        for d in _cases_for_caches():
            res = augment(d)
            aug = res.augmenting_component
            for g in (res.g, _finger_tip(res)):
                checked = certify(d, face_set(d), twist_partition(d), g, aug)
                mine = any("twist identity" in str(exc) for exc in checked.failures)
                assert mine == bool(refinement_check(g, augmenting=aug, expected_d=d))
                refused += mine
        assert refused == len(_cases_for_caches())

    def test_reconstruction_must_be_the_input_verbatim(self, monkeypatch):
        # the verbatim test is read off the augmented map, so each mutant
        # corrupts g itself.  Re-slotting an input crossing keeps the same
        # map (its reconstruction passes same_map), so only the verbatim
        # comparison can catch it
        from altknot import analysis, augmentation
        from altknot.diagram import Crossing, Edge
        from altknot.errors import MappingError, UnknownComponent

        # a link whose curve crosses some original edge twice, after a finger
        d, res = next(
            (d, res) for _seed, d in link_diagrams(24)
            for res in [augment(d)] if any(m.arc.phi > 0 for m in res.merges)
        )
        g, aug = res.g, res.augmenting_component
        analysis.reconstruct_input(g, aug, d)

        def reslot(g, c, turn=1):
            # crossing c's slots numbered from the ``turn``-th one on, with
            # the over strand kept on the same edges
            x = g.crossings[c]
            over = x.over_slots if turn % 2 == 0 else (1, 3) if x.over_slots == (0, 2) else (0, 2)
            crossings = dict(g.crossings)
            crossings[c] = Crossing(c, x.slots[turn:] + x.slots[:turn], over)
            edges = {
                e: Edge(e, tuple((cc, (s - turn) % 4) if cc == c else (cc, s) for cc, s in r.ends), r.component)
                for e, r in g.edges.items()
            }
            return Diagram(crossings, edges, g.loops, g.augmenting_component)

        # a quarter turn moves the over strand to the other slot pair; a
        # half turn keeps it there, so only the walk from the crossing's
        # slots tells it from the input
        reslotted = reslot(g, min(d.crossings))
        half_turned = reslot(g, min(d.crossings), 2)
        assert half_turned.crossings[min(d.crossings)].over_slots == d.crossings[min(d.crossings)].over_slots
        for mutant in (reslotted, half_turned):
            assert validate_diagram(mutant).valid
            assert same_map(drop_component(mutant, aug), drop_component(g, aug))

        # an original edge split at a crossing the curve is not on
        piece = min(e for e, r in g.edges.items() if r.component != aug)
        split = subdivide_edge_with_crossing(g, piece, Sign.PLUS)

        # the curve crossing itself, at a crossing on one of its own edges
        own = min(e for e, r in g.edges.items() if r.component == aug)
        self_crossing = subdivide_edge_with_crossing(g, own, Sign.PLUS, new_component=aug)

        # a loop of the input that g lacks: with the loop both pass
        k, comp = g.next_edge_id(), g.next_component_id()
        g_loop = Diagram(g.crossings, g.edges, {**g.loops, k: comp}, aug)
        d_loop = Diagram(d.crossings, d.edges, {k: 0}, None)
        analysis.reconstruct_input(g_loop, aug, d_loop)

        for mutant, expected, why in (
            (reslotted, d, "crossing .* differs"),
            (half_turned, d, r"edge \d+ (ends at|is not one strand)"),
            (split, d, "not carry component"),
            (self_crossing, d, f"crossing {max(self_crossing.crossings)} does not carry .* exactly one strand"),
            (g, d_loop, "loops differ"),
        ):
            with pytest.raises(MappingError, match=f"verbatim: .*{why}"):
                analysis.reconstruct_input(mutant, aug, expected)
        # the input itself, with no curve on it, is not a vacuous pass
        with pytest.raises(UnknownComponent):
            analysis.reconstruct_input(d, aug, d)
        # the independent re-check builds the reconstruction and catches it too
        for mutant in (reslotted, half_turned):
            with pytest.raises(MappingError, match="verbatim"):
                refinement_check(mutant, augmenting=aug, expected_d=d)

        # augment runs the test on the map it made
        real = augmentation.reconstruct_input
        monkeypatch.setattr(
            augmentation, "reconstruct_input",
            lambda g, aug, expected_d: real(reslot(g, min(d.crossings)), aug, expected_d),
        )
        with pytest.raises(MappingError, match="verbatim"):
            augment(d)

    def test_curve_crossings_are_the_census(self):
        # the reconstruction walk counts, per input edge, what a census of
        # g's crossings counts, and the counts sum to the reported i(A, D)
        from altknot import analysis

        twice = 0
        for d in [d for _s, d in corpus_diagrams(40)] + [d for _s, d in link_diagrams(24)]:
            res = augment(d)
            g, aug = res.g, res.augmenting_component
            crossed = analysis.reconstruct_input(g, aug, d)
            assert crossed == oracle_curve_crossings(g, aug, d)
            assert sum(crossed.values()) == res.i_A_D
            twice += sum(n == 2 for n in crossed.values())
        assert twice > 0

    def test_exit_checks_read_the_census(self, monkeypatch):
        # a count on an edge inside a twist region, or of three on one
        # edge, stops augment with the check's own message; so does every
        # other exit check, forced to fail on the final map (the one
        # marked with its augmenting component), with its own type
        from dataclasses import replace

        from altknot import analysis, augmentation, twist_partition
        from altknot.errors import AlternationError, InvariantError

        d = next(d for _s, d in corpus_diagrams(10) if twist_partition(d).bigon_faces)
        res = augment(d)
        t_d, t_g = res.t_D, res.t_G
        assert t_d < t_g
        fs = face_set(d)
        in_twist = {e for f in twist_partition(d).bigon_faces for e in fs.edges(d, f)}
        inside, free = min(in_twist), min(set(d.edges) - in_twist)
        all_free = set(d.edges) - in_twist
        real = analysis.reconstruct_input
        for extra, why in (
            ({inside: 1}, f"augmenting curve crosses edge {inside} inside a twist region"),
            ({free: 3}, "some original edge is crossed more than twice"),
        ):
            monkeypatch.setattr(
                augmentation, "reconstruct_input",
                lambda g, aug, expected_d, extra=extra: {**real(g, aug, expected_d), **extra},
            )
            with pytest.raises(InvariantError, match=why):
                augment(d)
        monkeypatch.undo()

        def on_final(name, alter, final=lambda x: x.augmenting_component is not None):
            # ``name``'s result passed through ``alter`` where ``final``
            # holds of its first argument
            real = getattr(augmentation, name)

            def forced(x, *args):
                out = real(x, *args)
                return alter(out) if final(x) else out

            return name, forced

        cert = certify_hyperbolic(res.g)
        first, second = twist_partition(res.g).regions[:2]
        merged = replace(first, crossings=first.crossings | second.crossings)
        for patches, kind, message in (
            ([on_final("validate_diagram", lambda rep: replace(rep, valid=False, failures=["forced"]))],
             InvariantError, "final diagram invalid: ['forced']"),
            ([on_final("classify_edges", lambda cls: replace(cls, is_alternating=False))],
             AlternationError, "final diagram is not alternating"),
            ([on_final("certify_hyperbolic", lambda c: replace(c, verdict="not_certified"))],
             InvariantError,
             f"augmentation failed certification: {replace(cert, verdict='not_certified')}"),
            ([on_final("twist_partition", lambda tp: replace(tp, regions=(merged,) + tp.regions[2:]))],
             InvariantError,
             f"twist identity fails: G's twist region {sorted(merged.crossings)} "
             "is neither a twist region of D nor one crossing of the curve"),
            ([on_final("twist_partition", lambda tp: replace(tp, t=5 * t_d + 1))],
             InvariantError, f"twist bound violated: t_D={t_d}, t_G={5 * t_d + 1}"),
            ([("reconstruct_input", lambda g, aug, expected_d: {})],
             InvariantError, f"twist count is not t_D + i: t_G={t_g}, t_D={t_d}, i=0"),
        ):
            for name, fn in patches:
                monkeypatch.setattr(augmentation, name, fn)
            with pytest.raises(kind) as exc:
                augment(d)
            assert (type(exc.value), str(exc.value)) == (kind, message)
            monkeypatch.undo()

        # every free edge crossed twice is i = 2 |free edges| = 4 t(D): both
        # halves of check 10 hold with equality.  Checks 4 and 5 give the
        # first half and checks 8 and 9 the second, so check 10 fails only
        # after one of them, and certify lists each failure
        twice = dict.fromkeys(all_free, 2)
        i = 2 * len(all_free)
        assert i == 4 * t_d

        def count(i, t):
            return (InvariantError, f"twist count is not t_D + i: t_G={t_g}, t_D={t}, i={i}")

        def bound(i, t):
            return (InvariantError, f"crossing-count bound violated: i={i}, t_D={t}")

        for crossed, t, expected in (
            (twice, t_d, [count(i, t_d)]),
            (twice, t_d - 1, [count(i, t_d - 1), bound(i, t_d - 1)]),
            # one edge crossed three times: i = 2 |free edges| + 1 <= 4 t(D)
            ({**twice, free: 3}, t_d + 1, [
                (InvariantError, "some original edge is crossed more than twice"),
                count(i + 1, t_d + 1), bound(i + 1, t_d + 1),
            ]),
        ):
            monkeypatch.setattr(augmentation, "reconstruct_input", lambda g, aug, expected_d: crossed)
            checked = augmentation.certify(d, fs, replace(twist_partition(d), t=t), res.g, res.augmenting_component)
            assert [(type(exc), str(exc)) for exc in checked.failures] == expected


# results that do not match their input, each made from a true one
_TAMPERS = {
    "unknown-curve": lambda d, res: replace(res, augmenting_component=99),
    "input-as-G": lambda d, res: replace(res, g=d),
    "input-crossing-flipped": lambda d, res: replace(res, g=flip_crossing(res.g, min(res.g.crossings))),
    "t_G-plus-1": lambda d, res: replace(res, t_G=res.t_G + 1),
    "i_A_D-plus-1": lambda d, res: replace(res, i_A_D=res.i_A_D + 1),
}


class TestCertify:
    @pytest.mark.parametrize("tamper", list(_TAMPERS.values()), ids=list(_TAMPERS))
    def test_verify_reports_a_tampered_result(self, tamper):
        # reported line by line, never raised
        d, _ = random_knot_diagram(3, 14, 2)
        res = augment(d)
        assert verify_augmentation(d, res) == []
        assert verify_augmentation(d, tamper(d, res)) != []

    def test_a_reparsed_g_verifies_clean(self, bench_inputs):
        # G parsed back from its PD text: nothing in the text says which
        # input edge each edge of G was cut from, and certify reads that
        # off the map, so the text alone certifies
        pds = [x.pd for seed in (0, 1) for x in bench_inputs.large_inputs(seed, n=64, lo=50, hi=110)]
        assert len(pds) == 128
        for pd in pds:
            d = parse_pd(pd)
            res = augment(d)
            reparsed = parse_pd(serialize_pd(res.g))
            assert verify_augmentation(d, replace(res, g=reparsed)) == [], pd

    def test_a_finger_tip_bigon_is_refused(self, monkeypatch):
        # a finger of the final curve pushed across one uncrossed edge,
        # outside every twist region: G stays valid, alternating and
        # hyperbolic, with each edge crossed at most twice, and its
        # twist count is t_D + i - 1, since the tip and the edge's middle
        # piece bound a bigon of two crossings of the curve.  Check 7
        # refuses it, and augment refuses such a G of its own
        from altknot import augmentation, twist_partition
        from altknot.augmentation import certify
        from altknot.errors import InvariantError

        for _seed, d in corpus_diagrams(6):
            res = augment(d)
            g = _finger_tip(res)
            checked = certify(d, face_set(d), twist_partition(d), g, res.augmenting_component)
            assert (checked.t_G, checked.i_A_D) == (res.t_G + 1, res.i_A_D + 2)
            tip = sorted(g.crossings.keys() - res.g.crossings.keys())
            message = (f"twist identity fails: G's twist region {tip} "
                       "is neither a twist region of D nor one crossing of the curve")
            assert [(type(exc), str(exc)) for exc in checked.failures] == [
                (InvariantError, message),
                (InvariantError, f"twist count is not t_D + i: t_G={res.t_G + 1}, t_D={res.t_D}, i={res.i_A_D + 2}"),
            ]
            real = augmentation.mark_augmenting
            monkeypatch.setattr(
                augmentation, "mark_augmenting",
                lambda g, comp: _finger_tip(replace(res, g=real(g, comp))),
            )
            with pytest.raises(InvariantError) as exc:
                augment(d)
            assert str(exc.value) == message
            monkeypatch.undo()

    def test_input_crossing_renamed_fails_the_refinement_map(self):
        # G with one of the input's crossings under a fresh id is still a
        # valid map, so certify reaches the refinement check, which cannot
        # map the input's crossings into G
        from altknot import twist_partition
        from altknot.augmentation import certify
        from altknot.diagram import Crossing, Edge
        from altknot.errors import MappingError

        d, _ = random_knot_diagram(3, 14, 2)
        res = augment(d)
        old, new = min(d.crossings), max(res.g.crossings) + 1
        x = res.g.crossings[old]
        crossings = {c: r for c, r in res.g.crossings.items() if c != old}
        crossings[new] = Crossing(new, x.slots, x.over_slots)
        edges = {
            e: Edge(e, tuple((new if c == old else c, s) for c, s in r.ends), r.component)
            for e, r in res.g.edges.items()
        }
        g = Diagram(crossings, edges, res.g.loops, res.g.augmenting_component)
        assert validate_diagram(g).valid
        checked = certify(d, face_set(d), twist_partition(d), g, res.augmenting_component)
        failures = [(type(exc), str(exc)) for exc in checked.failures]
        assert (MappingError, "reconstructed crossings are not a subset of the ambient ones") in failures

    def test_t_G_equal_to_t_D_keeps_the_twist_bound(self):
        # check 8's lower bound reached with equality: G is the input
        # itself, which breaks other promises but not t(D) <= t(G)
        from altknot import twist_partition
        from altknot.augmentation import certify

        d, _ = random_knot_diagram(3, 14, 2)
        tp = twist_partition(d)
        checked = certify(d, face_set(d), tp, d, min(d.components()))
        assert checked.t_G == tp.t and checked.failures
        assert not any("twist bound violated" in str(exc) for exc in checked.failures)
        # nor the twist identity: G has d's crossings, and d's regions
        identity = ("reconstructed crossings are not a subset", "twist identity")
        assert not any(str(exc).startswith(identity) for exc in checked.failures)

    def test_t_G_equal_to_five_t_D_keeps_the_twist_bound(self):
        # the upper bound reached with equality: the trefoil (t = 1)
        # against the raw closure of the braid 1 2 -2 1 -3 2 1 1 on four
        # strands (t = 5), which breaks other promises but not
        # t(G) <= 5 t(D)
        from altknot import twist_partition
        from altknot.augmentation import certify

        d = parse_pd(TREFOIL)
        g = parse_pd(
            "X(1,5,6,2) X(6,7,8,3) X(8,7,9,10) X(5,11,12,9) "
            "X(4,10,13,4) X(12,15,3,13) X(11,17,18,15) X(17,1,2,18)"
        )
        tp = twist_partition(d)
        checked = certify(d, face_set(d), tp, g, max(g.components()))
        assert (tp.t, checked.t_G) == (1, 5) and checked.failures
        assert not any("twist bound violated" in str(exc) for exc in checked.failures)

    def test_check_1_counts_the_pieces_itself(self):
        # a one-crossing map on the torus (V - E + F = 0) whose table
        # carries 0 pieces, as a dP undercounted by the genus would leave
        # it: the sphericity identity on the table's count holds, and
        # certify's own search of G's pieces refuses the map
        from altknot import twist_partition
        from altknot.augmentation import certify
        from altknot.diagram import Crossing, Edge
        from altknot.errors import InvariantError

        d = parse_pd(TREFOIL)
        d_fs, d_tp = face_set(d), twist_partition(d)
        g = Diagram({0: Crossing(0, (1, 2, 1, 2))}, {1: Edge(1, ((0, 0), (0, 2)), 0), 2: Edge(2, ((0, 1), (0, 3)), 1)}, {})
        face_set(g).pieces = 0
        assert validate_diagram(g).valid
        checked = certify(d, d_fs, d_tp, g, 1)
        assert [(type(exc), str(exc)) for exc in checked.failures] == [
            (InvariantError, "final diagram invalid: 1 pieces, not the 0 its table carries")
        ]

    def test_components_sharing_one_id_are_refused(self, monkeypatch):
        # a 2-component input whose two components carry one id in G: G
        # keeps every other promise, and only the component count fails
        from altknot import augmentation, twist_partition
        from altknot.augmentation import certify
        from altknot.diagram import Edge
        from altknot.errors import InvariantError

        d = next(d for _s, d in link_diagrams(4) if len(d.components()) == 2)
        res = augment(d)
        aug = res.augmenting_component
        keep, gone = sorted(c for c in res.g.components() if c != aug)

        def relabel(g):
            edges = {e: Edge(e, r.ends, keep) if r.component == gone else r for e, r in g.edges.items()}
            return Diagram(g.crossings, edges, g.loops, g.augmenting_component)

        g = relabel(res.g)
        assert validate_diagram(g).valid
        checked = certify(d, face_set(d), twist_partition(d), g, aug)
        message = "final diagram has 2 components, not the input's 2 plus one"
        assert [(type(exc), str(exc)) for exc in checked.failures] == [(InvariantError, message)]
        assert (checked.i_A_D, checked.t_G, checked.certificate) == (res.i_A_D, res.t_G, res.certificate)
        assert verify_augmentation(d, replace(res, g=g)) == [f"InvariantError: {message}"]
        # augment refuses such a G of its own
        real = augmentation.mark_augmenting
        monkeypatch.setattr(augmentation, "mark_augmenting", lambda g, comp: relabel(real(g, comp)))
        with pytest.raises(InvariantError) as exc:
            augment(d)
        assert str(exc.value) == message

    def test_free_edges_number_twice_the_twist_count(self, bench_inputs):
        # the identity behind certify's crossing-count bound: a twist
        # region of k crossings has k - 1 bigons, which hold 2 (k - 1)
        # edges, so 2 n - 2 (n - t) = 2 t edges lie outside the regions
        # and the bound follows from "none inside" and "at most twice"
        from altknot import twist_partition

        pds = [x.pd for seed in (0, 1) for x in bench_inputs.large_inputs(seed, n=64, lo=50, hi=110)]
        pds += [
            b.pd for f in bench_inputs.batch_inputs(0, n_files=30, blocks=4)
            for b in f.blocks if b.eligible
        ]
        diagrams = [d for _s, d in corpus_diagrams(10)] + [parse_pd(pd) for pd in pds]
        assert len(diagrams) == 246
        for d in diagrams:
            fs, tp = face_set(d), twist_partition(d)
            in_twist = {e for f in tp.bigon_faces for e in fs.edges(d, f)}
            assert len(d.edges) - len(in_twist) == 2 * tp.t, serialize_pd(d)


class TestCertificate:
    def test_augment_outputs_certified(self):
        for seed, d in corpus_diagrams(10):
            res = augment(d)
            assert res.certificate.verdict == "hyperbolic"
            assert detect_two_strand_torus(res.g) is None

    def test_torus_diagrams_not_certified(self):
        for n in (2, 3, 5, 8):
            cert = certify_hyperbolic(two_strand_torus(n))
            assert cert.verdict == "not_certified"
            assert not cert.not_two_strand_torus

    def test_disconnected_not_certified(self):
        cert = certify_hyperbolic(parse_pd("O(1) O(2)"))
        assert cert.verdict == "not_certified"
        assert not cert.connected

    def test_crossing_free_loop_not_certified(self):
        # the unknot is not hyperbolic; crossing-free diagrams are not
        # prime, whatever the vacuous curve reading would say
        cert = certify_hyperbolic(parse_pd("O(1)"))
        assert cert.verdict == "not_certified"
        assert not cert.prime

    def test_fig8_certified(self, fig8):
        assert certify_hyperbolic(fig8).verdict == "hyperbolic"

    def test_primality_of_outputs_matches_exhaustive_oracle(self):
        # the certificate's face-pair primality test against the brute
        # force two-edge-cut search, on real pipeline output
        from conftest import oracle_two_edge_cuts

        for seed, d in corpus_diagrams(5):
            res = augment(d)
            assert res.certificate.prime
            assert oracle_two_edge_cuts(res.g) == []
