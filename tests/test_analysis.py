"""Analysis: classification, shading classes, twist regions, flags,
two-strand torus detection, refinement."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from altknot import (
    RegionTopology,
    classify_edges,
    detect_two_strand_torus,
    diagram_flags,
    face_set,
    flip_crossing,
    parse_pd,
    shading_classes,
    twist_partition,
)
from altknot.analysis import _is_sub_twist, _verify_refinement
from altknot.diagram import _is_bigon
from altknot.errors import NotConnected, UnknownComponent
from altknot.generate import braid_closure, two_strand_torus

from conftest import (
    TREFOIL,
    corpus_diagrams,
    oracle_alternating_edges,
    oracle_bigon_faces,
    oracle_cut_vertices,
    oracle_twist_count,
    oracle_two_edge_cuts,
    refinement_check,
    twist_region_topology,
)

BRAID_LETTERS = st.lists(
    st.sampled_from([i for i in range(-4, 5) if i != 0]), min_size=1, max_size=25
)


class TestClassification:
    def test_trefoil(self, trefoil):
        cls = classify_edges(trefoil)
        assert cls.is_alternating and not cls.is_non_alternating
        assert cls.non_alternating == frozenset()
        assert cls.alternating == frozenset(range(1, 7))

    def test_flipped_trefoil(self, trefoil):
        cls = classify_edges(flip_crossing(trefoil, 0))
        assert cls.non_alternating == frozenset({1, 2, 4, 5})
        assert cls.is_non_alternating and not cls.is_alternating

    def test_plain_loop_convention(self):
        cls = classify_edges(parse_pd("O(1)"))
        assert cls.is_alternating and not cls.is_non_alternating

    def test_empty_diagram(self):
        cls = classify_edges(parse_pd(""))
        assert not cls.is_alternating and not cls.is_non_alternating

    @settings(deadline=None, max_examples=60)
    @given(BRAID_LETTERS, st.integers(0, 6))
    def test_non_alternating_count_even(self, word, flips):
        d = braid_closure(word)
        for k in range(flips):
            d = flip_crossing(d, sorted(d.crossings)[k % len(d.crossings)])
        assert len(classify_edges(d).non_alternating) % 2 == 0

    @settings(deadline=None, max_examples=60)
    @given(BRAID_LETTERS)
    def test_matches_pd_oracle(self, word):
        from altknot import serialize_pd

        d = braid_closure(word)
        assert set(classify_edges(d).alternating) == oracle_alternating_edges(
            serialize_pd(d)
        )


class TestShading:
    def test_alternating_has_one_class(self, trefoil):
        sh = shading_classes(trefoil)
        assert not sh.plus_class or not sh.minus_class
        assert sh.plus_class | sh.minus_class == frozenset(trefoil.crossings)

    def test_flipped_trefoil_partition(self, trefoil):
        sh = shading_classes(flip_crossing(trefoil, 0))
        classes = {frozenset(sh.plus_class), frozenset(sh.minus_class)}
        assert classes == {frozenset({0}), frozenset({1, 2})}

    def test_disconnected_rejected(self, granny_sum):
        with pytest.raises(NotConnected):
            shading_classes(parse_pd(TREFOIL + " O(9)"))
        with pytest.raises(NotConnected):
            shading_classes(parse_pd("O(1)"))

    def test_shading_is_proper(self, fig8):
        sh = shading_classes(fig8)
        fs = face_set(fig8)
        for e in fig8.edges:
            l, r = fs.edge_sides(fig8, e)
            assert sh.shading[l] != sh.shading[r]

    @settings(deadline=None, max_examples=60)
    @given(BRAID_LETTERS, st.integers(0, 6))
    def test_cross_class_edges_are_non_alternating(self, word, flips):
        # the package raises SigmaMismatch internally if this fails; we
        # re-check it externally anyway
        d = braid_closure(word)
        from altknot.diagram import is_connected

        if not is_connected(d):
            return
        for k in range(flips):
            d = flip_crossing(d, sorted(d.crossings)[k % len(d.crossings)])
        sh = shading_classes(d)
        cross = {
            e for e, rec in d.edges.items()
            if (rec.ends[0][0] in sh.plus_class) != (rec.ends[1][0] in sh.plus_class)
        }
        assert cross == set(classify_edges(d).non_alternating)


class TestTwistRegions:
    def test_trefoil_single_region(self, trefoil):
        tp = twist_partition(trefoil)
        assert tp.t == 1
        (region,) = tp.regions
        assert region.crossings == frozenset({0, 1, 2})
        assert len(region.bigons) == 3
        assert region.topology is RegionTopology.ANNULUS

    def test_fig8_two_regions(self, fig8):
        tp = twist_partition(fig8)
        assert tp.t == 2
        assert sorted(len(r.crossings) for r in tp.regions) == [2, 2]
        for r in tp.regions:
            assert r.topology is RegionTopology.DISK
            assert twist_region_topology(fig8, r).topology is RegionTopology.DISK

    def test_borromean_no_bigons(self, borromean):
        tp = twist_partition(borromean)
        assert len(tp.bigon_faces) == 0
        assert tp.t == 6
        assert all(len(r.crossings) == 1 for r in tp.regions)

    def test_hopf_sphere(self, hopf):
        tp = twist_partition(hopf)
        assert tp.t == 1
        assert tp.regions[0].topology is RegionTopology.SPHERE

    def test_two_strand_torus_annulus(self):
        d = two_strand_torus(5)
        tp = twist_partition(d)
        assert tp.t == 1
        region = tp.regions[0]
        assert region.topology is RegionTopology.ANNULUS
        assert len(region.bigons) == 5
        # the retract is a single cycle through all five bigons
        assert len(region.links) == 5

    def test_flip_preserves_twist_count(self, trefoil, fig8):
        for d in (trefoil, fig8):
            t = twist_partition(d).t
            for c in d.crossings:
                assert twist_partition(flip_crossing(d, c)).t == t

    def test_kink_faces_are_not_bigons(self, kink_unknot, curl):
        assert twist_partition(kink_unknot).t == 1
        tp = twist_partition(curl)
        assert len(tp.bigon_faces) == 1  # the R2 face, not the kink faces

    @settings(deadline=None, max_examples=50)
    @given(BRAID_LETTERS)
    def test_partition_covers_crossings_once(self, word):
        d = braid_closure(word)
        tp = twist_partition(d)
        seen = [c for r in tp.regions for c in r.crossings]
        assert sorted(seen) == sorted(d.crossings)
        assert tp.t == oracle_twist_count(d)

    def test_additive_over_disconnected_pieces(self, trefoil):
        shifted = "X(7,10,8,11) X(9,12,10,7) X(11,8,12,9)"
        two = parse_pd(TREFOIL + " " + shifted)
        assert twist_partition(two).t == 2 * twist_partition(trefoil).t


class TestStructuralInvariants:
    @settings(deadline=None, max_examples=50)
    @given(BRAID_LETTERS, st.integers(0, 6))
    def test_three_alternation_views_agree(self, word, flips):
        # label classification, shading classes and the cross-class edge
        # set must tell the same story
        from altknot.diagram import is_connected

        d = braid_closure(word)
        if not is_connected(d):
            return
        for k in range(flips):
            d = flip_crossing(d, sorted(d.crossings)[k % len(d.crossings)])
        cls = classify_edges(d)
        sh = shading_classes(d)
        one_class_empty = not sh.plus_class or not sh.minus_class
        assert cls.is_alternating == one_class_empty
        assert cls.is_alternating == (not cls.non_alternating)

    @settings(deadline=None, max_examples=50)
    @given(BRAID_LETTERS, st.integers(0, 6))
    def test_bigon_edges_share_alternation_status(self, word, flips):
        d = braid_closure(word)
        for k in range(flips):
            d = flip_crossing(d, sorted(d.crossings)[k % len(d.crossings)])
        fs = face_set(d)
        for f, ds in fs.darts.items():
            if _is_bigon(ds):
                e1, e2 = fs.bounds[f]
                a = d.edge_labels(e1)
                b = d.edge_labels(e2)
                assert (a[0] != a[1]) == (b[0] != b[1])


class TestFlags:
    def test_trefoil_all_true(self, trefoil):
        fl = diagram_flags(trefoil)
        assert (fl.connected, fl.reduced, fl.r2_reduced, fl.prime) == (
            True, True, True, True,
        )
        assert fl.witness.kind == "prime"

    def test_kink_unknot_not_reduced(self, kink_unknot):
        fl = diagram_flags(kink_unknot)
        assert not fl.reduced
        assert oracle_cut_vertices(kink_unknot) == [0]

    def test_granny_sum_cut_pair(self, granny_sum):
        fl = diagram_flags(granny_sum)
        assert fl.connected and not fl.prime
        assert fl.witness.kind == "cut_pair"
        assert set(fl.witness.edges) == {1, 7}
        assert sorted(fl.witness.sides) == [3, 3]
        assert (1, 7) in oracle_two_edge_cuts(granny_sum)

    @pytest.mark.parametrize("word, sides", [
        ([1, 1, 1, 2, -3, 2, -3], (3, 4)),
        ([2, -3, 2, -3, 1, 1, 1], (4, 3)),
    ])
    def test_cut_pair_sides_least_crossing_first(self, word, sides):
        # trefoil # figure-eight both ways round: the side holding the
        # least crossing comes first
        fl = diagram_flags(braid_closure(word, 4))
        assert fl.witness.kind == "cut_pair"
        assert fl.witness.sides == sides

    def test_disconnected(self, trefoil):
        fl = diagram_flags(parse_pd(TREFOIL + " O(9)"))
        assert not fl.connected and not fl.prime
        assert fl.witness.kind == "disconnected"

    def test_curl_not_r2_reduced(self, curl):
        assert not diagram_flags(curl).r2_reduced

    def test_hopf_prime(self, hopf):
        fl = diagram_flags(hopf)
        assert fl.prime and fl.r2_reduced
        assert oracle_two_edge_cuts(hopf) == []

    @settings(deadline=None, max_examples=40)
    @given(BRAID_LETTERS)
    def test_primality_matches_exhaustive_oracle(self, word):
        # dual route: face-pair detection vs removing every edge pair
        d = braid_closure(word)
        fl = diagram_flags(d)
        cuts = oracle_two_edge_cuts(d)
        if fl.connected and len(d.crossings) >= 2:
            assert fl.prime == (not cuts)

    @settings(deadline=None, max_examples=40)
    @given(BRAID_LETTERS)
    def test_cut_vertices_match_oracle(self, word):
        from altknot.analysis import cut_vertices

        d = braid_closure(word)
        assert cut_vertices(d) == oracle_cut_vertices(d)

    def test_face_predicates_match_oracles_on_large_closures(self):
        # 2-6 strands, up to 60 letters; generators skipped at random give
        # split closures, and odd seeds add a lone letter, which is often
        # a nugatory crossing
        from altknot.analysis import cut_vertices
        from altknot.diagram import piece_count

        seen = {"cut": 0, "split": 0, "link": 0}
        for seed in range(80):
            rng = random.Random(seed)
            strands = rng.randint(2, 6)
            gens = [i for i in range(1, strands) if rng.random() < 0.8] or [1]
            word = [rng.choice((1, -1)) * rng.choice(gens)
                    for _ in range(rng.randint(1, 60))]
            if seed % 2:
                lone = rng.choice((1, -1)) * rng.randint(1, strands - 1)
                word.insert(rng.randrange(len(word) + 1), lone)
            d = braid_closure(word, strands=strands)
            cuts = oracle_cut_vertices(d)
            assert cut_vertices(d) == cuts, word
            assert twist_partition(d).t == oracle_twist_count(d), word
            seen["cut"] += bool(cuts)
            seen["split"] += piece_count(d) > 1
            seen["link"] += len(d.components()) > 1
        assert min(seen.values()) >= 5, seen


class TestTwoStrandTorus:
    def test_family(self):
        for n in range(2, 13):
            d = two_strand_torus(n)
            assert detect_two_strand_torus(d) == n
            tp = twist_partition(d)
            assert tp.t == 1
            want = RegionTopology.SPHERE if n == 2 else RegionTopology.ANNULUS
            assert tp.regions[0].topology is want

    def test_negatives(self, trefoil, fig8, kink_unknot, curl, granny_sum):
        assert detect_two_strand_torus(fig8) is None
        assert detect_two_strand_torus(kink_unknot) is None
        assert detect_two_strand_torus(curl) is None
        assert detect_two_strand_torus(granny_sum) is None
        assert detect_two_strand_torus(parse_pd("O(1)")) is None
        assert detect_two_strand_torus(trefoil) == 3


class TestRefinement:
    def test_identity_refinement(self, trefoil, fig8):
        for d in (trefoil, fig8):
            rep = refinement_check(d, augmenting=None)
            assert rep.refines
            assert rep.P == rep.P_prime
            assert rep.sizes[0] == rep.sizes[1] <= rep.sizes[2]

    def test_unknown_augmenting_component(self, trefoil):
        # a component the diagram lacks is an error, not a vacuous pass
        with pytest.raises(UnknownComponent):
            refinement_check(trefoil, augmenting=7)

    def test_fabricated_cross_region_part_fails(self, fig8):
        # a part straddling two twist regions is not a sub twist region
        fs = face_set(fig8)
        tp = twist_partition(fig8)
        a = min(tp.regions[0].crossings)
        b = min(tp.regions[1].crossings)
        rep = _verify_refinement(
            [r.crossings for r in tp.regions],
            [frozenset({a, b})] + [
                frozenset(r.crossings - {a, b}) for r in tp.regions
                if r.crossings - {a, b}
            ],
            tp, fs, tp.t,
        )
        assert not rep.refines
        assert any("sub twist region" in f or "fits inside" in f for f in rep.failures)

    def test_fabricated_disconnected_part_fails(self):
        # the two end crossings of a length-3 chain skip the middle one:
        # inside one region but not a connected bigon neighborhood
        d = two_strand_torus(4)
        fs = face_set(d)
        tp = twist_partition(d)
        region = tp.regions[0]
        a, b, c, e = sorted(region.crossings)
        assert not _is_sub_twist(frozenset({a, c}), region, fs)
        assert _is_sub_twist(frozenset({a}), region, fs)
        assert _is_sub_twist(frozenset({a, b}), region, fs)

    def test_coverage_failure_detected(self, fig8):
        fs = face_set(fig8)
        tp = twist_partition(fig8)
        rep = _verify_refinement(
            [r.crossings for r in tp.regions],
            [tp.regions[0].crossings],  # misses the second region entirely
            tp, fs, tp.t,
        )
        assert not rep.refines
        assert any("cover" in f for f in rep.failures)


class TestAnalysisOnCorpus:
    def test_flags_consistency(self):
        for seed, d in corpus_diagrams(12):
            fl = diagram_flags(d)
            assert fl.connected and fl.reduced and fl.r2_reduced and fl.prime
            cls = classify_edges(d)
            assert cls.is_non_alternating
            assert len(cls.non_alternating) % 2 == 0
            # non-disk regions in an R2-reduced connected diagram force the
            # two-strand torus, which a non-alternating diagram cannot be
            tp = twist_partition(d)
            for r in tp.regions:
                assert r.topology is RegionTopology.DISK
            assert set(oracle_bigon_faces(d)) == {
                frozenset(face_set(d).bounds[f]) for f in tp.bigon_faces
            }
