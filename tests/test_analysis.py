"""Analysis: classification, shading classes, twist regions, flags,
two-strand torus detection, and the twist identity certify checks."""

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
from altknot.analysis import _two_edge_cut
from altknot.diagram import _is_bigon
from altknot.errors import NotConnected, UnknownComponent
from altknot.generate import braid_closure, two_strand_torus

from conftest import (
    TREFOIL,
    assert_twist_partition_is_the_oracle,
    corpus_diagrams,
    oracle_alternating_edges,
    oracle_bigon_faces,
    oracle_cut_vertices,
    oracle_twist_count,
    oracle_two_edge_cuts,
    refinement_check,
    shadow_diagrams,
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


class TestOnePassTwistPartition:
    # twist_partition against the former construction it replaced
    # (conftest.oracle_twist_partition): the same bigons, and the same
    # regions in the same order, with their crossings, bigons, links and
    # topology
    def test_bench_inputs_and_their_augmentations(self, bench_inputs):
        from altknot import augment

        inputs = [x for seed in (0, 1) for x in bench_inputs.large_inputs(seed, n=64, lo=50, hi=110)]
        assert len(inputs) == 128
        for x in inputs:
            d = parse_pd(x.pd)
            assert_twist_partition_is_the_oracle(d)
            assert_twist_partition_is_the_oracle(augment(d).g)

    def test_shadows(self):
        for d in shadow_diagrams(60, 5):
            assert_twist_partition_is_the_oracle(d)

    def test_small_maps(self, trefoil, fig8, hopf, borromean, kink_unknot, curl, granny_sum):
        # a sphere (the 2-crossing torus and the Hopf link), annuli,
        # kinks, a chain cut by a nugatory crossing, and loops
        maps = [trefoil, fig8, hopf, borromean, kink_unknot, curl, granny_sum, parse_pd("O(1)")]
        maps += [two_strand_torus(n) for n in range(2, 7)]
        maps += [braid_closure(w, strands=4) for w in ([1, 1, 2, 1, 1], [1, -2, -2, 3, 1, 1], [2, 2, 2])]
        for d in maps:
            assert_twist_partition_is_the_oracle(d)


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
                e1, e2 = fs.edges(d, f)
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

    @pytest.mark.parametrize("pd", ["X(1,1,2,2)", "X(1,2,2,1)", "X(2,1,1,2)"])
    def test_one_crossing_maps_have_no_cut_pair(self, pd):
        # the two edges of a planar 1-crossing map are kinks that border
        # different pairs of faces, so the scan needs no guard on the
        # crossing count: the map is prime, and its crossing nugatory
        d = parse_pd(pd)
        assert _two_edge_cut(d, face_set(d)) is None
        fl = diagram_flags(d)
        assert (fl.connected, fl.reduced, fl.r2_reduced, fl.prime) == (True, False, True, True)
        assert fl.witness.kind == "prime"

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
        # a chain of bigons beside a crossing-free loop is not the torus diagram
        assert detect_two_strand_torus(parse_pd(TREFOIL + " O(7)")) is None
        assert detect_two_strand_torus(trefoil) == 3


class TestRefinement:
    def test_identity_refinement(self, trefoil, fig8):
        # with no curve to drop, the identity is the partition itself
        for d in (trefoil, fig8):
            assert refinement_check(d, augmenting=None) == []

    def test_unknown_augmenting_component(self, trefoil):
        # a component the diagram lacks is an error, not a vacuous pass
        with pytest.raises(UnknownComponent):
            refinement_check(trefoil, augmenting=7)

    # certify's check 7 against G's twist partition made up part by part:
    # each fabricated partition breaks the identity in one way, and the
    # check names the first region that breaks it
    @pytest.fixture(scope="class")
    def augmented(self):
        from altknot import augment

        d = next(
            d for _s, d in corpus_diagrams(10)
            if any(len(r.crossings) > 1 for r in twist_partition(d).regions) and twist_partition(d).t > 1
        )
        return d, augment(d)

    @staticmethod
    def _check_7(monkeypatch, d, res, parts):
        """``certify``'s failures on ``res.g`` with its twist regions made
        the crossing sets ``parts``."""
        from altknot import augmentation
        from altknot.analysis import TwistPartition, TwistRegion

        g = res.g
        regions = tuple(TwistRegion(frozenset(x), (), RegionTopology.DISK) for x in sorted(parts, key=min))
        fake = TwistPartition(frozenset(), regions, len(regions))
        real = augmentation.twist_partition
        monkeypatch.setattr(augmentation, "twist_partition", lambda x: fake if x is g else real(x))
        checked = augmentation.certify(d, face_set(d), twist_partition(d), g, res.augmenting_component)
        return [(type(exc), str(exc)) for exc in checked.failures]

    @staticmethod
    def _refused(region):
        from altknot.errors import InvariantError

        return (InvariantError, f"twist identity fails: G's twist region {sorted(region)} "
                "is neither a twist region of D nor one crossing of the curve")

    @staticmethod
    def _parts(d, res):
        """G's true partition: d's regions, and the curve's crossings one
        by one."""
        d_parts = [set(r.crossings) for r in twist_partition(d).regions]
        return d_parts, [{c} for c in sorted(res.g.crossings.keys() - d.crossings.keys())]

    def test_the_true_partition_passes(self, monkeypatch, augmented):
        d, res = augmented
        assert self._check_7(monkeypatch, d, res, sum(self._parts(d, res), [])) == []

    def test_a_split_region_of_d_fails(self, monkeypatch, augmented):
        d, res = augmented
        d_parts, a_parts = self._parts(d, res)
        big = next(x for x in d_parts if len(x) > 1)
        least = {min(big)}
        parts = [x for x in d_parts if x is not big] + [least, big - least] + a_parts
        assert self._refused(least) in self._check_7(monkeypatch, d, res, parts)

    def test_two_merged_regions_of_d_fail(self, monkeypatch, augmented):
        d, res = augmented
        d_parts, a_parts = self._parts(d, res)
        merged = d_parts[0] | d_parts[1]
        parts = [merged] + d_parts[2:] + a_parts
        assert self._refused(merged) in self._check_7(monkeypatch, d, res, parts)

    def test_a_region_of_d_with_a_curve_crossing_fails(self, monkeypatch, augmented):
        d, res = augmented
        d_parts, a_parts = self._parts(d, res)
        mixed = d_parts[0] | a_parts[0]
        parts = [mixed] + d_parts[1:] + a_parts[1:]
        assert self._refused(mixed) in self._check_7(monkeypatch, d, res, parts)

    def test_two_curve_crossings_in_one_region_fail(self, monkeypatch, augmented):
        d, res = augmented
        d_parts, a_parts = self._parts(d, res)
        pair = a_parts[0] | a_parts[1]
        parts = d_parts + [pair] + a_parts[2:]
        assert self._refused(pair) in self._check_7(monkeypatch, d, res, parts)

    def test_a_crossing_of_d_missing_from_g_fails(self, fig8):
        # fig8's crossings are not all in the trefoil
        from altknot.augmentation import certify
        from altknot.errors import MappingError

        g = parse_pd(TREFOIL)
        assert not fig8.crossings.keys() <= g.crossings.keys()
        checked = certify(fig8, face_set(fig8), twist_partition(fig8), g, 0)
        failures = [(type(exc), str(exc)) for exc in checked.failures]
        assert (MappingError, "reconstructed crossings are not a subset of the ambient ones") in failures


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
                frozenset(face_set(d).edges(d, f)) for f in tp.bigon_faces
            }
