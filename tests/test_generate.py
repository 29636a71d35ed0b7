"""Braid closures and the random diagram generator."""

import hashlib
import json
import random

import pytest

from altknot import (
    classify_edges,
    detect_two_strand_torus,
    diagram_flags,
    serialize_pd,
    twist_partition,
    validate_diagram,
)
from altknot.errors import PDSyntaxError, RetryExhausted
from altknot.generate import braid_closure, random_knot_diagram, two_strand_torus

# sha256 of ``_records`` over 4,000 closures of random words
# (``test_closures_match_pin``)
CLOSURES = "20228974556820e66b61fefb9379d845a24b389a3b662e1838c7c3bd427ba4a3"
# sha256 of ``_records`` and the sorted trace JSON of
# ``random_knot_diagram`` for seeds 0-59 (``test_generated_diagrams_match_pin``)
GENERATED = "12cb2a6b59b8f423b80e588e8daafc861b0275c9cd80a3c6bbf647ac505eedd8"


def _records(d) -> bytes:
    """Every record of ``d`` in dict order, which later passes iterate."""
    return repr((list(d.crossings.items()), list(d.edges.items()), list(d.loops.items()))).encode()


class TestBraidClosure:
    def test_sigma1_cubed_is_standard_trefoil(self):
        d = braid_closure([1, 1, 1], strands=2)
        assert len(d.crossings) == 3
        assert len(d.components()) == 1
        assert classify_edges(d).is_alternating
        assert detect_two_strand_torus(d) == 3
        assert twist_partition(d).t == 1

    def test_figure_eight_two_regions(self):
        d = braid_closure([1, -2, 1, -2], strands=3)
        assert len(d.components()) == 1
        tp = twist_partition(d)
        assert tp.t == 2
        assert sorted(len(r.crossings) for r in tp.regions) == [2, 2]

    def test_borromean_no_bigons(self):
        d = braid_closure([1, -2] * 3, strands=3)
        assert len(d.components()) == 3
        tp = twist_partition(d)
        assert not tp.bigon_faces
        assert tp.t == 6

    def test_unused_strand_becomes_loop(self):
        d = braid_closure([1], strands=3)
        assert len(d.loops) == 1
        assert validate_diagram(d).valid

    def test_single_letter_is_kink(self):
        d = braid_closure([1], strands=2)
        assert len(d.crossings) == 1
        assert not diagram_flags(d).reduced

    def test_torus_family_alternating(self):
        for n in range(2, 9):
            d = two_strand_torus(n)
            assert classify_edges(d).is_alternating
            assert detect_two_strand_torus(d) == n

    def test_bad_words(self):
        with pytest.raises(PDSyntaxError):
            braid_closure([])
        with pytest.raises(PDSyntaxError):
            braid_closure([0])
        with pytest.raises(PDSyntaxError):
            braid_closure([3], strands=2)


class TestRandomDiagrams:
    def test_deterministic(self):
        a, _ = random_knot_diagram(7, 12, 2)
        b, _ = random_knot_diagram(7, 12, 2)
        assert serialize_pd(a) == serialize_pd(b)

    def test_distinct_seeds_differ(self):
        a, _ = random_knot_diagram(1, 12, 2)
        b, _ = random_knot_diagram(2, 12, 2)
        assert serialize_pd(a) != serialize_pd(b)

    def test_qualifies(self):
        for seed in range(8):
            d, _ = random_knot_diagram(seed, 10, 2)
            fl = diagram_flags(d)
            cls = classify_edges(d)
            assert fl.connected and fl.reduced and fl.r2_reduced and fl.prime
            assert cls.is_non_alternating
            assert len(d.components()) == 1 and not d.loops

    def test_max_crossings_respected(self):
        d, _ = random_knot_diagram(0, 14, 2, max_crossings=20)
        assert len(d.crossings) <= 20

    def test_retry_exhausted(self):
        # one letter can close only to kinks and unlinks, never a
        # qualifying knot diagram
        with pytest.raises(RetryExhausted):
            random_knot_diagram(0, 1, 0)

    def test_retry_exhausted_names_the_cap(self):
        # no qualifying diagram has two crossings or fewer, so the cap
        # refuses every draw, and the message says so; without a cap it
        # names none
        with pytest.raises(RetryExhausted, match=r"\(seed=1, letters=12, flips=2, max_crossings=2\)$"):
            random_knot_diagram(1, 12, 2, max_crossings=2)
        with pytest.raises(RetryExhausted, match=r"flips=0\)$"):
            random_knot_diagram(0, 1, 0)


def test_closures_match_pin():
    rng = random.Random(7)
    h = hashlib.sha256()
    for _ in range(4000):
        strands = rng.randint(2, 7)
        gens = list(range(1, strands)) + [-i for i in range(1, strands)]
        word = [rng.choice(gens) for _ in range(rng.randint(1, 40))]
        width = None if rng.random() < 0.5 else strands + rng.choice([0, 1, 2])
        h.update(_records(braid_closure(word, width)))
    assert h.hexdigest() == CLOSURES


def test_generated_diagrams_match_pin():
    h = hashlib.sha256()
    for seed in range(60):
        d, trace = random_knot_diagram(seed, 6 + seed % 20, 1 + seed % 3)
        h.update(_records(d))
        h.update(json.dumps(trace.to_json(), sort_keys=True).encode())
    assert h.hexdigest() == GENERATED
