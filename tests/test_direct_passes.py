"""The direct whole-map passes against the loops they replaced.

``validate_diagram`` decides incidence in one pass over the edge records
and words failures only when that pass fails; ``parse_pd`` numbers the
components by one strand walk and builds each edge record once; and
``analysis._two_edge_cut`` keys each edge by its ordered pair of faces.
Each is compared with the loop it replaced, kept in ``conftest``
(``oracle_validate_diagram``, ``oracle_numbered_components`` and
``oracle_two_edge_cut``): on valid maps of every size the package meets,
and on broken maps, where the failure lists must agree entry for entry,
order included.
"""

from __future__ import annotations

import random
import re

import pytest

from altknot import augment, face_set, parse_pd, serialize_pd, validate_diagram
from altknot.analysis import _two_edge_cut
from altknot.diagram import Crossing, Diagram, Edge
from altknot.errors import InvariantError
from altknot.generate import braid_closure

from conftest import (
    GRANNY_SUM,
    TREFOIL,
    corpus_diagrams,
    link_diagrams,
    oracle_numbered_components,
    oracle_two_edge_cut,
    oracle_validate_diagram,
)

LOOPS = ("O(1)", "O(3) O(1)", TREFOIL + " O(9) O(7)", GRANNY_SUM + " O(20)", "")


@pytest.fixture(scope="module")
def valid_maps(request):
    """(PD text, parsed map) of the corpus knots, the link corpus, maps
    with loops and the ``augment-large`` seed-1 inputs, plus the
    augmentations of the corpus knots (many components)."""
    inputs = request.getfixturevalue("bench_inputs")
    texts = [serialize_pd(d) for _seed, d in corpus_diagrams(40)]
    texts += [serialize_pd(d) for _seed, d in link_diagrams(16)]
    texts += list(LOOPS)
    texts += [x.pd for x in inputs.large_inputs(1, n=64, lo=50, hi=110)]
    maps = [(t, parse_pd(t)) for t in texts]
    maps += [(None, augment(d).g) for _seed, d in corpus_diagrams(40)]
    return maps


def relabelled_closures(n: int, seed: int) -> list[Diagram]:
    """Unreduced closures of braid words, parsed after a random renaming
    of their edges, so that the records are not in id order.  Half the
    words are random; the other half run through the generators in turn,
    one power each, so their closures are connected sums with two-edge
    cuts."""
    rng = random.Random(seed)
    out = []
    while len(out) < n:
        strands = rng.randint(2, 5)
        if len(out) % 2:
            gens = [i for i in range(-(strands - 1), strands) if i != 0]
            word = [rng.choice(gens) for _ in range(rng.randint(4, 30))]
        else:
            word = [x for g in range(1, strands) for x in [rng.choice((g, -g))] * rng.randint(1, 5)]
        d = braid_closure(word, strands)
        if d.loops:
            continue
        ids = sorted(d.edges)
        rename = dict(zip(ids, rng.sample(ids, len(ids))))
        out.append(parse_pd(re.sub(r"\d+", lambda m: str(rename[int(m.group())]), serialize_pd(d))))
    return out


def test_validation_matches_the_oracle_on_valid_maps(valid_maps):
    for _text, d in valid_maps:
        rep = validate_diagram(d)
        assert rep.valid and rep == oracle_validate_diagram(d)


def test_parse_numbers_components_as_the_oracle(valid_maps):
    for text, d in valid_maps:
        if text is None:
            continue
        want = oracle_numbered_components(d)
        assert list(d.edges.items()) == list(want.edges.items())
        assert list(d.loops.items()) == list(want.loops.items())


def test_two_edge_cut_matches_the_frozenset_scan(valid_maps):
    maps = [d for _text, d in valid_maps] + relabelled_closures(150, 0) + [parse_pd(GRANNY_SUM)]
    found = 0
    unsorted_differs = 0
    for d in maps:
        fs = face_set(d)
        got = _two_edge_cut(d, fs)
        assert got == oracle_two_edge_cut(d, fs)
        if got is None:
            continue
        found += 1
        # the first repeat in the records' own order is another pair
        seen = {}
        for e, rec in d.edges.items():
            key = frozenset(fs.edge_sides(d, e))
            if key in seen:
                unsorted_differs += (seen[key], e) != got
                break
            seen[key] = e
    assert found >= 50 and unsorted_differs >= 5, (found, unsorted_differs)


def test_an_edge_with_one_face_on_both_sides_is_refused():
    # no 4-valent map has a bridge; a table that says otherwise is broken
    d = parse_pd(TREFOIL)
    fs = face_set(d)
    broken = type(fs)([min(f, 0) for f in fs.dart_face], fs.darts)
    for scan in (_two_edge_cut, oracle_two_edge_cut):
        with pytest.raises(InvariantError, match="edge 1 borders one face"):
            scan(d, broken)


def _trefoil_with(edges=None, crossings=None, loops=None) -> Diagram:
    d = parse_pd(TREFOIL)
    ed = dict(d.edges)
    cr = dict(d.crossings)
    for e, ends in (edges or {}).items():
        if ends is None:
            del ed[e]
        else:
            ed[e] = Edge(e, ends, ed[e].component if e in ed else 0)
    cr.update(crossings or {})
    return Diagram(cr, ed, dict(loops or {}))


def _granny_in_reverse_order() -> tuple[Diagram, Diagram]:
    """Two maps with several failures of each kind, their tables listed
    in reverse id order: bad labels and mixed components; and bad labels
    with broken incidence."""
    d = parse_pd(GRANNY_SUM)
    cr = {c: d.crossings[c] for c in sorted(d.crossings, reverse=True)}
    for c in (1, 4):
        cr[c] = Crossing(c, cr[c].slots, (0, 1))
    ed = {e: Edge(e, r.ends, e % 3) for e, r in sorted(d.edges.items(), reverse=True)}
    mixed = Diagram(cr, dict(ed), {})
    del ed[3]
    ed[7] = Edge(7, ((5, 3), (0, 0)), 0)
    return mixed, Diagram(cr, ed, {12: 0, 2: 0})


# crossing 0 of the trefoil holds edges 1, 4, 2, 5 in slots 0-3; edge 1
# runs from (0, 0) to (1, 3), edge 5 from (0, 3) to (2, 0)
BAD_MAPS = {
    "end at slot 4": _trefoil_with(edges={1: ((0, 4), (1, 3))}),
    # slots[-1] is slot 3, which holds edge 5: only the range test sees it
    "end at slot -1": _trefoil_with(edges={5: ((0, -1), (2, 0))}),
    "end at a missing crossing": _trefoil_with(edges={1: ((7, 0), (1, 3))}),
    "both ends on one slot": _trefoil_with(edges={1: ((0, 0), (0, 0))}),
    # every record is sound: only 2E = 4V sees the slots left over
    "slot naming a missing edge": _trefoil_with(edges={1: None}),
    "slot naming an unknown id": _trefoil_with(crossings={0: Crossing(0, (99, 4, 2, 5))}),
    "id both edge and loop": _trefoil_with(loops={1: 1}),
    "3-slot crossing": _trefoil_with(crossings={0: Crossing(0, (1, 4, 2))}),
    "edge with swapped crossings": _trefoil_with(edges={1: ((1, 0), (0, 3))}),
    "illegal over strand": _trefoil_with(crossings={2: Crossing(2, (5, 2, 6, 3), (0, 1))}),
    "mixed components": Diagram(
        parse_pd(TREFOIL).crossings,
        {e: Edge(e, r.ends, e % 2) for e, r in parse_pd(TREFOIL).edges.items()},
    ),
    "reverse order, labels and components": _granny_in_reverse_order()[0],
    "reverse order, labels and incidence": _granny_in_reverse_order()[1],
}


@pytest.mark.parametrize("name", sorted(BAD_MAPS))
def test_validation_of_broken_maps_matches_the_oracle(name):
    d = BAD_MAPS[name]
    rep = validate_diagram(d)
    assert not rep.valid
    assert rep == oracle_validate_diagram(d)
