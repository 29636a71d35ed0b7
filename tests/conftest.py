"""Shared fixtures and independent oracles.

The oracles re-derive facts from the PD text or by brute force, without
touching the package's analysis code paths, so tests compare two
genuinely different computations.
"""

from __future__ import annotations

import math
import re
import sys
from dataclasses import dataclass
from pathlib import Path

import pytest

from altknot import parse_pd
from altknot.diagram import Edge
from altknot.errors import UnknownEdge
from altknot.generate import braid_closure, random_knot_diagram, two_strand_torus

TREFOIL = "X(1,4,2,5) X(3,6,4,1) X(5,2,6,3)"
KINK_UNKNOT = "X(1,1,2,2)"
# single-component two-crossing diagram with one R2 bigon (edges 1,3)
CURL = "X(4,1,3,4) X(2,2,3,1)"
# two trefoils spliced along edges 1 and 7
GRANNY_SUM = (
    "X(1,4,2,5) X(3,6,4,7) X(5,2,6,3) "
    "X(7,10,8,11) X(9,12,10,1) X(11,8,12,9)"
)


@pytest.fixture
def trefoil():
    return parse_pd(TREFOIL)


@pytest.fixture
def kink_unknot():
    return parse_pd(KINK_UNKNOT)


@pytest.fixture
def curl():
    return parse_pd(CURL)


@pytest.fixture
def granny_sum():
    return parse_pd(GRANNY_SUM)


@pytest.fixture
def hopf():
    return two_strand_torus(2)


@pytest.fixture
def fig8():
    return braid_closure([1, -2, 1, -2], strands=3)


@pytest.fixture
def borromean():
    return braid_closure([1, -2, 1, -2, 1, -2], strands=3)


def corpus_diagrams(n, start_seed=0, letters=(8, 10, 12, 14, 16), max_crossings=30):
    """Deterministic list of n qualifying random knot diagrams."""
    out = []
    seed = start_seed
    while len(out) < n:
        d, _ = random_knot_diagram(
            seed, letters[len(out) % len(letters)], 1 + seed % 3,
            max_crossings=max_crossings,
        )
        out.append((seed, d))
        seed += 1
    return out


def link_diagrams(n, min_crossings=31, start_seed=0):
    """Deterministic list of n qualifying 2- and 3-component link
    diagrams of at least ``min_crossings`` crossings, as (seed, diagram).

    Braid words on 3-5 strands whose generators mostly keep their sign,
    so few R2 bigons appear and the closures stay large after
    ``preprocess``."""
    import random

    from altknot import classify_edges, diagram_flags, preprocess

    out = []
    seed = start_seed
    while len(out) < n:
        rng = random.Random(seed)
        strands = rng.randint(3, 5)
        sign = {g: rng.choice((1, -1)) for g in range(1, strands)}
        word = []
        for _ in range(rng.randint(36, 56)):
            g = rng.randint(1, strands - 1)
            if rng.random() < 0.15:
                sign[g] = -sign[g]
            word.append(sign[g] * g)
        seed += 1
        d = braid_closure(word, strands=strands)
        if d.loops or len(d.components()) not in (2, 3):
            continue
        d, _ = preprocess(d)
        if d.loops or len(d.crossings) < min_crossings or len(d.components()) not in (2, 3):
            continue
        fl = diagram_flags(d)
        if (fl.connected and fl.reduced and fl.r2_reduced and fl.prime
                and classify_edges(d).is_non_alternating):
            out.append((seed - 1, d))
    return out


def shadow_diagrams(n, seed):
    """n diagrams drawn from ``seed`` that are no braid closure: each is
    the medial graph of a random connected planar graph with random
    crossings, as PD records through ``diagram._assemble`` and its
    sphericity check.

    A w x h grid (w and h each 3-8) keeps each edge with probability
    0.6-0.95, and its largest connected piece is the Tait graph, its
    rotation at each vertex the grid directions counterclockwise.  Its
    corner (v, e) is the angle at v from the edge e to the next edge
    counterclockwise, and is one edge id of the diagram.  The crossing
    of the graph edge e = (u, v) has the slots ``[(v, prev_v(e)), (u,
    e), (u, prev_u(e)), (v, e)]``, counterclockwise around the middle
    of e, which makes the diagram alternating; each record is then
    rotated by one slot, which flips its crossing, with probability
    0.1-0.5."""
    import random

    from altknot.diagram import _assemble, _check_sphericity

    rng = random.Random(seed)
    steps = ((1, 0), (0, 1), (-1, 0), (0, -1))  # counterclockwise
    out = []
    while len(out) < n:
        w, h = rng.randint(3, 8), rng.randint(3, 8)
        keep, flip = rng.uniform(0.6, 0.95), rng.uniform(0.1, 0.5)
        kept = {
            ((i, j), (i + di, j + dj))
            for i in range(w) for j in range(h) for di, dj in steps[:2]
            if i + di < w and j + dj < h and rng.random() < keep
        }
        adj = {}
        for u, v in kept:
            adj.setdefault(u, []).append(v)
            adj.setdefault(v, []).append(u)
        piece, seen = set(), set()  # the largest connected piece
        for s in sorted(adj):
            if s in seen:
                continue
            found, stack = {s}, [s]
            while stack:
                for y in adj[stack.pop()]:
                    if y not in found:
                        found.add(y)
                        stack.append(y)
            seen |= found
            if len(found) > len(piece):
                piece = found
        edges = sorted((u, v) for u, v in kept if u in piece)
        if not edges:
            continue
        index = {e: k for k, e in enumerate(edges)}
        rot = {}  # vertex -> its edges, counterclockwise
        for v in piece:
            around = [(v[0] + dx, v[1] + dy) for dx, dy in steps]
            rot[v] = [index[e] for y in around for e in ((v, y), (y, v)) if e in index]
        corners = {}  # (vertex, edge) -> edge id of the diagram

        def corner(v, k):
            return corners.setdefault((v, k), len(corners) + 1)

        def prev(v, k):
            r = rot[v]
            return r[r.index(k) - 1]

        flat = []  # the slots of each crossing in turn
        for k, (u, v) in enumerate(edges):
            slots = [corner(v, prev(v, k)), corner(u, k), corner(u, prev(u, k)), corner(v, k)]
            if rng.random() < flip:
                slots = slots[1:] + slots[:1]
            flat += slots
        d = _assemble(flat, [])
        _check_sphericity(d)
        out.append(d)
    return out


@pytest.fixture(scope="session")
def bench_inputs():
    """The benchmark's input generator, ``perfbench/inputs.py``, read-only."""
    perfbench = str(Path(__file__).resolve().parent.parent / "perfbench")
    sys.path.insert(0, perfbench)
    try:
        import inputs
    finally:
        sys.path.remove(perfbench)
    return inputs


# -- finger bases ------------------------------------------------------------------

def augment_recording_fingers(monkeypatch, diagrams):
    """``augment`` each diagram; returns the results and every (map, arc)
    of positive cost along which the merge loop pushed a finger."""
    from altknot import augment, augmentation

    arcs = []
    real = augmentation.propagate_finger

    def record(g, arc):
        if arc.phi > 0:
            arcs.append((g, arc))
        return real(g, arc)

    with monkeypatch.context() as m:
        m.setattr(augmentation, "propagate_finger", record)
        results = [augment(d) for d in diagrams]
    return results, arcs


def finger_base_verdicts(monkeypatch, arcs):
    """Build the finger of each (map, arc) on every circle edge bordering
    the arc's first face; returns the failures ``check_edit`` found in
    each build."""
    from altknot import augmentation, face_set

    verdicts = []
    real = augmentation.check_edit

    def check(b, source_fs, out):
        failures = real(b, source_fs, out)
        verdicts.append(failures)
        return failures

    with monkeypatch.context() as m:
        m.setattr(augmentation, "check_edit", check)
        for g, arc in arcs:
            fs = face_set(g)
            for e, rec in sorted(g.edges.items()):
                if rec.component == arc.source_curve and arc.faces[0] in fs.edge_sides(g, e):
                    augmentation._insert_finger(g, fs, arc, e)
    return verdicts


def oracle_finger_base(g, arc):
    """The finger base by a scan of every edge: the least edge of the
    source circle with the arc's first face on one of its sides."""
    from altknot import face_set

    fs = face_set(g)
    return min(
        e for e, rec in g.edges.items()
        if rec.component == arc.source_curve and arc.faces[0] in fs.edge_sides(g, e)
    )


def picked_finger_bases(monkeypatch, arcs):
    """The base ``propagate_finger`` picks for each (map, arc), found
    without building the finger."""
    from altknot import augmentation

    picked = []

    def record(g, fs, arc, base):
        picked.append(base)
        return g

    with monkeypatch.context() as m:
        m.setattr(augmentation, "_insert_finger", record)
        for g, arc in arcs:
            augmentation.propagate_finger(g, arc)
    return picked


# -- merge arcs --------------------------------------------------------------------

def augment_recording_merge_arcs(monkeypatch, diagrams):
    """``augment`` each diagram; returns the results and every (map, live
    circles, arc) of the merge loop's ``find_merge_arc`` calls."""
    from altknot import augment, augmentation

    calls = []
    real = augmentation.find_merge_arc

    def record(g, live, faces=None):
        arc = real(g, live, faces)
        calls.append((g, list(live), arc))
        return arc

    with monkeypatch.context() as m:
        m.setattr(augmentation, "find_merge_arc", record)
        results = [augment(d) for d in diagrams]
    return results, calls


def assert_circle_faces_are_read(faces, g, live) -> None:
    """The circle faces ``faces`` (``augmentation._CircleFaces``) carried
    to ``g`` are those read from the edges of the circles ``live``."""
    from itertools import combinations

    from altknot import face_set
    from altknot.augmentation import _curve_faces

    fs = face_set(g)
    want = _curve_faces(g, fs, live)
    assert faces.faces == want
    shared = {f for a, b in combinations(want, 2) for f in want[a] & want[b]}
    assert faces.shared == shared
    owners = {}
    for ci, fids in want.items():
        for f in fids:
            owners.setdefault(f, set()).add(ci)
    assert faces.owners == owners
    # each face is keyed by its least corner, read through the
    # (crossing, slot) view
    corner_face = corner_view(fs)
    assert all(corner_face[(k >> 2, k & 3)] == k == min(fs.darts[k]) for k in faces.owners)


def shared_face(g, ci: int, cj: int) -> int:
    """``augmentation._shared_face`` of circles ``ci`` and ``cj`` of
    ``g``, with their faces read from their edges."""
    from altknot import face_set
    from altknot.augmentation import _CircleFaces, _shared_face

    return _shared_face(ci, cj, _CircleFaces(g, face_set(g), (ci, cj)))


def augment_following_circle_faces(monkeypatch, diagrams):
    """``augment`` each diagram, checking the circle faces its merge loop
    carries against those read afresh after every edit; returns the
    results and the number of edits checked."""
    from altknot import augment, augmentation

    checked = []
    real = augmentation._CircleFaces.follow

    def follow(faces, g, dropped=None, merged=None):
        live = [ci for ci in faces.faces if ci != dropped]
        real(faces, g, dropped, merged)
        assert sorted(faces.faces) == sorted(live)
        assert_circle_faces_are_read(faces, g, live)
        checked.append(dropped)

    with monkeypatch.context() as m:
        m.setattr(augmentation._CircleFaces, "follow", follow)
        results = [augment(d) for d in diagrams]
    return results, len(checked)


# -- the face table ------------------------------------------------------------------

@dataclass(frozen=True)
class OracleFace:
    """A face of the oracle walk (``oracle_face_table``).  ``id`` is its
    rank among the walk's faces; ``corner_slots`` lists its corners in
    cyclic order as (crossing, slot) pairs, from its least, and
    ``boundary_edges[k]`` is the edge leaving corner k.  The two faces of
    a crossing-free loop have no corners and carry the loop id."""

    id: int
    corner_slots: tuple
    boundary_edges: tuple
    loop: int | None = None

    @property
    def dart(self) -> int:
        """The package's id of a corner face: its least corner as a dart."""
        c, s = self.corner_slots[0]
        return 4 * c + s

    @property
    def degree(self) -> int:
        return len(self.corner_slots)

    def crossings(self) -> frozenset[int]:
        return frozenset(c for c, _s in self.corner_slots)

    @property
    def is_bigon(self) -> bool:
        """Two corners at two distinct crossings."""
        cs = self.corner_slots
        return len(cs) == 2 and cs[0][0] != cs[1][0]


def oracle_face_table(d):
    """(faces, corner_face) of ``d`` by the walk on (crossing, slot)
    pairs: every corner of ``d`` in crossing-id order, each face walked
    from its least corner, ids in that order, then two faces per
    crossing-free loop in loop-id order; ``corner_face`` maps each corner
    to its face.  The walk leaves corner (c, s) through the edge in slot
    s + 1 and arrives at the corner of the edge's far end.
    InvariantError when a walk reaches a corner it took or no corner."""
    from altknot.errors import InvariantError

    far = {}
    for rec in d.edges.values():
        a, z = rec.ends
        far[a] = z
        far[z] = a
    corner_face = {}
    faces = []
    for start in [(c, s) for c in sorted(d.crossings) for s in range(4)]:
        if start in corner_face:
            continue
        fid = len(faces)
        slots, edges = [], []
        corner = start
        while True:
            if corner is None or corner in corner_face:
                raise InvariantError(f"face walk collided at corner {corner}")
            corner_face[corner] = fid
            slots.append(corner)
            c, s = corner
            edges.append(d.crossings[c].slots[(s + 1) % 4])
            corner = far.get((c, (s + 1) % 4))
            if corner == start:
                break
        faces.append(OracleFace(fid, tuple(slots), tuple(edges)))
    for loop_id in sorted(d.loops):
        faces.append(OracleFace(len(faces), (), (), loop_id))
        faces.append(OracleFace(len(faces), (), (), loop_id))
    return faces, corner_face


def oracle_faces(d) -> list[OracleFace]:
    """The faces of the oracle walk of ``d``, ids their ranks."""
    return oracle_face_table(d)[0]


def corner_view(fs) -> dict:
    """The face table ``fs`` keyed by (crossing, slot): corner -> face id,
    read off its darts, one entry per dart that names a corner."""
    return {(x >> 2, x & 3): f for x, f in enumerate(fs.dart_face) if f != -1}


def same_table(fs, d) -> bool:
    """The face table ``fs`` is the tuple walk of ``d``
    (``oracle_face_table``), compared through a ranked view: the table's
    faces, ordered by id, are the walk's corner faces in order, with the
    same darts and edges in the same corner order; each face's id is its
    least dart; and every corner, read through the (crossing, slot)
    view, is in the face of that rank.  Loop faces have no darts, so the
    table lists none."""
    faces, corner_face = oracle_face_table(d)
    corner_faces = [f for f in faces if f.loop is None]
    ids = sorted(fs.darts)
    return (
        [tuple(4 * c + s for c, s in f.corner_slots) for f in corner_faces] == [fs.darts[f] for f in ids]
        and [list(f.boundary_edges) for f in corner_faces] == [fs.edges(d, f) for f in ids]
        and all(f == fs.darts[f][0] for f in ids)
        and corner_view(fs) == {corner: ids[f] for corner, f in corner_face.items()}
    )


# -- map equality, a mutator and checks of the package's facts -----------------
# Only the tests use these; the package keeps none of them.

def same_map(a: Diagram, b: Diagram) -> bool:
    """Combinatorial-map equality preserving edge ids, up to rotating each
    crossing's slot numbering (which the serialization of a flipped
    crossing does).  Crossings match by id when the id sets agree, else
    positionally in sorted order (PD text carries no crossing ids, so a
    parse after a serialize renumbers them in record order)."""
    if set(a.edges) != set(b.edges) or set(a.loops) != set(b.loops):
        return False
    if len(a.crossings) != len(b.crossings):
        return False
    if set(a.crossings) == set(b.crossings):
        cmap = {c: c for c in a.crossings}
    else:
        cmap = dict(zip(sorted(a.crossings), sorted(b.crossings)))
    rot: dict[int, int] = {}
    for cid, ca in a.crossings.items():
        cb = b.crossings[cmap[cid]]
        for r in range(4):
            if tuple(ca.slots[(i + r) % 4] for i in range(4)) == tuple(cb.slots):
                pa = ca.over_slots[0] % 2
                pb = cb.over_slots[0] % 2
                if (pa - r) % 2 == pb:
                    rot[cid] = r
                    break
        else:
            return False
    comp_map: dict[int, int] = {}
    comp_seen: set[int] = set()

    def comps_match(ca: int, cb: int) -> bool:
        if ca in comp_map:
            return comp_map[ca] == cb
        if cb in comp_seen:
            return False
        comp_map[ca] = cb
        comp_seen.add(cb)
        return True

    for e, ra in a.edges.items():
        rb = b.edges[e]
        mapped = {(cmap[c], (s - rot[c]) % 4) for c, s in ra.ends}
        if mapped != set((c, s % 4) for c, s in rb.ends):
            return False
        if not comps_match(ra.component, rb.component):
            return False
    for k, comp in a.loops.items():
        if not comps_match(comp, b.loops[k]):
            return False
    return True


def oracle_pieces(d: Diagram) -> list[tuple[frozenset[int], frozenset[int]]]:
    """(crossing ids, edge ids) per connected piece of the 4-valent map,
    in order of least crossing, by a search from each unseen crossing;
    crossing-free loops are not listed.  The package only counts pieces
    (``connected_pieces``)."""
    seen: set[int] = set()
    pieces = []
    for start in sorted(d.crossings):
        if start in seen:
            continue
        seen.add(start)
        cs = [start]
        for c in cs:
            for e in d.crossings[c].slots:
                for c2, _s in d.edges[e].ends:
                    if c2 not in seen:
                        seen.add(c2)
                        cs.append(c2)
        pieces.append((frozenset(cs), frozenset(e for c in cs for e in d.crossings[c].slots)))
    return pieces


def oracle_assemble(slot_records, loop_ids) -> Diagram:
    """The map of crossing records, each four edge ids, and loop ids, as
    ``diagram._assemble`` makes it, by a table of the (crossing, slot)
    uses of each edge and a strand walk on those pairs: crossings in
    record order with the over strand in slots 1 and 3; edges in order of
    first use, each from its first use to its second; components the strand orbits by least edge id, then the loops in id
    order.  IncidenceError and InvariantError as the package words them."""
    from altknot.diagram import Crossing, Diagram
    from altknot.errors import IncidenceError, InvariantError

    crossings, uses = {}, {}
    for cid, slots in enumerate(slot_records):
        crossings[cid] = Crossing(cid, tuple(slots), over_slots=(1, 3))
        for s, e in enumerate(slots):
            uses.setdefault(e, []).append((cid, s))
    loops = set()
    for k in loop_ids:
        if k in loops:
            raise IncidenceError(f"loop id {k} repeated")
        loops.add(k)
    bad = {e for e, u in uses.items() if len(u) != 2} | (loops & uses.keys())
    if bad:
        raise IncidenceError(f"edge ids not used exactly twice: {sorted(bad)}")
    comp = {}
    n = 0
    for first in sorted(uses):
        if first in comp:
            continue
        comp[first] = n
        # leave each edge by its second use and go straight through the
        # crossing there, slot s to s + 2
        c, s = uses[first][1]
        while True:
            through = (c, (s + 2) % 4)
            e = crossings[c].slots[through[1]]
            if e == first:
                break
            if e in comp:
                raise InvariantError(f"strand walk from edge {first} met edge {e} again")
            comp[e] = n
            a, z = uses[e]
            c, s = z if a == through else a
        n += 1
    edges = {e: Edge(e, (u[0], u[1]), comp[e]) for e, u in uses.items()}
    return Diagram(crossings, edges, {k: n + i for i, k in enumerate(sorted(loops))})


def oracle_parse(text: str) -> Diagram:
    """``parse_pd`` by its parts' oracles: the record loop
    (``diagram._read_records``) on the comment-stripped text, then
    ``oracle_assemble``, then V - E + F = 2P over the tuple walk's corner
    faces (``oracle_face_table``) and ``oracle_pieces``; each refusal is
    raised with the package's type and words."""
    from altknot import diagram
    from altknot.errors import SphericityError

    flat, loop_ids = diagram._read_records(diagram._strip_comments(text))
    d = oracle_assemble([flat[x:x + 4] for x in range(0, len(flat), 4)], loop_ids)
    faces = [f for f in oracle_faces(d) if f.loop is None]
    chi = len(d.crossings) - len(d.edges) + len(faces)
    pieces = len(oracle_pieces(d))
    if chi != 2 * pieces:
        raise SphericityError(f"V-E+F = {chi} on {pieces} pieces, not {2 * pieces}")
    return d


def assert_parse_is_the_oracle(text: str) -> None:
    """``parse_pd(text)`` is ``oracle_parse(text)``: the same refusal,
    type and words, or the same records in the same dict order, with the
    face table of the tuple walk and the oracle's number of pieces."""
    from altknot import face_set, parse_pd
    from altknot.errors import DiagramError

    try:
        want = oracle_parse(text)
    except DiagramError as exc:
        with pytest.raises(DiagramError) as got:
            parse_pd(text)
        assert (type(got.value), str(got.value)) == (type(exc), str(exc)), text
        return
    d = parse_pd(text)
    assert list(d.crossings.items()) == list(want.crossings.items()), text
    assert list(d.edges.items()) == list(want.edges.items()), text
    assert list(d.loops.items()) == list(want.loops.items()), text
    assert d.augmenting_component is want.augmenting_component is None
    fs = face_set(d)
    assert same_table(fs, d) and fs.pieces == len(oracle_pieces(d)), text


def euler_by_piece(d: Diagram) -> list[tuple[int, int, int]]:
    """(V, E, F) per crossing-bearing connected piece.  The package checks
    their sum (``validate_diagram``); the tests check each piece."""
    from altknot import face_set

    fs = face_set(d)
    out = []
    for cs, es in oracle_pieces(d):
        nf = sum(1 for f in fs.darts if f >> 2 in cs)
        out.append((len(cs), len(es), nf))
    return out


def twist_region_topology(d: Diagram, region: TwistRegion) -> TwistRegion:
    """Re-derive a region's topology and, for connected R2-reduced
    diagrams, enforce that a non-disk region forces the standard
    two-strand torus diagram."""
    from altknot import detect_two_strand_torus, diagram_flags, face_set
    from altknot.analysis import RegionTopology, TwistRegion
    from altknot.errors import InvariantError

    fs = face_set(d)
    topo = _oracle_region_topology(d, fs, list(region.bigons))
    out = TwistRegion(region.crossings, region.bigons, region.links, topo)
    if topo is not RegionTopology.DISK:
        flags = diagram_flags(d)
        if flags.connected and flags.r2_reduced:
            if detect_two_strand_torus(d) is None:
                raise InvariantError(
                    "non-disk twist region in a connected R2-reduced diagram "
                    "that is not the standard two-strand torus diagram"
                )
    return out


def reattach(b: MapBuilder, eid: int, old_end: End, new_end: End) -> None:
    """Move the end ``old_end`` of edge ``eid`` to the slot ``new_end``
    in the builder ``b``, writing the edge into that slot; the slot the
    end leaves keeps its edge id.  Only the tests build such mutants."""
    rec = b.edges[eid]
    ends = list(rec.ends)
    ends[ends.index(tuple(old_end))] = tuple(new_end)
    b.edges[eid] = Edge(eid, tuple(ends), rec.component)
    b.touched_edges.add(eid)
    c, s = new_end
    b._own_slots(c)[s] = eid


def new_component_id(b: MapBuilder) -> int:
    """A component id that neither ``b``'s source nor any record written
    to ``b`` carries: one past the largest.  Only the tests hand out
    component ids; the surgery keeps the ids it has."""
    comps = {r.component for r in b.edges.values()} | set(b.loops.values())
    return max(comps | {b.source.next_component_id() - 1}) + 1


def subdivide_edge_with_crossing(
    d: Diagram,
    e: int,
    e_sign: Sign,
    new_component: int | None = None,
) -> Diagram:
    """Insert one transverse crossing on edge ``e``.

    The edge splits into two halves sharing the new crossing, both on the
    component of ``e``; the strand of ``e`` carries
    ``e_sign`` there and the crossing strand the negation.  The crossing
    strand is a one-edge closed loop through the new crossing, labeled
    ``new_component`` (fresh when omitted).

    Parity caveat: a closed curve meets a closed strand an even number
    of times in the sphere, so a diagram with a lone transversal loop
    crossing fails the Euler check until further crossings of the same
    inserted strand even the count out (``overlay_unlink`` inserts whole
    curves at once for exactly this reason).  Everything local -- labels,
    components, V+1/E+2 -- behaves as for one step of a curve insertion."""
    from altknot.diagram import MapBuilder, Sign

    if e not in d.edges:
        raise UnknownEdge(f"no edge {e}")
    b = MapBuilder(d)
    rec = d.edges[e]
    x = b.new_crossing_id()
    h0, h1 = b.new_edge_id(), b.new_edge_id()
    loop_edge = b.new_edge_id()
    comp = new_component if new_component is not None else new_component_id(b)
    over = (1, 3) if e_sign is Sign.MINUS else (0, 2)
    b.remove_edge(e)
    b.add_crossing(x, [0, 0, 0, 0], over)
    b.add_edge(h0, [tuple(rec.ends[0]), (x, 0)], rec.component)
    b.add_edge(h1, [(x, 2), tuple(rec.ends[1])], rec.component)
    b.add_edge(loop_edge, [(x, 1), (x, 3)], comp)
    return b.build()


# -- oracles ----------------------------------------------------------------------

def oracle_overlay(d: Diagram, cs):
    """(overlay, realized cut system) of the cut circles ``cs`` on ``d``,
    built edit by edit through a ``MapBuilder``: per curve a fresh
    component and crossings, each crossed edge cut into two halves, then
    the curve's own edges.  No check is run.  ``overlay_unlink`` builds
    the same map in one pass and checks it."""
    from dataclasses import replace

    from altknot.diagram import MapBuilder, Sign
    from altknot.errors import ConstructionError

    b = MapBuilder(d)
    comp_ids = []
    for curve in cs.curves:
        comp = new_component_id(b)
        comp_ids.append(comp)
        n = len(curve.stubs)
        xs = [b.new_crossing_id() for _ in range(n)]
        for k, (e, cw, sw) in enumerate(curve.stubs):
            rec = b.edges.get(e)
            if rec is None:
                raise ConstructionError(f"edge {e} crossed twice during overlay")
            far = rec.other_end((cw, sw))
            # the original strand takes the sign opposite its labels
            over = (1, 3) if d.edge_labels(e)[0] is Sign.MINUS else (0, 2)
            h_w, h_far = b.new_edge_id(), b.new_edge_id()
            b.remove_edge(e)
            b.add_crossing(xs[k], [0, 0, 0, 0], over)
            b.add_edge(h_w, [(cw, sw), (xs[k], 3)], rec.component)
            b.add_edge(h_far, [(xs[k], 1), far], rec.component)
        for k in range(n):
            b.add_edge(b.new_edge_id(), [(xs[k], 2), (xs[(k + 1) % n], 0)], comp)
    realized = replace(cs, curves=tuple(
        replace(curve, component=comp) for curve, comp in zip(cs.curves, comp_ids)
    ))
    return b.build(), realized


def assert_overlay_matches_oracle(d: Diagram) -> None:
    """``overlay_unlink`` on ``d``'s cut circles equals ``oracle_overlay``
    record for record, in dict order too."""
    from altknot import build_cut_curves, overlay_unlink

    cs = build_cut_curves(d)
    g, realized = overlay_unlink(d, cs)
    want, want_cs = oracle_overlay(d, cs)
    assert list(g.crossings.items()) == list(want.crossings.items())
    assert list(g.edges.items()) == list(want.edges.items())
    assert (g.loops, g.augmenting_component) == (want.loops, want.augmenting_component)
    assert realized == want_cs


def oracle_labels_from_pd(text: str) -> dict[int, list[str]]:
    """End labels straight from the record grammar: the under strand of
    X(a,b,c,d) is {a,c}, the over strand {b,d}."""
    labels: dict[int, list[str]] = {}
    for m in re.finditer(r"X\(([^()]*)\)", text):
        a, b, c, d = (int(x) for x in m.group(1).split(","))
        for e, lab in ((a, "-"), (c, "-"), (b, "+"), (d, "+")):
            labels.setdefault(e, []).append(lab)
    return labels


def oracle_alternating_edges(text: str) -> set[int]:
    return {
        e for e, labs in oracle_labels_from_pd(text).items()
        if sorted(labs) == ["+", "-"]
    }


def oracle_valid(d) -> bool:
    """Validity from the definitions: four slots and a legal over strand
    at every crossing; every edge id named by exactly the two slots its
    ends list, and none also a loop id; one component id on each strand
    orbit; and V - E + F = 2 on each piece."""
    from altknot.errors import InvariantError

    uses = {}
    for cid, c in d.crossings.items():
        if len(c.slots) != 4 or tuple(sorted(c.over_slots)) not in ((0, 2), (1, 3)):
            return False
        for s, e in enumerate(c.slots):
            uses.setdefault(e, []).append((cid, s))
    if set(uses) != set(d.edges) or set(d.edges) & set(d.loops):
        return False
    if any(sorted(uses[e]) != sorted(rec.ends) for e, rec in d.edges.items()):
        return False
    if any(len({d.edges[e].component for e in orbit}) != 1 for orbit in oracle_strand_components(d)):
        return False
    try:
        return all(v - e + f == 2 for v, e, f in euler_by_piece(d))
    except InvariantError:  # the face walk collided: not a rotation system
        return False


def oracle_validate_diagram(d):
    """``validate_diagram`` as the three whole-map loops: the table of
    uses built for every map, every incidence check worded from it, and
    labels and the component census read in sorted crossing order."""
    from altknot import face_set
    from altknot.diagram import End, ValidationReport
    from altknot.errors import InvariantError

    failures: list[str] = []
    uses: dict[int, list[End]] = {}
    for cid, c in d.crossings.items():
        if len(c.slots) != 4:
            failures.append(f"valence: crossing {cid} has {len(c.slots)} slots")
            continue
        for s, e in enumerate(c.slots):
            if e not in d.edges:
                failures.append(f"incidence: crossing {cid} slot {s} names missing edge {e}")
            uses.setdefault(e, []).append((cid, s))
    for e, u in sorted(uses.items()):
        if len(u) != 2:
            failures.append(f"incidence: edge {e} used {len(u)} times")
    for e, rec in sorted(d.edges.items()):
        if e in d.loops:
            failures.append(f"incidence: id {e} is both edge and loop")
        u = tuple(uses.get(e, ()))
        if u != rec.ends and u[::-1] != rec.ends:
            failures.append(f"incidence: edge {e} ends {rec.ends} do not match slots")
    for cid, c in sorted(d.crossings.items()):
        if type(c.over_slots) is not tuple:
            failures.append(f"labels: crossing {cid} has over_slots {c.over_slots!r}, not a tuple")
        elif c.over_slots not in ((0, 2), (2, 0), (1, 3), (3, 1)):
            word = "".join(str(c.label(s)) for s in range(4))
            failures.append(f"labels: crossing {cid} reads ({word}) around, not (+-+-)")

    v = len(d.crossings)
    e = len(d.edges)
    f = 0
    structural_ok = not any(msg.startswith(("incidence", "valence")) for msg in failures)
    if structural_ok:
        try:
            f = len(face_set(d).darts) + 2 * len(d.loops)
        except InvariantError as exc:
            failures.append(f"sphericity: {exc}")
        else:
            chi = v - e + f - 2 * len(d.loops)
            pieces = len(oracle_pieces(d))
            if chi != 2 * pieces:
                failures.append(f"sphericity: V-E+F = {chi} on {pieces} pieces, not {2 * pieces}")
        edges = d.edges
        for cid, c in sorted(d.crossings.items()):
            for s in (0, 1):
                a, z = edges[c.slots[s]].component, edges[c.slots[s + 2]].component
                if a != z:
                    ids = sorted({a, z})
                    failures.append(f"components: strand through crossing {cid} carries mixed ids {ids}")
    ncomp = len({rec.component for rec in d.edges.values()} | set(d.loops.values()))
    return ValidationReport(not failures, failures, v, e, f, ncomp)


def oracle_strand_components(d) -> list[frozenset[int]]:
    """Strand orbits by a union-find over the two strands of every
    crossing, in order of least edge id."""
    parent = {}

    def find(x):
        parent.setdefault(x, x)
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for c in d.crossings.values():
        parent[find(c.slots[0])] = find(c.slots[2])
        parent[find(c.slots[1])] = find(c.slots[3])
    groups: dict[int, set[int]] = {}
    for e in d.edges:
        groups.setdefault(find(e), set()).add(e)
    return [frozenset(g) for g in sorted(groups.values(), key=min)]


def oracle_numbered_components(d):
    """``d`` with its edges built again and numbered as a parse numbers
    them: the strand orbits by least edge id, then the loops in id
    order.  Edges keep ``d``'s order, loops are listed in id order."""
    from altknot.diagram import Diagram

    edge_comp = {e: i for i, grp in enumerate(oracle_strand_components(d)) for e in grp}
    n = len(set(edge_comp.values()))
    loops = {k: n + i for i, k in enumerate(sorted(d.loops))}
    edges = {e: Edge(e, rec.ends, edge_comp[e]) for e, rec in d.edges.items()}
    return Diagram(d.crossings, edges, loops, d.augmenting_component)


def oracle_two_edge_cut(d, fs):
    """``analysis._two_edge_cut`` keyed by frozensets: the sorted scan for
    the first edge whose two faces an earlier edge also borders."""
    from altknot.errors import InvariantError

    seen = {}
    for e in sorted(d.edges):
        key = frozenset(fs.edge_sides(d, e))
        if len(key) == 1:
            raise InvariantError(f"edge {e} borders one face on both sides")
        if key in seen:
            return (seen[key], e)
        seen[key] = e
    return None


def oracle_two_edge_cuts(d) -> list[tuple[int, int]]:
    """Exhaustive crossing-separating two-edge cuts: remove each pair of
    distinct edges and test connectivity of the crossing multigraph."""
    import itertools

    edges = sorted(d.edges)
    crossings = sorted(d.crossings)
    if len(crossings) < 2:
        return []
    cuts = []
    for e1, e2 in itertools.combinations(edges, 2):
        banned = {e1, e2}
        seen = {crossings[0]}
        stack = [crossings[0]]
        while stack:
            c = stack.pop()
            for e in d.crossings[c].slots:
                if e in banned:
                    continue
                for c2, _s in d.edges[e].ends:
                    if c2 not in seen:
                        seen.add(c2)
                        stack.append(c2)
        if len(seen) != len(crossings):
            cuts.append((e1, e2))
    return cuts


def oracle_cut_vertices(d) -> list[int]:
    """Stub-splitting reimplementation of projection cut vertices: split
    the crossing into its four stubs and join the ends of every edge; the
    crossing is a cut vertex when its stubs fall into more than one
    group."""
    out = []
    for c in sorted(d.crossings):
        parent: dict = {}

        def find(x):
            parent.setdefault(x, x)
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for rec in d.edges.values():
            a, b = (("s", s) if cid == c else ("c", cid) for cid, s in rec.ends)
            parent[find(a)] = find(b)
        if len({find(("s", s)) for s in range(4)}) > 1:
            out.append(c)
    return out


def oracle_bigon_faces(d) -> list[frozenset[int]]:
    """Edge pairs bounding bigons, by the oracle walk and an independent
    filtering."""
    out = []
    for f in oracle_faces(d):
        if f.loop is None and len(f.corner_slots) == 2:
            cs = {c for c, _s in f.corner_slots}
            if len(cs) == 2:
                out.append(frozenset(f.boundary_edges))
    return out


def oracle_r2_bigons(d) -> list[int]:
    """The package's ids (least darts) of the bigon faces whose edges do
    not alternate, in increasing order, by a scan of every face of the
    oracle walk."""
    out = []
    for f in oracle_faces(d):
        if f.is_bigon:
            a, b = d.edge_labels(f.boundary_edges[0])
            if a == b:
                out.append(f.dart)
    return out


def oracle_move(d, kind, key):
    """The result of one reduction move on ``d``: the removal of the
    nugatory crossing ``key`` (``kind`` "nugatory") or of the R2 bigon
    whose face id is ``key`` (``kind`` "r2").  The move is built by
    ``reduction``'s own edit and accepted only when ``validate_diagram``
    finds its result valid, never through ``check_move``, the check it
    is compared with."""
    from altknot import face_set, validate_diagram
    from altknot.reduction import _nugatory_edit, _r2_edit

    b = _nugatory_edit(d, key) if kind == "nugatory" else _r2_edit(d, face_set(d).darts[key])
    out = b.build()
    rep = validate_diagram(out)
    assert rep.valid, (kind, key, rep.failures)
    return out


def oracle_preprocess(d):
    """``preprocess`` as the whole-map loop: before every move, all cut
    vertices and all R2 bigons of the map, and after it, its whole twist
    partition; each move is ``oracle_move``.  Returns (output, trace)."""
    from altknot import face_set
    from altknot.analysis import cut_vertices, twist_partition
    from altknot.reduction import ReductionStep, ReductionTrace

    t = twist_partition(d).t
    trace = ReductionTrace(crossings_before=len(d.crossings), t_before=t)
    cur = d
    while True:
        cuts = cut_vertices(cur)
        if cuts:
            kind, key, removed = "nugatory", cuts[0], (cuts[0],)
        else:
            bigons = oracle_r2_bigons(cur)
            if not bigons:
                break
            kind, key = "r2", bigons[0]
            removed = tuple(sorted({x >> 2 for x in face_set(cur).darts[key]}))
        cur = oracle_move(cur, kind, key)
        t = twist_partition(cur).t
        trace.steps.append(ReductionStep(kind, removed, len(cur.crossings), t))
    trace.crossings_after = len(cur.crossings)
    trace.t_after = t
    return cur, trace


def assert_partition_is_the_walk(faces, d):
    """The ``FacePartition`` ``faces`` holds the corner faces of the tuple
    walk of ``d`` (``oracle_face_table``): the same corner sets, no empty
    one, and every corner of ``d`` mapped to the handle of its set, each
    corner (c, s) read as its dart 4 c + s; the other darts map to -1."""
    walk = {frozenset(4 * c + s for c, s in f.corner_slots) for f in oracle_face_table(d)[0] if f.loop is None}
    assert {frozenset(ks) for ks in faces.corners.values()} == walk
    assert len(faces.corners) == len(walk)
    assert {x for x, h in enumerate(faces.face) if h != -1} == {4 * c + s for c in d.crossings for s in range(4)}
    assert all(faces.face[k] == h for h, ks in faces.corners.items() for k in ks)


def preprocess_audited(d):
    """``preprocess(d)``, checking after every move that the worklist's
    face partition, cut vertices, R2 bigons and twist count equal the
    whole map's, and that its heaps give the least cut vertex and the
    least R2 key.  Returns (output, trace)."""
    from altknot import face_set, reduction
    from altknot.analysis import cut_vertices, twist_partition

    real = reduction._Moves.advance

    def advance(moves, cur, gone, plan):
        real(moves, cur, gone, plan)
        assert_partition_is_the_walk(moves.faces, cur)
        assert moves.cuts == set(cut_vertices(cur))
        assert moves.bigons == set(oracle_r2_bigons(cur))
        assert moves.least_cut() == min(moves.cuts, default=None)
        assert moves.least_bigon() == min(moves.bigons, default=None)
        assert moves.t == twist_partition(cur).t

    with pytest.MonkeyPatch.context() as m:
        m.setattr(reduction._Moves, "advance", advance)
        return reduction.preprocess(d)


def assert_preprocess_matches_oracle(d, audit=True):
    """``preprocess(d)`` (audited move by move, unless ``audit`` is
    false) gives the output and the trace of ``oracle_preprocess``."""
    from altknot import reduction, serialize_pd

    out, trace = preprocess_audited(d) if audit else reduction.preprocess(d)
    want_out, want_trace = oracle_preprocess(d)
    assert serialize_pd(out) == serialize_pd(want_out)
    assert trace.to_json() == want_trace.to_json()
    return out, trace


def oracle_twist_count(d) -> int:
    """Union-find over crossings joined through bigons of the oracle
    walk; independent of the package's TwistPartition construction."""
    parent = {c: c for c in d.crossings}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for f in oracle_faces(d):
        if f.loop is None and len(f.corner_slots) == 2:
            cs = sorted({c for c, _s in f.corner_slots})
            if len(cs) == 2:
                parent[find(cs[0])] = find(cs[1])
    return len({find(c) for c in d.crossings})


def _oracle_region_topology(d, fs, bigons):
    """Topology of the union of the bigon faces ``bigons`` of ``d``'s
    ``fs``: the package's former helper, kept for the oracle below."""
    from altknot.analysis import RegionTopology
    from altknot.errors import InvariantError

    if not bigons:
        return RegionTopology.DISK
    vs: set[int] = set()
    es: set[int] = set()
    for f in bigons:
        vs.update(x >> 2 for x in fs.darts[f])
        es.update(fs.edges(d, f))
    chi = len(vs) - len(es) + len(bigons)
    if chi == 1:
        return RegionTopology.DISK
    if chi == 0:
        return RegionTopology.ANNULUS
    if chi == 2:
        return RegionTopology.SPHERE
    raise InvariantError(f"twist region with Euler characteristic {chi}")


def oracle_twist_partition(d):
    """``analysis.twist_partition`` as it was before it became one pass
    over the faces: bigons unioned through a union-find over their
    crossings, then grouped, linked and measured region by region.  The
    body is the former one verbatim, except that it neither reads nor
    fills the partition kept on the face table."""
    from altknot import face_set
    from altknot.analysis import RegionTopology, TwistPartition, TwistRegion
    from altknot.diagram import _is_bigon, _Partition

    fs = face_set(d)
    darts = fs.darts
    bigons = [f for f, ds in darts.items() if _is_bigon(ds)]
    chains = _Partition()
    by_crossing: dict[int, list[int]] = {}
    for f in bigons:
        # a bigon's two corners are at two distinct crossings
        x0, x1 = darts[f]
        by_crossing.setdefault(x0 >> 2, []).append(f)
        by_crossing.setdefault(x1 >> 2, []).append(f)
    for c, fl in by_crossing.items():
        for other in fl[1:]:
            chains.union(other, fl[0])
    find = chains.find

    grouped: dict[int, list[int]] = {}
    for f in bigons:
        grouped.setdefault(find(f), []).append(f)
    # all bigons at one crossing share a root, so each link belongs to
    # the region of its first bigon
    links: dict[int, list[tuple[int, int, int]]] = {}
    for c, shared in sorted(by_crossing.items()):
        if len(shared) == 2:
            a, b = sorted(shared)
            links.setdefault(find(a), []).append((a, b, c))

    regions = []
    for root, fl in grouped.items():
        crossings = frozenset(x >> 2 for f in fl for x in darts[f])
        regions.append(
            TwistRegion(
                crossings,
                tuple(sorted(fl)),
                tuple(links.get(root, ())),
                _oracle_region_topology(d, fs, fl),
            )
        )
    in_bigon = set(by_crossing)
    for c in sorted(d.crossings):
        if c not in in_bigon:
            regions.append(TwistRegion(frozenset([c]), (), (), RegionTopology.DISK))
    regions.sort(key=lambda r: min(r.crossings))
    return TwistPartition(frozenset(bigons), tuple(regions), len(regions))


def assert_twist_partition_is_the_oracle(d) -> None:
    """``twist_partition(d)`` equals ``oracle_twist_partition(d)``: the
    same bigons, regions in the same order, each with the same crossings,
    bigons, links and topology."""
    from altknot import serialize_pd, twist_partition

    assert twist_partition(d) == oracle_twist_partition(d), serialize_pd(d)


def oracle_strand_runs(g, stops) -> dict:
    """The run of ``g``'s strand out of each slot (c, s) of every crossing
    c in ``stops``, edge by edge and straight through every other
    crossing: (c, s) -> (the end at which it arrives at a crossing of
    ``stops``, the edges it follows, the crossings it passes on the way).
    A run between two such crossings is walked from both of its ends.
    The strand out of a crossing of ``stops`` comes back to it, so every
    run ends."""
    runs = {}
    for c0 in sorted(stops):
        for s0 in range(4):
            (c, s), edges, passed = (c0, s0), [], []
            while True:
                e = g.crossings[c].slots[s]
                edges.append(e)
                c, s = g.edges[e].other_end((c, s))
                if c in stops:
                    break
                passed.append(c)
                s = (s + 2) % 4
            runs[(c0, s0)] = ((c, s), edges, passed)
    return runs


def oracle_curve_crossings(g, aug, d) -> dict[int, int]:
    """Times the curve ``aug`` crosses each edge of the input ``d``, by
    the strand runs of ``g`` out of every slot of ``d``'s crossings
    (``oracle_strand_runs``): each run out of slot (c, s) is a piece of
    the input's edge in that slot, and the crossings with ``aug`` it
    passes are counted.  Both runs of an edge give its count."""
    counts = {}
    for (c, s), (_end, _edges, passed) in oracle_strand_runs(g, set(d.crossings)).items():
        n = sum(1 for x in passed if any(g.edges[e].component == aug for e in g.crossings[x].slots))
        if n:
            counts[d.crossings[c].slots[s]] = n
    return counts


def drop_component(d, comp: int):
    """Remove one link component, fusing the strands it crossed, by
    builder edits (``MapBuilder.weld``, which keeps the lower of two edge
    ids): the reconstruction ``refinement_check`` compares with the
    input, where the package reads the same test off the augmented map
    (``analysis.reconstruct_input``).  The result keeps the crossings
    (ids, slots, over strands) and loop ids off ``comp``, with components
    numbered afresh: the strand components in order of least edge id,
    then the loops in id order.  UnknownComponent when ``d`` has no
    component ``comp``; MappingError when a crossing carries ``comp`` on
    part of a strand only."""
    from altknot.diagram import Diagram, Edge, MapBuilder
    from altknot.errors import MappingError, UnknownComponent

    b = MapBuilder(d)
    edges = b.edges
    comp_edges = sorted(e for e, rec in edges.items() if rec.component == comp)
    if not comp_edges and comp not in b.loops.values():
        raise UnknownComponent(f"no component {comp}")
    hit = sorted(
        c for c, x in d.crossings.items()
        if any(edges[e].component == comp for e in x.slots)
    )
    for c in hit:
        slots = b.slots_at(c)
        on = [edges[slots[s]].component == comp for s in range(4)]
        if all(on):
            for s in (0, 1):
                if slots[s] in edges:
                    b.weld((c, s), (c, s + 2))
        elif on[0] and on[2] and not (on[1] or on[3]):
            b.weld((c, 1), (c, 3))
        elif on[1] and on[3] and not (on[0] or on[2]):
            b.weld((c, 0), (c, 2))
        else:
            raise MappingError(f"crossing {c} mixes component {comp} within a strand")
        b.remove_crossing(c)
    for e in comp_edges:
        if e in edges:
            b.remove_edge(e)
    for k in [k for k, cc in b.loops.items() if cc == comp]:
        del b.loops[k]
    out = b.build()
    comps = oracle_strand_components(out)
    comp = {e: i for i, orbit in enumerate(comps) for e in orbit}
    edges = {e: Edge(e, r.ends, comp[e]) for e, r in out.edges.items()}
    loops = {k: len(comps) + i for i, k in enumerate(sorted(out.loops))}
    return Diagram(out.crossings, edges, loops, None)


def is_verbatim(d, expected) -> bool:
    """``d`` is ``expected`` up to its edge ids: the same crossing ids and
    over strands, the same loop ids, and one edge of ``expected`` named
    by each edge of ``d``, read off the slots of ``expected``'s crossings
    at each of the edge's ends, no two edges naming the same one."""
    if d.crossings.keys() != expected.crossings.keys() or set(d.loops) != set(expected.loops):
        return False
    name = {}
    for c, x in d.crossings.items():
        y = expected.crossings[c]
        if x.over_slots != y.over_slots:
            return False
        for e, o in zip(x.slots, y.slots):
            if name.setdefault(e, o) != o:
                return False
    return len(name) == len(d.edges) and set(name.values()) == set(expected.edges)


def refinement_check(g, augmenting: int | None = None, expected_d=None):
    """Compare the twist partition of the diagram reconstructed from ``g``
    by dropping the component ``augmenting`` with the partition its
    crossings inherit from the twist regions of ``g``.

    The inherited partition must refine the reconstructed one: parts are
    pairwise disjoint, each is a sub twist region, and together they
    cover every reconstructed crossing.  The check is independent of
    ``augmentation.certify``: it builds the reconstruction
    (``drop_component``), compares it with ``expected_d`` verbatim, up to
    the ids its welds left on the edges (``is_verbatim``; MappingError),
    and walks its faces and twist partition itself, where
    ``certify`` reads the same verbatim test off the augmented map
    (``reconstruct_input``) and reuses the tables of the input.
    UnknownComponent when ``g`` has no component ``augmenting``.
    """
    from altknot import face_set, twist_partition
    from altknot.analysis import refinement_report
    from altknot.errors import MappingError

    aug = augmenting if augmenting is not None else g.augmenting_component
    d = g if aug is None else drop_component(g, aug)
    if expected_d is not None and not is_verbatim(d, expected_d):
        raise MappingError("reconstructed diagram is not the input verbatim")
    # g first, while the memo may still hold its table; then d's table,
    # held here
    g_tp = twist_partition(g)
    d_fs = face_set(d)
    d_tp = twist_partition(d)
    return refinement_report(d, d_fs, d_tp, g, g_tp)


def oracle_merge_arc(g, live):
    """The merge arc by one reverse breadth-first search per circle, with
    the admissible steps re-derived from the edges: for each circle in
    increasing order, the distance of every face to the other circles'
    faces; the least (cost, circle) wins, then the least face sequence,
    then the least target circle on its last face.  None when no
    admissible path joins two circles."""
    from altknot import face_set
    from altknot.augmentation import MergeArc

    fs = face_set(g)
    corner_face = corner_view(fs)
    comps = set(live)
    # the original edges no circle crosses: the strand runs between
    # crossings on no circle that pass no crossing
    off = {c for c, x in g.crossings.items() if all(g.edges[e].component not in comps for e in x.slots)}
    whole = {run[0] for _end, run, passed in oracle_strand_runs(g, off).values() if not passed}
    # bigons of the original diagram: two corners at two crossings, both
    # edges off the circles
    banned = {
        f.dart for f in oracle_faces(g)
        if len(f.corner_slots) == 2 and f.corner_slots[0][0] != f.corner_slots[1][0]
        and all(g.edges[e].component not in comps for e in f.boundary_edges)
    }
    allowed = {}
    for e, rec in sorted(g.edges.items()):
        if rec.component in comps or e not in whole:
            continue
        l, r = corner_face[rec.ends[0]], corner_face[rec.ends[1]]
        if l in banned or r in banned:
            continue
        allowed.setdefault(l, []).append((r, e))
        allowed.setdefault(r, []).append((l, e))
    curve_faces = {ci: set() for ci in live}
    for rec in g.edges.values():
        if rec.component in curve_faces:
            curve_faces[rec.component] |= {corner_face[end] for end in rec.ends}

    best = None
    best_arc = None
    for ci in sorted(live):
        targets = set()
        for cj in live:
            if cj != ci:
                targets |= curve_faces[cj]
        dist = {f: 0 for f in targets}
        frontier = sorted(targets)
        while frontier:
            nxt = []
            for f in frontier:
                for h, _e in allowed.get(f, ()):
                    if h not in dist:
                        dist[h] = dist[f] + 1
                        nxt.append(h)
            frontier = sorted(set(nxt))
        reach = [f for f in curve_faces[ci] if f in dist]
        if not reach:
            continue
        phi = min(dist[f] for f in reach)
        if best is None or (phi, ci) < best:
            best = (phi, ci)
            cur = min(f for f in reach if dist[f] == phi)
            faces, edges = [cur], []
            while dist[cur] > 0:
                cur, e = min((h, e) for h, e in allowed[cur] if dist.get(h, -1) == dist[cur] - 1)
                faces.append(cur)
                edges.append(e)
            target = min(cj for cj in live if cj != ci and cur in curve_faces[cj])
            best_arc = MergeArc(ci, target, tuple(faces), tuple(edges), phi)
    return best_arc


def oracle_positions(d):
    """The barycentric embedding as one dense solve over every crossing
    and every edge midpoint, then the degeneracy test over all pairs of
    crossings; ``render._fallback_positions(d)`` when the solve fails or
    two crossings lie closer than 1e-6 of the span."""
    import numpy as np

    from altknot.render import _fallback_positions

    outer = max((f for f in oracle_faces(d) if f.corner_slots), key=lambda f: (f.degree, -f.id))
    nodes = [("c", c) for c in sorted(d.crossings)] + [("m", e) for e in sorted(d.edges)]
    index = {n: i for i, n in enumerate(nodes)}
    cycle = []
    for (c, _s), out_e in zip(outer.corner_slots, outer.boundary_edges):
        cycle += [("c", c), ("m", out_e)]
    boundary = {}
    for k, node in enumerate(cycle):
        if node not in boundary:
            ang = 2.0 * np.pi * k / len(cycle)
            boundary[node] = (np.cos(ang), np.sin(ang))
    m = len(nodes)
    a = np.zeros((m, m))
    bx = np.zeros(m)
    by = np.zeros(m)
    for node, i in index.items():
        if node in boundary:
            a[i, i] = 1.0
            bx[i], by[i] = boundary[node]
            continue
        if node[0] == "m":
            nbrs = [("c", c) for c, _s in d.edges[node[1]].ends]
        else:
            nbrs = [("m", e) for e in d.crossings[node[1]].slots]
        a[i, i] = len(nbrs)
        for nb in nbrs:
            a[i, index[nb]] -= 1.0
    try:
        xs = np.linalg.solve(a, bx)
        ys = np.linalg.solve(a, by)
    except np.linalg.LinAlgError:
        return _fallback_positions(d)
    pos = {node: (float(xs[i]), float(ys[i])) for node, i in index.items()}
    pts = np.array([pos[("c", c)] for c in d.crossings])
    if len(pts) > 1:
        span = (pts.max(axis=0) - pts.min(axis=0)).max()
        if span <= 0 or oracle_has_close_pair(pts, 1e-6 * span):
            return _fallback_positions(d)
    return pos


def oracle_has_close_pair(pts, eps) -> bool:
    """Whether two of the points lie less than ``eps`` apart, measured as
    ``math.hypot`` of their difference, over all pairs."""
    return any(
        math.hypot(pts[i][0] - pts[j][0], pts[i][1] - pts[j][1]) < eps
        for i in range(len(pts))
        for j in range(i + 1, len(pts))
    )


def assert_positions_match_oracle(d) -> bool:
    """``render._positions(d)`` equals ``oracle_positions(d)`` within 1e-10,
    node for node, and takes the fallback exactly when the oracle does.
    Returns whether both fell back."""
    from altknot import render

    got, want = render._positions(d), oracle_positions(d)
    fallback = render._fallback_positions(d)
    assert (got == fallback) == (want == fallback)
    assert list(got) == list(want)
    assert max(abs(a - b) for k in got for a, b in zip(got[k], want[k])) <= 1e-10
    return got == fallback
