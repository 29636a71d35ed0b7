"""Turning a non-alternating diagram into an alternating two-component link.

The construction in five stages, each re-checking the properties the
theory promises.  The whole map is validated where a diagram enters (the
input and the overlay) and where the result leaves; each finger and band
splice in between is a local edit, checked on what it changed
(``edits.check_edit``): the faces along the edges it removed or
re-ended are walked afresh, and every other face is kept.  The overlay
is built in one pass straight into the crossing and edge records, and
the band splice relabels the dropped circle by walking its one strand,
so neither pays for the parts of the map it leaves alone.  ``certify``
checks the result against the one list of the paper's promises; there
``analysis.reconstruct_input`` checks that dropping the curve gives back
the input verbatim, and its walk counts the curve's crossings on each
input edge, which the checks on the curve read.  No record says which
input edge a piece of G was cut from: an input edge is the strand run
between two input crossings, so the merge arc tells the pieces of a
crossed edge by their ends on the circles (``_circle_crossings``), and
``certify`` reads them off that walk, from G alone or from its PD text.

1.  ``build_cut_curves``: checkerboard-classify the crossings, thicken
    the smaller class, and walk the boundary of its ribbon neighborhood.
    Each boundary circle crosses every non-alternating edge it meets
    exactly once, and the labels of the crossed edges alternate between
    (+,+) and (-,-) around the circle.
2.  ``overlay_unlink``: insert the circles as new unknotted components;
    the sign each crossing is forced to carry makes the result
    alternating outright.  The overlay re-slots most of the input's
    crossings, so it is validated whole.
3.  ``find_merge_arc``: when several circles were inserted, find a
    cheapest dual-face path joining two of them that crosses no bigon of
    the original diagram and no edge twice; nor, being cheapest, an edge
    the circles already cross, which joins two faces of one circle (the
    search skips those only to prune).  When two circles share a face
    the path has cost 0 and is read off the circles' faces without a
    search; otherwise one breadth-first search labelled by circle picks
    the source circle and one more traces its path.
4.  ``propagate_finger``: push a finger of one circle along that path
    from the least circle edge on its first face (every corner of a face
    of an alternating diagram carries the same labels, so any would do).
    Every new crossing's sign is forced by keeping each cut edge
    alternating, and the diagram stays alternating as a whole.
5.  ``join_curves``: splice two circles incident to a common face with a
    crossing-free band that replaces the first edge of each along the
    face.  On an alternating diagram every departure along a face
    carries one label and every arrival the other, so both band edges
    alternate and this first pair always qualifies; no other pair is
    tried.

Steps 4 and 5 each build once and raise when the build fails its check.

The loop of 3-5 runs exactly (number of circles - 1) times and ends with
one augmenting unknot whose projection is simple, misses the original
twist regions, and meets each original edge at most twice, giving
t(D) <= t(G) <= 5 t(D).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .analysis import (
    ShadingClasses,
    TwistPartition,
    classify_edges,
    detect_two_strand_torus,
    diagram_flags,
    reconstruct_input,
    shading_classes,
    twist_partition,
)
from .diagram import (
    Crossing,
    Diagram,
    Edge,
    FaceSet,
    MapBuilder,
    Sign,
    _exit_slot,
    _far_darts,
    _is_bigon,
    _search_pieces,
    connected_pieces,
    face_set,
    is_connected,
    mark_augmenting,
    serialize_pd,
    validate_diagram,
)
from .edits import check_edit
from .errors import (
    AlternationError,
    ConstructionError,
    DiagramError,
    InvariantError,
    JoinError,
    MappingError,
    NoPathError,
    PreconditionError,
    UnknownComponent,
    UnknownEdge,
    UnknownFace,
)


# -- cut curves -------------------------------------------------------------------

@dataclass(frozen=True)
class CutCurve:
    """One boundary circle of the thickened crossing class.  ``stubs``
    lists, in cyclic order, the (edge, W-side crossing, W-side slot)
    triples where the circle crosses the diagram; ``component`` is filled
    once the circle is inserted."""

    stubs: tuple[tuple[int, int, int], ...]
    component: int | None = None

    @property
    def edges(self) -> tuple[int, ...]:
        return tuple(e for e, _c, _s in self.stubs)


@dataclass(frozen=True)
class CutSystem:
    thickened_class: Sign
    thickened_crossings: frozenset[int]
    curves: tuple[CutCurve, ...]


def build_cut_curves(d: Diagram) -> CutSystem:
    """Boundary walk of the ribbon neighborhood of one crossing class.

    Thickens the class with fewer crossings (tie: the one holding the
    lowest crossing id); either class satisfies every promised property.
    Each resulting circle is simple, the circles are disjoint, they cross
    every non-alternating edge exactly once in total and nothing else,
    and the labels along every circle alternate (+,+)/(-,-); every one of
    those properties is re-checked here.
    """
    cls = classify_edges(d)
    if not cls.is_non_alternating:
        raise PreconditionError("diagram is alternating; nothing to augment",
                                failed_flag="non_alternating")
    if not is_connected(d):
        raise PreconditionError("diagram is not connected", failed_flag="connected")

    shading = shading_classes(d)
    # a non-alternating edge joins the two classes, so neither is empty
    plus, minus = shading.plus_class, shading.minus_class
    if len(plus) != len(minus):
        sign = Sign.PLUS if len(plus) < len(minus) else Sign.MINUS
    else:
        sign = Sign.PLUS if min(plus) < min(minus) else Sign.MINUS
    return _thicken(d, cls.non_alternating, shading, sign)


def _thicken(
    d: Diagram, cut_edges: frozenset[int], shading: ShadingClasses, sign_w: Sign
) -> CutSystem:
    """The cut system of the crossing class ``sign_w`` of ``shading``,
    whose boundary crosses the non-alternating edges ``cut_edges``."""
    w = shading.plus_class if sign_w is Sign.PLUS else shading.minus_class
    # ribbon boundary walk over the corners of the thickened class
    def step(corner: tuple[int, int]) -> tuple[tuple[int, int], tuple[int, int, int] | None]:
        c, i = corner
        j = (i + 1) % 4
        e = d.edge_at(c, j)
        if e in cut_edges:
            return (c, j), (e, c, j)
        c2, s2 = d.other_end((c, j))
        if c2 not in w:
            raise ConstructionError(
                f"internal edge {e} leaves the thickened class at crossing {c2}"
            )
        return (c2, s2), None

    seen: set[tuple[int, int]] = set()
    curves: list[CutCurve] = []
    for c in sorted(w):
        for s in range(4):
            if (c, s) in seen:
                continue
            stubs = []
            cur = (c, s)
            while cur not in seen:
                seen.add(cur)
                cur, crossed = step(cur)
                if crossed is not None:
                    stubs.append(crossed)
            if cur != (c, s):
                raise ConstructionError("ribbon boundary walk did not close up")
            if stubs:
                curves.append(CutCurve(tuple(stubs)))

    curves.sort(key=lambda cc: min(cc.edges))
    crossed_total: list[int] = []
    for curve in curves:
        labels = []
        for e, _c, _s in curve.stubs:
            a, b = d.edge_labels(e)
            if a != b:
                raise ConstructionError(f"cut curve crosses alternating edge {e}")
            labels.append(a)
            crossed_total.append(e)
        if len(labels) < 2 or len(labels) % 2:
            raise ConstructionError(
                f"cut curve crosses {len(labels)} edges; expected a positive even count"
            )
        for k in range(len(labels)):
            if labels[k] == labels[(k + 1) % len(labels)]:
                raise ConstructionError("labels along a cut curve fail to alternate")
    if sorted(crossed_total) != sorted(cut_edges):
        raise ConstructionError(
            "cut curves do not cross every non-alternating edge exactly once"
        )
    return CutSystem(sign_w, frozenset(w), tuple(curves))


# -- overlay ----------------------------------------------------------------------

def overlay_unlink(d: Diagram, cs: CutSystem) -> tuple[Diagram, CutSystem]:
    """Insert every cut curve as a new crossing-free-in-itself component.

    At a crossing on a ++ edge the original strand takes the minus sign
    (curve over); on a -- edge the plus sign.  The overlay is checked to
    be alternating and connected.  Returns the new diagram and the cut
    system with each curve's realized component id recorded.
    """
    # built in one pass, as ``parse_pd`` builds a map: ids are allocated
    # as a builder would (per curve its component, its crossings, two
    # halves per crossed edge, then its own edges), and each re-slotted
    # crossing's slots are copied once
    crossings = dict(d.crossings)
    edges = dict(d.edges)
    slots: dict[int, list[int]] = {}

    def put(end, e: int) -> None:
        c, s = end
        if c not in slots:
            slots[c] = list(crossings[c].slots)
        slots[c][s] = e

    comp, x, eid = d.next_component_id(), d.next_crossing_id(), d.next_edge_id()
    comp_ids: list[int] = []
    for curve in cs.curves:
        comp_ids.append(comp)
        n = len(curve.stubs)
        ring = eid + 2 * n  # the curve's own edges, ring + k from x + k to x + k + 1
        for k, (e, cw, sw) in enumerate(curve.stubs):
            rec = edges.pop(e, None)
            if rec is None:
                raise ConstructionError(f"edge {e} crossed twice during overlay")
            # orient e away from its thickened-class end (cw, sw)
            far = rec.other_end((cw, sw))
            a, _z = d.edge_labels(e)
            e_sign = a.opposite  # the original strand's forced sign at x
            over = (1, 3) if e_sign is Sign.PLUS else (0, 2)
            h_w, h_far = eid + 2 * k, eid + 2 * k + 1
            # slots ccw at x: 0 curve-to-previous, 1 toward far end,
            # 2 curve-to-next, 3 toward the thickened class
            crossings[x + k] = Crossing(x + k, (ring + (k - 1) % n, h_far, ring + k, h_w), over)
            edges[h_w] = Edge(h_w, ((cw, sw), (x + k, 3)), rec.component)
            put((cw, sw), h_w)
            edges[h_far] = Edge(h_far, ((x + k, 1), far), rec.component)
            put(far, h_far)
        for k in range(n):
            edges[ring + k] = Edge(ring + k, ((x + k, 2), (x + (k + 1) % n, 0)), comp)
        comp, x, eid = comp + 1, x + n, ring + n
    for c, ids in slots.items():
        crossings[c] = Crossing(c, tuple(ids), crossings[c].over_slots)
    g = Diagram(crossings, edges, d.loops, d.augmenting_component)
    # checked whole, as a parsed map is: the overlay re-slots about
    # two-thirds of the input's crossings, so a local check would re-walk
    # most of the map anyway, and a builder's record of what it touched
    # would serve no check
    rep = validate_diagram(g)
    if not rep.valid:
        raise ConstructionError(f"overlay produced an invalid map: {rep.failures}")
    if not classify_edges(g).is_alternating:
        raise AlternationError("overlay is not alternating")
    if not is_connected(g):
        raise AlternationError("overlay is not connected")
    curve_set = set(comp_ids)
    for c in g.crossings.values():
        strand_comps = (g.edges[c.slots[0]].component, g.edges[c.slots[1]].component)
        if strand_comps[0] in curve_set and strand_comps[1] in curve_set:
            raise ConstructionError(
                f"inserted circles intersect each other at crossing {c.id}"
            )
    realized = replace(cs, curves=tuple(
        replace(curve, component=comp) for curve, comp in zip(cs.curves, comp_ids)
    ))
    return g, realized


# -- merge arcs ---------------------------------------------------------------------

@dataclass(frozen=True)
class MergeArc:
    """A cheapest admissible dual path between two augmenting circles.

    ``faces`` and ``edges`` interleave (k+1 faces, k crossed edges); the
    cost ``phi`` is k."""

    source_curve: int
    target_curve: int
    faces: tuple[int, ...]
    edges: tuple[int, ...]
    phi: int


def _circle_crossings(g: Diagram, curve_comps: set[int]) -> set[int]:
    """The crossings on the augmenting circles: the ends of their edges.
    A circle cuts each original edge it crosses at such a crossing, so
    every piece of a crossed edge has an end in this set, and an
    uncrossed original edge is one edge of ``g`` with no end in it."""
    on: set[int] = set()
    for rec in g.edges.values():
        if rec.component in curve_comps:
            (c0, _s0), (c1, _s1) = rec.ends
            on.add(c0)
            on.add(c1)
    return on


def _curve_faces(g: Diagram, fs: FaceSet, comps) -> dict[int, set[int]]:
    """Component -> the faces its edges border, for each of ``comps``, in
    one pass over the edges."""
    dart_face = fs.dart_face
    out: dict[int, set[int]] = {ci: set() for ci in comps}
    for rec in g.edges.values():
        faces = out.get(rec.component)
        if faces is not None:
            (c0, s0), (c1, s1) = rec.ends
            faces.add(dart_face[4 * c0 + s0])
            faces.add(dart_face[4 * c1 + s1])
    return out


class _CircleFaces:
    """The faces each circle borders, carried through ``augment``'s merge
    loop so that a merge reads no whole map.

    A face is keyed by its id in the face table, its least dart, which
    holds while the face keeps its darts.  ``faces`` maps each circle to
    the ids of the faces its edges border, ``owners`` each such id to
    the circles bordering that face, and ``shared`` holds the ids of the
    faces two or more circles border.

    Read once from the circles' edges (``_curve_faces``).  After an edit
    ``follow`` updates it from what the edit's face table dropped and
    walked afresh (``FaceSet.delta``); every other face keeps its edges,
    and those edges keep their components, except the dropped circle's
    after a join, whose faces pass to the merged circle."""

    def __init__(self, g: Diagram, fs: FaceSet, comps) -> None:
        self.faces = _curve_faces(g, fs, comps)
        self.owners: dict[int, set[int]] = {}
        for ci, keys in self.faces.items():
            for k in keys:
                self.owners.setdefault(k, set()).add(ci)
        self.shared = {k for k, circles in self.owners.items() if len(circles) > 1}

    def follow(self, g: Diagram, dropped: int | None = None, merged: int | None = None) -> None:
        """Carry the faces over to ``g``, a checked edit of the map they
        describe, from the delta of ``face_set(g)``, the table
        ``check_edit`` derived; after a join, ``dropped`` is the circle
        whose edges now carry ``merged``.  InvariantError when ``g``'s
        table was walked whole, which carries no delta."""
        fs = face_set(g)
        if fs.delta is None:
            raise InvariantError("the circle faces cannot follow an edit whose local table is gone")
        faces, owners, shared = self.faces, self.owners, self.shared
        if dropped is not None:
            into = faces[merged]
            for k in faces.pop(dropped):
                circles = owners[k]
                circles.discard(dropped)
                circles.add(merged)
                if len(circles) < 2:
                    shared.discard(k)
                into.add(k)
        gone, fresh = fs.delta
        for k in gone:
            for ci in owners.pop(k, ()):
                faces[ci].discard(k)
            shared.discard(k)
        edges = g.edges
        for k in fresh:
            for e in fs.edges(g, k):
                ci = edges[e].component
                keys = faces.get(ci)
                if keys is not None:
                    keys.add(k)
                    owners.setdefault(k, set()).add(ci)
            if len(owners.get(k, ())) > 1:
                shared.add(k)


def _is_original_bigon(g: Diagram, fs: FaceSet, f: int, comps: set[int]) -> bool:
    """Face ``f`` of ``fs`` is a bigon of the original diagram inside the
    overlay: a bigon face neither of whose edges is on one of the circles
    ``comps``.
    A corner at a circle crossing lies between a circle edge and another,
    so such a bigon has its corners at original crossings, and its edges
    are whole original edges."""
    return _is_bigon(fs.darts[f]) and all(g.edges[e].component not in comps for e in fs.edges(g, f))


def _d_bigon_faces(g: Diagram, fs: FaceSet, comps: set[int]) -> set[int]:
    """The faces of ``fs`` that are bigons of the original diagram."""
    return {f for f in fs.darts if _is_original_bigon(g, fs, f, comps)}


def _admissible_edges(
    g: Diagram, fs: FaceSet, comps: set[int], on_circles: set[int]
) -> dict[int, list[tuple[int, int]]]:
    """Face -> (neighbouring face, edge) for every edge a merge arc may
    cross: no circle edge, no edge with an end in ``on_circles`` (a piece
    of an original edge a circle already crosses), and no edge of an
    original bigon.  Each admissible edge is a whole original edge.

    The ``on_circles`` filter prunes the search; it does not decide the
    arc.  Such an edge has both side faces on the circle through its
    end, so a cheapest arc of positive cost never crosses it.  Without
    the filter the arcs are the same, but the 47 positive-cost searches
    on six knots of 1600 and 3200 crossings (``perfbench/inputs`` seeds
    ``scale/{n}/{k}``) took 453,520 admissible steps, not 150,762."""
    banned = _d_bigon_faces(g, fs, comps)
    dart_face = fs.dart_face
    allowed: dict[int, list[tuple[int, int]]] = {}
    for e, rec in g.edges.items():
        if rec.component in comps:
            continue
        (c0, s0), (c1, s1) = rec.ends
        if c0 in on_circles or c1 in on_circles:
            continue
        l, r = dart_face[4 * c0 + s0], dart_face[4 * c1 + s1]
        if l in banned or r in banned:
            continue
        allowed.setdefault(l, []).append((r, e))
        allowed.setdefault(r, []).append((l, e))
    return allowed


def _free_arc(faces: _CircleFaces) -> MergeArc | None:
    """The arc of cost 0 when two circles share a face: from the least
    circle that shares one, at its least shared face, to the least other
    circle on that face.  None when no two circles share a face.  Only
    the shared faces are read: their owners are the circles that share
    one."""
    shared, owners = faces.shared, faces.owners
    if not shared:
        return None
    ci = min(min(owners[k]) for k in shared)
    start = min(k for k in shared if ci in owners[k])
    cj = min(c for c in owners[start] if c != ci)
    return MergeArc(ci, cj, (start,), (), 0)


def _nearest_circles(
    allowed: dict[int, list[tuple[int, int]]], curve_faces: dict[int, set[int]]
) -> tuple[int, int] | None:
    """Least (phi, ci) over the circles, where phi is the distance from
    circle ci to the nearest other circle, for circles no two of which
    share a face.  None when no two circles are joined.

    One breadth-first search runs from the faces of every circle at once
    and labels each face with a circle nearest to it.  A step between
    faces of different labels closes a walk of length dist + 1 + dist
    between their circles.  On a shortest path from the winning ci to
    its partner, every face nearer ci than the middle is labelled ci, so
    a step at the middle joins ci to a circle at distance phi; the least
    (length, lesser label) over all such steps is therefore the answer,
    whichever nearest circle a face at the middle was labelled with."""
    dist: dict[int, int] = {}
    label: dict[int, int] = {}
    for ci, faces in curve_faces.items():
        for f in faces:
            dist[f] = 0
            label[f] = ci
    frontier = list(dist)
    level = 0
    while frontier:
        level += 1
        nxt = []
        for f in frontier:
            for h, _e in allowed.get(f, ()):
                if h not in dist:
                    dist[h] = level
                    label[h] = label[f]
                    nxt.append(h)
        frontier = nxt
    best = None
    for f, steps in allowed.items():
        if f not in dist:
            continue
        lf, df = label[f], dist[f]
        for h, _e in steps:
            lh = label[h]
            if lh != lf:
                cand = (df + dist[h] + 1, min(lf, lh))
                if best is None or cand < best:
                    best = cand
    return best


def _trace_arc(
    allowed: dict[int, list[tuple[int, int]]],
    curve_faces: dict[int, set[int]],
    phi: int,
    ci: int,
) -> MergeArc:
    """The arc of cost ``phi`` from circle ``ci``: the least of its faces
    at distance ``phi`` from another circle, then at each step the least
    (face, edge) one step nearer, so the face sequence is the least of
    its length.  A breadth-first search from the other circles' faces,
    to depth ``phi``, gives the distances."""
    target_of = {f: cj for cj, faces in curve_faces.items() if cj != ci for f in faces}
    dist = dict.fromkeys(target_of, 0)
    frontier = list(target_of)
    for level in range(1, phi + 1):
        nxt = []
        for f in frontier:
            for h, _e in allowed.get(f, ()):
                if h not in dist:
                    dist[h] = level
                    nxt.append(h)
        frontier = nxt
    cur = min(f for f in curve_faces[ci] if dist.get(f) == phi)
    faces, edges = [cur], []
    for level in range(phi - 1, -1, -1):
        cur, e = min((h, e) for h, e in allowed[cur] if dist.get(h) == level)
        faces.append(cur)
        edges.append(e)
    return MergeArc(ci, target_of[cur], tuple(faces), tuple(edges), phi)


def find_merge_arc(g: Diagram, curve_comps: list[int], faces: _CircleFaces | None = None) -> MergeArc:
    """Cheapest face path from one augmenting circle to another.

    A step crosses one admissible edge: never a circle edge, never a
    piece of an original edge a circle already crosses, and never into a
    bigon of the original diagram.  The global minimum over ordered source
    circles is taken, ties broken by source id then by the
    lexicographically least face sequence.

    ``faces`` is the circles' faces as ``augment``'s loop carries them
    (``_CircleFaces``); without it they are read from the circles' edges.
    Cost 0 needs no search: when two circles share a face, the arc is
    read off the shared faces (``_free_arc``), so such a merge reads no
    whole map.  Otherwise one search labelled by circle finds the least
    (cost, source circle) (``_nearest_circles``), and one search from the
    other circles traces that source's arc (``_trace_arc``).
    """
    if len(curve_comps) < 2:
        raise PreconditionError("need at least two augmenting circles to merge")
    fs = face_set(g)
    comps = set(curve_comps)
    if faces is None:
        faces = _CircleFaces(g, fs, comps)
    elif faces.faces.keys() != comps:
        raise InvariantError("carried circle faces describe other circles")
    arc = _free_arc(faces)
    on_circles: set[int] = set()  # a free arc crosses no edge
    if arc is None:
        on_circles = _circle_crossings(g, comps)
        allowed = _admissible_edges(g, fs, comps, on_circles)
        best = _nearest_circles(allowed, faces.faces)
        if best is None:
            raise NoPathError("no admissible path joins two augmenting circles")
        arc = _trace_arc(allowed, faces.faces, *best)
    _check_arc(g, fs, arc, comps, on_circles)
    return arc


def _check_arc(
    g: Diagram,
    fs: FaceSet,
    arc: MergeArc,
    comps: set[int],
    on_circles: set[int],
) -> None:
    """InvariantError unless ``arc`` crosses only admissible edges, each
    once.  An admissible edge is a whole original edge, so distinct
    edges are distinct original edges."""
    if len(arc.faces) != arc.phi + 1 or len(arc.edges) != arc.phi:
        raise InvariantError("merge arc bookkeeping is inconsistent")
    for e in arc.edges:
        rec = g.edges[e]
        if rec.component in comps:
            raise InvariantError("merge arc crosses an augmenting circle")
        if not on_circles.isdisjoint(c for c, _s in rec.ends):
            raise InvariantError("merge arc crosses an edge a circle already meets")
    if len(set(arc.edges)) != len(arc.edges):
        raise InvariantError("merge arc crosses some original edge twice")
    if any(_is_original_bigon(g, fs, f, comps) for f in arc.faces):
        raise InvariantError("merge arc passes through an original bigon")


# -- finger propagation ---------------------------------------------------------------

def _oriented_ends(g: Diagram, fs: FaceSet, e: int, left_face: int):
    """(tail end, head end) of edge ``e`` oriented so its left face is
    ``left_face``; the left face of end0 -> end1 is the quadrant at end0."""
    rec = g.edges[e]
    l, r = fs.edge_sides(g, e)
    if l == left_face:
        return rec.ends[0], rec.ends[1]
    if r == left_face:
        return rec.ends[1], rec.ends[0]
    raise InvariantError(f"face {left_face} does not border edge {e}")


def propagate_finger(g: Diagram, arc: MergeArc) -> Diagram:
    """Push a finger of the source circle along the arc.

    Each crossed edge receives two new crossings whose signs keep its
    pieces alternating (the strand takes - next to the edge's + end and
    + next to its - end); the finger's base replaces the middle of the
    least-id circle edge on the first face.  Every such edge is an
    equally good base, since each corner of a face of an alternating
    diagram carries the same label pattern.  AlternationError when the
    result fails the local edit check (valid and alternating).
    UnknownFace or UnknownEdge, before any build, when the arc names a
    face or an edge that ``g`` lacks.
    """
    if arc.phi == 0:
        return g
    fs = face_set(g)
    if not all(f in fs.darts for f in arc.faces):
        raise UnknownFace(f"arc faces {arc.faces} name a face the map lacks")
    if not all(e in g.edges for e in arc.edges):
        raise UnknownEdge(f"arc edges {arc.edges} name an edge the map lacks")
    base = min(
        (e for e in fs.edges(g, arc.faces[0]) if g.edges[e].component == arc.source_curve),
        default=None,
    )
    if base is None:
        raise InvariantError("source circle does not border the first face of the arc")
    return _insert_finger(g, fs, arc, base)


def _insert_finger(g: Diagram, fs: FaceSet, arc: MergeArc, base: int) -> Diagram:
    b = MapBuilder(g)
    comp = arc.source_curve

    # side L of the finger (left of base->tip travel) picks up the stub of
    # the base end lying to the left when facing into the face
    end_L, end_R = _oriented_ends(g, fs, base, arc.faces[0])

    k = arc.phi
    xl = [b.new_crossing_id() for _ in range(k)]
    xr = [b.new_crossing_id() for _ in range(k)]

    for m, e in enumerate(arc.edges):
        tail, head = _oriented_ends(g, fs, e, arc.faces[m])
        lab_tail = g.label(*tail)
        lab_head = g.label(*head)
        if lab_tail == lab_head:
            raise InvariantError(f"crossed edge {e} is not alternating")
        rec = b.edges[e]
        b.remove_edge(e)
        # x_left sits nearer the head, x_right nearer the tail
        sign_l = lab_head.opposite  # edge strand sign at x_left
        sign_r = lab_tail.opposite
        over_l = (1, 3) if sign_l is Sign.PLUS else (0, 2)
        over_r = (1, 3) if sign_r is Sign.PLUS else (0, 2)
        # slots ccw -- x_left: 0 finger onward, 1 edge to head, 2 finger
        # back, 3 edge middle; x_right: 0 finger onward, 1 edge middle,
        # 2 finger back, 3 edge to tail
        b.add_crossing(xl[m], [0, 0, 0, 0], over_l)
        b.add_crossing(xr[m], [0, 0, 0, 0], over_r)
        s_head, s_mid, s_tail = b.new_edge_id(), b.new_edge_id(), b.new_edge_id()
        b.add_edge(s_head, [(xl[m], 1), tuple(head)], rec.component)
        b.add_edge(s_mid, [(xr[m], 1), (xl[m], 3)], rec.component)
        b.add_edge(s_tail, [tuple(tail), (xr[m], 3)], rec.component)

    b.remove_edge(base)
    bl = b.new_edge_id()
    b.add_edge(bl, [tuple(end_L), (xl[0], 2)], comp)
    br = b.new_edge_id()
    b.add_edge(br, [tuple(end_R), (xr[0], 2)], comp)
    for m in range(k - 1):
        el = b.new_edge_id()
        b.add_edge(el, [(xl[m], 0), (xl[m + 1], 2)], comp)
        er = b.new_edge_id()
        b.add_edge(er, [(xr[m], 0), (xr[m + 1], 2)], comp)
    tip = b.new_edge_id()
    b.add_edge(tip, [(xl[k - 1], 0), (xr[k - 1], 0)], comp)

    out = b.build()
    failures = check_edit(b, fs, out)
    if failures:
        raise AlternationError(f"finger base {base} broke the diagram: {failures}")
    return out


# -- band join -------------------------------------------------------------------------

def _face_edge_walk(g: Diagram, fs: FaceSet, fid: int) -> list[tuple[int, tuple, tuple]]:
    """Boundary walk of a face as (edge, departure end, arrival end),
    each end a (crossing, slot) pair: the edge leaving corner x departs
    from slot s + 1 and arrives at the next corner."""
    ds = fs.darts[fid]
    return [(e, (x >> 2, _exit_slot(x)), (y >> 2, y & 3)) for e, x, y in zip(fs.edges(g, fid), ds, ds[1:] + ds[:1])]


def join_curves(g: Diagram, ci: int, cj: int, shared_face: int) -> Diagram:
    """Splice circles ``ci`` and ``cj`` with a crossing-free band inside
    ``shared_face``.

    The band replaces the first edge of each circle in the walk of the
    face: it pairs the arrival stub of ``ci``'s edge with the departure
    stub of ``cj``'s, and joins the two leftover stubs.  Both band edges
    alternate exactly when the paired stubs carry opposite labels, as
    they always do on an alternating diagram: every departure along a
    face carries one label and every arrival the other.  The larger of
    the two circle ids is dropped: its edges, found by walking its one
    strand, take the smaller id.  The splice is checked locally
    (``check_edit``).  Before any build: UnknownFace when ``g`` has no
    face ``shared_face``, and JoinError when ``ci == cj``, the face
    misses a circle or the paired stubs carry one label.  JoinError when
    the splice fails the check.
    """
    if ci == cj:
        raise JoinError(f"circle {ci} cannot be joined to itself")
    # g's table is held here: checking a splice takes the memo slot
    fs = face_set(g)
    if shared_face not in fs.darts:
        raise UnknownFace(f"no face {shared_face}")
    walk = _face_edge_walk(g, fs, shared_face)
    merged, dropped = min(ci, cj), max(ci, cj)
    first = {}  # circle -> its first (edge, departure, arrival) on the face
    for w in walk:
        first.setdefault(g.edges[w[0]].component, w)
    if ci not in first or cj not in first:
        raise JoinError(f"face {shared_face} misses circle {ci if ci not in first else cj}")
    (ea, dep_a, arr_a), (eb, dep_b, arr_b) = first[ci], first[cj]
    if g.label(*arr_a) == g.label(*dep_b):
        raise JoinError(f"no alternating splice of circles {ci} and {cj} in face {shared_face}")
    b = MapBuilder(g)
    b.remove_edge(ea)
    b.remove_edge(eb)
    g1, g2 = b.new_edge_id(), b.new_edge_id()
    b.add_edge(g1, [tuple(arr_a), tuple(dep_b)], merged)
    b.add_edge(g2, [tuple(dep_a), tuple(arr_b)], merged)
    # straight through each crossing, from the dropped circle's edge on
    # the face round to it again
    start = ea if ci == dropped else eb
    e, (c, s) = start, g.edges[start].ends[1]
    while True:
        if e in b.edges:
            b.set_component(e, merged)
        through = (c, (s + 2) % 4)
        e = g.crossings[c].slots[through[1]]
        if e == start:
            break
        c, s = g.edges[e].other_end(through)
    out = b.build()
    failures = check_edit(b, fs, out)
    if failures:
        raise JoinError(
            f"splice of circles {ci} and {cj} in face {shared_face} broke the diagram: {failures}"
        )
    return out


def _shared_face(ci: int, cj: int, faces: _CircleFaces) -> int:
    """The least face circles ``ci`` and ``cj`` both border, read from
    ``faces`` as carried."""
    shared = faces.faces[ci] & faces.faces[cj]
    if not shared:
        raise InvariantError(f"circles {ci} and {cj} share no face")
    return min(shared)


# -- hyperbolicity certificate -----------------------------------------------------------

@dataclass(frozen=True)
class HyperbolicityCertificate:
    connected: bool
    reduced: bool
    prime: bool
    alternating: bool
    not_two_strand_torus: bool
    verdict: str  # "hyperbolic" | "not_certified"

    def to_json(self) -> dict:
        return {
            "connected": self.connected,
            "reduced": self.reduced,
            "prime": self.prime,
            "alternating": self.alternating,
            "not_two_strand_torus": self.not_two_strand_torus,
            "verdict": self.verdict,
        }


def certify_hyperbolic(g: Diagram) -> HyperbolicityCertificate:
    """Combinatorial hyperbolicity certificate for a link diagram: a
    connected, reduced, prime, alternating diagram that is not the
    standard two-strand torus diagram presents a hyperbolic link."""
    flags = diagram_flags(g)
    alt = classify_edges(g).is_alternating
    not_torus = detect_two_strand_torus(g) is None
    ok = flags.connected and flags.reduced and flags.prime and alt and not_torus
    return HyperbolicityCertificate(
        flags.connected, flags.reduced, flags.prime, alt, not_torus,
        "hyperbolic" if ok else "not_certified",
    )


# -- the promises ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Certification:
    """What ``certify`` found: each broken promise, in order, as the
    exception ``augment`` raises for it, and the quantities read on the
    way.  ``i_A_D`` is None when the curve could not be read off G, and
    ``t_G`` and ``certificate`` are None when G is not a valid map."""

    failures: tuple[DiagramError, ...]
    i_A_D: int | None
    t_G: int | None
    certificate: HyperbolicityCertificate | None


def certify(d: Diagram, d_fs: FaceSet, d_tp: TwistPartition, g: Diagram, aug: int) -> Certification:
    """Check every promise the paper makes of G = ``g``, the input ``d``
    with the unknotted curve ``aug`` added, from ``d``'s face table and
    twist partition, which the caller holds.  In order, with the
    exception for each:

    1. G is a valid map (InvariantError), its pieces searched here and
       equal to the count its table carries from ``edits.check_edit``'s
       dP, on which V - E + F = 2P is read; nothing more is read otherwise;
    2. G is alternating (AlternationError);
    3. dropping the curve gives back ``d`` verbatim, so the curve crosses
       itself nowhere and crosses only edges of ``d``
       (``reconstruct_input``: MappingError, or UnknownComponent when G
       has no curve ``aug``);
    4. the curve crosses no edge of a twist region of ``d`` (InvariantError);
    5. it crosses each edge of ``d`` at most twice (InvariantError);
    6. G carries a hyperbolicity certificate (InvariantError);
    7. the twist identity: restricted to ``d``'s crossings, G's twist
       regions are ``d``'s, and every other crossing of G, one of the
       curve's, is a region by itself (InvariantError; MappingError when
       a crossing of ``d`` is missing from G);
    8. t(D) <= t(G) <= 5 t(D) (InvariantError);
    9. t(G) = t(D) + i(A, D) (InvariantError);
    10. i(A, D) <= 2 |edges outside the twist regions| and
        i(A, D) <= 4 t(D) (InvariantError);
    11. G has exactly one component more than ``d`` (InvariantError).

    Checks 4, 5, 9 and 10 read the crossing counts of check 3, and are
    skipped when it fails.  Check 7 is one pass over G's regions: each
    must be the region of its least crossing in ``d``, or that crossing
    alone when ``d`` lacks it.  A region mixing crossings of ``d`` and
    of the curve fails either way, and so do a split or a merged region
    of ``d``.  Check 7 implies the lower half of check 8, and with check
    3, which counts each crossing of the curve once in i(A, D), it makes
    check 9 an equality; check 9 stays as a guard on those counts.
    Check 10 follows too: checks 4 and 5 bound i(A, D) by twice the
    edges outside the regions, and checks 8 and 9 give i(A, D) =
    t(G) - t(D) <= 4 t(D); it stays as a guard as well.

    Check 7 refuses no output of ``augment``.  A bigon of G is one of
    two kinds:

    - both corners at crossings of ``d``: its edges are whole edges of
      ``d``, so it is a bigon of ``d``.  Each bigon of ``d`` survives,
      since the curve crosses no edge of a twist region (check 4);
    - a corner at a crossing x of the curve: that corner lies between an
      edge of the curve and a piece of an edge of ``d``, and an edge of
      the curve ends only at crossings of the curve, so the other corner
      is a crossing y of the curve, and the bigon is bounded by an edge
      of the curve and the piece of ``d`` from x to y.

    The construction makes the second kind only at a finger's tip: the
    ``tip`` edge and the middle piece ``s_mid`` of the last crossed
    edge.  Nothing else makes it: the overlay's circles cross distinct
    edges, once each, and a finger crosses only uncrossed edges, so the
    crossings on an edge of ``d`` are one circle's, while a band edge
    joins crossings of two circles.  The join that follows each finger
    removes ``tip``: the target circle borders only the last face of
    the arc, where the source circle's only edge is ``tip``, so ``tip``
    is the first source edge in the walk of the join face.  So G's
    bigons are ``d``'s, and each crossing of the curve is a region by
    itself.

    Nothing is raised: ``augment`` raises the first failure,
    ``selfcheck.verify_augmentation`` reports them all."""
    rep = validate_diagram(g)
    if not rep.valid:
        return Certification((InvariantError(f"final diagram invalid: {rep.failures}"),), None, None, None)
    carried, pieces = connected_pieces(g), _search_pieces(g.crossings, _far_darts(g))
    if pieces != carried:
        return Certification((InvariantError(
            f"final diagram invalid: {pieces} pieces, not the {carried} its table carries"
        ),), None, None, None)
    failures: list[DiagramError] = []
    if not classify_edges(g).is_alternating:
        failures.append(AlternationError("final diagram is not alternating"))
    t_d = d_tp.t
    free_edges = set(d.edges)  # the edges outside d's twist regions
    for fid in d_tp.bigon_faces:
        free_edges.difference_update(d_fs.edges(d, fid))
    # dropping the curve gives back d verbatim (read off g, no map is
    # built), so check 7 below reads d's tables instead of a
    # reconstruction's; the walk counts the curve's crossings per edge
    try:
        crossed = reconstruct_input(g, aug, expected_d=d)
    except (MappingError, UnknownComponent) as exc:
        failures.append(exc)
        i_a_d = None
    else:
        inside = crossed.keys() - free_edges
        if inside:
            failures.append(InvariantError(f"augmenting curve crosses edge {min(inside)} inside a twist region"))
        if any(n > 2 for n in crossed.values()):
            failures.append(InvariantError("some original edge is crossed more than twice"))
        i_a_d = sum(crossed.values())

    g_tp = twist_partition(g)
    cert = certify_hyperbolic(g)
    if cert.verdict != "hyperbolic":
        failures.append(InvariantError(f"augmentation failed certification: {cert}"))
    if not d.crossings.keys() <= g.crossings.keys():
        failures.append(MappingError("reconstructed crossings are not a subset of the ambient ones"))
    else:
        region_of = {c: r.crossings for r in d_tp.regions for c in r.crossings}
        for r in g_tp.regions:
            c = min(r.crossings)
            if r.crossings != region_of.get(c, {c}):
                failures.append(InvariantError(
                    f"twist identity fails: G's twist region {sorted(r.crossings)} "
                    "is neither a twist region of D nor one crossing of the curve"
                ))
                break
    t_g = g_tp.t
    if not (t_d <= t_g <= 5 * t_d):
        failures.append(InvariantError(f"twist bound violated: t_D={t_d}, t_G={t_g}"))
    if i_a_d is not None:
        if t_g != t_d + i_a_d:
            failures.append(InvariantError(f"twist count is not t_D + i: t_G={t_g}, t_D={t_d}, i={i_a_d}"))
        if not (i_a_d <= 2 * len(free_edges) and i_a_d <= 4 * t_d):
            failures.append(InvariantError(f"crossing-count bound violated: i={i_a_d}, t_D={t_d}"))
    n_d = len({rec.component for rec in d.edges.values()} | set(d.loops.values()))
    if rep.components != n_d + 1:
        failures.append(InvariantError(
            f"final diagram has {rep.components} components, not the input's {n_d} plus one"
        ))
    return Certification(tuple(failures), i_a_d, t_g, cert)


# -- full pipeline -----------------------------------------------------------------------

@dataclass
class MergeRecord:
    """One merge as ``augment`` reports it: its arc, and the face the two
    circles were joined in, each face given by its rank
    (``FaceSet.rank``) in the map of its step, the arc's before the
    finger and the join face before the splice."""

    arc: MergeArc
    join_face: int

    def to_json(self) -> dict:
        return {
            "source_curve": self.arc.source_curve,
            "target_curve": self.arc.target_curve,
            "faces": list(self.arc.faces),
            "edges": list(self.arc.edges),
            "phi": self.arc.phi,
            "join_face": self.join_face,
        }


@dataclass
class AugmentationResult:
    g: Diagram
    augmenting_component: int
    i_A_D: int
    t_D: int
    t_G: int
    merges: list[MergeRecord]
    certificate: HyperbolicityCertificate
    cut_system: CutSystem

    def to_json(self) -> dict:
        return {
            "pd_G": serialize_pd(self.g),
            "augmenting_component": self.augmenting_component,
            "t_D": self.t_D,
            "t_G": self.t_G,
            "i_A_D": self.i_A_D,
            "merges": [m.to_json() for m in self.merges],
            "certificate": self.certificate.to_json(),
            "bound_check": self.t_D <= self.t_G <= 5 * self.t_D,
        }


def augment(d: Diagram) -> AugmentationResult:
    """Run the whole construction on a connected, reduced, R2-reduced,
    prime, non-alternating diagram, and check every promised property of
    the output with ``certify``, from the input's face table and twist
    partition held since the start; the first broken promise is raised.
    Only the result is returned: the maps in between are steps of the
    construction, each checked where it is made.

    When the overlay has two or more circles, the merge loop reads the
    faces each circle borders once and carries them through every finger
    and join (``_CircleFaces``), updated from the faces each edit's table
    dropped and walked afresh; each merge hands them to
    ``find_merge_arc``, so a merge of cost 0 reads no whole map."""
    rep = validate_diagram(d)
    if not rep.valid:
        raise PreconditionError(f"invalid diagram: {rep.failures}", failed_flag="valid")
    flags = diagram_flags(d)
    cls = classify_edges(d)
    for name, ok in (
        ("connected", flags.connected),
        ("reduced", flags.reduced),
        ("r2_reduced", flags.r2_reduced),
        ("prime", flags.prime),
        ("non_alternating", cls.is_non_alternating),
    ):
        if not ok:
            raise PreconditionError(f"diagram is not {name}", failed_flag=name)

    d_fs = face_set(d)
    d_tp = twist_partition(d)

    cs = build_cut_curves(d)
    g, cs = overlay_unlink(d, cs)

    merges: list[MergeRecord] = []
    live = sorted(c.component for c in cs.curves)
    expected_merges = len(live) - 1
    # the circles' faces, followed through each edit from here on
    circle_faces = _CircleFaces(g, face_set(g), live) if len(live) > 1 else None
    while len(live) > 1:
        arc = find_merge_arc(g, live, circle_faces)
        # printed faces are ranks in the map of the moment
        ranked = replace(arc, faces=tuple(map(face_set(g).rank, arc.faces)))
        g = propagate_finger(g, arc)
        if arc.phi:
            circle_faces.follow(g)
        # a free arc's face is the least face its two circles share
        ci, cj = arc.source_curve, arc.target_curve
        face = arc.faces[0] if arc.phi == 0 else _shared_face(ci, cj, circle_faces)
        join_rank = face_set(g).rank(face)
        g = join_curves(g, ci, cj, face)
        circle_faces.follow(g, max(ci, cj), min(ci, cj))
        live.remove(max(ci, cj))
        merges.append(MergeRecord(ranked, join_rank))
    if len(merges) != expected_merges:
        raise InvariantError("merge loop did not run exactly n-1 times")

    aug_comp = live[0]
    g = mark_augmenting(g, aug_comp)
    checked = certify(d, d_fs, d_tp, g, aug_comp)
    if checked.failures:
        raise checked.failures[0]
    return AugmentationResult(
        g, aug_comp, checked.i_A_D, d_tp.t, checked.t_G, merges, checked.certificate, cs
    )
