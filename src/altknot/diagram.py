"""Sign-labeled link diagrams as 4-valent planar combinatorial maps.

A diagram is a set of 4-valent crossings, each with a counterclockwise
cyclic slot order, plus edges joining slot pairs.  Which opposite slot
pair carries the over strand determines the +/- label at every edge end
(+ = over), and an edge is *alternating* when its two end labels differ.
Crossing-free closed components ("loops") are stored separately so the
zero-crossing unknot diagram exists.

PD text format: whitespace-separated records ``X(a,b,c,d)`` listing the
four edge ids counterclockwise from the incoming under-strand edge
(under strand = {a,c}, over strand = {b,d}), plus ``O(k)`` records for
crossing-free loops.  An id is a positive integer in ASCII decimal
digits, with optional ASCII whitespace around it.  ``#`` starts a line
comment.

All operations are pure: they return new Diagram values and never
mutate their inputs.
"""

from __future__ import annotations

import re
import weakref
from collections import Counter
from dataclasses import dataclass, field
from enum import Enum

from .errors import (
    IncidenceError,
    InvariantError,
    PDSyntaxError,
    PreconditionError,
    SphericityError,
    UnknownCrossing,
)


class Sign(Enum):
    """End label of an edge at a crossing: ``+`` means the over strand."""

    PLUS = "+"
    MINUS = "-"

    @property
    def opposite(self) -> "Sign":
        return Sign.MINUS if self is Sign.PLUS else Sign.PLUS

    def __str__(self) -> str:
        return self.value


End = tuple  # (crossing id, slot) pairs; plain tuples keep surgery cheap


# Crossings and edges are built by the thousand on every pass, so they
# are slotted, and each has its own ``__init__`` that writes its fields
# through its class's slot descriptors, bound once below the class.  A
# frozen dataclass's generated ``__init__`` writes each field by name
# through ``object.__setattr__``, which costs about 1.7 times as much.
# The records stay frozen: the generated ``__setattr__`` and
# ``__delattr__`` still refuse every write, and ``==``, ``hash``,
# ``repr``, ``dataclasses.replace``, copying and pickling are the
# dataclass's own.


@dataclass(frozen=True, slots=True, init=False)
class Crossing:
    """4-valent vertex.  ``slots[i]`` is the edge id at slot i, slots in
    counterclockwise cyclic order.  ``over_slots`` names the opposite
    slot pair carried by the over strand; only (0,2) and (1,3) are
    legal, but illegal values are representable so validation has
    something to report."""

    id: int
    slots: tuple[int, int, int, int]
    over_slots: tuple[int, int] = (1, 3)

    def __init__(self, id: int, slots: tuple[int, int, int, int], over_slots: tuple[int, int] = (1, 3)) -> None:
        _set_crossing_id(self, id)
        _set_crossing_slots(self, slots)
        _set_crossing_over_slots(self, over_slots)

    def label(self, slot: int) -> Sign:
        return Sign.PLUS if slot in self.over_slots else Sign.MINUS


_set_crossing_id = Crossing.id.__set__
_set_crossing_slots = Crossing.slots.__set__
_set_crossing_over_slots = Crossing.over_slots.__set__


@dataclass(frozen=True, slots=True, init=False)
class Edge:
    """Arc between two crossing passages.  ``component`` is the link
    component the arc belongs to.  Which edge of a diagram an arc of a
    larger map was cut from is not stored: it is the strand run between
    two of that diagram's crossings (``analysis.reconstruct_input``)."""

    id: int
    ends: tuple[End, End]
    component: int

    def __init__(self, id: int, ends: tuple[End, End], component: int) -> None:
        _set_edge_id(self, id)
        _set_edge_ends(self, ends)
        _set_edge_component(self, component)

    def other_end(self, end: End) -> End:
        a, b = self.ends
        return b if a == end else a


_set_edge_id = Edge.id.__set__
_set_edge_ends = Edge.ends.__set__
_set_edge_component = Edge.component.__set__


def _exit_slot(x: int) -> int:
    """The corner rule: the edge leaving corner ``x = 4 * c + s`` of a
    face walk is the one in slot s + 1 of crossing c (``FaceSet``)."""
    return (x + 1) & 3


def _is_bigon(darts) -> bool:
    """The darts of a face, in any order, make it a bigon: two corners
    at two distinct crossings."""
    if len(darts) != 2:
        return False
    x0, x1 = darts
    return x0 >> 2 != x1 >> 2


@dataclass(frozen=True)
class Diagram:
    """Immutable sign-labeled 4-valent map plus crossing-free loops."""

    crossings: dict[int, Crossing]
    edges: dict[int, Edge]
    loops: dict[int, int] = field(default_factory=dict)  # loop id -> component
    augmenting_component: int | None = None

    # -- cheap readers --------------------------------------------------------

    def edge_at(self, c: int, slot: int) -> int:
        return self.crossings[c].slots[slot % 4]

    def label(self, c: int, slot: int) -> Sign:
        return self.crossings[c].label(slot % 4)

    def other_end(self, end: End) -> End:
        c, s = end
        return self.edges[self.edge_at(c, s)].other_end((c, s % 4))

    def edge_labels(self, e: int) -> tuple[Sign, Sign]:
        (c0, s0), (c1, s1) = self.edges[e].ends
        return (self.label(c0, s0), self.label(c1, s1))

    def components(self) -> dict[int, list[int]]:
        """Component id -> sorted edge ids; a crossing-free loop's
        component maps to an empty edge list."""
        out: dict[int, list[int]] = {}
        for e in self.edges.values():
            out.setdefault(e.component, []).append(e.id)
        for comp in self.loops.values():
            out.setdefault(comp, [])
        return {k: sorted(v) for k, v in sorted(out.items())}

    def next_edge_id(self) -> int:
        """One past the largest edge or loop id, 1 on an empty map.  Ids
        are positive, so this is the larger of the two tables' greatest
        keys, read with no set of ids built."""
        return max(max(self.edges, default=0), max(self.loops, default=0)) + 1

    def next_crossing_id(self) -> int:
        return max(self.crossings, default=-1) + 1

    def next_component_id(self) -> int:
        comps = {e.component for e in self.edges.values()} | set(self.loops.values())
        return max(comps, default=-1) + 1


# -- strand and connectivity structure ----------------------------------------

class _Partition:
    """Union-find over hashable keys; a key not yet seen is its own class."""

    def __init__(self) -> None:
        self.parent: dict = {}

    def find(self, x):
        parent = self.parent
        while (up := parent.get(x, x)) != x:
            # path halving: x skips to its grandparent
            grand = parent.get(up, up)
            parent[x] = grand
            x = grand
        return x

    def union(self, a, b) -> bool:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        self.parent[ra] = rb
        return True


def connected_pieces(d: Diagram) -> int:
    """Number of connected pieces of the 4-valent map; crossing-free
    loops are separate pieces and are not counted here.

    Kept on ``face_set(d)`` (``FaceSet.pieces``) by the pass that built
    the table; only a table no pass counted (a refused edit's, one made
    by hand) is counted here, by ``_search_pieces``."""
    fs = face_set(d)
    if fs.pieces is None:
        fs.pieces = _search_pieces(d.crossings, _far_darts(d))
    return fs.pieces


def _far_darts(d: Diagram) -> list[int]:
    """``other[x]``, the dart at the far end of the edge in slot ``x & 3``
    of crossing ``x >> 2``, filled in one pass over the edge records; -1
    where no record names the slot.  InvariantError, rather than a list
    read from its far end, when a crossing id is negative."""
    crossings = d.crossings
    if crossings and min(crossings) < 0:
        raise InvariantError(f"crossing id {min(crossings)} names no dart")
    other = [-1] * (4 * (max(crossings, default=-1) + 1))
    for rec in d.edges.values():
        (c0, s0), (c1, s1) = rec.ends
        a = 4 * c0 + s0
        z = 4 * c1 + s1
        other[a] = z
        other[z] = a
    return other


def _search_pieces(crossings, other: list[int]) -> int:
    """Number of pieces of the map with these crossings and far darts
    (``_far_darts``): a breadth-first search from each unseen crossing
    along the far darts.  The one piece search of the package."""
    seen = bytearray(len(other) >> 2)
    pieces = 0
    for start in crossings:
        if seen[start]:
            continue
        pieces += 1
        seen[start] = 1
        cs = [start]
        for c in cs:
            for y in other[4 * c:4 * c + 4]:
                y >>= 2
                if not seen[y]:
                    seen[y] = 1
                    cs.append(y)
    return pieces


def piece_count(d: Diagram) -> int:
    return connected_pieces(d) + len(d.loops)


def is_connected(d: Diagram) -> bool:
    return piece_count(d) == 1


# -- faces ---------------------------------------------------------------------

class FaceSet:
    """Faces of the map, with every corner named by an integer dart.

    The dart ``x = 4 * c + s`` names the corner of crossing c at slot s:
    the quadrant swept counterclockwise from slot s, and also the slot
    end itself.  Crossing ids are ints >= 0 (``validate_diagram``
    refuses any other), so darts order corners as (c, s) pairs do, and
    ``(x >> 2, x & 3)`` is the pair again.  The face walk keeps the face
    on the right of the travel direction: from corner x it leaves
    through the edge in slot s + 1, by the dart ``(x & ~3) | ((x + 1) &
    3)``, and arrives at the corner of that edge's far end.

    A face's id is its least dart, the dart its walk starts from.  The
    name holds while the face keeps its darts, so a local update
    (``_edited_face_set``) renames no face it keeps.  The table holds:

    - ``dart_face``: a list from each dart to the id of its face, -1
      where the map has no corner;
    - ``darts``: a dict from each face id to the face's corners in
      cyclic order, an int tuple that starts at the id.

    A crossing-free loop has no dart, so its two faces are in neither.
    A face's edges are not stored: the map holds the edge that leaves
    each corner, and ``edges`` reads them off the darts.  A face's rank
    among the faces ordered by least dart is printed where a face id
    reaches output (``rank``); ids order faces as ranks do, so every
    least face and tie-break the package takes is the same under either.

    The table also keeps whole-map facts of the map.  ``pieces``
    (``connected_pieces``) comes from the pass that builds the table
    (``_assemble``, ``_build_face_set``, ``edits.check_edit``), and
    ``augmentation.certify`` searches G's again; ``partition``
    (``analysis.twist_partition``) and ``classification``
    (``analysis.classify_edges``) are filled once computed.  They depend
    only on the crossings, their slots and over strands, the loops and
    the edge ends.  Every diagram a table serves shares these facts with
    the one it was built for: ``mark_augmenting`` changes only the
    augmenting component, and a surgery result gets a new table
    (``_edited_face_set``).

    ``delta`` says how a table derived from its source's by a local
    update differs from it: (dropped, fresh), the ids of the source
    faces the edit dropped and of the faces walked afresh.  An id may be
    in both, when a face is walked again with the same least dart.  It
    is None on a table walked whole."""

    def __init__(self, dart_face: list[int], darts: dict[int, tuple[int, ...]]):
        self.dart_face = dart_face
        self.darts = darts
        self.partition = None
        self.pieces = None
        self.classification = None
        self.delta: tuple[set[int], list[int]] | None = None

    def rank(self, f: int) -> int:
        """The number of faces whose id is less than ``f``: face ``f``'s
        position among the faces ordered by least dart."""
        return sum(map(f.__gt__, self.darts))

    def edges(self, d: Diagram, f: int) -> list[int]:
        """The boundary edges of face ``f`` of ``d``, the k-th the edge
        leaving corner k: the edge in the slot after the corner's."""
        crossings = d.crossings
        return [crossings[x >> 2].slots[_exit_slot(x)] for x in self.darts[f]]

    def edge_sides(self, d: Diagram, e: int) -> tuple[int, int]:
        """(left face, right face) of edge e directed end0 -> end1."""
        (c0, s0), (c1, s1) = d.edges[e].ends
        return self.dart_face[4 * c0 + s0], self.dart_face[4 * c1 + s1]


# the table of the last diagram asked for, as (weak reference, table);
# replaced as a whole, never updated in place
_last_face_set: tuple[weakref.ref, FaceSet] | None = None


def face_set(d: Diagram) -> FaceSet:
    """Faces of ``d``, built once per diagram.

    A single-slot memo keeps the table of the last diagram asked for and
    returns it while that same object is asked for again.  This is sound
    because a Diagram is never mutated after construction (every edit
    goes through MapBuilder and yields a new Diagram).  The slot holds
    the diagram only weakly, so it keeps no diagram alive.  The returned
    table is shared: callers only fill the whole-map facts it keeps
    (``FaceSet``), and no module but this one reads the memo.  A
    function that works on two diagrams at once holds each table itself
    rather than asking again, so the slot does not thrash.  The table is
    not kept on the Diagram, so a diagram kept past its use keeps no
    faces: kept there, it raised the benchmark's ``augment-large`` peak
    RSS from 34.7 to 45.3 MiB, as the benchmark worker keeps each
    input's first output.

    The full walk (``_whole_walk``) runs on flat lists indexed by dart
    and builds no tuple per corner and one dict entry per face, its
    darts; a map built from records (``_assemble``) is walked as it is
    built.  The results of ``augment``'s fingers and band splices do not
    reach it: ``edits.check_edit`` derives their table from the source's
    by a local update (``_edited_face_set``) and leaves it here.  The
    update re-walks only the faces the edit reaches -- those at a removed
    crossing or on either side of a removed or re-ended edge -- since
    every other face leaves each of its corners through the same edge as
    before.  Other diagrams made without a source table are walked whole
    (``_build_face_set``), and so is the overlay of the cut circles: it
    re-slots about two-thirds of its input's crossings, so a local
    update would re-walk most of the map.  A reduction move that
    ``edits.check_move`` cannot check by a face merge is validated, and
    so walked, whole.
    """
    global _last_face_set
    fs = _held_face_set(d)
    if fs is None:
        fs = _build_face_set(d)
        _last_face_set = (weakref.ref(d), fs)
    return fs


def _held_face_set(d: Diagram) -> FaceSet | None:
    """``d``'s table when the memo holds it, else None; never walks."""
    last = _last_face_set
    if last is not None and last[0]() is d:
        return last[1]
    return None


def _hand_over_face_set(src: Diagram, dst: Diagram) -> Diagram:
    """Return ``dst``, which must have the crossings, slots and loops of
    ``src``; if the memo holds ``src``'s table it now answers for ``dst``.
    Faces do not depend on components or the augmenting component, so a
    copy that changes only those keeps the table."""
    global _last_face_set
    fs = _held_face_set(src)
    if fs is not None:
        _last_face_set = (weakref.ref(dst), fs)
    return dst


def _walk_darts(step, starts, dart_face: list[int], darts: dict) -> list[int]:
    """Walk the face through each dart of ``starts`` still marked -1 in
    ``dart_face``, in that order: file its darts in ``darts`` under its
    first dart, and mark them with that id; returns the ids filed, in
    walk order.  The walks of a union of orbits taken from their darts
    in increasing order each start at the face's least dart, its id.
    ``step[x]`` is the corner after corner x, ``far[(x & ~3) | ((x + 1)
    & 3)]`` for ``far`` the dart at the other end of each dart's edge.
    A walk that reaches a marked dart (taken, or kept from a source
    table) or no dart (-1) means broken rotation data."""
    filed = []
    for x in starts:
        if dart_face[x] != -1:
            continue
        dart_face[x] = x
        ds = [x]
        y = step[x]
        while y != x:
            if y < 0 or dart_face[y] != -1:
                raise InvariantError(f"face walk collided at corner {(y >> 2, y & 3) if y >= 0 else None}")
            dart_face[y] = x
            ds.append(y)
            y = step[y]
        darts[x] = tuple(ds)
        filed.append(x)
    return filed


def _build_face_set(d: Diagram) -> FaceSet:
    """The full walk of ``d`` (``_whole_walk``) and its piece count
    (``_search_pieces``), both on the far-dart list ``_far_darts`` fills."""
    other = _far_darts(d)
    fs = _whole_walk(d, other)
    fs.pieces = _search_pieces(d.crossings, other)
    return fs


def _whole_walk(d: Diagram, other: list[int]) -> FaceSet:
    """The table of every corner of ``d``, crossings in id order: corner
    x leaves by the slot after it, ``rot x``, through its edge to the
    corner ``other[rot x]`` (-1 for none), the dart at that edge's far
    end.  Every map walked whole is walked here."""
    step = other[1:] + other[:1]
    step[3::4] = other[::4]
    n = len(step)
    crossings = d.crossings
    # ids 0 .. V-1, as in a parsed map, leave no dart without a corner
    starts = range(n) if n == 4 * len(crossings) else [x for c in sorted(crossings) for x in range(4 * c, 4 * c + 4)]
    dart_face = [-1] * n
    darts: dict[int, tuple[int, ...]] = {}
    _walk_darts(step, starts, dart_face, darts)
    return FaceSet(dart_face, darts)


def _edited_face_set(b: MapBuilder, source_fs: FaceSet, out: Diagram) -> FaceSet:
    """Face table of ``out = b.build()``, derived from ``source_fs`` (the
    table of ``b.source``) and left in the ``face_set`` memo.

    ``out`` must pass the incidence checks of ``edits.check_edit``.  A
    source face is dirty when it has a corner at a removed crossing, or
    a corner (c, s - 1) where (c, s) is an end of a source edge that was
    removed or re-ended (``b.changed_edges``); every other source face is
    a face of ``out`` as it stands.  That is sound because a face walk
    leaves corner (c, s - 1) through the edge in slot (c, s): when that
    edge is still there with the same ends, incidence puts it in the
    same slot of ``out``, so the step from that corner is the same, and
    a face all of whose steps are the same is still an orbit of the
    walk.  The walk is a permutation of ``out``'s corners, so the other
    corners -- those of the dirty faces and of new crossings -- are a
    union of orbits, and only they are walked.  A new over strand, or
    only a component written on an edge, changes no face.

    The update copies the source's dart table, deletes the dirty faces
    from it and marks their darts and those of new crossings -1, and
    walks those darts, on a dict of the step out of each, read off the
    edge in the slot after it.  Each walk is filed under its least dart,
    so the table holds what ``_build_face_set(out)`` gives, ids and
    corner order alike (only the order of the dicts differs), and no
    kept face is touched.  The table's ``delta`` holds the ids of the
    dropped faces and of the fresh walks, so a caller that follows faces
    by id (``augmentation._CircleFaces``) reads what changed without a
    pass of its own.  InvariantError when a walk runs into a kept face, or a new
    crossing's id is not an int >= 0."""
    global _last_face_set
    d = b.source
    old_c, new_c = d.crossings, out.crossings
    source_face = source_fs.dart_face
    dart_face = list(source_face)
    dirty = set()  # source faces that do not survive as they stand
    todo = []  # darts of out to walk
    top = len(dart_face)
    for c in b.touched_crossings:
        if c not in new_c:
            if c in old_c:
                dirty.update(source_face[4 * c:4 * c + 4])
        elif c not in old_c:
            if type(c) is not int or c < 0:
                raise InvariantError(f"crossing id {c!r} names no dart")
            todo.extend(range(4 * c, 4 * c + 4))
            top = max(top, 4 * c + 4)
    dart_face += [-1] * (top - len(dart_face))
    old_e = d.edges
    for e in b.changed_edges:
        rec = old_e.get(e)
        if rec is not None:
            for c, s in rec.ends:
                dirty.add(source_face[4 * c + (s - 1) % 4])
    darts = source_fs.darts.copy()
    for fid in dirty:
        for x in darts.pop(fid):
            dart_face[x] = -1
            if (x >> 2) in new_c:
                todo.append(x)
    step: dict[int, int] = {}
    new_e = out.edges
    for x in todo:
        o = (x & -4) | ((x + 1) & 3)
        e = new_c[x >> 2].slots[o & 3]
        (c0, s0), (c1, s1) = new_e[e].ends
        a = 4 * c0 + s0
        step[x] = 4 * c1 + s1 if a == o else a
    fresh = _walk_darts(step, sorted(todo), dart_face, darts)
    fs = FaceSet(dart_face, darts)
    fs.delta = (dirty, fresh)
    _last_face_set = (weakref.ref(out), fs)
    return fs


# -- parsing and serialization --------------------------------------------------

# valid PD: X and O records of positive ASCII-decimal ids, leading zeros
# allowed, each in optional ASCII whitespace; between records what
# ``str.strip`` removes, which ``\s`` matches code point for code point
_ID = r"[ \t\n\r\f\v]*0*[1-9][0-9]*[ \t\n\r\f\v]*"
_PD = re.compile(rf"(?:\s*(?:X\({_ID},{_ID},{_ID},{_ID}\)|O\({_ID}\)))*\s*")
_LOOP = re.compile(r"O\(([^)]*)\)")
# in valid X records, the ids are what is left between blanks
_BLANKS = str.maketrans("X(),", "    ")
_RECORD = re.compile(r"([XO])\(([^()]*)\)")
# a record body: comma-separated ids of ASCII decimal digits, each with
# optional whitespace around it; a minus sign is read, so that a zero or
# negative id is refused as not positive rather than as bad text
_BODY = re.compile(r"\s*-?[0-9]+\s*(?:,\s*-?[0-9]+\s*)*", re.ASCII)


def _strip_comments(text: str) -> str:
    return "\n".join(line.split("#", 1)[0] for line in text.splitlines())


def parse_pd(text: str) -> Diagram:
    """Parse PD text into a validated Diagram.

    Checks syntax, incidence and sphericity.  One match of the
    comment-stripped text against the grammar of valid PD (``_PD``)
    decides the syntax, and one split reads every id; only text the
    grammar refuses is read record by record (``_read_records``), to
    word its PDSyntaxError.  The ids go to ``_assemble``, which raises
    IncidenceError when an edge id is not used exactly twice or a loop
    id repeats or names an edge; then SphericityError when the rotation
    system is not spherical: V - E + F over the corner faces must be 2P
    for the P crossing-bearing pieces, as in ``validate_diagram``, read
    off the table and piece count ``_assemble`` left in the memo.
    """
    clean = _strip_comments(text)
    if _PD.fullmatch(clean) is None:
        flat, loop_ids = _read_records(clean)
    else:
        loop_ids = []
        if "O" in clean:
            loop_ids = [int(k) for k in _LOOP.findall(clean)]
            clean = _LOOP.sub(" ", clean)
        flat = [*map(int, clean.translate(_BLANKS).split())]
    d = _assemble(flat, loop_ids)
    _check_sphericity(d)
    return d


def _read_records(clean: str) -> tuple[list[int], list[int]]:
    """The slot ids of the X records of ``clean``, in record order, and
    its loop ids, read record by record; PDSyntaxError naming the first
    malformed record or stray text."""
    flat: list[int] = []
    loop_ids: list[int] = []
    pos = 0
    for m in _RECORD.finditer(clean):
        if clean[pos:m.start()].strip():
            raise PDSyntaxError(f"unrecognized text: {clean[pos:m.start()].strip()!r}")
        pos = m.end()
        kind, body = m.group(1), m.group(2)
        # int() alone would also take "1_0", "+1" and non-ASCII digits
        if _BODY.fullmatch(body) is None:
            raise PDSyntaxError(f"bad record body: {m.group(0)!r}")
        ids = tuple(map(int, body.split(",")))
        if min(ids) <= 0:
            raise PDSyntaxError(f"edge ids must be positive: {m.group(0)!r}")
        if kind == "X":
            if len(ids) != 4:
                raise PDSyntaxError(f"X record needs 4 edges: {m.group(0)!r}")
            flat += ids
        else:
            if len(ids) != 1:
                raise PDSyntaxError(f"O record needs 1 id: {m.group(0)!r}")
            loop_ids.append(ids[0])
    if clean[pos:].strip():
        raise PDSyntaxError(f"unrecognized text: {clean[pos:].strip()!r}")
    return flat, loop_ids


def _check_sphericity(d: Diagram) -> None:
    """SphericityError unless V - E + F = 2P over the corner faces and
    crossing-bearing pieces of ``d``."""
    chi = len(d.crossings) - len(d.edges) + len(face_set(d).darts)
    pieces = connected_pieces(d)
    if chi != 2 * pieces:
        raise SphericityError(f"V-E+F = {chi} on {pieces} pieces, not {2 * pieces}")


def _assemble(flat: list[int], loop_ids: list[int]) -> Diagram:
    """The map of the crossing slots ``flat`` (``flat[x]`` the edge in
    slot ``x & 3`` of crossing ``x >> 2``, counterclockwise from the
    incoming under strand, so the over strand is in slots 1 and 3) and
    the loop ids, as ``parse_pd`` reads them.  IncidenceError when a loop
    id repeats, or an edge id is not used exactly twice or is also a
    loop id; InvariantError when a strand walk meets another orbit's edge.

    ``other[x]`` is the dart at the far end of slot x's edge; it pairs
    each edge's first and last slot and leaves any slot between at -1, so
    with no -1 left and 2E = 4V every id is used twice.  Edges are built
    in order of first use, first slot to last, in their strand orbit
    (slot x to x ^ 2) numbered by least edge id, the loops after.  The face table (``_whole_walk``) gets the piece count,
    the orbits joined at each crossing, and goes in the ``face_set`` memo."""
    global _last_face_set
    n = len(flat)
    it = iter(flat)
    crossings = {cid: Crossing(cid, slots) for cid, slots in enumerate(zip(it, it, it, it))}
    loops: set[int] = set()
    for k in loop_ids:
        if k in loops:
            raise IncidenceError(f"loop id {k} repeated")
        loops.add(k)

    # each edge's last and first slot, keyed in order of first use; a
    # slot between them is left at -1
    last = dict(zip(flat, range(n)))
    first = dict(zip(reversed(flat), range(n - 1, -1, -1)))
    other = [-1] * n
    for e, z in last.items():
        a = first[e]
        other[a] = z
        other[z] = a
    if 2 * len(last) != n or -1 in other or not loops.isdisjoint(last):
        uses = Counter(flat)
        bad = sorted({e for e, u in uses.items() if u != 2} | (loops & uses.keys()))
        raise IncidenceError(f"edge ids not used exactly twice: {bad}")

    comp: dict[int, int] = {}
    orbits = 0
    for e0 in sorted(last):
        if e0 in comp:
            continue
        comp[e0] = orbits
        # leave each edge by its last slot, straight through the crossing
        y = last[e0] ^ 2
        e = flat[y]
        while e != e0:
            if e in comp:
                raise InvariantError(f"strand walk from edge {e0} met edge {e} again")
            comp[e] = orbits
            y = other[y] ^ 2
            e = flat[y]
        orbits += 1
    edges: dict[int, Edge] = {}
    for e, z in last.items():
        a = first[e]
        edges[e] = Edge(e, ((a >> 2, a & 3), (z >> 2, z & 3)), comp[e])
    d = Diagram(crossings, edges, {k: orbits + i for i, k in enumerate(sorted(loops))})

    fs = _whole_walk(d, other)
    pieces = orbits
    if orbits > 1:
        joins = _Partition()
        for a, b in set(zip(map(comp.__getitem__, flat[::4]), map(comp.__getitem__, flat[1::4]))):
            if joins.union(a, b):
                pieces -= 1
    fs.pieces = pieces
    _last_face_set = (weakref.ref(d), fs)
    return d


def mark_augmenting(d: Diagram, comp: int) -> Diagram:
    """The same diagram with ``comp`` recorded as its augmenting
    component; it keeps ``d``'s face table."""
    return _hand_over_face_set(d, Diagram(d.crossings, d.edges, d.loops, comp))


def serialize_pd(d: Diagram) -> str:
    """Emit PD text; parse_pd(serialize_pd(d)) reproduces the map."""
    crossings = d.crossings
    parts = []
    for cid in sorted(crossings):
        c = crossings[cid]
        a, b, e, f = c.slots
        # a legal over strand is one of two opposite slot pairs, in
        # either order; the record starts at an under slot
        if c.over_slots in ((1, 3), (3, 1)):
            parts.append(f"X({a},{b},{e},{f})")
        elif c.over_slots in ((0, 2), (2, 0)):
            parts.append(f"X({b},{e},{f},{a})")
        else:
            raise InvariantError(f"crossing {cid} has illegal over_slots {c.over_slots}")
    for k in sorted(d.loops):
        parts.append(f"O({k})")
    return " ".join(parts)


# -- validation -----------------------------------------------------------------

@dataclass
class ValidationReport:
    valid: bool
    failures: list[str]
    v: int
    e: int
    f: int
    components: int


_OVER_PAIRS = ((0, 2), (2, 0), (1, 3), (3, 1))


def validate_diagram(d: Diagram) -> ValidationReport:
    """Check 4-valence, incidence, label consistency, sphericity and the
    component census; failures are reported, not raised.

    A corner is the dart ``4 * c + s`` of the face table (``FaceSet``),
    so a crossing id that is not an int >= 0 is a failure, and the faces
    of such a map are not read.  A legal over strand is one of the four
    tuples of opposite slots; any other value is a ``labels:`` failure.
    The reported ``f`` is the corner faces plus the two faces of each
    crossing-free loop, which the table does not list.

    Incidence is decided in one pass over the edge records.  The map is
    sound when every crossing has four slots, no id is both an edge and
    a loop, 2E = 4V, and each edge's two distinct ends name existing
    crossings at slots 0-3 that hold that edge.  A slot holds one edge,
    and an edge's two ends differ, so then no two ends share a slot: the
    2E ends fill 2E = 4V distinct slots, which is every slot.  Each slot
    therefore names an existing edge whose two ends are exactly the two
    slots naming it, so every incidence check holds.  Only when that
    pass fails is the table of uses built and each failure worded.

    Sphericity is one identity, V - E + F = 2P, with F the corner faces
    and P the crossing-bearing pieces kept on the face table.  Each
    piece's face walk embeds it in a closed orientable surface, where
    V - E + F = 2 - 2g <= 2, so the sum is 2P exactly when every piece
    is a sphere.  The component census is read per crossing: the two
    edges of each strand through it carry one component id.  Failures
    name their crossings and edges in increasing id order."""
    crossings, edges, loops = d.crossings, d.edges, d.loops
    failures: list[str] = []
    four_slots = True
    bad_ids = []
    bad_labels = []
    for cid, c in crossings.items():
        if type(cid) is not int or cid < 0:
            bad_ids.append(cid)
        if len(c.slots) != 4:
            four_slots = False
        if c.over_slots not in _OVER_PAIRS:
            bad_labels.append(cid)
    for cid in bad_ids:
        failures.append(f"ids: crossing id {cid!r} is not an integer >= 0")
    sound = (not bad_ids and four_slots and 2 * len(edges) == 4 * len(crossings)
             and not any(k in edges for k in loops))
    if sound:
        at = crossings.get
        for e, rec in edges.items():
            (c0, s0), (c1, s1) = rec.ends
            x0, x1 = at(c0), at(c1)
            # the range test keeps slots[-1] from reading slot 3
            if (x0 is None or x1 is None or not (0 <= s0 < 4 and 0 <= s1 < 4)
                    or x0.slots[s0] != e or x1.slots[s1] != e or (c0 == c1 and s0 == s1)):
                sound = False
                break
    if not sound:
        uses: dict[int, list[End]] = {}
        for cid, c in crossings.items():
            if len(c.slots) != 4:
                failures.append(f"valence: crossing {cid} has {len(c.slots)} slots")
                continue
            for s, e in enumerate(c.slots):
                if e not in edges:
                    failures.append(f"incidence: crossing {cid} slot {s} names missing edge {e}")
                uses.setdefault(e, []).append((cid, s))
        for e, u in sorted(uses.items()):
            if len(u) != 2:
                failures.append(f"incidence: edge {e} used {len(u)} times")
        for e, rec in sorted(edges.items()):
            if e in loops:
                failures.append(f"incidence: id {e} is both edge and loop")
            # an edge has two ends: they match the slots in either order
            u = tuple(uses.get(e, ()))
            if u != rec.ends and u[::-1] != rec.ends:
                failures.append(f"incidence: edge {e} ends {rec.ends} do not match slots")
        sound = not failures
    # an id that is not an int sorts after the ints, by its text
    for cid in sorted(bad_labels, key=lambda c: (False, c) if type(c) is int else (True, repr(c))):
        c = crossings[cid]
        if type(c.over_slots) is tuple:
            word = "".join(str(c.label(s)) for s in range(4))
            failures.append(f"labels: crossing {cid} reads ({word}) around, not (+-+-)")
        else:
            # a list [1, 3] would read (-+-+), a word that looks legal
            failures.append(f"labels: crossing {cid} has over_slots {c.over_slots!r}, not a tuple")

    v = len(crossings)
    e = len(edges)
    f = 0
    if sound:
        try:
            f = len(face_set(d).darts) + 2 * len(loops)
            _check_sphericity(d)
        except (InvariantError, SphericityError) as exc:
            failures.append(f"sphericity: {exc}")
        mixed = []
        for cid, c in crossings.items():
            e0, e1, e2, e3 = c.slots
            if edges[e0].component != edges[e2].component or edges[e1].component != edges[e3].component:
                mixed.append(cid)
        for cid in sorted(mixed):
            slots = crossings[cid].slots
            for s in (0, 1):
                a, z = edges[slots[s]].component, edges[slots[s + 2]].component
                if a != z:
                    ids = sorted({a, z})
                    failures.append(f"components: strand through crossing {cid} carries mixed ids {ids}")
    ncomp = len({rec.component for rec in edges.values()} | set(loops.values()))
    return ValidationReport(not failures, failures, v, e, f, ncomp)


# -- local edits -----------------------------------------------------------------

class MapBuilder:
    """Mutable scratch copy of a diagram for surgery.  Keeps the slot
    tables and edge records consistent through welds and deletions; call
    ``build()`` to freeze.

    ``edges`` holds one ``Edge`` record per edge, the source's until
    written: each write replaces the record it changes.  The builder
    records every crossing and edge id it adds, removes or changes in
    ``touched_crossings`` / ``touched_edges``; ``build()`` re-creates
    only the touched crossings, hands over a copy of ``edges``, and
    ``edits.check_edit`` inspects only the touched records.  ``slots``
    holds the own slots of each touched crossing still in the map, a
    list copied from the source's tuple on first write, and ``over`` the
    over strand of each crossing added by ``add_crossing``; a touched
    crossing with no own slots is removed, and an untouched one is the
    source's.  ``slots_at`` reads a crossing's slots as the map stands,
    and all writes go through the methods below.  Making a builder
    copies nothing per crossing, and the fresh ids (``new_edge_id`` and
    ``new_crossing_id``) are found in the source on first use.

    ``build()`` also records ``changed_edges``, the edges removed, added
    or re-ended: every touched edge but those in both maps with the same
    ends.  An edge that only had its component written bounds the same
    faces and joins the same crossings, so no face, incidence or piece
    check needs it."""

    def __init__(self, d: Diagram):
        self.source = d
        self.slots: dict[int, list[int]] = {}
        self.over: dict[int, tuple[int, int]] = {}
        self.edges: dict[int, Edge] = dict(d.edges)
        self.loops: dict[int, int] = dict(d.loops)
        self.augmenting = d.augmenting_component
        self.touched_crossings: set[int] = set()
        self.touched_edges: set[int] = set()
        self.changed_edges: list[int] = []
        self._next_edge: int | None = None
        self._next_crossing: int | None = None

    def slots_at(self, c: int) -> list[int] | tuple[int, ...]:
        """The slots of crossing ``c`` as the map stands: its own once
        touched, else the source's tuple.  KeyError when ``c`` is not in
        the map."""
        return self.slots[c] if c in self.touched_crossings else self.source.crossings[c].slots

    def _own_slots(self, c: int) -> list[int]:
        if c not in self.touched_crossings:
            # an untouched crossing is the source's
            self.slots[c] = list(self.source.crossings[c].slots)
            self.touched_crossings.add(c)
        return self.slots[c]

    def new_edge_id(self) -> int:
        if self._next_edge is None:
            self._next_edge = self.source.next_edge_id()
        self._next_edge += 1
        return self._next_edge - 1

    def new_crossing_id(self) -> int:
        if self._next_crossing is None:
            self._next_crossing = self.source.next_crossing_id()
        self._next_crossing += 1
        return self._next_crossing - 1

    def add_crossing(self, cid: int, slots: list[int], over_slots: tuple[int, int]) -> None:
        self.slots[cid] = slots
        self.over[cid] = over_slots
        self.touched_crossings.add(cid)

    def add_edge(self, eid: int, ends: list[End], comp: int) -> None:
        a, z = ends
        self.edges[eid] = Edge(eid, (tuple(a), tuple(z)), comp)
        self.touched_edges.add(eid)
        for c, s in ends:
            self._own_slots(c)[s] = eid

    def set_component(self, eid: int, comp: int) -> None:
        rec = self.edges[eid]
        if rec.component != comp:
            self.edges[eid] = Edge(eid, rec.ends, comp)
            self.touched_edges.add(eid)

    def remove_edge(self, eid: int) -> None:
        del self.edges[eid]
        self.touched_edges.add(eid)

    def remove_crossing(self, cid: int) -> None:
        if cid in self.touched_crossings:
            del self.slots[cid]  # KeyError when already removed
        elif cid not in self.source.crossings:
            raise KeyError(cid)
        self.over.pop(cid, None)
        self.touched_crossings.add(cid)

    def weld(self, a: End, z: End) -> int | None:
        """Join the edges in slot ends ``a`` and ``z``, which may sit at
        different crossings, into one arc between their far ends; the
        arc no longer touches ``a`` or ``z`` (their crossings are being
        removed).  The arc keeps the lower of the two edge ids and the
        component of the edge at ``a``.  Only the two edges are read, so
        what lies between ``a`` and ``z`` never affects the kept id.
        Returns that id, or None when ``a`` and ``z`` are the two ends of
        one edge, which then closes up into a crossing-free loop with its
        id."""
        r1, r2 = self.edges[self.slots_at(a[0])[a[1]]], self.edges[self.slots_at(z[0])[z[1]]]
        if r1.id == r2.id:
            self.loops[r1.id] = r1.component
            self.remove_edge(r1.id)
            return None
        keep = min(r1.id, r2.id)
        self.remove_edge(r1.id)
        self.remove_edge(r2.id)
        self.add_edge(keep, [r1.other_end(a), r2.other_end(z)], r1.component)
        return keep

    def build(self) -> Diagram:
        source = self.source.crossings
        crossings = dict(source)
        slots, over = self.slots, self.over
        for c in sorted(self.touched_crossings):
            s = slots.get(c)
            if s is None:
                crossings.pop(c, None)
            else:
                o = over.get(c)
                crossings[c] = Crossing(c, tuple(s), source[c].over_slots if o is None else o)
        old, edges = self.source.edges, self.edges
        changed = []
        for e in self.touched_edges:
            x, y = old.get(e), edges.get(e)
            if x is None or y is None or x.ends != y.ends:
                changed.append(e)
        self.changed_edges = changed
        return Diagram(crossings, dict(edges), dict(self.loops), self.augmenting)


def flip_crossing(d: Diagram, c: int) -> Diagram:
    """Toggle which strand passes over at crossing ``c``.
    PreconditionError when its over strand is not one of the legal
    tuples (``_OVER_PAIRS``), which has no strand to toggle to."""
    if c not in d.crossings:
        raise UnknownCrossing(f"no crossing {c}")
    cur = d.crossings[c]
    if cur.over_slots not in _OVER_PAIRS:
        raise PreconditionError(f"crossing {c} has illegal over_slots {cur.over_slots!r}", failed_flag="valid")
    flipped = Crossing(c, cur.slots, (1, 3) if cur.over_slots in ((0, 2), (2, 0)) else (0, 2))
    crossings = dict(d.crossings)
    crossings[c] = flipped
    return Diagram(crossings, d.edges, d.loops, d.augmenting_component)
