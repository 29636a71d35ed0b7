"""Local checks of surgery steps, one checker per kind of edit.

``check_edit`` checks ``augment``'s fingers and band splices, which
must keep an alternating diagram alternating.  It decides whether the
result is valid and alternating by inspecting only what the
``MapBuilder`` touched instead of walking the whole map as
``validate_diagram`` does.  The result's face table is derived from the
source's by a local update that re-walks only the faces the edit
changed, and ``face_set`` answers with it for the next step.

``check_move`` checks the nugatory and R2 moves of ``preprocess``, the
one route to either move, and returns the failures and the move's merge
plan.  Both moves remove crossings and join each strand through them
straight across.  For an R2 move, and for the removal of a kink, the
faces of the result are those of the source merged and trimmed of the
removed corners, so they follow from the source's faces, held as a
``FacePartition``, and a few facts about the faces at the removed
crossings (``merge_plan``), with no face walk.  An edit that is not
exactly such a move, or a move outside those facts, is validated
whole.

The record checks the two share (``_check_records``, ``_check_strands``)
are direct passes over what the edit touched, as ``validate_diagram``'s
incidence pass is over the whole map, and they only decide, as do the
local face update and Euler count.  Every edit a local check refuses
(a label or incidence fault, a face walk that collides, a wrong Euler
count, mixed strand components, an edge that does not alternate) is
worded by the whole-map check (``_rejected``): its failures are
``validate_diagram``'s, in its words and order, so a refused edit reads
as the map it built would read on its own.
"""

from __future__ import annotations

from .diagram import (
    Diagram,
    End,
    FaceSet,
    MapBuilder,
    _edited_face_set,
    _OVER_PAIRS,
    _Partition,
    connected_pieces,
    validate_diagram,
)
from .errors import InvariantError


def check_edit(b: MapBuilder, source_fs: FaceSet, out: Diagram) -> list[str]:
    """Failures of ``augment``'s finger or band splice ``out = b.build()``,
    decided by inspecting only the crossings and edges ``b`` touched.

    ``b.source`` must be valid and alternating and ``source_fs`` its face
    table.  Then the list is empty exactly when ``validate_diagram(out)``
    finds ``out`` valid and ``out`` is alternating.  Checked: valence,
    labels and incidence of the touched crossings and of the edges
    removed, added or re-ended (``b.changed_edges``); strand
    components at every crossing a touched edge meets, so a component
    written on a kept edge is still checked; alternation of the touched
    edges; and sphericity as dV - dE + dF = 2 dP, where F is the number
    of faces in ``out``'s table (corner faces only: a crossing-free loop
    has no darts) and dP, the change in the number of crossing-bearing
    pieces, comes from the source's faces.  An edge kept with its ends is neither cut nor
    re-added: it bounds the same faces and joins the same crossings.
    A refused edit is worded by the whole-map check (``_rejected``).

    ``out``'s table is updated from ``source_fs`` by re-walking only the
    faces the edit reaches: those with a corner at a removed crossing or
    on either side of a removed or re-ended edge
    (``diagram._edited_face_set``, equal to the full walk of ``out``),
    and ``face_set(out)`` answers with it for the next step.
    """
    d = b.source
    if not _check_records(b, out):
        return _rejected(out, alternating=True)
    try:
        fs = _edited_face_set(b, source_fs, out)
    except InvariantError:
        return _rejected(out, alternating=True)
    dv = len(out.crossings) - len(d.crossings)
    de = len(out.edges) - len(d.edges)
    df = len(fs.darts) - len(source_fs.darts)
    if dv - de + df != 2 * _piece_change(b, source_fs, out) or not _check_strands(b, out, alternating=True):
        return _rejected(out, alternating=True)
    return []


def check_move(
    b: MapBuilder, faces: FacePartition, out: Diagram, gone: tuple[int, ...]
) -> tuple[list[str], list[int] | None]:
    """(failures, plan) of a reduction move ``out = b.build()`` that
    removes the crossings ``gone`` from the valid diagram ``b.source``
    and joins each strand through them straight across: the removal of a
    nugatory crossing, or of the two crossings of an R2 bigon, by
    ``preprocess``.  ``faces`` is the source's ``FacePartition``.

    The list is empty exactly when ``validate_diagram(out)`` finds ``out``
    valid, and a refused move's list is that check's (``_rejected``).
    The incidence, label and strand-component checks are those of
    ``check_edit``.  When ``out`` is exactly the source with ``gone``
    removed and its strands joined straight across (``_joined_straight``)
    and ``merge_plan`` finds the faces that become one, the faces of
    ``out`` need no walk: the planned faces become one, every other face
    keeps its corners off ``gone``, and no piece splits or vanishes.
    Sphericity is then dV - dE + dF = 0 with dF = 1 - len(plan), and the
    plan, the move's one plan, is returned for the caller to merge.
    Otherwise ``out`` is validated whole, which leaves its table in the
    ``face_set`` memo, and the plan is None, as it is for a refused move.
    """
    d = b.source
    if not _check_records(b, out):
        return _rejected(out, alternating=False), None
    plan = merge_plan(faces, gone) if _joined_straight(b, out, gone) else None
    if plan is None:
        return validate_diagram(out).failures, None
    dv = len(out.crossings) - len(d.crossings)
    de = len(out.edges) - len(d.edges)
    if dv - de + 1 - len(plan) != 0 or not _check_strands(b, out):
        return _rejected(out, alternating=False), None
    return [], plan


def _rejected(out: Diagram, alternating: bool) -> list[str]:
    """The failures of an edit the local checks refused, in the words and
    order of the whole-map check: ``validate_diagram(out)``'s, then, with
    ``alternating`` and a valid ``out``, its edges whose two ends are
    both over or both under.  Never empty: should the whole map pass, one
    line says the local checks refused it all the same."""
    failures = list(validate_diagram(out).failures)
    if alternating and not failures:
        xs = out.crossings
        if not xs and not out.loops:
            failures.append("alternation: no strands")
        for e, rec in sorted(out.edges.items()):
            (c0, s0), (c1, s1) = rec.ends
            over = s0 in xs[c0].over_slots
            if over == (s1 in xs[c1].over_slots):
                sign = "+" if over else "-"
                failures.append(f"alternation: edge {e} reads ({sign}{sign})")
    return failures or ["local check: edit refused, though the whole map passes"]


def _check_records(b: MapBuilder, out: Diagram) -> bool:
    """Whether the crossings ``b`` touched, and the edges it removed,
    added or re-ended, have sound labels, valence and incidence; no face
    can be walked without them.

    The affected edges are those the uses or ends of an id can change
    at: the removed, added and re-ended ones and every edge at a touched
    crossing.  The check is one direct pass.  Each touched crossing of
    ``out`` has four slots and a legal over strand.  Each affected edge
    of ``out`` has two distinct ends, each a use of that edge: a slot
    holding it at a touched crossing, or one of its source ends at an
    untouched one.  And the uses of the affected edges number twice
    those edges: four per touched crossing of ``out``, plus the source
    ends of affected edges at untouched crossings.  A use belongs to one
    edge, so then every affected edge of ``out`` is used exactly at its
    two ends and every removed one nowhere.  The check only decides: a
    refusal is worded by the whole-map check."""
    d = b.source
    touched = b.touched_crossings
    old_x, new_x = d.crossings, out.crossings
    old_e, new_e = d.edges, out.edges
    changed = b.changed_edges
    affected = set(changed)
    uses = 0
    for c in touched:
        x = old_x.get(c)
        if x is not None:
            affected.update(x.slots)
        x = new_x.get(c)
        if x is not None:
            if len(x.slots) != 4 or x.over_slots not in _OVER_PAIRS:
                return False
            affected.update(x.slots)
            uses += 4
    live = 0
    for e in affected:
        old = old_e.get(e)
        if old is not None:
            for c, _s in old.ends:
                if c not in touched:
                    uses += 1
        rec = new_e.get(e)
        if rec is None:
            continue
        live += 1
        a, z = rec.ends
        if a == z:
            return False
        for end in (a, z):
            c, s = end
            if c in touched:
                x = new_x.get(c)
                if x is None or not 0 <= s < 4 or x.slots[s] != e:
                    return False
            elif old is None or end not in old.ends:
                return False
    if uses != 2 * live:
        return False
    # an edge kept with its ends is no loop: the source is valid, and a
    # new loop on its id is caught from the loop's side
    loops = out.loops
    if loops:
        old_loops = d.loops
        if any(e in loops for e in changed if e in new_e) or any(
            k in new_e for k in loops if k not in old_loops
        ):
            return False
    return True


def _check_strands(b: MapBuilder, out: Diagram, alternating: bool = False) -> bool:
    """Whether, in an ``out`` that passed ``_check_records``, the two
    edges of each strand through every crossing a touched edge meets
    carry one component and, with ``alternating``, ``out`` has strands
    and the two end labels of each touched edge and of each edge at a
    touched crossing differ.  The check is one direct pass, and only
    decides: a refusal is worded by the whole-map check."""
    xs, es = out.crossings, out.edges
    live_c = [c for c in b.touched_crossings if c in xs]
    live_e = [es[e] for e in b.touched_edges if e in es]
    for c in live_c + [c for rec in live_e for c, _s in rec.ends]:
        e0, e1, e2, e3 = xs[c].slots
        if es[e0].component != es[e2].component or es[e1].component != es[e3].component:
            return False
    if alternating:
        if not xs and not out.loops:
            return False
        for rec in live_e + [es[e] for c in live_c for e in xs[c].slots]:
            (c0, s0), (c1, s1) = rec.ends
            if (s0 in xs[c0].over_slots) == (s1 in xs[c1].over_slots):
                return False
    return True


class FacePartition:
    """The corner faces of a map as a partition of its corners, for a run
    of ``check_move`` moves.  A corner is its dart ``4 * c + s``
    (``diagram.FaceSet``): ``face`` is a list from each dart to a handle,
    -1 where the map has no corner, and ``corners`` maps each handle to
    its face's darts.  A face read from a table (``read``) has its id,
    its least dart, as handle; a merged face keeps the handle of the
    heaviest face it was made from.  Crossing-free loops have no corners
    and no handle.

    A move removes its crossings' corners (``remove``) and merges faces
    (``merge``), which relabels the corners of all but the heaviest
    face.  A face's ``weight`` is the number of corners it has ever held,
    removed ones included, so each relabelled corner at least doubles the
    weight of its face, and between two reads none of the map's 4n
    corners moves more than log2(4n) times.  ``relabelled`` counts the
    corners moved, and the corners taken afresh by ``read`` after the
    first."""

    def __init__(self, fs: FaceSet):
        self.relabelled = 0
        self.face: list[int] = []
        self.read(fs)

    def read(self, fs: FaceSet) -> None:
        """Take the corner faces of the table ``fs``, with their ids as
        handles, replacing any held."""
        self.relabelled += len(self.face) - self.face.count(-1)
        self.face = list(fs.dart_face)
        self.corners = {h: set(ds) for h, ds in fs.darts.items()}
        self.weight = {h: len(ks) for h, ks in self.corners.items()}

    def remove(self, c: int) -> None:
        """Drop the four corners of crossing ``c``."""
        face, corners = self.face, self.corners
        for x in range(4 * c, 4 * c + 4):
            corners[face[x]].discard(x)
            face[x] = -1

    def merge(self, handles: list[int]) -> list[int]:
        """Make the faces ``handles`` one, under the heaviest's handle;
        returns the darts relabelled."""
        weight = self.weight
        keep = max(handles, key=weight.__getitem__)
        moved: list[int] = []
        for h in handles:
            if h != keep:
                ks = self.corners.pop(h)
                for k in ks:
                    self.face[k] = keep
                self.corners[keep] |= ks
                weight[keep] += weight.pop(h)
                moved += ks
        self.relabelled += len(moved)
        return moved


def merge_plan(faces: FacePartition, gone: tuple[int, ...]) -> list[int] | None:
    """The faces of ``faces`` that become one face when the crossings
    ``gone`` are removed and each strand through them is joined straight
    across, when the facts below make this so; None otherwise.

    - One crossing c with a face F at two opposite corners and two other
      faces X and Y at the other two, one of X and Y a monogon (a kink):
      [X, Y].  F loses its two corners.  When neither is a monogon, F's
      two arcs between its visits to c join Y and X respectively, so F
      splits; when both are, c is a lone kinked loop, which the move
      leaves as a crossing-free loop.
    - Two crossings x and y sharing a bigon B, neither a cut vertex (all
      four faces at each differ, so the side faces L and R differ), with
      T and U, the faces opposite B at x and at y, different: [T, B, U].
      L and R each lose their corners at x and y.  T = U when the move
      splits off a piece or leaves a crossing-free loop.
    """
    face, corners = faces.face, faces.corners
    if len(gone) == 1:
        (c,) = gone
        f = face[4 * c:4 * c + 4]
        for k in (0, 1):
            x, y = f[k + 1], f[(k + 3) % 4]
            if f[k] == f[k + 2] and len({f[k], x, y}) == 3 and (len(corners[x]) == 1) != (len(corners[y]) == 1):
                return [x, y]
        return None
    x, y = gone
    fx = face[4 * x:4 * x + 4]
    fy = face[4 * y:4 * y + 4]
    if len(set(fx)) < 4 or len(set(fy)) < 4:
        return None
    for i, bigon in enumerate(fx):
        if bigon in fy and len(corners[bigon]) == 2:
            top, bottom = fx[(i + 2) % 4], fy[(fy.index(bigon) + 2) % 4]
            if top != bottom:
                return [top, bigon, bottom]
    return None


def _joined_straight(b: MapBuilder, out: Diagram, gone: tuple[int, ...]) -> bool:
    """The map of ``out``, which passed ``_check_records``, is that of
    ``b.source`` with the crossings ``gone`` removed and each strand
    through them joined straight across: the same crossings but ``gone``,
    the same loops, and the far end of every slot end the joined one.
    Over strands, components and edge ids are not compared.

    A far end changes only along an edge ``b`` touched: an untouched edge
    keeps its ends, and incidence holds, so an untouched crossing keeps
    its far ends unless one of its edges was touched."""
    d = b.source
    if out.loops.keys() != d.loops.keys():
        return False
    if any(c in out.crossings for c in gone):
        return False
    for c in b.touched_crossings:
        if c not in gone and (c in out.crossings) != (c in d.crossings):
            return False
    for e in b.touched_edges:
        rec = out.edges.get(e)
        if rec is not None and _through(d, gone, rec.ends[0]) != rec.ends[1]:
            return False
    return True


def _through(d: Diagram, gone: tuple[int, ...], end: End) -> End:
    """The far end of the slot end ``end`` of ``d``, at a crossing not in
    ``gone``, once the crossings ``gone`` are removed and each strand
    through them joined straight across."""
    crossings, edges = d.crossings, d.edges
    while True:
        c, s = end
        a, z = edges[crossings[c].slots[s]].ends
        far = z if a == end else a
        if far[0] not in gone:
            return far
        end = (far[0], (far[1] + 2) % 4)


def _piece_change(b: MapBuilder, source_fs: FaceSet, out: Diagram) -> int:
    """Number of pieces of ``out`` minus that of ``b.source``, for a
    structurally sound ``out``.

    Cutting an edge set S from a plane map leaves |S| - r more pieces,
    where r is the rank of S in the dual graph (faces joined across S).
    S is the source edges the edit removed or re-ended; an edge kept with
    its ends is neither cut nor re-added.  When the cut crossings all lie
    in one piece (they are grouped through S and the faces it borders)
    and that piece's survivors stay together or vanish, the new crossings
    and the added or re-ended edges are merged onto them with a
    union-find.  Otherwise the totals are compared: a piece that holds
    no crossing the cut meets is a piece of both.  The valid source's
    total is read off ``source_fs`` by Euler, and ``out``'s is counted
    on the table ``_edited_face_set`` left for it.
    """
    d = b.source
    changed = b.changed_edges
    cut = [e for e in changed if e in d.edges]
    gone = [c for c in b.touched_crossings if c in d.crossings and c not in out.crossings]
    new = [c for c in sorted(b.touched_crossings) if c in out.crossings and c not in d.crossings]
    dual, near = _Partition(), _Partition()
    rank = 0
    met: set[int] = set()
    for e in cut:
        left, right = source_fs.edge_sides(d, e)
        rank += dual.union(left, right)
        (c0, _s0), (c1, _s1) = d.edges[e].ends
        near.union(c0, c1)
        near.union(c0, ~left)
        near.union(c0, ~right)
        met.update((c0, c1))
    groups = len({near.find(c) for c in met})
    split = len(cut) - rank - len(gone)  # pieces gained by the cut alone
    if groups <= 1 and split <= 0:
        merge = _Partition()
        roots = {merge.find(c) for c in new}
        if groups and split == 0:
            roots.add(merge.find("rest"))
        new_set = set(new)
        for e in changed:
            if e in out.edges:
                (c0, _s0), (c1, _s1) = out.edges[e].ends
                merge.union(c0 if c0 in new_set else "rest", c1 if c1 in new_set else "rest")
        return len({merge.find(x) for x in roots}) - groups
    source_pieces = (len(d.crossings) - len(d.edges) + len(source_fs.darts)) // 2
    return connected_pieces(out) - source_pieces
