"""Reduce diagrams to the form the augmentation pipeline requires.

Two moves, both link-type preserving: untwisting a nugatory crossing
(a cut vertex of the projection) and removing a bigon whose two edges
are non-alternating via a Reidemeister II move.  ``preprocess`` applies
them lowest-id-first until neither fires; the result is reduced and
R2-reduced, with crossing count strictly decreasing along the way and
a twist count no greater than the input's.  A single move may raise the
count: removing a nugatory crossing that a chain of bigons runs through
splits the chain.  Lackenby's twist number is defined on reduced
diagrams, and the maps between the input and the output are not
reduced, so the promise is made of the whole run, not of each move.

The whole map is read once, on the input.  Its twist count comes off
the corner faces: the number of classes of crossings joined through
bigons, one union-find over the bigons' crossings, with no twist
partition built.  After that each move costs what it touched.
``preprocess`` holds the faces as a partition of the corners
(``edits.FacePartition``).  An R2 move merges the bigon with its two end
faces and trims its two side faces, and the removal of a kink
merges the kink's monogon into the face across the crossing and trims
the face at the other two corners.  ``edits.check_move`` checks such a
move without a face walk and returns its merge plan, worked out once;
the partition takes that merge, and the candidate moves and the twist
count are updated from the faces it changed.  Any other move (a
nugatory crossing that is not a kink, an R2 move that splits off a
piece or leaves a crossing-free loop) is validated and read whole
again.  ``preprocess`` is the package's one route to either move.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field

from .analysis import _is_cut_vertex, _is_r2_corners
from .diagram import (
    Diagram,
    MapBuilder,
    _is_bigon,
    _Partition,
    face_set,
    validate_diagram,
)
from .edits import FacePartition, check_move
from .errors import InvariantError, PreconditionError, ReductionInvariantError


@dataclass
class ReductionStep:
    kind: str  # "nugatory" | "r2"
    crossings_removed: tuple[int, ...]
    crossings_after: int
    t_after: int

    def to_json(self) -> dict:
        return {
            "kind": self.kind,
            "crossings_removed": list(self.crossings_removed),
            "crossings_after": self.crossings_after,
            "t_after": self.t_after,
        }


@dataclass
class ReductionTrace:
    steps: list[ReductionStep] = field(default_factory=list)
    crossings_before: int = 0
    crossings_after: int = 0
    t_before: int = 0
    t_after: int = 0

    def to_json(self) -> dict:
        return {
            "steps": [s.to_json() for s in self.steps],
            "crossings_before": self.crossings_before,
            "crossings_after": self.crossings_after,
            "t_before": self.t_before,
            "t_after": self.t_after,
        }


def _nugatory_edit(d: Diagram, c: int) -> MapBuilder:
    b = MapBuilder(d)
    b.weld((c, 0), (c, 2))
    b.weld((c, 1), (c, 3))
    b.remove_crossing(c)
    return b


def _r2_edit(d: Diagram, darts) -> MapBuilder:
    """The R2 move on the bigon whose two corners are the darts
    ``darts``."""
    x0, x1 = sorted(darts)
    (x, i), (y, j) = (x0 >> 2, x0 & 3), (x1 >> 2, x1 & 3)
    b = MapBuilder(d)
    # weld each strand across the pair: the face walk leaves corner (x, i)
    # by the inner edge in slot i + 1 at x, which arrives at y in slot j,
    # and leaves (y, j) by the one in slot j + 1 at y, which arrives at x
    # in slot i; the outer stubs sit opposite each
    for sx, sy in (((i + 1) % 4, j), (i, (j + 1) % 4)):
        b.remove_edge(d.crossings[x].slots[sx])
        b.weld((x, (sx + 2) % 4), (y, (sy + 2) % 4))
    b.remove_crossing(x)
    b.remove_crossing(y)
    return b


def _chains_meeting(faces: FacePartition, starts: set[int]) -> int:
    """Number of chains of the map whose faces are ``faces`` that hold one
    of the crossings ``starts``, where a chain is a class of crossings
    joined through bigons (a twist region of ``analysis.twist_partition``).

    One walk leaves each start, and the walks take one crossing each in
    turn.  A step reads the partition's ``face`` and ``corners`` tables
    directly: the faces at a crossing's four corners, and the other
    crossing of each that is a bigon.  Walks that meet join one group,
    the smaller group's walks taking the other's label, and a group whose
    walks have all ended has covered its chain.  The walks stop as soon
    as at most one group is still going, since that group lies in one
    more chain.  A move that shortens a long chain therefore costs a few
    steps, and one that splits a chain costs about the walk of the
    smaller part; walking every chain met in full makes ``preprocess``
    on the benchmark's raw closures about a tenth slower."""
    if len(starts) < 2:
        return len(starts)
    face, corners = faces.face, faces.corners
    owner = {}  # crossing -> the walk that reached it
    stacks = []
    for i, c in enumerate(starts):
        owner[c] = i
        stacks.append([c])
    group = list(range(len(stacks)))  # walk -> its group's label
    walks = [[i] for i in group]  # label -> the walks of that group
    going = [1] * len(stacks)  # label -> its walks not yet ended
    groups = live = len(stacks)  # groups, and groups still going
    while live > 1:
        for i, stack in enumerate(stacks):
            if not stack:
                continue
            x = stack.pop()
            for s in range(4):
                ks = corners[face[4 * x + s]]
                if len(ks) != 2:
                    continue
                k0, k1 = ks
                c0, c1 = k0 >> 2, k1 >> 2
                if c0 == c1:
                    continue
                y = c1 if c0 == x else c0
                j = owner.get(y)
                if j is None:
                    owner[y] = i
                    stack.append(y)
                    continue
                keep, drop = group[i], group[j]
                if keep != drop:
                    if len(walks[keep]) < len(walks[drop]):
                        keep, drop = drop, keep
                    for w in walks[drop]:
                        group[w] = keep
                    walks[keep] += walks[drop]
                    groups -= 1
                    if going[keep] and going[drop]:
                        live -= 1
                    going[keep] += going[drop]
            if not stack:
                g = group[i]
                going[g] -= 1
                if not going[g]:
                    live -= 1
    return groups


class _Moves:
    """The moves open on the diagram ``preprocess`` has reached, and its
    twist count, kept up to date move by move.

    ``faces`` holds the map's faces as a ``FacePartition``.  ``cuts``
    holds the cut vertices (the nugatory crossings) and ``bigons`` the
    ids of the R2 bigons, each its least dart as in the full walk's
    table; a bigon read off a table has it as its handle, and a bigon a
    merge makes is keyed by its least dart too, so the least key names
    the least bigon.  ``t`` is the twist count: the number of chains,
    the classes of crossings joined through bigons.  ``_read`` takes all three off the partition:
    the pass over its faces that finds the R2 bigons also unions the two
    crossings of every bigon, and ``t`` is the crossings less the unions
    that joined two chains.  Beside each set a heap holds its keys and
    possibly keys since removed, which are dropped when they reach the
    top (``_least``), so each pick of the least key costs O(log n).

    A move that takes ``check_move``'s merge path removes its crossings'
    corners and merges the faces of its ``merge_plan``, and ``advance``
    reads only those faces.  A crossing becomes a cut vertex exactly when
    a merge puts two of its corners in one face, and no merge or removal
    of corners parts two, so only the crossings of relabelled corners are
    re-tested.  A face enters or leaves the R2 set only when it changes,
    and a chain changes only when it loses a crossing or meets a bigon
    the move removes or makes; the chains that do are counted before and
    after the move (``_chains_meeting``), and the others stay as they
    are.  A move that took the walk path is read whole from its table,
    the same way."""

    def __init__(self, d: Diagram):
        self.faces = FacePartition(face_set(d))
        self._read(d)

    def _read(self, d: Diagram) -> None:
        faces = self.faces
        self.cuts = {c for c in d.crossings if _is_cut_vertex(faces.face, c)}
        self.bigons = set()
        chains = _Partition()
        joined = 0  # unions that joined two chains
        for h, ks in faces.corners.items():
            if _is_bigon(ks):
                x0, x1 = ks
                joined += chains.union(x0 >> 2, x1 >> 2)
                if _is_r2_corners(d, ks):
                    self.bigons.add(h)
        self._cut_heap = sorted(self.cuts)  # a sorted list is a heap
        self._bigon_heap = sorted(self.bigons)
        # each crossing starts a chain of its own, and each union joins two
        self.t = len(d.crossings) - joined

    def least_cut(self) -> int | None:
        return _least(self.cuts, self._cut_heap)

    def least_bigon(self) -> int | None:
        return _least(self.bigons, self._bigon_heap)

    def advance(self, cur: Diagram, gone: tuple[int, ...], plan: list[int] | None) -> None:
        """Move on to ``cur``, made by the move that removed the crossings
        ``gone``.  ``check_move`` took the merge path with the plan
        ``plan``, the move's one ``merge_plan``, or, when that is None,
        validated ``cur`` whole, which left its table in the memo.

        One pass over the faces at the removed corners reads what the
        merge changes: the bigons among them are lost; the planned faces
        become one face holding their corners off ``gone``, and each
        other face keeps its own, so a face that keeps two is a bigon
        made when those sit at two crossings.  The same pass picks one
        crossing of each chain the move changes.  The crossings of
        ``gone`` lie in one chain (an R2 move's two share its bigon), and
        every lost bigon has a corner at ``gone``, so before the move
        those chains are the ones through the first crossing of
        ``gone`` or a made bigon's crossing off the lost bigons.  After
        it they are the ones through a lost bigon's crossing off
        ``gone`` or through a made bigon, whose two crossings lie in one
        chain and so need one start."""
        faces = self.faces
        if plan is None:
            faces.read(face_set(cur))
            self._read(cur)
            return
        face, corners = faces.face, faces.corners
        at_gone = {}  # face at a removed corner -> how many it has there
        for c in gone:
            for h in face[4 * c:4 * c + 4]:
                at_gone[h] = at_gone.get(h, 0) + 1
        lost = []  # least darts of the bigons the move removes
        made = []  # darts of the bigons it makes
        near = set()  # the lost bigons' crossings off ``gone``
        kept = 0  # corners the planned faces keep
        for h, n in at_gone.items():
            ks = corners[h]
            if _is_bigon(ks):
                lost.append(min(ks))
                near.update(x >> 2 for x in ks if (x >> 2) not in gone)
            if h in plan:
                kept += len(ks) - n
            elif len(ks) - n == 2:
                made.append([x for x in ks if (x >> 2) not in gone])
        if kept == 2:
            made.append([x for h in plan for x in corners[h] if (x >> 2) not in gone])
        made = [ks for ks in made if _is_bigon(ks)]
        # a crossing of each chain the move changes, before it and after
        before, after = {gone[0]}, set(near)
        for x0, x1 in made:
            c0, c1 = x0 >> 2, x1 >> 2
            before.update(c for c in (c0, c1) if c not in near)
            after.discard(c1)
            after.add(c0)
        before = _chains_meeting(faces, before)

        for c in gone:
            faces.remove(c)
        moved = faces.merge(plan)
        self.t += _chains_meeting(faces, after) - before
        self.cuts.difference_update(gone)
        for c in {x >> 2 for x in moved}:
            if c not in self.cuts and _is_cut_vertex(face, c):
                self.cuts.add(c)
                heapq.heappush(self._cut_heap, c)
        self.bigons.difference_update(lost)
        for ks in made:
            key = min(ks)
            if key not in self.bigons and _is_r2_corners(cur, ks):
                self.bigons.add(key)
                heapq.heappush(self._bigon_heap, key)


def _least(keys: set, heap: list):
    """The least of ``keys``, or None when it is empty.  ``heap`` holds
    every key of ``keys``; a key on top that is no longer in ``keys`` is
    popped."""
    while heap and heap[0] not in keys:
        heapq.heappop(heap)
    return heap[0] if heap else None


def preprocess(d: Diagram) -> tuple[Diagram, ReductionTrace]:
    """Apply nugatory and R2 removals (lowest id first, nugatory first)
    until neither applies.  The fixpoint is reduced and R2-reduced.

    The input is validated as a whole map once (PreconditionError with
    ``failed_flag="valid"`` when it is not a valid diagram), and its
    faces, cut vertices, R2 bigons and twist count are read once, the
    count off the corner faces with no twist partition built.
    Each move is then checked by ``edits.check_move``, which needs no
    face walk for an R2 move or a kink's removal, and the next move and
    the twist count are updated from the faces the move merged and
    trimmed (``_Moves``).  The trace records the twist count after every
    move; ReductionInvariantError when the output's count is greater than
    the input's.  A move may raise the count on the way (see the module
    docstring)."""
    rep = validate_diagram(d)
    if not rep.valid:
        raise PreconditionError(f"invalid diagram: {rep.failures}", failed_flag="valid")
    moves = _Moves(d)
    trace = ReductionTrace(crossings_before=len(d.crossings), t_before=moves.t)
    cur = d
    while True:
        if (c := moves.least_cut()) is not None:
            kind, gone, b = "nugatory", (c,), _nugatory_edit(cur, c)
        elif (k := moves.least_bigon()) is not None:
            darts = moves.faces.corners[moves.faces.face[k]]
            gone = tuple(sorted(x >> 2 for x in darts))
            kind, b = "r2", _r2_edit(cur, darts)
        else:
            break
        cur = b.build()
        failures, plan = check_move(b, moves.faces, cur, gone)
        if failures:
            raise InvariantError(f"{'R2' if kind == 'r2' else kind} removal broke the map: {failures}")
        moves.advance(cur, gone, plan)
        trace.steps.append(ReductionStep(kind, gone, len(cur.crossings), moves.t))
    if moves.t > trace.t_before:
        raise ReductionInvariantError(f"reduction raised the twist count {trace.t_before} -> {moves.t}")
    trace.crossings_after = len(cur.crossings)
    trace.t_after = moves.t
    return cur, trace
