"""Reduce diagrams to the form the augmentation pipeline requires.

Two moves, both link-type preserving: untwisting a nugatory crossing
(a cut vertex of the projection) and removing a bigon whose two edges
are non-alternating via a Reidemeister II move.  ``preprocess`` applies
them lowest-id-first until neither fires; the result is reduced and
R2-reduced, with crossing count strictly decreasing along the way and
the twist count never increasing.

The whole map is read once, on the input.  After that each move costs
what it touched: the face table of a move's result records which faces
it dropped and which it walked afresh (``FaceSet.delta``), and the
candidate moves and the twist count are updated from that alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .analysis import _is_cut_vertex, _is_r2_bigon, cut_vertices, twist_partition
from .diagram import (
    Diagram,
    FaceSet,
    MapBuilder,
    face_set,
    restamp_origins,
    validate_diagram,
)
from .edits import check_edit
from .errors import (
    InvariantError,
    NotNugatory,
    NotR2Bigon,
    PreconditionError,
    ReductionInvariantError,
    UnknownCrossing,
    UnknownFace,
)


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


def remove_nugatory_crossing(d: Diagram, c: int) -> Diagram:
    """Delete cut-vertex crossing ``c``, rejoining each strand through it
    directly.  Geometrically this rotates one side half a turn, so the
    link type survives; V drops by one."""
    return _nugatory_move(d, face_set(d), c)[0]


def _nugatory_move(d: Diagram, fs: FaceSet, c: int) -> tuple[Diagram, FaceSet]:
    """``remove_nugatory_crossing`` on ``d``, whose face table is ``fs``;
    returns the result and its table."""
    if c not in d.crossings:
        raise UnknownCrossing(f"no crossing {c}")
    if not _is_cut_vertex(fs, c):
        raise NotNugatory(f"crossing {c} is not a cut vertex")
    b = MapBuilder(d)
    b.weld((c, 0), (c, 2))
    b.weld((c, 1), (c, 3))
    b.remove_crossing(c)
    out = b.build()
    failures, out_fs = check_edit(b, fs, out)
    if failures:
        raise InvariantError(f"nugatory removal broke the map: {failures}")
    return out, out_fs


def remove_r2_bigon(d: Diagram, f: int) -> Diagram:
    """Remove the bigon face ``f`` when its two edges are non-alternating
    (one ++, one --): delete both crossings and rejoin the four outer
    strand ends in parallel.  Clasps (alternating edges) are refused."""
    return _r2_move(d, face_set(d), f)[0]


def _r2_move(d: Diagram, fs: FaceSet, f: int) -> tuple[Diagram, FaceSet]:
    """``remove_r2_bigon`` on ``d``, whose face table is ``fs``; returns
    the result and its table."""
    if not 0 <= f < len(fs.faces):
        raise UnknownFace(f"no face {f}")
    face = fs.faces[f]
    if not face.is_bigon:
        raise NotR2Bigon(f"face {f} is not a bigon")
    e1, e2 = face.boundary_edges
    l1, l2 = d.edge_labels(e1), d.edge_labels(e2)
    if l1[0] != l1[1] or l2[0] != l2[1] or l1[0] == l2[0]:
        raise NotR2Bigon(f"bigon {f} is a clasp; its edges alternate")

    x, y = sorted(face.crossings())
    b = MapBuilder(d)
    # weld each strand across the pair: for the strand carrying ``inner``,
    # the outer stubs sit opposite it at x and at y; each inner edge runs
    # from one corner's crossing to the other's, so it sits once at each
    for inner in (e1, e2):
        sx = d.crossings[x].slots.index(inner)
        sy = d.crossings[y].slots.index(inner)
        b.remove_edge(inner)
        b.weld((x, (sx + 2) % 4), (y, (sy + 2) % 4))
    b.remove_crossing(x)
    b.remove_crossing(y)
    out = b.build()
    failures, out_fs = check_edit(b, fs, out)
    if failures:
        raise InvariantError(f"R2 removal broke the map: {failures}")
    return out, out_fs


def _chains_meeting(fs: FaceSet, starts: list[int]) -> int:
    """Number of chains of the map whose table is ``fs`` that hold one of
    the crossings ``starts``, where a chain is a class of crossings
    joined through bigons (a twist region of ``analysis.twist_partition``).

    One walk leaves each start, and the walks take one crossing each in
    turn.  Walks that meet join one group, and a group whose walks have
    all ended has covered its chain.  The walks stop as soon as at most
    one group is still going, since that group lies in one more chain.
    A move that shortens a long chain therefore costs a few steps, and
    one that splits a chain costs about the walk of the smaller part;
    walking every chain met in full makes ``preprocess`` on the
    benchmark's raw closures about a tenth slower."""
    corner_face, faces = fs.corner_face, fs.faces
    group = list(range(len(starts)))  # walk -> its group's label
    owner = {c: i for i, c in enumerate(starts)}
    stacks = [[c] for c in starts]
    while len({group[i] for i, stack in enumerate(stacks) if stack}) > 1:
        for i, stack in enumerate(stacks):
            if not stack:
                continue
            x = stack.pop()
            for s in range(4):
                f = faces[corner_face[(x, s)]]
                if f.is_bigon:
                    (c0, _s0), (c1, _s1) = f.corner_slots
                    y = c1 if c0 == x else c0
                    j = owner.get(y)
                    if j is None:
                        owner[y] = i
                        stack.append(y)
                    elif group[j] != group[i]:
                        merged = group[j]
                        group = [group[i] if g == merged else g for g in group]
    return len(set(group))


class _Moves:
    """The moves open on the diagram ``preprocess`` has reached, and its
    twist count, kept up to date move by move.

    ``cuts`` holds the cut vertices (the nugatory crossings) and
    ``bigons`` the first corners of the R2 bigons; a face's first corner
    is its least, so the least key names the least face id.  ``t`` is
    the twist count: the number of chains, the classes of crossings
    joined through bigons.

    ``advance`` reads only the move's delta.  A crossing's cut test reads
    its four corner faces, so only crossings on fresh faces can change
    verdict.  A bigon enters or leaves only as a fresh or dropped face.
    And a chain changes only when it loses a crossing or meets a dropped
    or fresh bigon; the chains that do are counted before and after the
    move (``_chains_meeting``), and the others stay as they are."""

    def __init__(self, d: Diagram):
        self.fs = fs = face_set(d)
        tp = twist_partition(d)
        self.t = tp.t
        self.cuts = set(cut_vertices(d))
        self.bigons = {
            fs.faces[f].corner_slots[0] for f in tp.bigon_faces if _is_r2_bigon(d, fs.faces[f])
        }

    def advance(self, cur: Diagram, fs: FaceSet) -> None:
        """Move on to ``cur``, made by one move from the diagram of
        ``self.fs``, with ``fs`` the face table ``check_edit`` returned
        for it (carrying the move's delta).  The move removes crossings and adds
        none."""
        old = self.fs
        dropped = [old.faces[old.corner_face[k]] for k in fs.delta[0]]
        fresh = [fs.faces[fs.corner_face[k]] for k in fs.delta[1]]
        gone = {c for f in dropped for c, _s in f.corner_slots if c not in cur.crossings}

        self.cuts -= gone
        for c in {c for f in fresh for c, _s in f.corner_slots}:
            if _is_cut_vertex(fs, c):
                self.cuts.add(c)
            else:
                self.cuts.discard(c)

        for f in dropped:
            self.bigons.discard(f.corner_slots[0])
        for f in fresh:
            if _is_r2_bigon(cur, f):
                self.bigons.add(f.corner_slots[0])

        ends = {c for f in dropped + fresh if f.is_bigon for c, _s in f.corner_slots}
        self.t += _chains_meeting(fs, sorted(ends - gone)) - _chains_meeting(old, sorted(ends | gone))
        self.fs = fs


def preprocess(d: Diagram) -> tuple[Diagram, ReductionTrace]:
    """Apply nugatory and R2 removals (lowest id first, nugatory first)
    until neither applies.  The fixpoint is reduced and R2-reduced; every
    edge of the result is re-stamped as its own origin.

    The input is validated as a whole map once (PreconditionError with
    ``failed_flag="valid"`` when it is not a valid diagram), and its cut
    vertices, R2 bigons and twist partition are read once.  Each move is
    then checked locally (``edits.check_edit``), which also gives the
    result's face table; the next move and the twist count after it are
    updated from the faces that table says the move dropped and walked
    afresh (``_Moves``).  ReductionInvariantError when a move raises the
    twist count."""
    rep = validate_diagram(d)
    if not rep.valid:
        raise PreconditionError(f"invalid diagram: {rep.failures}", failed_flag="valid")
    moves = _Moves(d)
    trace = ReductionTrace(crossings_before=len(d.crossings), t_before=moves.t)
    cur = d
    while True:
        fs = moves.fs
        if moves.cuts:
            c = min(moves.cuts)
            cur, fs = _nugatory_move(cur, fs, c)
            kind, removed = "nugatory", (c,)
        elif moves.bigons:
            face = fs.faces[fs.corner_face[min(moves.bigons)]]
            removed = tuple(sorted(face.crossings()))
            cur, fs = _r2_move(cur, fs, face.id)
            kind = "r2"
        else:
            break
        t_prev = moves.t
        moves.advance(cur, fs)
        trace.steps.append(ReductionStep(kind, removed, len(cur.crossings), moves.t))
        if moves.t > t_prev:
            raise ReductionInvariantError(
                f"{kind} removal raised the twist count {t_prev} -> {moves.t}"
            )
    trace.crossings_after = len(cur.crossings)
    trace.t_after = moves.t
    cur = restamp_origins(cur)
    return cur, trace
