"""Reduce diagrams to the form the augmentation pipeline requires.

Two moves, both link-type preserving: untwisting a nugatory crossing
(a cut vertex of the projection) and removing a bigon whose two edges
are non-alternating via a Reidemeister II move.  ``preprocess`` applies
them lowest-id-first until neither fires; the result is reduced and
R2-reduced, with crossing count strictly decreasing along the way and
the twist count never increasing.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .analysis import _is_cut_vertex, cut_vertices, twist_partition
from .diagram import (
    Diagram,
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
    if c not in d.crossings:
        raise UnknownCrossing(f"no crossing {c}")
    fs = face_set(d)
    if not _is_cut_vertex(fs, c):
        raise NotNugatory(f"crossing {c} is not a cut vertex")
    b = MapBuilder(d)
    b.weld((c, 0), (c, 2))
    b.weld((c, 1), (c, 3))
    b.remove_crossing(c)
    out = b.build()
    failures = check_edit(b, fs, out)
    if failures:
        raise InvariantError(f"nugatory removal broke the map: {failures}")
    return out


def remove_r2_bigon(d: Diagram, f: int) -> Diagram:
    """Remove the bigon face ``f`` when its two edges are non-alternating
    (one ++, one --): delete both crossings and rejoin the four outer
    strand ends in parallel.  Clasps (alternating edges) are refused."""
    fs = face_set(d)
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
    failures = check_edit(b, fs, out)
    if failures:
        raise InvariantError(f"R2 removal broke the map: {failures}")
    return out


def _r2_bigon_ids(d: Diagram) -> list[int]:
    fs = face_set(d)
    out = []
    for f in fs.faces:
        if f.is_bigon:
            a, b = d.edge_labels(f.boundary_edges[0])
            if a == b:
                out.append(f.id)
    return out


def preprocess(d: Diagram) -> tuple[Diagram, ReductionTrace]:
    """Apply nugatory and R2 removals (lowest id first, nugatory first)
    until neither applies.  The fixpoint is reduced and R2-reduced; every
    edge of the result is re-stamped as its own origin.

    The input is validated as a whole map once (PreconditionError with
    ``failed_flag="valid"`` when it is not a valid diagram); each move is
    then checked locally."""
    rep = validate_diagram(d)
    if not rep.valid:
        raise PreconditionError(f"invalid diagram: {rep.failures}", failed_flag="valid")
    trace = ReductionTrace(
        crossings_before=len(d.crossings),
        t_before=twist_partition(d).t,
    )
    t_prev = trace.t_before
    cur = d
    while True:
        cuts = cut_vertices(cur)
        if cuts:
            c = cuts[0]
            cur = remove_nugatory_crossing(cur, c)
            kind, removed = "nugatory", (c,)
        else:
            bigons = _r2_bigon_ids(cur)
            if not bigons:
                break
            f = bigons[0]
            removed_set = face_set(cur).faces[f].crossings()
            cur = remove_r2_bigon(cur, f)
            kind, removed = "r2", tuple(sorted(removed_set))
        t_now = twist_partition(cur).t
        trace.steps.append(ReductionStep(kind, removed, len(cur.crossings), t_now))
        if t_now > t_prev:
            raise ReductionInvariantError(
                f"{kind} removal raised the twist count {t_prev} -> {t_now}"
            )
        t_prev = t_now
    trace.crossings_after = len(cur.crossings)
    trace.t_after = t_prev
    cur = restamp_origins(cur)
    return cur, trace
