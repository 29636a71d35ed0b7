"""Local checks of surgery steps.

A surgery step (a band splice, a finger push, an R2 or nugatory removal)
edits a valid diagram through a ``MapBuilder``.  ``check_edit`` decides
whether the result is still valid -- and, where asked, alternating -- by
inspecting only what the builder touched, instead of walking the whole
map as ``validate_diagram`` does.  The face table of the result is
derived from the source's by a local update that re-walks only the
faces the edit changed; ``check_edit`` returns it and leaves it in the
``face_set`` memo for the next step.  Whole-map validation stays where
a diagram enters or leaves the pipeline.
"""

from __future__ import annotations

from .diagram import Diagram, End, FaceSet, MapBuilder, _edited_face_set, _grow_piece
from .errors import InvariantError


def check_edit(
    b: MapBuilder, source_fs: FaceSet, out: Diagram, alternating: bool = False
) -> tuple[list[str], FaceSet | None]:
    """(failures, face table) of the local edit ``out = b.build()``,
    inspecting only the crossings and edges ``b`` touched.

    ``b.source`` must be valid and ``source_fs`` its face table.  Then the
    list is empty exactly when ``validate_diagram(out)`` finds ``out``
    valid and, with ``alternating`` (which needs an alternating source),
    when ``out`` is alternating as well.  Checked: valence, labels and
    incidence of the touched crossings and edges; strand components at
    every crossing a touched edge meets; alternation of the touched
    edges; and sphericity as dV - dE + dF = 2 dP, where F comes from
    ``out``'s face table and dP, the change in the number of pieces,
    from the source's faces.  That table is updated from ``source_fs``
    by re-walking only the faces at crossings whose slots changed
    (``diagram._edited_face_set``, equal to the full walk of ``out``),
    returned, and left in the memo for the next step.  The table is
    None when the incidence checks fail or a walk runs into a kept
    face, which is a sphericity failure.
    """
    d = b.source
    failures: list[str] = []
    broken: list[str] = []  # incidence and valence: no face walk without them
    live_c = sorted(c for c in b.touched_crossings if c in out.crossings)
    live_e = sorted(e for e in b.touched_edges if e in out.edges)
    # the uses of an id change only at touched crossings
    affected = set(b.touched_edges)
    for c in b.touched_crossings:
        if c in d.crossings:
            affected.update(d.crossings[c].slots)
    new_uses: dict[int, list[End]] = {}
    for c in live_c:
        x = out.crossings[c]
        if tuple(sorted(x.over_slots)) not in ((0, 2), (1, 3)):
            word = "".join(str(x.label(s)) for s in range(4))
            failures.append(f"labels: crossing {c} reads ({word}) around, not (+-+-)")
        if len(x.slots) != 4:
            broken.append(f"valence: crossing {c} has {len(x.slots)} slots")
            continue
        for s, e in enumerate(x.slots):
            affected.add(e)
            new_uses.setdefault(e, []).append((c, s))
    for e in sorted(affected):
        old = d.edges[e].ends if e in d.edges else ()
        uses = [end for end in old if end[0] not in b.touched_crossings] + new_uses.get(e, [])
        rec = out.edges.get(e)
        if uses and rec is None:
            broken.append(f"incidence: slots {uses} name missing edge {e}")
        if uses and len(uses) != 2:
            broken.append(f"incidence: edge {e} used {len(uses)} times")
        if rec is not None and sorted(rec.ends) != sorted(uses):
            broken.append(f"incidence: edge {e} ends {rec.ends} do not match slots")
    new_loops = [k for k in out.loops if k not in d.loops]
    for e in sorted({e for e in live_e if e in out.loops} | {k for k in new_loops if k in out.edges}):
        broken.append(f"incidence: id {e} is both edge and loop")
    if broken:
        return failures + broken, None

    fs = None
    try:
        fs = _edited_face_set(b, source_fs, out)
    except InvariantError as exc:
        failures.append(f"sphericity: {exc}")
    else:
        dv = len(out.crossings) - len(d.crossings)
        de = len(out.edges) - len(d.edges)
        df = (len(fs.faces) - 2 * len(out.loops)) - (len(source_fs.faces) - 2 * len(d.loops))
        dp = _piece_change(b, source_fs, out)
        if dv - de + df != 2 * dp:
            failures.append(f"sphericity: V-E+F moved by {dv - de + df} for {dp} new pieces")
    met = set(live_c)
    for e in live_e:
        met.update(c for c, _s in out.edges[e].ends)
    for c in sorted(met):
        slots = out.crossings[c].slots
        for s in (0, 1):
            ids = {out.edges[slots[s]].component, out.edges[slots[s + 2]].component}
            if len(ids) != 1:
                failures.append(f"components: strand through crossing {c} carries mixed ids {sorted(ids)}")
    if alternating:
        if not out.crossings and not out.loops:
            failures.append("alternation: no strands")
        near = set(live_e)
        for c in live_c:
            near.update(out.crossings[c].slots)
        for e in sorted(near):
            a, z = out.edge_labels(e)
            if a == z:
                failures.append(f"alternation: edge {e} reads ({a}{z})")
    return failures, fs


class _Partition:
    """Union-find over hashable keys, created on first sight."""

    def __init__(self) -> None:
        self.parent: dict = {}

    def find(self, x):
        parent = self.parent
        parent.setdefault(x, x)
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(self, a, b) -> bool:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        self.parent[ra] = rb
        return True


def _piece_change(b: MapBuilder, source_fs: FaceSet, out: Diagram) -> int:
    """Number of pieces of ``out`` minus that of ``b.source``, for a
    structurally sound ``out``.

    Cutting an edge set S from a plane map leaves |S| - r more pieces,
    where r is the rank of S in the dual graph (faces joined across S).
    When the cut crossings all lie in one piece (they are grouped through
    S and the faces it borders) and that piece's survivors stay together
    or vanish, the new crossings and edges are merged onto them with a
    union-find.  Otherwise both sides are walked from the crossings the
    cut meets.
    """
    d = b.source
    cut = [e for e in sorted(b.touched_edges) if e in d.edges]
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
        for e in b.touched_edges:
            if e in out.edges:
                (c0, _s0), (c1, _s1) = out.edges[e].ends
                merge.union(c0 if c0 in new_set else "rest", c1 if c1 in new_set else "rest")
        return len({merge.find(x) for x in roots}) - groups
    survivors = [c for c in sorted(met) if c in out.crossings]
    return _pieces_through(out, survivors + new) - _pieces_through(d, sorted(met))


def _pieces_through(d: Diagram, starts) -> int:
    """Number of distinct pieces of ``d`` holding the crossings ``starts``."""
    seen: set[int] = set()
    count = 0
    for start in starts:
        if start not in seen:
            _grow_piece(d, start, seen)
            count += 1
    return count
