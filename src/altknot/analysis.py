"""Diagram predicates and statistics.

Everything the rest of the package reasons with lives here: which edges
alternate, the checkerboard shading and the two crossing classes it
induces, bigons and twist regions with their topology, reducedness /
R2-reducedness / primality flags, detection of the standard two-strand
torus diagram, and the partition-refinement check comparing a diagram's
twist regions with those of an augmentation containing it.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .diagram import (
    Diagram,
    FaceSet,
    _exit_slot,
    _is_bigon,
    _Partition,
    face_set,
    is_connected,
    piece_count,
    validate_diagram,
)
from .errors import (
    InvariantError,
    MappingError,
    NotConnected,
    SigmaMismatch,
    UnknownComponent,
)


# -- edge classification --------------------------------------------------------

@dataclass(frozen=True)
class EdgeClassification:
    alternating: frozenset[int]
    non_alternating: frozenset[int]
    is_alternating: bool
    is_non_alternating: bool


def classify_edges(d: Diagram) -> EdgeClassification:
    """Split edges by whether their two end labels differ.

    A diagram is alternating when every edge is (a bare loop counts as
    alternating); it is non-alternating when at least one edge is not.
    Computed once per face table and kept on ``face_set(d)``
    (``FaceSet.classification``).
    """
    fs = face_set(d)
    if fs.classification is not None:
        return fs.classification
    alt, non = set(), set()
    crossings = d.crossings
    for e, rec in d.edges.items():
        # the end labels differ when exactly one end is in an over slot
        (c0, s0), (c1, s1) = rec.ends
        if (s0 in crossings[c0].over_slots) != (s1 in crossings[c1].over_slots):
            alt.add(e)
        else:
            non.add(e)
    has_strands = bool(d.crossings) or bool(d.loops)
    fs.classification = EdgeClassification(
        alternating=frozenset(alt),
        non_alternating=frozenset(non),
        is_alternating=not non and has_strands,
        is_non_alternating=bool(non),
    )
    return fs.classification


# -- checkerboard shading and crossing classes ------------------------------------

@dataclass(frozen=True)
class ShadingClasses:
    """Proper 2-coloring of the faces plus the two induced crossing
    classes: a crossing is in ``plus_class`` when rotating its over
    strand a quarter turn counterclockwise sweeps shaded quadrants."""

    shading: dict[int, bool]  # face id -> shaded
    plus_class: frozenset[int]
    minus_class: frozenset[int]


def shading_classes(d: Diagram) -> ShadingClasses:
    """Checkerboard-color the faces and classify the crossings.

    Seeded by leaving the face on the left of the lowest-id edge
    unshaded.  Cross-checked: the edges joining the two classes must be
    exactly the non-alternating edges (SigmaMismatch otherwise, which
    would mean a core bug).
    """
    if not d.crossings:
        raise NotConnected("shading classes need at least one crossing")
    if not is_connected(d):
        raise NotConnected("diagram is not connected")
    fs = face_set(d)

    lowest = min(d.edges)
    seed = fs.edge_sides(d, lowest)[0]
    shading = {seed: False}
    stack = [seed]
    adj: dict[int, list[int]] = {}
    dart_face = fs.dart_face
    for rec in d.edges.values():
        (c0, s0), (c1, s1) = rec.ends
        l, r = dart_face[4 * c0 + s0], dart_face[4 * c1 + s1]
        adj.setdefault(l, []).append(r)
        adj.setdefault(r, []).append(l)
    while stack:
        f = stack.pop()
        for g in adj[f]:
            if g not in shading:
                shading[g] = not shading[f]
                stack.append(g)
            elif shading[g] == shading[f]:
                raise SigmaMismatch("face adjacency is not 2-colorable")

    plus, minus = set(), set()
    for cid, c in d.crossings.items():
        quadrant_face = dart_face[4 * cid + c.over_slots[0]]
        (plus if shading[quadrant_face] else minus).add(cid)

    out = ShadingClasses(shading, frozenset(plus), frozenset(minus))
    cross = {
        e for e, rec in d.edges.items()
        if (rec.ends[0][0] in plus) != (rec.ends[1][0] in plus)
    }
    if cross != set(classify_edges(d).non_alternating):
        raise SigmaMismatch(
            "cross-class edges differ from the non-alternating edges"
        )
    return out


# -- twist regions ----------------------------------------------------------------

class RegionTopology(Enum):
    DISK = "disk"
    ANNULUS = "annulus"
    SPHERE = "sphere"


@dataclass(frozen=True, slots=True, init=False)
class TwistRegion:
    """Maximal chain of bigons (or a lone crossing).  ``links`` records
    the retract graph on the bigons: one entry per crossing shared by
    exactly two of them.  Slotted and written through its slot
    descriptors, as ``diagram.Crossing`` is."""

    crossings: frozenset[int]
    bigons: tuple[int, ...]
    links: tuple[tuple[int, int, int], ...]  # (bigon face, bigon face, crossing)
    topology: RegionTopology

    def __init__(
        self,
        crossings: frozenset[int],
        bigons: tuple[int, ...],
        links: tuple[tuple[int, int, int], ...],
        topology: RegionTopology,
    ) -> None:
        _set_region_crossings(self, crossings)
        _set_region_bigons(self, bigons)
        _set_region_links(self, links)
        _set_region_topology(self, topology)


_set_region_crossings = TwistRegion.crossings.__set__
_set_region_bigons = TwistRegion.bigons.__set__
_set_region_links = TwistRegion.links.__set__
_set_region_topology = TwistRegion.topology.__set__


@dataclass(frozen=True)
class TwistPartition:
    bigon_faces: frozenset[int]
    regions: tuple[TwistRegion, ...]
    t: int


def _topology(chi: int) -> RegionTopology:
    """The topology of a union of bigon faces of Euler characteristic
    ``chi``; InvariantError for any other than a disk's, an annulus's or
    a sphere's."""
    if chi == 1:
        return RegionTopology.DISK
    if chi == 0:
        return RegionTopology.ANNULUS
    if chi == 2:
        return RegionTopology.SPHERE
    raise InvariantError(f"twist region with Euler characteristic {chi}")


def twist_partition(d: Diagram) -> TwistPartition:
    """Bigon faces, the regions they chain into, and the twist count t.

    Every crossing lies in exactly one region: crossings incident to no
    bigon form singleton regions.  One pass over the faces files each
    bigon under its two crossings and into their chain, the smaller of
    two chains it joins passing into the larger, and adds its crossings
    and edges (``diagram._exit_slot``), so a chain's Euler
    characteristic V - E + F needs no second walk.  Computed once per
    face table and kept on it (``FaceSet.partition``), so copies that
    share the table, such as ``mark_augmenting``'s, share it too.
    """
    fs = face_set(d)
    if fs.partition is not None:
        return fs.partition
    crossings = d.crossings
    at: dict[int, list[int]] = {}  # crossing -> the bigons with a corner there
    # crossing -> its chain: crossings, bigons, edges and links (crossings and edges repeat)
    chain: dict[int, list[list]] = {}
    for f, ds in fs.darts.items():
        # ``_is_bigon`` written out: on the 8,080 faces of the 64 augment-large
        # seed-1 G's the call took 1.7 ms, this 0.9 ms (2-CPU VM, Python 3.11.7)
        if len(ds) != 2:
            continue
        x0, x1 = ds
        c0, c1 = x0 >> 2, x1 >> 2
        if c0 == c1:
            continue
        at.setdefault(c0, []).append(f)
        at.setdefault(c1, []).append(f)
        a, b = chain.get(c0), chain.get(c1)
        if a is None:
            a = b or [[], [], [], []]
        elif b is not None and b is not a:
            if len(a[0]) < len(b[0]):
                a, b = b, a
            for c in b[0]:
                chain[c] = a
            for mine, theirs in zip(a, b):
                mine += theirs
        cs, fl, es, _links = a
        cs += c0, c1
        fl.append(f)
        es += crossings[c0].slots[_exit_slot(x0)], crossings[c1].slots[_exit_slot(x1)]
        chain[c0] = chain[c1] = a
    for c in sorted(at):
        fl = at[c]
        if len(fl) == 2:
            chain[c][3].append((min(fl), max(fl), c))
    regions = []
    for c in sorted(crossings):
        ch = chain.get(c)
        if ch is None:
            regions.append(TwistRegion(frozenset((c,)), (), (), RegionTopology.DISK))
        elif ch[1]:
            # a chain's region goes at its least crossing, once
            cs, fl, es, links = ch
            cs = frozenset(cs)
            regions.append(TwistRegion(cs, tuple(sorted(fl)), tuple(links), _topology(len(cs) - len(set(es)) + len(fl))))
            ch[1] = ()
    bigons = frozenset(f for r in regions for f in r.bigons)
    fs.partition = TwistPartition(bigons, tuple(regions), len(regions))
    return fs.partition


# -- flags: connected / reduced / R2-reduced / prime -------------------------------

@dataclass(frozen=True)
class PrimalityWitness:
    kind: str  # prime | cut_pair | cut_vertex | disconnected | trivial
    edges: tuple[int, int] | None = None
    sides: tuple[int, int] | None = None
    crossing: int | None = None

    def to_json(self) -> dict:
        return {
            "kind": self.kind,
            "edges": list(self.edges) if self.edges else None,
            "sides": list(self.sides) if self.sides else None,
            "crossing": self.crossing,
        }


@dataclass(frozen=True)
class DiagramFlags:
    connected: bool
    reduced: bool
    r2_reduced: bool
    prime: bool
    witness: PrimalityWitness


def cut_vertices(d: Diagram) -> list[int]:
    """Crossings whose removal disconnects the diagram as a subset of the
    sphere, in increasing order.  The four strand stubs at the crossing
    count as separate points, so a kink crossing is a cut vertex even
    though the abstract multigraph would not notice.

    Face test: in a spherical map a crossing is a cut vertex exactly
    when one face meets it at two of its four corners.  That assumes the
    rotation system is spherical, which ``parse_pd`` and every
    constructor in the package guarantee.  On disconnected input each
    piece has its own faces, so the test is evaluated per piece: a
    crossing is a cut vertex when it cuts its own piece.
    """
    dart_face = face_set(d).dart_face
    return [c for c in sorted(d.crossings) if _is_cut_vertex(dart_face, c)]


def _is_cut_vertex(dart_face: list[int], c: int) -> bool:
    """The face test of ``cut_vertices`` for the one crossing ``c``, with
    ``dart_face`` mapping each dart of the map to its face: one face
    meets it at two corners."""
    return len(set(dart_face[4 * c:4 * c + 4])) < 4


def _is_r2_bigon(d: Diagram, darts) -> bool:
    """The face of the darts ``darts`` is a bigon whose edges are
    non-alternating: an R2 move removes it."""
    return _is_bigon(darts) and _is_r2_corners(d, darts)


def _is_r2_corners(d: Diagram, darts) -> bool:
    """The R2 test of the bigon whose two corners are the darts
    ``darts``, in either order.  The edge leaving the first corner, by
    its slot s + 1, arrives at the second in its slot; and the two edges
    leave each corner in adjacent slots, so the first edge alternates
    exactly when the second does."""
    x0, x1 = darts
    crossings = d.crossings
    return (_exit_slot(x0) in crossings[x0 >> 2].over_slots) == ((x1 & 3) in crossings[x1 >> 2].over_slots)


def _two_edge_cut(d: Diagram, fs: FaceSet) -> tuple[int, int] | None:
    """Lowest pair of distinct edges bounding the same pair of faces.
    In a bridgeless planar map these are exactly the two-edge cuts.
    Each edge is keyed by its two faces, the lesser first."""
    dart_face, edges = fs.dart_face, d.edges
    seen: dict[tuple[int, int], int] = {}
    for e in sorted(edges):
        (c0, s0), (c1, s1) = edges[e].ends
        left, right = dart_face[4 * c0 + s0], dart_face[4 * c1 + s1]
        if left == right:
            raise InvariantError(f"edge {e} borders one face on both sides")
        key = (left, right) if left < right else (right, left)
        if key in seen:
            return (seen[key], e)
        seen[key] = e
    return None


def _cut_sides(d: Diagram, pair: tuple[int, int]) -> tuple[int, int]:
    """Crossing counts of the two pieces left after removing the pair,
    the side holding the least crossing first."""
    parts = _Partition()
    for e, rec in d.edges.items():
        if e not in pair:
            (c0, _s0), (c1, _s1) = rec.ends
            parts.union(c0, c1)
    sides: dict[int, int] = {}
    for c in sorted(d.crossings):
        root = parts.find(c)
        sides[root] = sides.get(root, 0) + 1
    if len(sides) != 2:
        raise InvariantError(f"edge pair {pair} does not split into two sides")
    first, second = sides.values()
    return (first, second)


def diagram_flags(d: Diagram) -> DiagramFlags:
    """Connectivity, reducedness, R2-reducedness and diagram primality.

    Primality uses the dual reading of the separating-curve definition:
    a simple closed curve meeting the diagram in two edge points exists
    exactly when two edges border the same pair of faces.
    """
    fs = face_set(d)
    connected = piece_count(d) == 1
    cuts = cut_vertices(d)
    reduced = not cuts

    r2_reduced = not any(_is_r2_bigon(d, ds) for ds in fs.darts.values())

    if not connected:
        witness = PrimalityWitness("disconnected")
        prime = False
    elif not d.crossings:
        # a crossing-free diagram presents an unknot, which is not prime
        witness = PrimalityWitness("trivial")
        prime = False
    else:
        pair = _two_edge_cut(d, fs)
        if pair is None:
            witness = PrimalityWitness("prime")
            prime = True
        else:
            prime = False
            if cuts:
                witness = PrimalityWitness("cut_vertex", crossing=cuts[0])
            else:
                witness = PrimalityWitness("cut_pair", edges=pair, sides=_cut_sides(d, pair))
    return DiagramFlags(connected, reduced, r2_reduced, prime, witness)


# -- standard two-strand torus diagram ----------------------------------------------

def detect_two_strand_torus(d: Diagram) -> int | None:
    """Return q when the map is the standard diagram of two parallel
    strands with q >= 2 crossings (q crossings in a single cyclic chain
    of q bigons), else None.  Purely combinatorial: labels play no role.
    """
    if d.loops or not d.crossings or not is_connected(d):
        return None
    q = len(d.crossings)
    if q < 2:
        return None
    tp = twist_partition(d)
    if tp.t != 1:
        return None
    region = tp.regions[0]
    if region.topology is RegionTopology.SPHERE:
        return 2
    if region.topology is not RegionTopology.ANNULUS:
        return None
    if len(region.bigons) != q:
        return None
    fs = face_set(d)
    covered = {e for fid in region.bigons for e in fs.edges(d, fid)}
    if covered != set(d.edges):
        return None
    return q


# -- refinement of twist partitions ---------------------------------------------------

@dataclass(frozen=True)
class RefinementReport:
    P: tuple[frozenset[int], ...]
    P_prime: tuple[frozenset[int], ...]
    refines: bool
    sizes: tuple[int, int, int]  # |P|, |P'|, t of the ambient diagram
    failures: tuple[str, ...] = ()


def _is_sub_twist(x: frozenset[int], region: TwistRegion, fs: FaceSet) -> bool:
    """x qualifies as a sub twist region of ``region``: one crossing, or
    the corner set of a connected subcollection of the region's bigons."""
    if len(x) == 1:
        return True
    darts = fs.darts
    inside = [fid for fid in region.bigons if all((y >> 2) in x for y in darts[fid])]
    if not inside:
        return False
    covered = frozenset(y >> 2 for f in inside for y in darts[f])
    if covered != x:
        return False
    # connectivity of the chosen bigons inside the retract
    chosen = set(inside)
    links = _Partition()
    for a, b, _c in region.links:
        if a in chosen and b in chosen:
            links.union(a, b)
    return len({links.find(f) for f in inside}) == 1


def _verify_refinement(
    p: list[frozenset[int]],
    p_prime: list[frozenset[int]],
    d_partition: TwistPartition,
    d_faces: FaceSet,
    t_ambient: int,
) -> RefinementReport:
    """``p`` is the crossing sets of ``d_partition``'s regions, so a part
    fits inside one of them exactly when it fits inside the region of
    its least crossing."""
    failures = []
    flat: list[int] = []
    for x in p_prime:
        flat.extend(x)
    if len(flat) != len(set(flat)):
        failures.append("distinct parts intersect")
    all_d = frozenset().union(*p) if p else frozenset()
    if frozenset(flat) != all_d:
        failures.append("parts do not cover every crossing")
    region_at = {c: r for r in d_partition.regions for c in r.crossings}
    for x in p_prime:
        region = region_at.get(min(x))
        if region is None or not x <= region.crossings:
            failures.append(f"part {sorted(x)} fits inside no twist region")
            continue
        if not _is_sub_twist(x, region, d_faces):
            failures.append(f"part {sorted(x)} is not a sub twist region")
    refines = not failures
    if refines and not (len(p) <= len(p_prime) <= t_ambient):
        failures.append("size chain |P| <= |P'| <= t violated")
        refines = False
    return RefinementReport(
        tuple(p), tuple(p_prime), refines,
        (len(p), len(p_prime), t_ambient), tuple(failures),
    )


def reconstruct_input(g: Diagram, aug: int, expected_d: Diagram) -> dict[int, int]:
    """Check that dropping component ``aug`` from ``g``, fusing each
    input edge back from the pieces it was cut into, gives back
    ``expected_d`` verbatim: the same crossings (ids, slots, over
    strands), loop ids and edge ids.  The test is read off ``g``; no map
    is built:

    - each input crossing is in ``g`` with the same over strand, and the
      edge in each of its slots is off ``aug``;
    - every other crossing carries ``aug`` on exactly one strand;
    - each input edge, walked from its first end straight through such
      crossings, stays off ``aug`` and arrives at its second end;
    - those walks and ``aug``'s edges (one per crossing it is on) are all
      of ``g``'s edges, and the loops of ``g`` off ``aug`` are the
      input's.

    The last two give each edge of ``g`` off ``aug`` to exactly one input
    edge, with no record naming it: a walk is one strand, so two walks
    that shared an edge would arrive at the same end, or one would
    arrive at the other's start.  So ``g`` is checked from its own map,
    whatever ids its edges carry, as parsed from its PD text too.

    MappingError otherwise.  When nothing in ``g`` beyond the input's
    crossings is on ``aug``, UnknownComponent rather than a vacuous
    pass.

    Returns ``{input edge: times aug crosses it}`` for the edges ``aug``
    crosses: the number of non-input crossings the walk of that edge
    passes.  On a valid map the walks are disjoint strands that cover
    every edge off ``aug`` and pass every non-input crossing once, so
    the counts sum to the number of crossings of ``aug`` with the rest;
    ``aug`` crosses itself nowhere and crosses only input edges."""
    def fail(why: str) -> MappingError:
        return MappingError(f"reconstructed diagram is not the input verbatim: {why}")

    crossings, edges = g.crossings, g.edges
    d_crossings = expected_d.crossings
    for cid, x in d_crossings.items():
        y = crossings.get(cid)
        if y is None or y.over_slots != x.over_slots:
            raise fail(f"crossing {cid} differs")
        for e, o in zip(y.slots, x.slots):
            if edges[e].component == aug:
                raise fail(f"crossing {cid} has edge {e} in the slot of edge {o}")
    n_aug = 0
    for cid, y in crossings.items():
        if cid not in d_crossings:
            on = [edges[e].component == aug for e in y.slots]
            if not (on[0] == on[2] != on[1] == on[3]):
                raise fail(f"crossing {cid} does not carry component {aug} on exactly one strand")
            n_aug += 1
    aug_loops = {k for k, comp in g.loops.items() if comp == aug}
    if not n_aug and not aug_loops:
        raise UnknownComponent(f"no component {aug}")
    crossed: dict[int, int] = {}
    walked = 0
    for e, rec in expected_d.edges.items():
        c, s = rec.ends[0]
        passed = 0
        while True:
            sub = edges[crossings[c].slots[s]]
            walked += 1
            # the bound stops a walk that never reaches an input crossing
            if sub.component == aug or walked > len(edges):
                raise fail(f"edge {e} is not one strand of its sub-edges")
            c, s = sub.other_end((c, s))
            if c in d_crossings:
                break
            s = (s + 2) % 4
            passed += 1
        if (c, s) != tuple(rec.ends[1]):
            raise fail(f"edge {e} ends at {(c, s)}")
        if passed:
            crossed[e] = passed
    if walked + n_aug != len(edges):
        raise fail(f"{len(edges) - n_aug - walked} edges come from no input edge")
    if set(g.loops) - aug_loops != set(expected_d.loops):
        raise fail("the loops differ")
    return crossed


def refinement_report(
    d: Diagram, d_fs: FaceSet, d_tp: TwistPartition, g: Diagram, g_tp: TwistPartition,
) -> RefinementReport:
    """The refinement report of ``d`` inside ``g`` from tables the caller
    holds: ``d``'s face table and twist partition, ``g``'s twist
    partition.  No map is walked."""
    p = [r.crossings for r in d_tp.regions]
    d_crossings = set(d.crossings)
    if not d_crossings <= set(g.crossings):
        raise MappingError("reconstructed crossings are not a subset of the ambient ones")
    p_prime = []
    for r in g_tp.regions:
        x = frozenset(r.crossings & d_crossings)
        if x:
            p_prime.append(x)
    return _verify_refinement(p, p_prime, d_tp, d_fs, g_tp.t)


# -- aggregate report ------------------------------------------------------------------

def analysis_report(d: Diagram) -> dict:
    """JSON-ready summary used by the CLI ``analyze`` command.  A twist
    region's bigons are printed by rank (``FaceSet.rank``)."""
    cls = classify_edges(d)
    flags = diagram_flags(d)
    tp = twist_partition(d)
    rep = validate_diagram(d)
    rank = {f: i for i, f in enumerate(sorted(face_set(d).darts))}
    return {
        "valid": rep.valid,
        "v": rep.v,
        "e": rep.e,
        "f": rep.f,
        "components": rep.components,
        "alternating": cls.is_alternating,
        "non_alternating_edges": sorted(cls.non_alternating),
        "connected": flags.connected,
        "reduced": flags.reduced,
        "r2_reduced": flags.r2_reduced,
        "prime": flags.prime,
        "primality_witness": flags.witness.to_json(),
        "t": tp.t,
        "twist_regions": [
            {
                "crossings": sorted(r.crossings),
                "bigons": [rank[f] for f in r.bigons],
                "topology": r.topology.value,
            }
            for r in tp.regions
        ],
        "torus_2q": detect_two_strand_torus(d),
    }
