"""The local edit checks against the whole-map check.

``check_edit`` inspects only what one of ``augment``'s edits touched.
Given a valid alternating source, it must accept an edit exactly when
``validate_diagram`` and ``classify_edges`` accept the whole result as
valid and alternating.  ``check_move`` checks the R2 and nugatory moves
of ``preprocess``, its only caller, and must accept one exactly when
``validate_diagram`` does.  The audit below wraps ``check_edit`` at both
of ``augment``'s sites (band join and finger) and ``check_move`` at both
move kinds of ``preprocess``.  It compares the two verdicts on every
real edit, and then breaks the same edit at random and compares them
again.  A local check only decides: each edit it refuses must read
exactly as the whole map does, ``validate_diagram``'s failures and, for
``check_edit`` on a valid map, the edges that do not alternate.  Every
whole-map verdict is itself compared with ``conftest.oracle_valid``,
which checks each piece's Euler sum and each strand orbit from the
definitions.

The face table ``check_edit`` leaves in the memo is a local update of
the source's table.  Before each verdict comparison the audit checks it
against the tuple walk, ``conftest.oracle_face_table``: every face, its
id and corner order, and the face of every corner, read through the
(crossing, slot) view of the table's darts.  ``check_move`` walks
no face when the move merges faces only; there the audit checks the
face partition it was given against the full walk of the source, and
the partition after the move's merges against the full walk of the
result.
"""

from __future__ import annotations

import copy
import random
import sys
import weakref
from collections import Counter

import pytest

from altknot import (
    augment,
    classify_edges,
    flip_crossing,
    parse_pd,
    preprocess,
    validate_diagram,
)
from altknot import augmentation, diagram, edits, reduction
from altknot.diagram import (
    Edge,
    MapBuilder,
    _build_face_set,
    _edited_face_set,
    _held_face_set,
    connected_pieces,
    face_set,
)
from altknot.edits import FacePartition, check_edit, check_move, merge_plan
from altknot.errors import AlternationError, InvariantError, JoinError
from altknot.generate import braid_closure

from conftest import (
    TREFOIL,
    assert_partition_is_the_walk,
    corner_view,
    corpus_diagrams,
    link_diagrams,
    new_component_id,
    oracle_pieces,
    oracle_two_edge_cuts,
    oracle_valid,
    oracle_validate_diagram,
    reattach,
    same_table,
    shared_face,
)


def whole_map_accepts(out, alternating: bool) -> bool:
    valid = validate_diagram(out).valid
    # the whole-map check reads the table's pieces and each crossing's
    # strands; the oracle sums each piece and unions the strand orbits
    assert valid == oracle_valid(out)
    if not valid:
        return False
    return not alternating or classify_edges(out).is_alternating


def whole_map_words(out, alternating: bool) -> list[str]:
    """What a refused edit must read: the whole map's failures and, for
    ``check_edit`` on a valid map, the edges that do not alternate."""
    words = list(validate_diagram(out).failures)
    if alternating and not words:
        if not out.crossings and not out.loops:
            words.append("alternation: no strands")
        for e in sorted(classify_edges(out).non_alternating):
            c, s = out.edges[e].ends[0]
            sign = "+" if s in out.crossings[c].over_slots else "-"
            words.append(f"alternation: edge {e} reads ({sign}{sign})")
    return words


def _flip(over):
    return (0, 2) if over == (1, 3) else (1, 3)


def _crossings_of(b: MapBuilder) -> list[int]:
    """The ids of the crossings of the map ``b`` holds, sorted."""
    return sorted(b.slots.keys() | (b.source.crossings.keys() - b.touched_crossings))


def _over_at(b: MapBuilder, c: int) -> tuple[int, int]:
    """The over strand of crossing ``c`` of the map ``b`` holds."""
    return b.over[c] if c in b.over else b.source.crossings[c].over_slots


def corrupt(rng: random.Random, b: MapBuilder) -> str:
    """Break (or, by chance, not break) the edit held in ``b`` with one
    random move made through the builder, so its touched sets stay right."""
    edges = sorted(b.edges)
    if not edges:
        return "none"
    kind = rng.choice(("swap_ends", "swap_slots", "flip", "recolor", "drop", "loop_clash"))
    touched = sorted(e for e in b.touched_edges if e in b.edges) or edges
    if kind == "swap_ends" and len(edges) >= 2:
        e1 = rng.choice(touched)
        e2 = rng.choice([e for e in edges if e != e1])
        a = tuple(rng.choice(b.edges[e1].ends))
        z = tuple(rng.choice(b.edges[e2].ends))
        if a != z:
            reattach(b, e1, a, z)
            reattach(b, e2, z, a)
    elif kind == "swap_slots":
        c = rng.choice(sorted(b.slots) or _crossings_of(b))
        i, j = rng.sample(range(4), 2)
        ei, ej = b.slots_at(c)[i], b.slots_at(c)[j]
        if ei != ej:
            reattach(b, ei, (c, i), (c, j))
            reattach(b, ej, (c, j), (c, i))
    elif kind == "flip":
        c = rng.choice(_crossings_of(b))
        b.add_crossing(c, list(b.slots_at(c)), _flip(_over_at(b, c)))
    elif kind == "recolor":
        e = rng.choice(touched)
        b.set_component(e, rng.choice(sorted({r.component for r in b.edges.values()})) + rng.randint(0, 1))
    elif kind == "drop":
        b.remove_edge(rng.choice(touched))
    else:
        b.loops[rng.choice(edges)] = 0
    return kind


def past_incidence(failures) -> bool:
    """``check_edit`` got as far as the face table."""
    return not any(msg.startswith(("incidence", "valence")) for msg in failures)


class Audit:
    """Drop-in for ``check_edit`` and ``check_move`` that checks their
    verdicts, and the faces they derive, as it goes."""

    def __init__(self, seed: int, mutate: bool = True):
        self.rng = random.Random(seed)
        self.mutate = mutate
        self.real = Counter()
        self.mutants = Counter()
        self.tables = Counter()  # (site, "real" | "mutant") -> tables compared
        self.merged = Counter()  # (site, "real" | "mutant") -> merged partitions compared
        self.paths = Counter()  # (move site, "merge" | "walk") -> real moves
        self.loops_made = Counter()  # site -> edits that made a crossing-free loop
        self.worded = Counter()  # (site, "real" | "mutant") -> refusals worded

    def _check_table(self, out, failures, fs, site, kind) -> None:
        """``fs`` is the table the check left in the memo for ``out``."""
        if fs is None:
            # no table: the incidence phase failed, or the walk ran into
            # a kept face, which the full walk must then do as well
            if past_incidence(failures):
                with pytest.raises(InvariantError):
                    _build_face_set(out)
            return
        assert same_table(fs, out), (site, kind)
        self.tables[(site, kind)] += 1

    def _check_move_faces(self, b, faces, out, gone, failures, plan, site, kind) -> None:
        if plan is None:
            # the walk path: validate_diagram left the table it walked
            self._check_table(out, failures, _held_face_set(out), site, kind)
            return
        try:
            _build_face_set(out)
        except InvariantError:
            # the walk path ran into a kept face, as the full walk does
            assert failures, (site, kind)
            return
        # the merge path: the source's partition, trimmed of the removed
        # corners and merged as planned, is the result's full walk
        after = copy.deepcopy(faces)
        for c in gone:
            after.remove(c)
        after.merge(plan)
        assert_partition_is_the_walk(after, out)
        self.merged[(site, kind)] += 1

    def _check_words(self, out, failures, alternating, site, kind) -> None:
        """A refused edit reads as the whole map does."""
        if failures:
            assert failures == whole_map_words(out, alternating), (site, kind)
            self.worded[(site, kind)] += 1

    def _audit(self, site, b, out, alternating, check, check_faces):
        """Run ``check(b, out)``, which returns (failures, what
        ``check_faces`` reads), on the real edit and on a mutant of it,
        comparing each verdict, and each refusal's words, with the whole
        map's."""
        failures, fs = check(b, out)
        # the builder re-creates only the records it touched
        src = b.source.edges
        assert all(rec is src[e] for e, rec in out.edges.items() if e not in b.touched_edges), site
        check_faces(out, failures, fs, "real")
        if out.crossings and len(out.loops) > len(b.source.loops):
            self.loops_made[site] += 1
        whole = whole_map_accepts(out, alternating)
        assert (not failures) == whole, failures
        self._check_words(out, failures, alternating, site, "real")
        self.real[whole] += 1
        if self.mutate:
            built = (dict(out.crossings), dict(out.edges), dict(out.loops))
            kind = corrupt(self.rng, b)
            broken = b.build()
            # writes after build() reach the next build only
            assert (out.crossings, out.edges, out.loops) == built, kind
            local, local_fs = check(b, broken)
            check_faces(broken, local, local_fs, "mutant")
            whole = whole_map_accepts(broken, alternating)
            assert (not local) == whole, (kind, local)
            self._check_words(broken, local, alternating, site, "mutant")
            self.mutants[(kind, whole)] += 1
        return failures, fs

    def __call__(self, b, source_fs, out):
        site = sys._getframe(1).f_code.co_name

        def check(b, out):
            return check_edit(b, source_fs, out), _held_face_set(out)

        def check_faces(out, failures, fs, kind):
            self._check_table(out, failures, fs, site, kind)

        failures, fs = self._audit(site, b, out, True, check, check_faces)
        assert fs is not None, site
        # the mutant's checks took the memo: give the real edit's table
        # back, as ``check_edit`` left it, for the merge loop to follow
        diagram._last_face_set = (weakref.ref(out), fs)
        return failures

    def move(self, b, faces, out, gone):
        site = "nugatory" if len(gone) == 1 else "r2"
        # the partition the move is checked on is the source's full walk
        assert_partition_is_the_walk(faces, b.source)

        def check(b, out):
            failures, plan = check_move(b, faces, out, gone)
            # a plan comes back on the merge path only: the move's merge_plan
            assert plan is None or plan == merge_plan(faces, gone)
            return failures, plan

        def check_faces(out, failures, plan, kind):
            self._check_move_faces(b, faces, out, gone, failures, plan, site, kind)

        failures, plan = self._audit(site, b, out, False, check, check_faces)
        self.paths[(site, "walk" if plan is None else "merge")] += 1
        return failures, plan


@pytest.fixture
def audit(monkeypatch):
    def install(seed, mutate=True):
        a = Audit(seed, mutate)
        monkeypatch.setattr(augmentation, "check_edit", a)
        monkeypatch.setattr(reduction, "check_move", a.move)
        return a
    return install


def raw_closures(n, seed0, links):
    """Unreduced flipped closures, knots or links, for the reduction moves."""
    out = []
    seed = seed0
    while len(out) < n:
        rng = random.Random(seed)
        seed += 1
        strands = rng.randint(3, 5)
        gens = [i for i in range(-(strands - 1), strands) if i != 0]
        d = braid_closure([rng.choice(gens) for _ in range(rng.randint(10, 40))], strands)
        if (len(d.components()) > 1) != links:
            continue
        for _ in range(rng.randint(0, 3)):
            d = flip_crossing(d, rng.choice(sorted(d.crossings)))
        out.append(d)
    return out


def _check_tally(a: Audit, sites_min: int, sites) -> None:
    assert sum(a.real.values()) >= sites_min
    accepted = sum(v for (_k, ok), v in a.mutants.items() if ok)
    rejected = sum(v for (_k, ok), v in a.mutants.items() if not ok)
    # both verdicts must occur among the mutants, or the comparison is idle
    assert accepted >= 5 and rejected >= 5, a.mutants
    # every site's local faces were compared, on real edits and mutants
    for site in sites:
        assert a.tables[(site, "real")] + a.merged[(site, "real")] >= 1, (a.tables, a.merged)
    mutant_faces = a.tables + a.merged
    assert sum(v for (_s, kind), v in mutant_faces.items() if kind == "mutant") >= 5, mutant_faces
    # and every site refused mutants in the whole map's words
    for site in sites:
        assert a.worded[(site, "mutant")] >= 1, a.worded


AUGMENT_SITES = ("_insert_finger", "join_curves")
MOVE_SITES = ("r2", "nugatory")


class TestVerdictsAgree:
    def test_augment_on_knots(self, audit):
        a = audit(1)
        for _seed, d in corpus_diagrams(40, start_seed=200, letters=(14, 18, 22, 26)):
            augment(d)
        _check_tally(a, 20, AUGMENT_SITES)

    def test_augment_on_links(self, audit):
        a = audit(2)
        for _seed, d in link_diagrams(16):
            augment(d)
        _check_tally(a, 20, AUGMENT_SITES)

    def test_reductions_on_knots_and_links(self, audit):
        a = audit(3)
        for links in (False, True):
            for d in raw_closures(40, 500 if links else 0, links):
                preprocess(d)
        _check_tally(a, 100, MOVE_SITES)
        # both kinds of move took both paths
        assert all(a.paths[(site, path)] >= 1 for site in MOVE_SITES for path in ("merge", "walk")), a.paths
        # R2 removals that leave a crossing-free loop beside crossings
        assert a.loops_made["r2"] >= 1, a.loops_made

    def test_real_edits_pass_unmutated(self, audit):
        # without the random breakage every real edit is accepted by both
        a = audit(4, mutate=False)
        for _seed, d in link_diagrams(4, start_seed=100):
            augment(d)
        for d in raw_closures(10, 900, True):
            preprocess(d)
        assert a.real[False] == 0 and a.real[True] > 0


def test_whole_map_failures_match_the_oracle_on_every_mutant(audit, monkeypatch):
    # every whole-map verdict the audit takes, on real edits and on their
    # mutants, lists the failures of the replaced loops entry for entry
    kinds = Counter()
    real = validate_diagram

    def compared(d):
        rep = real(d)
        assert rep == oracle_validate_diagram(d)
        kinds.update({msg.split(":")[0] for msg in rep.failures} or {"valid"})
        return rep

    monkeypatch.setattr(sys.modules[__name__], "validate_diagram", compared)
    audit(7)
    for _seed, d in corpus_diagrams(40, start_seed=200, letters=(14, 18, 22, 26)):
        augment(d)
    for _seed, d in link_diagrams(16):
        augment(d)
    for links in (False, True):
        for d in raw_closures(40, 500 if links else 0, links):
            preprocess(d)
    assert kinds["valid"] >= 100, kinds
    assert all(kinds[k] >= 5 for k in ("incidence", "sphericity", "components")), kinds


# -- one deliberately broken edit per surgery site -----------------------------------


def _spy_on_site(monkeypatch, module, broken_builder):
    """Record the whole-map verdict of every edit the site checks:
    ``augmentation``'s by ``check_edit``, as valid and alternating, and
    ``reduction``'s by ``check_move``, as valid."""
    verdicts = []

    def spy(b, source_fs, out):
        verdicts.append(whole_map_accepts(out, True))
        return check_edit(b, source_fs, out)

    def spy_move(b, faces, out, gone):
        verdicts.append(whole_map_accepts(out, False))
        return check_move(b, faces, out, gone)

    monkeypatch.setattr(module, "MapBuilder", broken_builder)
    if module is augmentation:
        monkeypatch.setattr(module, "check_edit", spy)
    else:
        monkeypatch.setattr(module, "check_move", spy_move)
    return verdicts


class CrossedBand(MapBuilder):
    """Pairs the band stubs crosswise: arrival with arrival, departure
    with departure."""

    first = None

    def add_edge(self, eid, ends, comp):
        if len(self.touched_edges) < 2:
            return super().add_edge(eid, ends, comp)
        if self.first is None:
            self.first = (eid, tuple(ends[1]))
            return super().add_edge(eid, ends, comp)
        first_eid, first_far = self.first
        super().add_edge(eid, [ends[0], first_far], comp)
        reattach(self, first_eid, first_far, tuple(ends[1]))


class WrongFingerSign(MapBuilder):
    """Gives the first finger crossing the opposite over strand."""

    flipped = False

    def add_crossing(self, cid, slots, over_slots):
        if not self.flipped:
            self.flipped = True
            over_slots = _flip(over_slots)
        super().add_crossing(cid, slots, over_slots)


class SwappedWeld(MapBuilder):
    """Welds the outer stubs of an R2 bigon crosswise."""

    first = None

    def add_edge(self, eid, ends, comp):
        if self.first is None:
            self.first = (eid, tuple(ends[1]))
            return super().add_edge(eid, ends, comp)
        first_eid, first_far = self.first
        super().add_edge(eid, [ends[0], first_far], comp)
        reattach(self, first_eid, first_far, tuple(ends[1]))


class CrossingLeftBehind(MapBuilder):
    """Forgets to delete the crossing it welded through."""

    def remove_crossing(self, cid):
        pass


def _two_curve_overlay(arc_length: int | None = None):
    for _seed, d in corpus_diagrams(60):
        cs = augmentation.build_cut_curves(d)
        if len(cs.curves) < 2:
            continue
        g, cs2 = augmentation.overlay_unlink(d, cs)
        comps = [c.component for c in cs2.curves]
        arc = augmentation.find_merge_arc(g, comps)
        if arc_length is None or arc.phi >= arc_length:
            return g, arc
    pytest.skip("no suitable overlay in the sampled corpus")


class TestBrokenEditsRejected:
    def test_crossed_band_pairing(self, monkeypatch):
        g, arc = _two_curve_overlay()
        g = augmentation.propagate_finger(g, arc)
        face = shared_face(g, arc.source_curve, arc.target_curve)
        verdicts = _spy_on_site(monkeypatch, augmentation, CrossedBand)
        with pytest.raises(JoinError):
            augmentation.join_curves(g, arc.source_curve, arc.target_curve, face)
        assert verdicts == [False]

    def test_wrong_finger_sign(self, monkeypatch):
        g, arc = _two_curve_overlay(arc_length=1)
        verdicts = _spy_on_site(monkeypatch, augmentation, WrongFingerSign)
        with pytest.raises(AlternationError):
            augmentation.propagate_finger(g, arc)
        assert verdicts == [False]

    def test_swapped_r2_weld(self, monkeypatch):
        # a flipped crossing in the middle of a five-crossing twist plants
        # an R2 bigon whose two strands both weld to outer arcs
        d = flip_crossing(braid_closure([1, 1, 1, 1, 1, 2, -2], strands=3), 2)
        verdicts = _spy_on_site(monkeypatch, reduction, SwappedWeld)
        with pytest.raises(InvariantError):
            preprocess(d)
        assert verdicts == [False]

    @pytest.mark.parametrize("broken", ["end twice", "slot out of range"])
    def test_an_end_that_reads_its_slot_only_by_accident(self, trefoil, broken):
        # an edge whose second end repeats its first, or whose first end
        # names the slot holding it plus four: each end reads a slot that
        # holds the edge and the uses still add up, yet the ends do not
        # match the slots, and the local check must refuse it in the
        # whole map's words
        e = min(trefoil.edges)
        rec = trefoil.edges[e]
        (c, s), z = rec.ends
        ends = ((c, s), (c, s)) if broken == "end twice" else ((c, s + 4), z)
        b = MapBuilder(trefoil)
        b._own_slots(c)
        b.edges[e] = Edge(e, ends, rec.component)
        b.touched_edges.add(e)
        out = b.build()
        failures = check_edit(b, face_set(trefoil), out)
        want = f"incidence: edge {e} ends {ends} do not match slots"
        assert failures == validate_diagram(out).failures == [want]
        assert _held_face_set(out) is None

    @pytest.mark.parametrize("checker", ["_check_records", "_check_strands"])
    def test_a_refusal_the_whole_map_passes_still_refuses(self, monkeypatch, borromean, trefoil, checker):
        # a local check made to refuse a valid edit: the whole map has no
        # failure to word it with, so the refusal stands on one fallback
        # line, for an alternating edit (a component of the Borromean
        # rings relabelled) and for a move on the merge path (the R2 move
        # of a flipped trefoil)
        from altknot.analysis import _is_r2_bigon

        fallback = ["local check: edit refused, though the whole map passes"]
        b = MapBuilder(borromean)
        comp = max(r.component for r in b.edges.values())
        for e, r in sorted(b.edges.items()):
            if r.component == comp:
                b.set_component(e, 0)
        out = b.build()
        d = flip_crossing(trefoil, 0)
        fs = face_set(d)
        bigon = next(f for f, ds in fs.darts.items() if _is_r2_bigon(d, ds))
        gone = tuple(sorted(x >> 2 for x in fs.darts[bigon]))
        mb = reduction._r2_edit(d, fs.darts[bigon])
        moved = mb.build()
        edit_fs = face_set(borromean)
        assert check_edit(b, edit_fs, out) == []
        assert check_move(mb, FacePartition(fs), moved, gone) == ([], merge_plan(FacePartition(fs), gone))
        monkeypatch.setattr(edits, checker, lambda *args, **kwargs: False)
        assert check_edit(b, edit_fs, out) == fallback
        assert check_move(mb, FacePartition(fs), moved, gone) == (fallback, None)
        assert whole_map_accepts(out, True) and whole_map_accepts(moved, False)
        with pytest.raises(InvariantError, match="the whole map passes"):
            preprocess(d)

    def test_crossing_left_behind(self, monkeypatch):
        d = parse_pd("X(1,4,2,5) X(3,6,4,1) X(5,2,6,8) X(3,7,7,8)")  # kinked trefoil
        verdicts = _spy_on_site(monkeypatch, reduction, CrossingLeftBehind)
        with pytest.raises(InvariantError):
            preprocess(d)
        assert verdicts == [False]


def test_moves_that_change_the_piece_count(audit):
    # the flipped Hopf link unlinks into two loops (its only piece
    # vanishes); a flipped clasp between two trefoils splits one piece
    # into two; a flipped clasp in a chain of three strands leaves a
    # loop beside a Hopf link; a kink beside a trefoil unkinks into a
    # loop.  No face merge gives these: each move must take the walk
    # path, pass the local check, and give the full walk's face table.
    a = audit(5, mutate=False)
    cases = (
        (flip_crossing(braid_closure([1, 1], strands=2), 0), "r2", 0, 2),
        (flip_crossing(braid_closure([1, 1, 1, 2, 2, 3, 3, 3], strands=4), 3), "r2", 2, 0),
        (flip_crossing(braid_closure([1, 1, 2, 2], strands=3), 0), "r2", 1, 1),
        (parse_pd(TREFOIL + " X(7,7,8,8)"), "nugatory", 1, 1),
    )
    for d, kind, pieces, loops in cases:
        out, trace = preprocess(d)
        assert [s.kind for s in trace.steps] == [kind]
        assert validate_diagram(out).valid
        assert (connected_pieces(out), len(out.loops)) == (pieces, loops)
    assert a.paths == {("r2", "walk"): 3, ("nugatory", "walk"): 1}
    assert a.tables == {("r2", "real"): 3, ("nugatory", "real"): 1}


def test_an_alternating_edit_that_splits_a_piece(granny_sum, monkeypatch):
    # cutting the granny knot at its two-edge cut and closing each side
    # into its trefoil splits the one piece in two, which the union-find
    # count of ``_piece_change`` does not cover: the source's pieces are
    # read off its table by Euler, only ``out``'s are counted, on the
    # table the edit left for it, and the split is accepted
    assert classify_edges(granny_sum).is_alternating
    ((e1, e2),) = oracle_two_edge_cuts(granny_sum)
    first = {0, 1, 2}  # the crossings of the first trefoil
    b = MapBuilder(granny_sum)
    ends = {True: [], False: []}
    for e in (e1, e2):
        rec = granny_sum.edges[e]
        b.remove_edge(e)
        for end in rec.ends:
            ends[end[0] in first].append(end)
    b.add_edge(e1, ends[True], rec.component)
    b.add_edge(e2, ends[False], rec.component)
    out = b.build()
    counted = []
    real = edits.connected_pieces

    def spy(x):
        counted.append(x)
        return real(x)

    monkeypatch.setattr(edits, "connected_pieces", spy)
    source_fs = face_set(granny_sum)
    assert check_edit(b, source_fs, out) == []
    assert len(counted) == 1 and counted[0] is out
    assert same_table(_held_face_set(out), out)
    assert whole_map_accepts(out, True)
    assert (connected_pieces(out), len(out.loops)) == (2, 0)
    # the Euler count of the source is its breadth-first count
    euler = len(granny_sum.crossings) - len(granny_sum.edges) + len(source_fs.darts)
    assert euler == 2 * real(granny_sum) == 2 * len(oracle_pieces(granny_sum)) == 2


def test_moves_outside_the_merge_facts_are_walked(trefoil):
    # an R2 bigon one of whose crossings is a cut vertex, and an R2 move
    # whose builder also adds a crossing-free loop, which is not the
    # move's shape: both results are valid, and both are walked, while
    # the plain move merges
    from altknot.analysis import _is_cut_vertex, _is_r2_bigon

    bead = parse_pd("X(1,5,5,3) X(6,2,2,4) X(3,1,6,4)")
    flipped = flip_crossing(trefoil, 0)
    cases = ((bead, False, True), (flipped, True, True), (flipped, False, False))
    for d, extra_loop, walked in cases:
        fs = face_set(d)
        bigon = next(f for f, ds in fs.darts.items() if _is_r2_bigon(d, ds))
        gone = tuple(sorted(x >> 2 for x in fs.darts[bigon]))
        corner_face = corner_view(fs)
        assert any(len({corner_face[(c, s)] for s in range(4)}) < 4 for c in gone) == (d is bead)
        assert any(_is_cut_vertex(fs.dart_face, c) for c in gone) == (d is bead)
        b = reduction._r2_edit(d, fs.darts[bigon])
        if extra_loop:
            b.loops[b.new_edge_id()] = new_component_id(b)
        out = b.build()
        failures, plan = check_move(b, FacePartition(fs), out, gone)
        assert failures == [] and validate_diagram(out).valid
        assert (plan is None) == walked, (d, extra_loop)
        if walked:
            assert same_table(_held_face_set(out), out)
    # a lone kinked loop: its removal leaves a crossing-free loop
    kinked = parse_pd(TREFOIL + " X(7,7,8,8)")
    assert merge_plan(FacePartition(face_set(kinked)), (3,)) is None


# -- the local face table ----------------------------------------------------------


def test_component_and_label_changes_rewalk_nothing():
    # relabelling a whole component and flipping a crossing touch
    # records but change no face: every face's darts are the source's
    # tuple
    _seed, d = link_diagrams(1)[0]
    fs = face_set(d)
    b = MapBuilder(d)
    comp = max(r.component for r in b.edges.values())
    for e, r in sorted(b.edges.items()):
        if r.component == comp:
            b.set_component(e, 0)
    c = min(d.crossings)
    b.add_crossing(c, list(b.slots_at(c)), _flip(_over_at(b, c)))
    out = b.build()
    table = _edited_face_set(b, fs, out)
    assert table.darts.keys() == fs.darts.keys()
    assert all(table.darts[f] is ds for f, ds in fs.darts.items())
    assert same_table(table, out)
    assert face_set(out) is table


def test_join_keeps_the_faces_along_the_relabelled_circle(monkeypatch):
    g, arc = _two_curve_overlay()
    g = augmentation.propagate_finger(g, arc)
    face = shared_face(g, arc.source_curve, arc.target_curve)
    seen = []

    def spy(b, source_fs, out):
        seen.append((b, source_fs))
        return check_edit(b, source_fs, out)

    monkeypatch.setattr(augmentation, "check_edit", spy)
    out = augmentation.join_curves(g, arc.source_curve, arc.target_curve, face)
    b, source_fs = seen[-1]
    table = face_set(out)
    assert same_table(table, out)
    dropped = max(arc.source_curve, arc.target_curve)
    relabelled = {
        e for e in b.touched_edges
        if e in g.edges and e in out.edges
        and g.edges[e].component == dropped and g.edges[e].ends == out.edges[e].ends
    }
    removed = [e for e in b.touched_edges if e in g.edges and e not in out.edges]
    spliced = {c for e in removed for c, _s in g.edges[e].ends}
    along = [
        f for f, ds in source_fs.darts.items()
        if set(source_fs.edges(g, f)) & relabelled and not {x >> 2 for x in ds} & spliced
    ]
    assert relabelled and along
    # each is a face of the result as it stands: it keeps its id, and its
    # darts are the source's tuple
    for f in along:
        assert table.darts[f] is source_fs.darts[f]


def _spy_on_walks(monkeypatch) -> list[set]:
    """The darts each ``_walk_darts`` call is given to walk from."""
    given = []
    real = diagram._walk_darts

    def spy(step, starts, *args):
        given.append(set(starts))
        return real(step, starts, *args)

    monkeypatch.setattr(diagram, "_walk_darts", spy)
    return given


def test_a_band_splice_walks_only_the_faces_along_its_removed_edges(monkeypatch):
    # the splice re-slots four crossings and relabels the dropped circle,
    # but only the faces on either side of its two removed edges change
    splices = []

    def spy(b, source_fs, out):
        if sys._getframe(1).f_code.co_name == "join_curves":
            walks.clear()
            res = check_edit(b, source_fs, out)
            splices.append((b, source_fs, out, list(walks)))
            return res
        return check_edit(b, source_fs, out)

    monkeypatch.setattr(augmentation, "check_edit", spy)
    walks = _spy_on_walks(monkeypatch)
    for _seed, d in corpus_diagrams(40, start_seed=200, letters=(14, 18, 22, 26)) + link_diagrams(16):
        augment(d)
    assert len(splices) >= 20
    relabelled = 0
    for b, source_fs, out, given in splices:
        g = b.source
        removed = [e for e in b.touched_edges if e not in out.edges]
        assert len(removed) == 2 and len(b.touched_crossings) == 4
        corner_face = corner_view(source_fs)
        sides = {corner_face[(c, (s - 1) % 4)] for e in removed for c, s in g.edges[e].ends}
        assert len(given) == 1
        assert given[0] == {x for f in sides for x in source_fs.darts[f]}
        relabelled += sum(
            e in g.edges and g.edges[e].ends == out.edges[e].ends for e in b.touched_edges if e in out.edges
        )
    # and the splices did relabel edges: those alone walk nothing
    assert relabelled > 0


def test_a_component_change_walks_no_corner(monkeypatch, borromean):
    # check_edit's source is alternating, as augment's maps are
    d = borromean
    assert classify_edges(d).is_alternating
    fs = face_set(d)
    b = MapBuilder(d)
    comp = max(r.component for r in b.edges.values())
    for e, r in sorted(b.edges.items()):
        if r.component == comp:
            b.set_component(e, 0)
    assert b.touched_edges and not b.touched_crossings
    out = b.build()
    walks = _spy_on_walks(monkeypatch)
    assert check_edit(b, fs, out) == []
    assert same_table(_held_face_set(out), out)
    assert walks == [set()]
