"""Random diagram generation via braid closures.

Braid closures are planar by construction, so they make a cheap corpus
generator: draw a word, close it, flip some crossings to break
alternation, reduce, and keep the result when it satisfies the
augmentation preconditions (connected, reduced, R2-reduced, prime,
non-alternating, single component).
"""

from __future__ import annotations

import random

from .analysis import classify_edges, diagram_flags
from .diagram import Diagram, _assemble, flip_crossing
from .errors import PDSyntaxError, RetryExhausted
from .reduction import preprocess


def braid_closure(word: list[int], strands: int | None = None) -> Diagram:
    """Close a braid word to a diagram.

    Letters are nonzero integers: +i crosses strands i and i+1 with the
    left strand passing under, -i with it passing over.  Unused strands
    close into crossing-free loops.

    Checks only the word (PDSyntaxError): the closed strands go to
    ``parse_pd``'s assembler (``diagram._assemble``), which makes the
    incidence checks and leaves the closure's face table in the
    ``face_set`` memo; sphericity is not checked, since a closure is
    planar by construction.
    """
    if not word or any(x == 0 for x in word):
        raise PDSyntaxError("braid word must be nonempty with nonzero letters")
    width = max(abs(x) for x in word) + 1
    if strands is not None:
        if strands < width:
            raise PDSyntaxError(f"braid needs at least {width} strands")
        width = strands

    next_edge = width + 1
    pos = list(range(1, width + 1))  # current edge id on each strand position
    slots = []  # the slots of each crossing in turn, counterclockwise
    for letter in word:
        i = abs(letter) - 1  # 0-based left position
        left_in, right_in = pos[i], pos[i + 1]
        out_left, out_right = next_edge, next_edge + 1
        next_edge += 2
        if letter > 0:
            # under strand runs NW -> SE; slots ccw: (u_in, o_out, u_out, o_in)
            slots += (left_in, out_left, out_right, right_in)
        else:
            # under strand runs NE -> SW; slots ccw: (ne_in, nw_in, sw_out, se_out)
            slots += (right_in, left_in, out_left, out_right)
        pos[i], pos[i + 1] = out_left, out_right

    # close each strand position j, counted from 1: identify its final
    # edge with its first, edge j; a final id exceeds the width and a
    # first one does not, so one lookup resolves any id.  A position
    # never crossed is a loop.
    rename = {e: j for j, e in enumerate(pos, 1) if e != j}
    loops = [j for j, e in enumerate(pos, 1) if e == j]
    return _assemble([rename.get(e, e) for e in slots], loops)


def two_strand_torus(n: int) -> Diagram:
    """Standard diagram of the closed two-strand braid with n crossings."""
    return braid_closure([1] * n, strands=2)


def random_knot_diagram(
    seed: int,
    n_letters: int,
    flips: int,
    max_tries: int = 1000,
    max_crossings: int | None = None,
):
    """Deterministically draw a connected, reduced, R2-reduced, prime,
    non-alternating knot diagram.

    Draws braid words on 3-5 strands, keeps single-component closures,
    flips ``flips`` random crossings, reduces, and retries until the
    result qualifies.  Returns (diagram, trace) of the qualifying draw.
    """
    if n_letters < 1:
        raise PDSyntaxError("need at least one braid letter")
    rng = random.Random(seed)
    for _ in range(max_tries):
        strands = rng.randint(3, 5)
        gens = list(range(1, strands)) + [-i for i in range(1, strands)]
        word = [rng.choice(gens) for _ in range(n_letters)]
        d = braid_closure(word, strands=strands)
        if d.loops or len({rec.component for rec in d.edges.values()}) != 1:
            continue
        for _ in range(flips):
            d = flip_crossing(d, rng.choice(sorted(d.crossings)))
        d, trace = preprocess(d)
        if d.loops or len({rec.component for rec in d.edges.values()}) != 1:
            continue
        if max_crossings is not None and len(d.crossings) > max_crossings:
            continue
        flags = diagram_flags(d)
        cls = classify_edges(d)
        if (
            flags.connected
            and flags.reduced
            and flags.r2_reduced
            and flags.prime
            and cls.is_non_alternating
        ):
            return d, trace
    cap = "" if max_crossings is None else f", max_crossings={max_crossings}"
    raise RetryExhausted(
        f"no qualifying diagram in {max_tries} draws (seed={seed}, "
        f"letters={n_letters}, flips={flips}{cap})"
    )
