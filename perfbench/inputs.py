"""Seeded input generation for the three workloads.

Every input is a braid closure drawn from a ``random.Random`` seeded by
the workload name and ``--seed``, so the same seed always yields the same
PD text.  Sizes and component counts follow fixed schedules that do
not depend on the seed, and so do the strand counts of ``reduce`` and
``augment-large``; the braid letters and signs, and the strand counts
of ``cli-batch``, are random.  That keeps the size mix, and with it the latency
distribution, the same from seed to seed.

The ``augment-large`` and ``cli-batch`` words are reduced by
construction (see ``reduced_word``), so set-up never calls
``preprocess``; they are then filtered with the package's public
predicates ``diagram_flags`` and ``classify_edges``.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass

# Called through the modules, so that the traced run sees its wrappers.
from altknot import analysis, diagram, generate

# A draw may be rejected (wrong component count, composite, alternating)
# and redrawn; the cap keeps a broken predicate from hanging set-up.
MAX_DRAWS = 2000

# Component counts cycle through these: knots dominate, links of two and
# three components sit at fixed positions.
COMPONENT_CYCLE = (1, 2, 1, 3, 1, 2)


@dataclass(frozen=True)
class Item:
    """One generated diagram: a name, its PD text and what is known up front."""

    name: str
    pd: str
    crossings: int
    components: int
    eligible: bool = True


@dataclass(frozen=True)
class BatchFile:
    """One ``cli-batch`` corpus file: named PD blocks in file order."""

    name: str
    blocks: tuple[Item, ...]

    @property
    def eligible(self) -> bool:
        return all(b.eligible for b in self.blocks)

    @property
    def text(self) -> str:
        return "".join(f"# name: {b.name}\n{b.pd}\n\n" for b in self.blocks)


def stratified(lo: int, hi: int, n: int) -> list[int]:
    """``n`` sizes evenly spaced over [lo, hi], listed in an order in which
    every run of consecutive entries covers the whole range."""
    sizes = [lo + (i * (hi - lo)) // max(1, n - 1) for i in range(n)]
    step = next(s for s in range(max(1, round(n * 0.618)), n + 1) if _gcd(s, n) == 1)
    return [sizes[(i * step) % n] for i in range(n)]


def _gcd(a: int, b: int) -> int:
    while b:
        a, b = b, a % b
    return a


def closure_components(word: list[int], strands: int) -> int:
    """Number of link components of the closure, from the braid permutation."""
    perm = list(range(strands))
    for x in word:
        i = abs(x) - 1
        perm[i], perm[i + 1] = perm[i + 1], perm[i]
    seen: set[int] = set()
    cycles = 0
    for s in range(strands):
        if s not in seen:
            cycles += 1
            while s not in seen:
                seen.add(s)
                s = perm[s]
    return cycles


def raw_word(rng: random.Random, letters: int, strands: int, lone: bool) -> list[int]:
    """Unreduced word with uniformly random letters and signs that uses
    every generator.  With ``lone`` one generator occurs exactly once, so
    its crossing is nugatory in the closure."""
    gens = list(range(1, strands))
    single = rng.choice(gens) if lone else None
    pool = [g for g in gens if g != single]
    word = [rng.choice(pool) * rng.choice((1, -1)) for _ in range(letters - lone)]
    if single is not None:
        word.insert(rng.randrange(len(word) + 1), single * rng.choice((1, -1)))
    return word


def reduced_word(rng: random.Random, letters: int, gens: list[int]) -> list[int] | None:
    """Word over ``gens`` whose closure is reduced and R2-reduced, or None
    when the draw breaks the rule below.

    Every generator occurs at least twice, and a generator keeps the sign
    of its previous occurrence until a neighbouring generator has occurred
    in between (cyclically, since the braid is closed).  The first rule
    excludes nugatory crossings; the second excludes bigons whose two
    crossings have opposite signs, which are the only R2 bigons.
    """
    picks = [rng.choice(gens) for _ in range(letters)]
    if any(picks.count(g) < 2 for g in gens):
        return None
    sign = {g: rng.choice((1, -1)) for g in gens}
    may_flip = dict.fromkeys(gens, False)
    word = []
    for g in picks:
        if may_flip[g] and rng.random() < 0.5:
            sign[g] = -sign[g]
        may_flip[g] = False
        for nb in (g - 1, g + 1):
            if nb in may_flip:
                may_flip[nb] = True
        word.append(sign[g] * g)
    for g in gens:
        at = [i for i, x in enumerate(word) if abs(x) == g]
        wrap = word[at[-1] + 1:] + word[:at[0]]
        if word[at[-1]] != word[at[0]] and not any(abs(abs(x) - g) == 1 for x in wrap):
            return None
    return word


def qualifies(d) -> bool:
    """The augmentation preconditions, read through the public predicates."""
    flags = analysis.diagram_flags(d)
    return (
        flags.connected
        and flags.reduced
        and flags.r2_reduced
        and flags.prime
        and analysis.classify_edges(d).is_non_alternating
    )


def _item(name: str, word: list[int], strands: int, eligible: bool) -> tuple[Item, object]:
    d = generate.braid_closure(word, strands)
    comps = closure_components(word, strands)
    return Item(name, diagram.serialize_pd(d), len(word), comps, eligible), d


def strand_count(slot: int, crossings: int, components: int) -> int:
    """Strands for the ``slot``-th ``augment-large`` input: 3, 4, 5, 6 in
    turn, moved by one where a closure of ``components`` components with
    ``crossings`` letters needs the other parity.  A fixed strand count
    halves the seed-to-seed spread of the median latency."""
    strands = 3 + slot % 4
    if (crossings - strands + components) % 2:
        strands += 1 if strands < 6 else -1
    return strands


def eligible_item(rng: random.Random, name: str, crossings: int, components: int,
                  strands: int | None = None) -> Item:
    """A connected, reduced, R2-reduced, prime, non-alternating closure
    with ``crossings`` crossings and ``components`` components, on
    ``strands`` strands or, if None, on 3-6 strands drawn per try.  (Small
    sizes need the draw: some have no qualifying closure on some strand
    counts.)"""
    for _ in range(MAX_DRAWS):
        k = strands or rng.randint(max(3, components), 6)
        word = reduced_word(rng, crossings, list(range(1, k)))
        if word is None or closure_components(word, k) != components:
            continue
        item, d = _item(name, word, k, True)
        if qualifies(d):
            return item
    raise RuntimeError(f"no qualifying {components}-component closure of size {crossings}")


def ineligible_item(rng: random.Random, name: str, crossings: int, kind: str) -> Item:
    """A knot closure that ``augment`` must refuse.

    ``alternating``: generator i always carries the sign (-1)^(i+1).
    ``composite``: two reduced words on disjoint generator ranges, whose
    closure is a connected sum and so has a two-edge cut.  A closure on k
    strands is a knot only if its word has k - 1 letters mod 2, so the
    strand count and the split of the letters are chosen to allow that,
    with every generator of a factor able to occur twice.
    """
    for _ in range(MAX_DRAWS):
        if kind == "alternating":
            strands = rng.randint(3, 6)
            gens = list(range(1, strands))
            word = [g if g % 2 else -g for g in (rng.choice(gens) for _ in range(crossings))]
        else:
            strands = rng.choice([s for s in (4, 5, 6) if (crossings - s + 1) % 2 == 0])
            gens = list(range(1, strands))
            cut = rng.randint(1, strands - 2)
            n_left = crossings // 2
            n_left += (n_left - cut) % 2  # the left factor spans cut + 1 strands
            if n_left < 2 * cut or crossings - n_left < 2 * (len(gens) - cut):
                continue
            left = reduced_word(rng, n_left, gens[:cut])
            right = reduced_word(rng, crossings - n_left, gens[cut:])
            if left is None or right is None:
                continue
            word = left + right
        if len({abs(x) for x in word}) != len(gens) or closure_components(word, strands) != 1:
            continue
        item, d = _item(name, word, strands, False)
        if not qualifies(d):
            return item
    raise RuntimeError(f"no {kind} closure of size {crossings}")


def reduce_inputs(seed: int, n: int, lo: int, hi: int) -> list[Item]:
    """Raw braid closures on 3-6 strands.  Every other word has one
    generator that occurs once (a nugatory crossing); random signs give
    R2 bigons throughout."""
    rng = random.Random(f"reduce/{seed}")
    items = []
    for i, letters in enumerate(stratified(lo, hi, n)):
        strands = 3 + i % 4
        want = min(COMPONENT_CYCLE[i % len(COMPONENT_CYCLE)], strands)
        # a closure on n strands with c components needs n - c letters mod 2
        letters += (letters - strands + want) % 2
        for _ in range(MAX_DRAWS):
            word = raw_word(rng, letters, strands, lone=i % 2 == 0)
            if closure_components(word, strands) == want:
                break
        else:
            raise RuntimeError(f"no {want}-component raw word of length {letters}")
        items.append(_item(f"r{i}", word, strands, True)[0])
    return items


def large_inputs(seed: int, n: int, lo: int, hi: int) -> list[Item]:
    """Reduced, prime, non-alternating closures of ``lo``-``hi`` crossings."""
    rng = random.Random(f"augment-large/{seed}")
    items = []
    for i, size in enumerate(stratified(lo, hi, n)):
        comps = COMPONENT_CYCLE[i % len(COMPONENT_CYCLE)]
        items.append(eligible_item(rng, f"a{i}", size, comps, strand_count(i, size, comps)))
    return items


def batch_inputs(
    seed: int, n_files: int, blocks: int, lo: int = 8, hi: int = 40
) -> list[BatchFile]:
    """Corpus files of ``blocks`` eligible blocks each.  Every tenth file
    instead holds one ineligible block, alternately alternating and
    composite, whose expected outcome is a per-block error record."""
    rng = random.Random(f"cli-batch/{seed}")
    sizes = iter(stratified(lo, hi, n_files * blocks))
    files = []
    for i in range(n_files):
        if i % 10 == 9:
            kind = ("alternating", "composite")[(i // 10) % 2]
            block = ineligible_item(rng, f"f{i}-{kind}", rng.randint(lo, hi), kind)
            files.append(BatchFile(f"f{i}", (block,)))
            continue
        files.append(BatchFile(f"f{i}", tuple(
            eligible_item(rng, f"f{i}-b{j}", next(sizes), COMPONENT_CYCLE[(i + j) % 6])
            for j in range(blocks)
        )))
    return files


def digest(texts) -> str:
    """sha256 over a sequence of texts, each terminated by a NUL."""
    h = hashlib.sha256()
    for t in texts:
        h.update(t.encode())
        h.update(b"\0")
    return h.hexdigest()
