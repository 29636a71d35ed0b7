"""Property suite shared by the CLI ``selfcheck`` command and the
acceptance tests.

Each case draws a qualifying random diagram of at most
``MAX_CROSSINGS`` crossings and runs the augmentation, which checks each
map it makes where it makes it.  The result is re-checked by
``verify_augmentation``, which runs ``augmentation.certify``, the one
list of the paper's promises (alternating output, a single simple
augmenting curve that gives back the input when dropped, at most two
crossings per original edge and none inside a twist region, the
hyperbolicity certificate, the twist identity (G's twist regions are
the input's plus one per crossing of the curve), t(D) <= t(G) <= 5 t(D),
t(G) = t(D) + i(A, D), the crossing-count bounds and one component
more than the input), on tables it computes itself, and checks that the
numbers the result reports are the ones certified.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from .analysis import twist_partition
from .augmentation import augment, certify
from .diagram import face_set
from .errors import DiagramError
from .generate import random_knot_diagram

MAX_CROSSINGS = 30


@dataclass
class CaseResult:
    seed: int
    crossings: int
    t_d: int
    t_g: int
    phi_total: int
    seconds: float
    failures: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures


def verify_augmentation(d, res) -> list[str]:
    """Re-check an augmentation result against its input ``d``: every
    promise ``certify`` checks, read off ``res.g`` with ``d``'s tables
    computed here, and the agreement of the reported ``t_D``, ``t_G``,
    ``i_A_D`` and certificate with the certified ones.  Every failure is
    a ``"Type: message"`` line; empty list = pass.  Nothing is raised on
    a result that does not match ``d``."""
    d_fs = face_set(d)
    d_tp = twist_partition(d)
    checked = certify(d, d_fs, d_tp, res.g, res.augmenting_component)
    problems = [f"{type(exc).__name__}: {exc}" for exc in checked.failures]
    if res.t_D != d_tp.t or (checked.t_G is not None and res.t_G != checked.t_G):
        problems.append(f"reported twist counts {res.t_D}, {res.t_G} disagree with "
                        f"the certified {d_tp.t}, {checked.t_G}")
    if checked.i_A_D is not None and res.i_A_D != checked.i_A_D:
        problems.append(f"reported crossing count {res.i_A_D} disagrees with the certified {checked.i_A_D}")
    if checked.certificate is not None and res.certificate != checked.certificate:
        problems.append("reported certificate disagrees with the certified one")
    return problems


def run_case(seed: int, n_letters: int, flips: int) -> CaseResult:
    d, _trace = random_knot_diagram(seed, n_letters, flips, max_crossings=MAX_CROSSINGS)
    t0 = time.perf_counter()
    res = augment(d)
    dt = time.perf_counter() - t0
    return CaseResult(
        seed,
        len(d.crossings),
        res.t_D,
        res.t_G,
        sum(m.arc.phi for m in res.merges),
        dt,
        verify_augmentation(d, res),
    )


def run_selfcheck(cases: int, seed: int = 0, progress=None) -> dict:
    """Run ``cases`` random pipeline cases; returns a JSON-ready summary.
    ``progress(case)`` is called with each case's ``CaseResult`` as it
    finishes, a case that raised included."""
    results = []
    failures = []
    s = seed
    letters_cycle = [6, 8, 10, 12, 14, 16, 18, 20]
    while len(results) < cases:
        letters = letters_cycle[len(results) % len(letters_cycle)]
        flips = 1 + (s % 3)
        try:
            out = run_case(s, letters, flips)
        except DiagramError as exc:
            out = CaseResult(s, 0, 0, 0, 0, 0.0, [f"{type(exc).__name__}: {exc}"])
        if not out.ok:
            failures.append({"seed": out.seed, "failures": out.failures})
        results.append(out)
        if progress:
            progress(out)
        s += 1
    return {
        "cases": len(results),
        "passed": sum(1 for r in results if r.ok),
        "failed": failures,
        "max_seconds": max((r.seconds for r in results), default=0.0),
        "max_crossings": max((r.crossings for r in results), default=0),
        "merge_arcs_with_cost": sum(1 for r in results if r.phi_total > 0),
    }
