"""Property suite shared by the CLI ``selfcheck`` command and the
acceptance tests.

Each case draws a qualifying random diagram, runs the augmentation, and
checks every promised property with the analysis-module primitives:
alternating output, a single simple augmenting curve, at most two
crossings per original edge and none inside a twist region, the twist
bound t(D) <= t(G) <= 5 t(D), the hyperbolicity certificate, the
partition refinement, and sphericity at every pipeline stage.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from .analysis import (
    classify_edges,
    refinement_check,
    shading_classes,
    twist_partition,
)
from .augmentation import augment
from .diagram import face_set, validate_diagram
from .errors import DiagramError
from .generate import random_knot_diagram


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
    """Independent re-check of an augmentation result; empty list = pass."""
    problems = []
    g = res.g
    rep = validate_diagram(g)
    if not rep.valid:
        problems.append(f"invalid output: {rep.failures}")
        return problems
    if not classify_edges(g).is_alternating:
        problems.append("output not alternating")
    aug = res.augmenting_component
    comps = g.components()
    if aug not in comps:
        problems.append("augmenting component missing")
    if len(comps) != len(d.components()) + 1:
        problems.append("component count is not the input's plus one")

    per_origin: dict[int, int] = {}
    self_crossings = 0
    for c in g.crossings.values():
        c0 = g.edges[c.slots[0]].component
        c1 = g.edges[c.slots[1]].component
        if c0 == aug and c1 == aug:
            self_crossings += 1
        elif (c0 == aug) != (c1 == aug):
            d_slot = 1 if c0 == aug else 0
            o = g.edges[c.slots[d_slot]].origin
            per_origin[o] = per_origin.get(o, 0) + 1
    if self_crossings:
        problems.append(f"augmenting curve has {self_crossings} self-crossings")
    if any(v > 2 for v in per_origin.values()):
        problems.append("an original edge is crossed more than twice")
    if None in per_origin:
        problems.append("curve crosses a non-original edge")

    d_fs = face_set(d)
    d_tp = twist_partition(d)
    bigon_edges = set()
    for fid in d_tp.bigon_faces:
        bigon_edges |= set(d_fs.faces[fid].boundary_edges)
    if set(per_origin) & bigon_edges:
        problems.append("curve crosses an edge inside a twist region")

    t_d = d_tp.t
    t_g = twist_partition(g).t
    if (t_d, t_g) != (res.t_D, res.t_G):
        problems.append("reported twist counts disagree with recomputation")
    if not (t_d <= t_g <= 5 * t_d):
        problems.append(f"twist bound fails: {t_d} <= {t_g} <= {5 * t_d}")
    if t_g > t_d + sum(per_origin.values()):
        problems.append("twist count exceeds t(D) plus the crossing count")
    if res.i_A_D != sum(per_origin.values()):
        problems.append("reported crossing count disagrees")
    if res.i_A_D > 4 * t_d:
        problems.append("crossing count exceeds 4 t(D)")

    if res.certificate.verdict != "hyperbolic":
        problems.append("certificate not hyperbolic")
    ref = refinement_check(g, augmenting=aug, expected_d=d)
    if not ref.refines:
        problems.append(f"refinement fails: {ref.failures}")
    return problems


def run_case(seed: int, n_letters: int, flips: int, max_crossings: int = 30) -> CaseResult:
    d, _trace = random_knot_diagram(
        seed, n_letters, flips, max_crossings=max_crossings
    )
    # sigma/label cross-checks on the input side
    failures = []
    cls = classify_edges(d)
    if len(cls.non_alternating) % 2:
        failures.append("odd number of non-alternating edges")
    shading_classes(d)  # raises SigmaMismatch on disagreement

    stages = []
    t0 = time.perf_counter()
    res = augment(d, on_stage=lambda name, dia: stages.append((name, dia)))
    dt = time.perf_counter() - t0
    for name, dia in stages:
        rep = validate_diagram(dia)
        if not rep.valid:
            failures.append(f"stage {name} invalid: {rep.failures}")
        if not classify_edges(dia).is_alternating:
            failures.append(f"stage {name} not alternating")
    failures.extend(verify_augmentation(d, res))
    return CaseResult(
        seed,
        len(d.crossings),
        res.t_D,
        res.t_G,
        sum(m.arc.phi for m in res.merges),
        dt,
        failures,
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
            failures.append({"seed": s, "failures": [f"{type(exc).__name__}: {exc}"]})
            out = CaseResult(s, 0, 0, 0, 0, 0.0, [str(exc)])
        else:
            if not out.ok:
                failures.append({"seed": out.seed, "failures": out.failures})
        results.append(out)
        if progress:
            progress(out)
        s += 1
    return {
        "cases": len(results),
        "passed": sum(1 for r in results if r.ok),
        "failed": [f for f in failures],
        "max_seconds": max((r.seconds for r in results), default=0.0),
        "max_crossings": max((r.crossings for r in results), default=0),
        "merge_arcs_with_cost": sum(1 for r in results if r.phi_total > 0),
    }
