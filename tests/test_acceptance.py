"""Acceptance criteria.

One test per criterion; each prints a PASS line when it survives its
assertions.  The property corpus holds 500+ seeded random diagrams of at
most 30 crossings satisfying the pipeline preconditions; every pipeline
run is shared across criteria through a session fixture.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import pytest

from altknot import (
    augment,
    certify_hyperbolic,
    classify_edges,
    constants,
    detect_two_strand_torus,
    diagram_flags,
    face_set,
    flip_crossing,
    parse_pd,
    preprocess,
    serialize_pd,
    shading_classes,
    twist_partition,
    twist_volume_bounds,
    validate_diagram,
)
from altknot.analysis import RegionTopology
from altknot.diagram import is_connected
from altknot.generate import braid_closure, random_knot_diagram, two_strand_torus
from altknot.selfcheck import verify_augmentation
from altknot.volume import augmented_volume_bounds

from conftest import euler_by_piece, oracle_curve_crossings, refinement_check, same_map
from test_volume import oracle_four_catalan, oracle_tetrahedron_volume

N_CASES = 500
MAX_CROSSINGS = 30
LETTERS = (6, 8, 10, 12, 14, 16, 18, 20, 22, 26, 30)


@dataclass
class PipelineCase:
    seed: int
    d: object
    result: object
    seconds: float
    stages: list = field(default_factory=list)


@pytest.fixture(scope="session")
def corpus():
    """(seed, diagram) pairs satisfying the augmentation preconditions."""
    out = []
    seed = 0
    while len(out) < N_CASES:
        d, _ = random_knot_diagram(
            seed, LETTERS[len(out) % len(LETTERS)], 1 + seed % 3,
            max_crossings=MAX_CROSSINGS,
        )
        out.append((seed, d))
        seed += 1
    return out


@pytest.fixture(scope="session")
def pipeline(corpus):
    """Every corpus diagram run through the augmentation once."""
    cases = []
    for seed, d in corpus:
        stages = []
        t0 = time.perf_counter()
        res = augment(d, on_stage=lambda name, dia: stages.append((name, dia)))
        dt = time.perf_counter() - t0
        cases.append(PipelineCase(seed, d, res, dt, stages))
    return cases


@pytest.fixture(scope="session")
def raw_closures():
    """Unreduced flipped braid closures (connected ones), for the checks
    that must also cover non-reduced diagrams."""
    import random

    out = []
    seed = 0
    while len(out) < 200:
        rng = random.Random(10_000 + seed)
        strands = rng.randint(3, 5)
        gens = [i for i in range(-(strands - 1), strands) if i != 0]
        word = [rng.choice(gens) for _ in range(rng.randint(4, 24))]
        d = braid_closure(word, strands=strands)
        seed += 1
        for _ in range(rng.randint(0, 3)):
            d = flip_crossing(d, rng.choice(sorted(d.crossings)))
        if d.crossings and is_connected(d):
            out.append(d)
    return out


def test_acceptance_1_pipeline_property_suite(pipeline):
    """>=500 generated diagrams: augment succeeds with alternating output,
    one simple augmenting curve, <=2 crossings per original edge, none in
    a twist region, t(D) <= t(G) <= 5 t(D), under a second each.  The
    curve's crossings are also counted by a census of G's crossings,
    apart from the reconstruction walk ``certify`` reads them off."""
    assert len(pipeline) >= 500
    for case in pipeline:
        assert len(case.d.crossings) <= MAX_CROSSINGS
        problems = verify_augmentation(case.d, case.result)
        assert problems == [], (case.seed, problems)
        res = case.result
        crossed = oracle_curve_crossings(res.g, res.augmenting_component, case.d)
        # every crossing G adds is one of the curve with an input edge
        assert sum(crossed.values()) == res.i_A_D == len(res.g.crossings) - len(case.d.crossings)
        assert None not in crossed and max(crossed.values(), default=0) <= 2, case.seed
        fs, tp = face_set(case.d), twist_partition(case.d)
        assert not crossed.keys() & {e for f in tp.bigon_faces for e in fs.edges(case.d, f)}
        assert classify_edges(res.g).is_alternating
        assert res.t_D <= res.t_G <= 5 * res.t_D, case.seed
        assert res.i_A_D <= 4 * res.t_D
        assert case.seconds < 1.0, (case.seed, case.seconds)
        assert len(res.merges) == len(res.cut_system.curves) - 1
    print("\nACCEPTANCE 1 (pipeline property suite, "
          f"{len(pipeline)} diagrams): PASS")


def test_acceptance_2_shading_cut_equivalence(corpus, raw_closures):
    """Cross-class edges equal the non-alternating edges and their count
    is even, on reduced and unreduced diagrams alike."""
    diagrams = [d for _s, d in corpus] + raw_closures
    for d in diagrams:
        cls = classify_edges(d)
        assert len(cls.non_alternating) % 2 == 0
        sh = shading_classes(d)  # raises SigmaMismatch on any disagreement
        cross = {
            e for e, rec in d.edges.items()
            if (rec.ends[0][0] in sh.plus_class) != (rec.ends[1][0] in sh.plus_class)
        }
        assert cross == set(cls.non_alternating)
    print(f"\nACCEPTANCE 2 (shading/cut equivalence, {len(diagrams)} diagrams): PASS")


def test_acceptance_3_annular_twist_regions(corpus):
    """(2,n) diagrams for n=2..12 report t=1 with the right topology and
    are detected; conversely every non-disk region in an R2-reduced
    connected diagram forces the detection."""
    for n in range(2, 13):
        d = two_strand_torus(n)
        tp = twist_partition(d)
        assert tp.t == 1
        want = RegionTopology.SPHERE if n == 2 else RegionTopology.ANNULUS
        assert tp.regions[0].topology is want
        assert detect_two_strand_torus(d) == n
    checked = 0
    for _s, d in corpus:
        flags = diagram_flags(d)
        assert flags.connected and flags.r2_reduced
        for r in twist_partition(d).regions:
            if r.topology is not RegionTopology.DISK:
                assert detect_two_strand_torus(d) is not None
            checked += 1
    # flipped torus diagrams after reduction exercise the converse with a
    # genuinely annular region
    red, _ = preprocess(flip_crossing(two_strand_torus(9), 0))
    tp = twist_partition(red)
    assert tp.regions[0].topology is RegionTopology.ANNULUS
    assert detect_two_strand_torus(red) == 7
    print(f"\nACCEPTANCE 3 (annular twist regions, {checked} regions): PASS")


def test_acceptance_4_constants():
    """Pinned constants agree with the independent oracles to 1e-12."""
    c = constants()
    assert abs(c.v3 - oracle_tetrahedron_volume()) <= 1e-12
    assert abs(c.four_catalan - oracle_four_catalan()) <= 1e-12
    print("\nACCEPTANCE 4 (constants vs oracles): PASS")


def test_acceptance_5_bound_formulas():
    """Window formulas bit-for-bit for t in 1..100 plus the reference
    inequality 4G <= 40 v3."""
    v3 = constants().v3
    for t in range(1, 101):
        w = twist_volume_bounds(t)
        assert w.lower_raw == v3 * (t - 2)
        assert w.lower == max(0.0, v3 * (t - 2))
        assert w.upper == 10.0 * v3 * (t - 1)
        u, _ = augmented_volume_bounds(t)
        assert u.upper == 10.0 * v3 * (5 * t - 1)
    assert constants().four_catalan <= 40.0 * v3
    print("\nACCEPTANCE 5 (bound formulas, t=1..100): PASS")


def test_acceptance_6_hyperbolicity_certificates(pipeline):
    """Every augmentation is certified; the detector never fires on
    pipeline output; torus diagrams fail certification."""
    for case in pipeline:
        assert case.result.certificate.verdict == "hyperbolic", case.seed
        assert detect_two_strand_torus(case.result.g) is None, case.seed
    for n in range(2, 13):
        cert = certify_hyperbolic(two_strand_torus(n))
        assert cert.verdict == "not_certified"
        assert not cert.not_two_strand_torus
    print(f"\nACCEPTANCE 6 (certificates, {len(pipeline)} outputs): PASS")


def test_acceptance_7_refinement(pipeline):
    """Partition refinement holds on every pipeline output."""
    for case in pipeline:
        rep = refinement_check(
            case.result.g,
            augmenting=case.result.augmenting_component,
            expected_d=case.d,
        )
        assert rep.refines, (case.seed, rep.failures)
        p, p_prime, t_g = rep.sizes
        assert p <= p_prime <= t_g
    print(f"\nACCEPTANCE 7 (refinement, {len(pipeline)} outputs): PASS")


def test_acceptance_8_roundtrip_and_validation(corpus, pipeline, raw_closures):
    """Parse/serialize identity everywhere; validation passes on all
    generator output; the Euler count holds at every pipeline stage."""
    diagrams = (
        [d for _s, d in corpus]
        + raw_closures
        + [case.result.g for case in pipeline]
    )
    for d in diagrams:
        assert same_map(parse_pd(serialize_pd(d)), d)
        rep = validate_diagram(d)
        assert rep.valid, rep.failures
    stage_count = 0
    for case in pipeline:
        for name, dia in case.stages:
            for v, e, f in euler_by_piece(dia):
                assert v - e + f == 2, (case.seed, name)
            stage_count += 1
        for v, e, f in euler_by_piece(case.result.g):
            assert v - e + f == 2
    print(f"\nACCEPTANCE 8 (round-trip/validation, {len(diagrams)} diagrams, "
          f"{stage_count} intermediate stages): PASS")


def test_acceptance_9_reduction_fixpoint(raw_closures):
    """preprocess reaches a reduced, R2-reduced fixpoint on the whole
    corpus with monotone crossing and twist counts."""
    for d in raw_closures:
        out, trace = preprocess(d)
        flags = diagram_flags(out)
        assert flags.reduced and flags.r2_reduced
        counts = [trace.crossings_before] + [s.crossings_after for s in trace.steps]
        assert all(a > b for a, b in zip(counts, counts[1:]))
        ts = [trace.t_before] + [s.t_after for s in trace.steps]
        assert all(a >= b for a, b in zip(ts, ts[1:]))
        again, trace2 = preprocess(out)
        assert not trace2.steps
    print(f"\nACCEPTANCE 9 (reduction fixpoint, {len(raw_closures)} diagrams): PASS")
