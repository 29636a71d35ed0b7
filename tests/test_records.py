"""The package's public surface: the records' contract
(``record_contract.py``) under pytest, each check on each of
``Crossing``, ``Edge`` and ``TwistRegion``; the names ``altknot``
exports; and the parameters of the entry points that take no options."""

from __future__ import annotations

import inspect

import pytest

import altknot
from record_contract import CHECKS, RECORDS


@pytest.mark.parametrize("record", RECORDS, ids=lambda r: r[0].__name__)
@pytest.mark.parametrize("check", CHECKS, ids=lambda c: c.__name__)
def test_record_contract(check, record):
    check(*record)


def test_public_names():
    # the functions and records imported into the package, and none of
    # the submodules they come from
    assert altknot.__all__ == [
        "AugmentationResult", "Crossing", "CutCurve", "CutSystem", "Diagram", "DiagramFlags",
        "Edge", "EdgeClassification", "HyperbolicityCertificate", "MergeArc",
        "PrimalityWitness", "ReductionTrace", "RegionTopology",
        "ShadingClasses", "Sign", "TwistPartition", "TwistRegion", "ValidationReport",
        "VolumeBounds", "VolumeConstants", "analysis_report", "augment", "augmented_volume_bounds",
        "braid_closure", "build_cut_curves", "certify_hyperbolic", "classify_edges", "constants",
        "detect_two_strand_torus", "diagram_flags", "face_set", "find_merge_arc",
        "flip_crossing", "join_curves", "overlay_unlink", "parse_pd", "preprocess",
        "propagate_finger", "random_knot_diagram", "render_svg", "serialize_pd",
        "shading_classes", "twist_partition", "twist_volume_bounds", "two_strand_torus",
        "validate_diagram", "volume_report",
    ]
    names = {}
    exec("from altknot import *", names)
    assert sorted(set(names) - {"__builtins__"}) == altknot.__all__


def test_parameter_names():
    # the construction takes the diagram and nothing else; the generator's
    # draw count and the selfcheck's crossing cap are constants
    from altknot import selfcheck

    def params(f):
        return list(inspect.signature(f).parameters)

    assert params(altknot.augment) == ["d"]
    assert params(altknot.build_cut_curves) == ["d"]
    assert params(altknot.random_knot_diagram) == ["seed", "n_letters", "flips", "max_crossings"]
    assert params(selfcheck.run_case) == ["seed", "n_letters", "flips"]
