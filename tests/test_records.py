"""The package's public surface: the records' contract
(``record_contract.py``) under pytest, each check on each of
``Crossing``, ``Edge``, ``Face`` and ``TwistRegion``, and the names
``altknot`` exports."""

from __future__ import annotations

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
        "Edge", "EdgeClassification", "Face", "HyperbolicityCertificate", "MergeArc",
        "PrimalityWitness", "ReductionTrace", "RefinementReport", "RegionTopology",
        "ShadingClasses", "Sign", "TwistPartition", "TwistRegion", "ValidationReport",
        "VolumeBounds", "VolumeConstants", "analysis_report", "augment", "augmented_volume_bounds",
        "braid_closure", "build_cut_curves", "certify_hyperbolic", "classify_edges", "constants",
        "detect_two_strand_torus", "diagram_flags", "face_set", "faces", "find_merge_arc",
        "flip_crossing", "join_curves", "overlay_unlink", "parse_pd", "preprocess",
        "propagate_finger", "random_knot_diagram", "render_svg", "serialize_pd",
        "shading_classes", "twist_partition", "twist_volume_bounds", "two_strand_torus",
        "validate_diagram", "volume_report",
    ]
    names = {}
    exec("from altknot import *", names)
    assert sorted(set(names) - {"__builtins__"}) == altknot.__all__
