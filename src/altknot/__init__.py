"""altknot: alternating augmentations of link diagrams with certified
twist-number and volume bounds."""

from types import ModuleType as _ModuleType

__version__ = "0.1.0"

from .analysis import (
    DiagramFlags,
    EdgeClassification,
    PrimalityWitness,
    RegionTopology,
    ShadingClasses,
    TwistPartition,
    TwistRegion,
    analysis_report,
    classify_edges,
    detect_two_strand_torus,
    diagram_flags,
    shading_classes,
    twist_partition,
)
from .augmentation import (
    AugmentationResult,
    CutCurve,
    CutSystem,
    HyperbolicityCertificate,
    MergeArc,
    augment,
    build_cut_curves,
    certify_hyperbolic,
    find_merge_arc,
    join_curves,
    overlay_unlink,
    propagate_finger,
)
from .diagram import (
    Crossing,
    Diagram,
    Edge,
    Sign,
    ValidationReport,
    face_set,
    flip_crossing,
    parse_pd,
    serialize_pd,
    validate_diagram,
)
from .generate import braid_closure, random_knot_diagram, two_strand_torus
from .reduction import ReductionTrace, preprocess
from .render import render_svg
from .volume import (
    VolumeBounds,
    VolumeConstants,
    augmented_volume_bounds,
    constants,
    twist_volume_bounds,
    volume_report,
)

# the public names are the ones imported above, not the submodules they
# come from, which importing binds here too
__all__ = [
    name for name, value in sorted(globals().items())
    if not name.startswith("_") and not isinstance(value, _ModuleType)
]
