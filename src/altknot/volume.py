"""Volume bounds from twist numbers.

Two constants drive everything: the volume of the regular ideal
hyperbolic tetrahedron (v3 = 3 * Lobachevsky(pi/3), equivalently
2 * Lobachevsky(pi/6)) and four times Catalan's constant (the common
volume of the two smallest two-cusped hyperbolic manifolds, used as a
reference value; also the regular ideal octahedron's volume,
8 * Lobachevsky(pi/4)).  Both are pinned as binary64 literals; the test
suite recomputes them with an independent quadrature /
accelerated-series oracle to 1e-12.

For a prime alternating diagram of a hyperbolic link with twist count t,
the volume of the complement satisfies

    v3 * (t - 2)  <=  vol  <=  10 * v3 * (t - 1)

and for a non-alternating knot whose diagram has twist count t, the
minimal volume over its alternating augmentations is at most
10 * v3 * (5 t - 1); the matching lower bound needs the (uncomputable
here) diagram-minimal twist number, so it is exposed only under an
explicit caller claim.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DomainError, NotCertified

_V3 = 1.0149416064096536
_FOUR_CATALAN = 3.6638623767088760


@dataclass(frozen=True)
class VolumeConstants:
    v3: float
    four_catalan: float


def constants() -> VolumeConstants:
    """Pinned binary64 values of the two reference constants."""
    return VolumeConstants(_V3, _FOUR_CATALAN)


@dataclass(frozen=True)
class VolumeBounds:
    t: int
    lower_raw: float
    lower: float
    upper: float
    kind: str  # "alternating" | "augmented_upper" | "augmented_lower"


def twist_volume_bounds(t: int) -> VolumeBounds:
    """Volume window for a prime alternating diagram with twist count t."""
    if t < 1:
        raise DomainError(f"twist count must be >= 1, got {t}")
    raw = _V3 * (t - 2)
    return VolumeBounds(t, raw, max(0.0, raw), 10.0 * _V3 * (t - 1), "alternating")


def augmented_volume_bounds(
    t_diagram: int, t_lower_claim: int | None = None
) -> tuple[VolumeBounds, VolumeBounds | None]:
    """Bounds on the minimal volume over alternating augmentations.

    The upper bound 10 * v3 * (5 t - 1) is unconditional for a qualifying
    diagram with twist count ``t_diagram``.  A lower bound needs the
    minimum twist count over all diagrams, so it is returned only when
    the caller claims one (the claim may not exceed ``t_diagram``).
    """
    if t_diagram < 1:
        raise DomainError(f"twist count must be >= 1, got {t_diagram}")
    upper = VolumeBounds(
        t_diagram, 0.0, 0.0, 10.0 * _V3 * (5 * t_diagram - 1), "augmented_upper"
    )
    lower = None
    if t_lower_claim is not None:
        if t_lower_claim < 1:
            raise DomainError(f"claimed twist count must be >= 1, got {t_lower_claim}")
        if t_lower_claim > t_diagram:
            raise DomainError(
                "claimed minimal twist count exceeds the diagram's twist count"
            )
        raw = _V3 * (t_lower_claim - 2)
        lower = VolumeBounds(
            t_lower_claim, raw, max(0.0, raw), upper.upper, "augmented_lower"
        )
    return upper, lower


def volume_report(result) -> dict:
    """Bundle the volume windows for an augmentation result.

    Requires a hyperbolic certificate.  Reports the window for the
    augmented link's complement at t_G, the augmentation upper bound at
    t_D, and the audit chain t_D <= t_G <= 5 t_D implying the windows
    nest.
    """
    if result.certificate.verdict != "hyperbolic":
        raise NotCertified("augmentation is not certified hyperbolic")
    lack = twist_volume_bounds(result.t_G)
    aug_upper, _ = augmented_volume_bounds(result.t_D)
    audit = {
        "t_D_le_t_G": result.t_D <= result.t_G,
        "t_G_le_5t_D": result.t_G <= 5 * result.t_D,
        "upper_windows_nest": lack.upper <= aug_upper.upper,
    }
    if not all(audit.values()):
        raise NotCertified(f"bound audit failed: {audit}")
    return {
        "v3": _V3,
        "t_D": result.t_D,
        "t_G": result.t_G,
        "vol_lower": lack.lower,
        "vol_lower_raw": lack.lower_raw,
        "vol_upper": lack.upper,
        "altvol_upper": aug_upper.upper,
        "audit": audit,
    }
