"""Graded linear arrays of circular resonators with a point source.

The array sits on the line x2 = 0. Radii grow geometrically with a grading
factor s, and the gap between neighbours grows in proportion to the size of
the smaller (left) neighbour. The leftmost circle is placed tangent to the
origin so the source, on the negative x1-axis, is always outside the array.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class Resonator:
    """A single circular resonator: center (2-vector) and radius > 0."""

    center: tuple[float, float]
    radius: float

    def __post_init__(self) -> None:
        if not np.isfinite(self.radius) or self.radius <= 0:
            raise ValueError(f"radius must be a positive finite real, got {self.radius}")
        if len(self.center) != 2 or not all(np.isfinite(c) for c in self.center):
            raise ValueError(f"center must be a finite 2-vector, got {self.center}")
        object.__setattr__(self, "center", (float(self.center[0]), float(self.center[1])))
        object.__setattr__(self, "radius", float(self.radius))


@dataclass(frozen=True)
class ResonatorArray:
    """Ordered collection of disjoint circles plus the source location.

    Invariants (checked by :func:`validate_array`):

    - circles pairwise disjoint (center distance > sum of radii),
    - all centers on the line x2 = 0, ordered by increasing x1,
    - source strictly outside every circle.
    """

    resonators: tuple[Resonator, ...]
    source: tuple[float, float]
    grading_factor: float = 1.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "resonators", tuple(self.resonators))
        object.__setattr__(self, "source", (float(self.source[0]), float(self.source[1])))
        object.__setattr__(self, "grading_factor", float(self.grading_factor))
        violations = validate_array(self)
        if violations:
            raise ValueError("invalid resonator array: " + "; ".join(violations))

    @property
    def n(self) -> int:
        return len(self.resonators)

    @property
    def centers(self) -> np.ndarray:
        """Centers as an (N, 2) array."""
        return np.array([r.center for r in self.resonators], dtype=float)

    @property
    def radii(self) -> np.ndarray:
        return np.array([r.radius for r in self.resonators], dtype=float)

    def largest_index(self) -> int:
        """Index of the largest circle (ties broken by lowest index)."""
        radii = self.radii
        return int(np.argmax(radii))


def validate_array(array: ResonatorArray) -> list[str]:
    """Return a list of invariant violations; empty iff the array is valid.

    Diagnostic only: never raises.
    """
    violations: list[str] = []
    res = array.resonators
    if len(res) == 0:
        violations.append("array contains no resonators")
        return violations
    for idx, r in enumerate(res):
        if abs(r.center[1]) > 0.0:
            violations.append(f"resonator {idx} center not on the line x2=0: {r.center}")
    for idx in range(len(res) - 1):
        if res[idx].center[0] >= res[idx + 1].center[0]:
            violations.append(
                f"resonators {idx} and {idx + 1} not ordered by increasing x1"
            )
    for i in range(len(res)):
        for j in range(i + 1, len(res)):
            d = np.hypot(
                res[i].center[0] - res[j].center[0],
                res[i].center[1] - res[j].center[1],
            )
            if d <= res[i].radius + res[j].radius:
                violations.append(
                    f"resonators {i} and {j} overlap: center distance {d:.6g} "
                    f"<= radius sum {res[i].radius + res[j].radius:.6g}"
                )
    for idx, r in enumerate(res):
        d = np.hypot(array.source[0] - r.center[0], array.source[1] - r.center[1])
        if d <= r.radius:
            violations.append(
                f"source {array.source} lies inside or on resonator {idx}"
            )
    return violations


def graded_layout(n: int, first_radius: float, s: float, gap_ratio: float):
    """x1 of the centers and the radii of the n circles of a graded array.

    Radius i + 1 is radius i times s, and center i + 1 is center i plus
    radius i, the gap gap_ratio * radius i and radius i + 1, each added to
    the running sum in that order; circle 0 touches the origin. A value past
    the float range is inf.
    """
    with np.errstate(over="ignore"):
        radii = np.multiply.accumulate(np.r_[first_radius, np.full(n - 1, s)].astype(float))
        steps = np.stack([radii[:-1], gap_ratio * radii[:-1], radii[1:]], axis=1).ravel()
        return np.add.accumulate(np.r_[radii[0], steps])[::3], radii


def build_graded_array(
    n: int,
    first_radius: float,
    s: float,
    gap_ratio: float,
    source_x: float,
) -> ResonatorArray:
    """Build a graded linear array of n circles with a source at (source_x, 0).

    Circle i (0-based) has radius first_radius * s**i. The gap between
    circles i and i+1 is gap_ratio times the radius of circle i, so the
    separation grows in proportion to the size. The leftmost circle is
    tangent to the origin from the right.

    Raises ValueError on non-positive parameters or if the source does not
    lie strictly left of the first circle.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if not first_radius > 0:
        raise ValueError(f"first_radius must be positive, got {first_radius}")
    if not s > 0:
        raise ValueError(f"grading factor s must be positive, got {s}")
    if not gap_ratio > 0:
        raise ValueError(f"gap_ratio must be positive, got {gap_ratio}")

    centers_x, radii = graded_layout(n, first_radius, s, gap_ratio)
    leftmost = centers_x[0] - radii[0]
    if not source_x < leftmost:
        raise ValueError(
            f"source_x must lie strictly left of the first circle boundary "
            f"(x = {leftmost:.6g}), got {source_x}"
        )

    resonators = tuple(
        Resonator(center=(x, 0.0), radius=r) for x, r in zip(centers_x, radii)
    )
    return ResonatorArray(resonators=resonators, source=(source_x, 0.0), grading_factor=s)

