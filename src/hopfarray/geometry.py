"""Graded linear arrays of circular resonators with a point source.

The array sits on the line x2 = 0. Radii grow geometrically with a grading
factor s, and the gap between neighbours grows in proportion to the size of
the smaller (left) neighbour. The leftmost circle is placed tangent to the
origin so the source, on the negative x1-axis, is always outside the array.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

_ON_CIRCLE_TOL = 1e-12  # classify_points' distance to a circle, relative to max(r, 1)


@dataclass(frozen=True)
class ResonatorArray:
    """Circles on the line x2 = 0 and a point source on that line.

    Circle i has center (center_x[i], 0) and radius radius[i]; the source is
    at (source_x, 0). The constructor stores float tuples and raises
    ValueError unless:

    - every radius is finite and positive, and every center finite;
    - each circle ends before the next begins, center_x[i] + radius[i] <
      center_x[i + 1] - radius[i + 1]. On one line this is the same as
      ordered by increasing x1 and pairwise disjoint, and it is checked in
      floating point as written, so it also holds for every pair i < j;
    - the source lies outside every circle and off every circle by the rule
      of classify_points.
    """

    center_x: tuple[float, ...]
    radius: tuple[float, ...]
    source_x: float

    def __post_init__(self) -> None:
        x = np.asarray(self.center_x, dtype=float)
        r = np.asarray(self.radius, dtype=float)
        source_x = float(self.source_x)
        object.__setattr__(self, "center_x", tuple(x.ravel().tolist()))
        object.__setattr__(self, "radius", tuple(r.ravel().tolist()))
        object.__setattr__(self, "source_x", source_x)
        violations = _violations(x, r, source_x)
        if violations:
            raise ValueError("invalid resonator array: " + "; ".join(violations))

    @property
    def n(self) -> int:
        return len(self.center_x)

    @functools.cached_property
    def centers(self) -> np.ndarray:
        """Centers as a read-only (N, 2) array, built on first access."""
        x = np.array(self.center_x)
        return _read_only(np.stack([x, np.zeros_like(x)], axis=1))

    @functools.cached_property
    def radii(self) -> np.ndarray:
        """Radii as a read-only (N,) array, built on first access."""
        return _read_only(np.array(self.radius))

    @property
    def source(self) -> tuple[float, float]:
        return (self.source_x, 0.0)

    def largest_index(self) -> int:
        """Index of the largest circle (ties broken by lowest index)."""
        return int(np.argmax(self.radii))


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def _first(mask: np.ndarray) -> tuple[int, str]:
    """Index of the first True entry, and how many more there are as text."""
    hits = np.flatnonzero(mask)
    return int(hits[0]), f" (and {len(hits) - 1} more)" if len(hits) > 1 else ""


def _violations(x: np.ndarray, r: np.ndarray, source_x: float) -> list[str]:
    """What makes the circles (x, r) and the source invalid, each named by
    its first offender; empty iff the array is valid."""
    if x.ndim != 1 or x.shape != r.shape:
        return [f"center_x and radius must be 1-D and of one length, "
                f"got shapes {x.shape} and {r.shape}"]
    if x.size == 0:
        return ["array contains no resonators"]
    if not np.isfinite(source_x):
        return [f"source_x must be finite, got {source_x}"]
    bad_radius = ~(np.isfinite(r) & (r > 0))
    bad_center = ~np.isfinite(x)
    violations = []
    if bad_radius.any():
        i, more = _first(bad_radius)
        violations.append(f"radius {i} must be positive and finite, got {r[i]}{more}")
    if bad_center.any():
        i, more = _first(bad_center)
        violations.append(f"center {i} must be finite, got {x[i]}{more}")
    if violations:
        return violations
    with np.errstate(over="ignore", invalid="ignore"):
        ends, starts = x + r, x - r
        try:
            held = classify_points(np.stack([x, np.zeros_like(x)], axis=1), r,
                                   np.array([[source_x, 0.0]]))[0]
        except ValueError:  # on a circle: name the one it is closest to, relative to the rule
            held = np.argmin(np.abs(np.abs(source_x - x) - r) / np.maximum(r, 1.0))
    overlap = ~(ends[:-1] < starts[1:])
    if overlap.any():
        i, more = _first(overlap)
        violations.append(
            f"resonators {i} and {i + 1} overlap or are out of order: circle {i} ends at "
            f"x1 = {ends[i]:.6g}, circle {i + 1} begins at x1 = {starts[i + 1]:.6g}{more}"
        )
    if held >= 0:
        violations.append(f"source ({source_x}, 0.0) lies inside or on resonator {held}")
    return violations


def classify_points(centers: np.ndarray, radii: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Containing disk index or -1 per point, for disks of the given centers
    (N, 2) and radii. A point within _ON_CIRCLE_TOL * max(r, 1) of a circle
    of radius r, where the field has two traces, raises ValueError. This is
    the one rule for a point on a circle."""
    diff = points[:, None, :] - centers[None, :, :]
    dist = np.hypot(diff[..., 0], diff[..., 1])  # (P, N)
    scale = np.maximum(radii[None, :], 1.0)
    on_boundary = np.abs(dist - radii[None, :]) <= _ON_CIRCLE_TOL * scale
    if on_boundary.any():
        bad = points[on_boundary.any(axis=1)][0]
        raise ValueError(f"point {tuple(bad.tolist())} lies on a resonator boundary")
    inside = dist < radii[None, :]
    return np.where(inside.any(axis=1), inside.argmax(axis=1), -1)


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

    Raises ValueError if n < 1, if the source does not lie strictly left of
    the first circle, or if ResonatorArray rejects the result: a radius that
    is not positive (first_radius or, past the first circle, s), circles
    that touch or overlap (gap_ratio), or a source on circle 0.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    centers_x, radii = graded_layout(n, first_radius, s, gap_ratio)
    leftmost = centers_x[0] - radii[0]
    if not source_x < leftmost:
        raise ValueError(
            f"source_x must lie strictly left of the first circle boundary "
            f"(x = {leftmost:.6g}), got {source_x}"
        )

    return ResonatorArray(center_x=centers_x, radius=radii, source_x=source_x)

