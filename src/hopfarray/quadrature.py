"""Composite quadrature over a box containing the resonator array.

The integration region is split into pieces on which the integrands are
smooth, so every rule converges fast and a node-count doubling check is a
meaningful accuracy certificate:

- each disk interior: Gauss-Legendre in radius x uniform (trapezoid) in angle,
- a square collar around each disk: four polar face-panels from the circle
  out to the square boundary,
- the box minus the squares: axis-aligned rectangles, panelized tensor
  Gauss-Legendre.

Node counts scale together through a single QuadratureSpec so `refine(2)`
doubles everything.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .geometry import ResonatorArray


@dataclass(frozen=True)
class QuadratureSpec:
    """Box and node-count configuration for the composite rule.

    box: (x_min, x_max, y_min, y_max), must strictly contain every circle
    and the source. ext_order is the Gauss-Legendre order per exterior panel
    (panels are at most panel_size long per side); disk_radial/disk_angular
    are the per-disk interior counts; ring_radial/ring_angular the collar
    counts per face.
    """

    box: tuple[float, float, float, float]
    ext_order: int = 8
    panel_size: float = 2.5
    ring_radial: int = 10
    ring_angular: int = 12
    disk_radial: int = 16
    disk_angular: int = 48

    def __post_init__(self) -> None:
        x0, x1, y0, y1 = self.box
        if not (x1 > x0 and y1 > y0):
            raise ValueError(f"degenerate box {self.box}")
        for name in ("ext_order", "ring_radial", "ring_angular", "disk_radial", "disk_angular"):
            if getattr(self, name) < 2:
                raise ValueError(f"{name} must be >= 2, got {getattr(self, name)}")
        if self.disk_angular < 8:
            raise ValueError("disk_angular must be >= 8")

    def refine(self, factor: int = 2) -> "QuadratureSpec":
        """Scale every node count by an integer factor (box unchanged)."""
        return replace(
            self,
            ext_order=self.ext_order * factor,
            ring_radial=self.ring_radial * factor,
            ring_angular=self.ring_angular * factor,
            disk_radial=self.disk_radial * factor,
            disk_angular=self.disk_angular * factor,
        )

    def validate_against(self, array: ResonatorArray) -> None:
        """Check the box strictly contains all circles and the source."""
        x0, x1, y0, y1 = self.box
        for idx, r in enumerate(array.resonators):
            cx, cy = r.center
            if not (x0 < cx - r.radius and cx + r.radius < x1 and y0 < cy - r.radius and cy + r.radius < y1):
                raise ValueError(f"box {self.box} does not strictly contain resonator {idx}")
        sx, sy = array.source
        if not (x0 < sx < x1 and y0 < sy < y1):
            raise ValueError(f"box {self.box} does not contain the source {array.source}")


def default_spec(array: ResonatorArray, inflate: float = 0.5, **kwargs) -> QuadratureSpec:
    """Bounding box of circles + source, expanded on each side by
    inflate/2 times the diagonal of the tight box."""
    cxs = array.centers[:, 0]
    radii = array.radii
    xs = np.concatenate([cxs - radii, cxs + radii, [array.source[0]]])
    ys = np.concatenate([-radii, radii, [array.source[1]]])
    x0, x1 = float(xs.min()), float(xs.max())
    y0, y1 = float(ys.min()), float(ys.max())
    diag = float(np.hypot(x1 - x0, y1 - y0))
    pad = 0.5 * inflate * diag
    return QuadratureSpec(box=(x0 - pad, x1 + pad, y0 - pad, y1 + pad), **kwargs)


def _gauss(n: int | tuple, a: float, b: float) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre rule on [a, b] of n points, or of leggauss's (x, w) pair."""
    x, w = n if isinstance(n, tuple) else np.polynomial.legendre.leggauss(n)
    return 0.5 * (b - a) * x + 0.5 * (a + b), 0.5 * (b - a) * w


def disk_rule(center, radius: float, n_radial: int, n_angular: int):
    """Polar rule over a disk: Gauss-Legendre radius, uniform angle.

    Returns (points (P,2), weights (P,)). Exact for angular content below
    n_angular/2 and radially-smooth integrands.
    """
    rho, w_rho = _gauss(n_radial, 0.0, radius)
    theta = 2.0 * np.pi * np.arange(n_angular) / n_angular
    w_theta = np.full(n_angular, 2.0 * np.pi / n_angular)
    R, T = np.meshgrid(rho, theta, indexing="ij")
    pts = np.column_stack(
        [center[0] + (R * np.cos(T)).ravel(), center[1] + (R * np.sin(T)).ravel()]
    )
    wts = ((w_rho * rho)[:, None] * w_theta[None, :]).ravel()
    return pts, wts


def ring_rule(center, r_inner: float, half_width: float, n_radial: int, n_angular: int):
    """Polar rule over square-of-half-width minus inscribed disk of r_inner.

    Four face panels; on each, rays run from the circle to the square edge
    R(theta) = half_width / cos(theta - face_angle).
    """
    if not (half_width > r_inner):
        raise ValueError("ring requires half_width > r_inner")
    pts_all = []
    wts_all = []
    t, w_t = np.polynomial.legendre.leggauss(n_angular)
    u, w_u = np.polynomial.legendre.leggauss(n_radial)
    for face in range(4):
        phi0 = face * np.pi / 2.0
        theta = phi0 + (np.pi / 4.0) * t
        w_theta = (np.pi / 4.0) * w_t
        r_out = half_width / np.cos(theta - phi0)
        # map u in [-1,1] to [r_inner, r_out(theta)] per ray
        rho = r_inner + 0.5 * (u[:, None] + 1.0) * (r_out[None, :] - r_inner)
        w_rho = 0.5 * (r_out[None, :] - r_inner) * w_u[:, None]
        x = center[0] + rho * np.cos(theta)[None, :]
        y = center[1] + rho * np.sin(theta)[None, :]
        pts_all.append(np.column_stack([x.ravel(), y.ravel()]))
        wts_all.append((w_rho * rho * w_theta[None, :]).ravel())
    return np.vstack(pts_all), np.concatenate(wts_all)


def rectangle_rule(x0: float, x1: float, y0: float, y1: float, order: int, panel_size: float):
    """Panelized tensor Gauss-Legendre over an axis-aligned rectangle."""
    nx = max(1, int(np.ceil((x1 - x0) / panel_size)))
    ny = max(1, int(np.ceil((y1 - y0) / panel_size)))
    xs = np.linspace(x0, x1, nx + 1)
    ys = np.linspace(y0, y1, ny + 1)
    base = np.polynomial.legendre.leggauss(order)
    rows = [_gauss(base, ys[j], ys[j + 1]) for j in range(ny)]
    pts_all = []
    wts_all = []
    for i in range(nx):
        gx, wx = _gauss(base, xs[i], xs[i + 1])
        for gy, wy in rows:
            X, Y = np.meshgrid(gx, gy, indexing="ij")
            pts_all.append(np.column_stack([X.ravel(), Y.ravel()]))
            wts_all.append(np.outer(wx, wy).ravel())
    return np.vstack(pts_all), np.concatenate(wts_all)


def collar_half_widths(array: ResonatorArray, spec: QuadratureSpec) -> np.ndarray:
    """Half-width of the square collar around each disk.

    Standoff fills 45% of the gap to each neighbour (capped at half the
    radius) so collars never touch each other or the box.
    """
    radii = array.radii
    cxs = array.centers[:, 0]
    x0, x1, y0, y1 = spec.box
    n = array.n
    widths = np.empty(n)
    for i in range(n):
        slack = 0.5 * radii[i]
        if i > 0:
            gap = cxs[i] - cxs[i - 1] - radii[i] - radii[i - 1]
            slack = min(slack, 0.45 * gap)
        if i < n - 1:
            gap = cxs[i + 1] - cxs[i] - radii[i] - radii[i + 1]
            slack = min(slack, 0.45 * gap)
        # keep the whole square inside the box
        slack = min(
            slack,
            0.9 * (cxs[i] - x0) - radii[i],
            0.9 * (x1 - cxs[i]) - radii[i],
            0.9 * y1 - radii[i],
            0.9 * (-y0) - radii[i],
        )
        if slack <= 0:
            raise ValueError(
                f"box {spec.box} leaves no room for a collar around resonator {i}"
            )
        widths[i] = radii[i] + slack
    return widths


def exterior_rule(array: ResonatorArray, spec: QuadratureSpec):
    """Quadrature over box minus all disks: collar rings + rectangles.

    Returns (points (P,2), weights (P,)). All points lie strictly outside
    every circle.
    """
    spec.validate_against(array)
    x0, x1, y0, y1 = spec.box
    widths = collar_half_widths(array, spec)
    cxs = array.centers[:, 0]
    radii = array.radii

    pts_all = []
    wts_all = []
    for i in range(array.n):
        p, w = ring_rule(
            (cxs[i], 0.0), radii[i], widths[i], spec.ring_radial, spec.ring_angular
        )
        pts_all.append(p)
        wts_all.append(w)

    # vertical strips between/around the collars
    edges = [x0]
    for i in range(array.n):
        edges.extend([cxs[i] - widths[i], cxs[i] + widths[i]])
    edges.append(x1)
    for k in range(len(edges) - 1):
        a, b = edges[k], edges[k + 1]
        if b - a <= 1e-12:
            continue
        if k % 2 == 1:
            # strip containing collar (k-1)//2: rectangles above and below
            w_i = widths[(k - 1) // 2]
            for lo, hi in ((y0, -w_i), (w_i, y1)):
                if hi - lo > 1e-12:
                    p, w = rectangle_rule(a, b, lo, hi, spec.ext_order, spec.panel_size)
                    pts_all.append(p)
                    wts_all.append(w)
        else:
            p, w = rectangle_rule(a, b, y0, y1, spec.ext_order, spec.panel_size)
            pts_all.append(p)
            wts_all.append(w)
    return np.vstack(pts_all), np.concatenate(wts_all)


def interior_rule(array: ResonatorArray, spec: QuadratureSpec):
    """Quadrature over the union of disk interiors.

    Returns (points (P,2), weights (P,), disk_index (P,) int).
    """
    pts_all = []
    wts_all = []
    idx_all = []
    for i, r in enumerate(array.resonators):
        p, w = disk_rule(r.center, r.radius, spec.disk_radial, spec.disk_angular)
        pts_all.append(p)
        wts_all.append(w)
        idx_all.append(np.full(len(w), i, dtype=int))
    return np.vstack(pts_all), np.concatenate(wts_all), np.concatenate(idx_all)
