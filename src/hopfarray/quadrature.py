"""Composite quadrature over the upper half of a box containing the resonator array.

Every circle is centred on x2 = 0 and every resonant mode is even in x2 (it
lives in the even mirror block of the boundary system), so every integrand
the modal projection forms is even in x2. The rules therefore keep only the
nodes with x2 >= 0: a node above the axis carries twice its weight, a node
on the axis (x2 = 0 exactly, by construction) carries its weight once. The
box must be symmetric about x2 = 0.

The integration region is split into pieces on which the integrands are
smooth, so every rule converges fast and a node-count doubling check is a
meaningful accuracy certificate:

- each disk interior: Gauss-Legendre in radius x uniform (trapezoid) in angle,
- a square collar around each disk: polar face-panels from the circle out to
  the square boundary,
- the box minus the squares: axis-aligned rectangles, panelized tensor
  Gauss-Legendre.

The box is worked out from the array by default_spec, and the node counts
are module constants: EXT_ORDER per side of an exterior panel, RING_COUNTS
per collar face and DISK_COUNTS per disk. So the exterior panel size is the
rules' one input besides the array, and the interior rule takes none.
"""

from __future__ import annotations

import functools

import numpy as np

from .geometry import ResonatorArray


MAX_EXTERIOR_NODES = 2**22  # about 50 times all 80,160 nodes of the 22-disk default rule

EXT_ORDER = 8  # Gauss-Legendre nodes per side of an exterior panel
RING_COUNTS = (10, 12)  # (radial, angular) Gauss-Legendre nodes per collar face
DISK_COUNTS = (16, 48)  # (radial Gauss-Legendre, uniform angular) nodes per disk
PANEL_SIZE = 2.5  # the default longest side of an exterior panel


def default_spec(array: ResonatorArray) -> tuple[float, float, float, float]:
    """The box (x_min, x_max, y_min, y_max) of the rules: the tight box
    around the circles and the source, padded on each side by a quarter of
    its diagonal. It is symmetric about x2 = 0, as the half-plane rules
    need, and the pad (at least half the largest radius) makes it strictly
    contain every circle and the source. A box past the float range raises
    ValueError."""
    cxs = array.centers[:, 0]
    radii = array.radii
    with np.errstate(over="ignore"):  # past the float range the box is infinite, and rejected
        xs = np.concatenate([cxs - radii, cxs + radii, [array.source[0]]])
        ys = np.concatenate([-radii, radii, [array.source[1]]])
        x0, x1 = float(xs.min()), float(xs.max())
        y0, y1 = float(ys.min()), float(ys.max())
        diag = float(np.hypot(x1 - x0, y1 - y0))
    pad = 0.25 * diag
    box = (x0 - pad, x1 + pad, y0 - pad, y1 + pad)
    if not np.isfinite(box).all():
        raise ValueError(f"box {box} is not finite")
    return box


@functools.cache
def gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only nodes (ascending) and weights of the n-point Gauss-Legendre
    rule on [-1, 1], by Golub-Welsch: the eigenvalues of the Jacobi matrix
    of the Legendre recurrence, and twice the squared first components of
    its eigenvectors (G. H. Golub and J. H. Welsch, Math. Comp. 23, 1969)."""
    k = np.arange(1, n)
    x, v = np.linalg.eigh(np.diag(k / np.sqrt(4.0 * k * k - 1.0), 1), UPLO="U")
    w = 2.0 * v[0] ** 2
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


def _half_gauss(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The nodes t > 0 of the n-point Gauss-Legendre rule on [-1, 1], n
    even, with twice their weights."""
    x, w = gauss_legendre(n)
    return x[n // 2:], 2.0 * w[n // 2:]


def _panels(a: float, b: float, count: int, order: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre of the given order on each of count equal panels of [a, b]."""
    edges = np.linspace(a, b, count + 1)
    half, mid = 0.5 * (edges[1:] - edges[:-1]), 0.5 * (edges[:-1] + edges[1:])
    x, w = gauss_legendre(order)
    return (half[:, None] * x + mid[:, None]).ravel(), (half[:, None] * w).ravel()


def _count(length, panel_size: float):
    """Panels at most panel_size long over a length, or over each of an array
    of lengths, as a float: inf where the ratio is past the float range."""
    with np.errstate(over="ignore"):
        return np.maximum(np.ceil(np.divide(length, panel_size)), 1.0)


def _half_panels(h: float, panel_size: float) -> tuple[np.ndarray, np.ndarray]:
    """The nodes y > 0 of the panelized Gauss-Legendre rule of EXT_ORDER on
    [-h, h], with mirrored weights. An odd panel count leaves a middle panel
    across y = 0, which keeps its upper half by _half_gauss."""
    n = int(_count(2.0 * h, panel_size))
    y, w = _panels(h / n if n % 2 else 0.0, h, n // 2, EXT_ORDER)
    if n % 2 == 0:
        return y, 2.0 * w
    t, wt = _half_gauss(EXT_ORDER)
    return np.concatenate([(h / n) * t, y]), np.concatenate([(h / n) * wt, 2.0 * w])


def _polar(center_x: float, rho: np.ndarray, theta: np.ndarray, on_axis: np.ndarray) -> np.ndarray:
    """Points (center_x, 0) + rho (cos theta, sin theta) over rho's grid,
    with x2 = 0 exactly where on_axis (theta = 0 or pi)."""
    sin = np.where(on_axis, 0.0, np.sin(theta))
    return np.column_stack([(center_x + rho * np.cos(theta)).ravel(), (rho * sin).ravel()])


def disk_rule(center_x: float, radius: float):
    """Polar rule over the upper half of the disk about (center_x, 0), for
    integrands even in x2: DISK_COUNTS = (n_radial, n_angular) nodes,
    Gauss-Legendre in radius, uniform in angle.

    Keeps the angles 2 pi k / n_angular for k = 0..n_angular/2; the angles on
    the axis (0 and pi) carry their weight once, the rest twice. Returns
    (points (P,2), weights (P,)). Exact for angular content below
    n_angular/2 and radially-smooth integrands.
    """
    n_radial, n_angular = DISK_COUNTS
    rho, w_rho = _panels(0.0, radius, 1, n_radial)
    k = np.arange(n_angular // 2 + 1)
    on_axis = 2 * k % n_angular == 0
    theta = 2.0 * np.pi * k / n_angular
    w_theta = np.where(on_axis, 1.0, 2.0) * (2.0 * np.pi / n_angular)
    pts = _polar(center_x, rho[:, None], theta[None, :], on_axis[None, :])
    return pts, ((w_rho * rho)[:, None] * w_theta[None, :]).ravel()


def ring_rule(center_x: float, r_inner: float, half_width: float):
    """Polar rule over the upper half of the square of half_width about
    (center_x, 0) minus its inscribed disk of r_inner, for integrands even
    in x2, with RING_COUNTS = (n_radial, n_angular) nodes per face.

    Face panels; on each, rays run from the circle to the square edge
    R(theta) = half_width / cos(theta - face_angle). The right and left
    faces (angles 0 and pi) keep their upper angles by _half_gauss; the top
    face doubles its weights, and stands for the bottom face. No ray lies
    on the axis.
    """
    if not (half_width > r_inner):
        raise ValueError("ring requires half_width > r_inner")
    n_radial, n_angular = RING_COUNTS
    pts_all = []
    wts_all = []
    t, w_t = gauss_legendre(n_angular)
    h, w_h = _half_gauss(n_angular)
    u, w_u = gauss_legendre(n_radial)
    for phi0, s, w_s in ((0.0, h, w_h), (np.pi / 2.0, t, 2.0 * w_t), (np.pi, -h, w_h)):
        theta = phi0 + (np.pi / 4.0) * s
        w_theta = (np.pi / 4.0) * w_s
        r_out = half_width / np.cos(theta - phi0)
        # map u in [-1,1] to [r_inner, r_out(theta)] per ray
        rho = r_inner + 0.5 * (u[:, None] + 1.0) * (r_out[None, :] - r_inner)
        w_rho = 0.5 * (r_out[None, :] - r_inner) * w_u[:, None]
        pts_all.append(_polar(center_x, rho, theta[None, :], False))
        wts_all.append((w_rho * rho * w_theta[None, :]).ravel())
    return np.vstack(pts_all), np.concatenate(wts_all)


def _tensor(x_rule, y_rule):
    """Tensor product of two one-dimensional rules (nodes, weights)."""
    (gx, wx), (gy, wy) = x_rule, y_rule
    X, Y = np.meshgrid(gx, gy, indexing="ij")
    return np.column_stack([X.ravel(), Y.ravel()]), np.outer(wx, wy).ravel()


def collar_half_widths(array: ResonatorArray, box) -> np.ndarray:
    """Half-width of the square collar around each disk in the box.

    Standoff fills 45% of the gap to each neighbour (capped at half the
    radius) so collars never touch each other or the box.
    """
    radii = array.radii
    cxs = array.centers[:, 0]
    x0, x1, y0, y1 = box
    step = cxs[1:] - cxs[:-1]
    slack = np.minimum.reduce([
        0.5 * radii,
        np.r_[np.inf, 0.45 * (step - radii[1:] - radii[:-1])],  # gap to the left neighbour
        np.r_[0.45 * (step - radii[:-1] - radii[1:]), np.inf],  # gap to the right neighbour
        # keep the whole square inside the box
        0.9 * (cxs - x0) - radii,
        0.9 * (x1 - cxs) - radii,
        0.9 * y1 - radii,
        0.9 * (-y0) - radii,
    ])
    if (slack <= 0).any():
        raise ValueError(
            f"box {box} leaves no room for a collar around resonator {np.argmax(slack <= 0)}"
        )
    return radii + slack


def _exterior_layout(array: ResonatorArray, panel_size: float):
    """What exterior_rule(array, panel_size) is built from: the box, the
    collar half-widths, and the rectangles off the collars as arrays over
    the strips it keeps (x in [a, b], and y in [-y1, y1] where across, a
    strip between collars, else y in [c, y1], above a collar of half-width
    c); then its node count, a float, exact below 2**53. A panel_size that
    is not positive and finite, or a count past MAX_EXTERIOR_NODES, raises
    ValueError naming it."""
    if not 0 < panel_size < np.inf:  # NaN too
        raise ValueError(f"panel_size must be positive and finite, got {panel_size}")
    box = default_spec(array)
    widths = collar_half_widths(array, box)
    x0, x1, _, y1 = box
    cxs = array.centers[:, 0]
    edges = np.concatenate([[x0], np.column_stack([cxs - widths, cxs + widths]).ravel(), [x1]])
    a, b = edges[:-1], edges[1:]
    across = np.arange(len(a)) % 2 == 0
    c = np.zeros(len(a))
    c[1::2] = widths
    keep = (b - a > 1e-12) & (across | (y1 - c > 1e-12))
    a, b, c, across = a[keep], b[keep], c[keep], across[keep]
    with np.errstate(over="ignore"):
        # a ring holds its top face and the upper halves of its left and right faces;
        # a strip across the axis holds the upper half of its nodes
        y_nodes = np.where(across, _count(2.0 * y1, panel_size) / 2,
                           _count(y1 - c, panel_size)) * EXT_ORDER
        count = (len(widths) * 2 * RING_COUNTS[0] * RING_COUNTS[1]
                 + float(np.sum(_count(b - a, panel_size) * EXT_ORDER * y_nodes)))
    if count > MAX_EXTERIOR_NODES:
        held = f"{count:.3g}" if count < np.inf else f"more than {np.finfo(float).max:.2g}"
        raise ValueError(f"the exterior rule over the box {box} at panel_size {panel_size!r}"
                         f" would hold {held} nodes, past the bound of {MAX_EXTERIOR_NODES}")
    return box, widths, (a, b, c, across), count


def exterior_node_count(array: ResonatorArray, panel_size: float) -> float:
    """The number of nodes exterior_rule(array, panel_size) returns, counted
    without building the rule (see _exterior_layout)."""
    return _exterior_layout(array, panel_size)[3]


def exterior_rule(array: ResonatorArray, panel_size: float):
    """Quadrature over the upper half (x2 >= 0) of the box minus all disks,
    for integrands even in x2: collar rings + rectangles in panels at most
    panel_size long per side.

    Returns (points (P,2), weights (P,)). All points lie strictly outside
    every circle; a point on the axis carries its weight once, any other
    twice. A rule past MAX_EXTERIOR_NODES raises ValueError before any node
    is built (see _exterior_layout).
    """
    (_, _, _, y1), widths, strips, _ = _exterior_layout(array, panel_size)
    rules = [ring_rule(cx, r, w) for cx, r, w in zip(array.centers[:, 0], array.radii, widths)]
    for a, b, c, across in zip(*strips):
        x_rule = _panels(a, b, int(_count(b - a, panel_size)), EXT_ORDER)
        if across:
            rules.append(_tensor(x_rule, _half_panels(y1, panel_size)))
        else:
            y, w = _panels(c, y1, int(_count(y1 - c, panel_size)), EXT_ORDER)
            rules.append(_tensor(x_rule, (y, 2.0 * w)))
    return np.vstack([p for p, _ in rules]), np.concatenate([w for _, w in rules])


def interior_rule(array: ResonatorArray):
    """Quadrature over the upper half (x2 >= 0) of the disk interiors, for
    integrands even in x2 (see disk_rule).

    Returns (points (P,2), weights (P,), disk_index (P,) int).
    """
    pts_all = []
    wts_all = []
    idx_all = []
    for i, (x, r) in enumerate(zip(array.center_x, array.radius)):
        p, w = disk_rule(x, r)
        pts_all.append(p)
        wts_all.append(w)
        idx_all.append(np.full(len(w), i, dtype=int))
    return np.vstack(pts_all), np.concatenate(wts_all), np.concatenate(idx_all)
