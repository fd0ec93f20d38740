"""Multipole discretization of the two-wavenumber transmission problem.

The field is represented by single-layer potentials over the circle
boundaries: an exterior density psi propagated at wavenumber omega/v and an
interior density phi at omega/v_b. On circle boundaries the densities are
expanded in angular Fourier modes e^{i m theta}, |m| <= M. For a layer on a
circle of radius R centered at the origin,

    S^k[e^{im theta}](x) = -(i pi R / 2) J_m(kR) H_m^(1)(k rho) e^{im theta},  rho > R,
    S^k[e^{im theta}](x) = -(i pi R / 2) H_m^(1)(kR) J_m(k rho) e^{im theta},  rho < R,

which gives analytic traces and one-sided normal derivatives on the circle
itself. Coupling between circles re-expands outgoing waves about the other
center through the addition theorem

    H_m(k|x - c_i|) e^{im theta_i} =
        sum_n H_{m-n}(k b_ij) e^{i(m-n) theta_ij} J_n(k|x - c_j|) e^{in theta_j},

valid for |x - c_j| < b_ij = |c_j - c_i| (guaranteed by disjointness). The
assembled square system enforces continuity of the field and the
density-contrast-weighted jump of its normal derivative on every circle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cylinder import (
    bessel_j_orders,
    bessel_j_prime_orders,
    hankel1,
    hankel1_orders,
    hankel1_prime_orders,
)
from .geometry import ResonatorArray

_BOUNDARY_TOL = 1e-12


@dataclass(frozen=True)
class WaveParams:
    """Material contrasts of the two-phase medium.

    v and v_b are the exterior/interior wave speeds, delta the (small)
    density contrast. tau = v_b / v is stored redundantly and checked.
    """

    v: float
    v_b: float
    delta: float
    tau: float | None = None

    def __post_init__(self) -> None:
        if not self.v > 0:
            raise ValueError(f"v must be positive, got {self.v}")
        if not self.v_b > 0:
            raise ValueError(f"v_b must be positive, got {self.v_b}")
        if not self.delta > 0:
            raise ValueError(f"delta must be positive, got {self.delta}")
        tau = self.v_b / self.v
        if self.tau is None:
            object.__setattr__(self, "tau", tau)
        elif abs(self.tau - tau) > 1e-12 * abs(tau):
            raise ValueError(
                f"inconsistent tau: given {self.tau}, but v_b/v = {tau}"
            )

    def wavenumbers(self, omega: complex) -> tuple[complex, complex]:
        """(exterior, interior) wavenumbers at angular frequency omega."""
        return omega / self.v, omega / self.v_b


@dataclass(frozen=True)
class MultipoleDensity:
    """Fourier coefficients of the two surface densities.

    psi and phi are (N, 2M+1) complex arrays; column m+M holds the
    coefficient of e^{i m theta} on each circle.
    """

    psi: np.ndarray
    phi: np.ndarray

    def __post_init__(self) -> None:
        psi = np.asarray(self.psi, dtype=complex)
        phi = np.asarray(self.phi, dtype=complex)
        if psi.shape != phi.shape or psi.ndim != 2 or psi.shape[1] % 2 != 1:
            raise ValueError(
                f"psi/phi must share shape (N, 2M+1), got {psi.shape} and {phi.shape}"
            )
        object.__setattr__(self, "psi", psi)
        object.__setattr__(self, "phi", phi)

    @property
    def n_resonators(self) -> int:
        return self.psi.shape[0]

    @property
    def truncation(self) -> int:
        return (self.psi.shape[1] - 1) // 2

    def to_vector(self) -> np.ndarray:
        return np.concatenate([self.psi.ravel(), self.phi.ravel()])

    @classmethod
    def from_vector(cls, vec: np.ndarray, n: int, M: int) -> "MultipoleDensity":
        vec = np.asarray(vec, dtype=complex)
        half = n * (2 * M + 1)
        if vec.size != 2 * half:
            raise ValueError(f"vector length {vec.size} != 2*N*(2M+1) = {2 * half}")
        return cls(psi=vec[:half].reshape(n, 2 * M + 1), phi=vec[half:].reshape(n, 2 * M + 1))

    def scaled(self, factor: complex) -> "MultipoleDensity":
        return MultipoleDensity(psi=self.psi * factor, phi=self.phi * factor)


@dataclass(frozen=True)
class BoundarySystem:
    """Assembled transmission system at one complex frequency.

    The matrix acts on the stacked coefficient vector
    [psi_0, ..., psi_{N-1}, phi_0, ..., phi_{N-1}] (each block 2M+1 long).
    Rows are continuity conditions followed by flux conditions, in the same
    (circle, order) layout.
    """

    omega: complex
    matrix: np.ndarray
    truncation: int
    n_resonators: int

    @property
    def dimension(self) -> int:
        return self.matrix.shape[0]

    def sigma_min(self) -> float:
        """Smallest singular value of the system matrix."""
        return float(np.linalg.svd(self.matrix, compute_uv=False)[-1])


def fundamental_solution(k: complex, x) -> complex:
    """Outgoing 2D kernel -(i/4) H_0^(1)(k |x|)."""
    if k == 0:
        raise ValueError("fundamental solution requires k != 0")
    r = float(np.hypot(x[0], x[1]))
    if r == 0.0:
        raise ValueError("fundamental solution is singular at x = 0")
    return -0.25j * hankel1(0, k * r)


def _layer_blocks(array: ResonatorArray, k: complex, M: int):
    """Trace and one-sided normal-derivative matrices of the k-layer.

    Returns (trace, dtr_out, dtr_in), each K x K with K = N(2M+1): the
    boundary values and exterior/interior-side radial derivatives on every
    circle of the single layer carried by every circle, in (circle, order)
    block layout. Only the self blocks differ between the two sides.
    """
    n_res = array.n
    width = 2 * M + 1
    orders = np.arange(-M, M + 1)
    radii = array.radii
    z = k * radii[:, None]
    J = bessel_j_orders(orders, z)  # (N, 2M+1)
    Jp = bessel_j_prime_orders(orders, z)
    H = hankel1_orders(orders, z)
    Hp = hankel1_prime_orders(orders, z)
    # radiating strength of each circle's unit Fourier density
    strength = -0.5j * np.pi * radii[:, None] * J

    # translation coefficients H_{m-n}(k b_ji) e^{i(m-n) theta_ji} from circle
    # i to circle j, one Hankel table over the unordered pair distances
    delta = array.centers[:, None, :] - array.centers[None, :, :]  # c_j - c_i
    b = np.hypot(delta[..., 0], delta[..., 1])
    bad = (b <= radii[:, None]) & ~np.eye(n_res, dtype=bool)
    if bad.any():
        j, i = np.argwhere(bad)[0]
        raise ValueError(
            f"addition theorem invalid: circle {j} not inside the "
            f"annulus of circle {i} (distance {b[j, i]:.6g} <= radius {radii[j]:.6g})"
        )
    wide = np.arange(-2 * M, 2 * M + 1)
    upper = np.triu_indices(n_res, 1)
    h_pair = hankel1_orders(wide, k * b[upper][:, None])  # b_ij = b_ji
    h_wide = np.zeros((n_res, n_res, wide.size), dtype=complex)
    h_wide[upper] = h_pair
    h_wide[upper[::-1]] = h_pair
    h_wide *= np.exp(1j * wide * np.arctan2(delta[..., 1], delta[..., 0])[..., None])
    diff = orders[None, :] - orders[:, None]  # m - n
    G = np.moveaxis(h_wide[:, :, diff + 2 * M], 1, 2)  # (j, n, i, m)
    block = G * strength[None, None, :, :]

    trace = J[:, :, None, None] * block
    dtr_out = k * Jp[:, :, None, None] * block
    dtr_in = dtr_out.copy()
    own, order = np.arange(n_res)[:, None], np.arange(width)[None, :]
    self_layer = -0.5j * np.pi * radii[:, None]
    trace[own, order, own, order] = self_layer * J * H
    dtr_out[own, order, own, order] = self_layer * k * J * Hp
    dtr_in[own, order, own, order] = self_layer * k * H * Jp
    K = n_res * width
    return trace.reshape(K, K), dtr_out.reshape(K, K), dtr_in.reshape(K, K)


def assemble_boundary_system(
    array: ResonatorArray, params: WaveParams, omega: complex, M: int
) -> BoundarySystem:
    """Assemble the 2N(2M+1) transmission system at frequency omega.

    Row blocks enforce continuity of the field and the delta-weighted
    normal-derivative jump on each circle; column blocks are the exterior
    and interior density coefficients.
    """
    if omega == 0:
        raise ValueError("omega must be nonzero")
    if M < 1:
        raise ValueError(f"truncation order M must be >= 1, got {M}")
    k, kb = params.wavenumbers(omega)
    ext_tr, ext_dtr, int_dtr = _layer_blocks(array, k, M)
    int_tr = ext_tr
    if kb != k:  # v = v_b makes the two layers one
        int_tr, _, int_dtr = _layer_blocks(array, kb, M)
    top = np.hstack([ext_tr, -int_tr])
    bottom = np.hstack([params.delta * ext_dtr, -int_dtr])
    return BoundarySystem(
        omega=complex(omega),
        matrix=np.vstack([top, bottom]),
        truncation=M,
        n_resonators=array.n,
    )


def _classify_points(array: ResonatorArray, points: np.ndarray, side: str | None):
    """Return (containing disk index or -1 per point) honoring the side
    selector for points on a circle boundary."""
    centers = array.centers
    radii = array.radii
    diff = points[:, None, :] - centers[None, :, :]
    dist = np.hypot(diff[..., 0], diff[..., 1])  # (P, N)
    scale = np.maximum(radii[None, :], 1.0)
    on_boundary = np.abs(dist - radii[None, :]) <= _BOUNDARY_TOL * scale
    if on_boundary.any():
        if side is None:
            bad = points[on_boundary.any(axis=1)][0]
            raise ValueError(
                f"point {tuple(bad)} lies on a resonator boundary; pass "
                "side='exterior' or side='interior' to select the trace"
            )
        if side not in ("exterior", "interior"):
            raise ValueError(f"side must be 'exterior' or 'interior', got {side!r}")
    inside = dist < radii[None, :]
    if side == "interior":
        inside = inside | on_boundary
    elif side == "exterior":
        inside = inside & ~on_boundary
    region = np.where(inside.any(axis=1), inside.argmax(axis=1), -1)
    return region, dist, diff


def evaluate_field(
    array: ResonatorArray,
    params: WaveParams,
    omega: complex,
    density: MultipoleDensity,
    points,
    side: str | None = None,
) -> np.ndarray | complex:
    """Evaluate the represented field at one or many points.

    Outside every circle the exterior density radiates at omega/v; inside a
    circle the interior densities of all circles radiate at omega/v_b (the
    host circle through its regular expansion, the others through their
    outgoing expansions). Points within 1e-12 of a boundary need the side
    selector.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    scalar_input = np.asarray(points).ndim == 1
    if pts.shape[1] != 2:
        raise ValueError(f"points must be 2-vectors, got shape {pts.shape}")
    M = density.truncation
    if density.n_resonators != array.n:
        raise ValueError("density resonator count does not match array")
    k, kb = params.wavenumbers(omega)
    orders = np.arange(-M, M + 1)
    centers = array.centers
    radii = array.radii

    region, dist, diff = _classify_points(array, pts, side)
    values = np.zeros(len(pts), dtype=complex)

    ext_idx = np.nonzero(region < 0)[0]
    if ext_idx.size:
        for i in range(array.n):
            coeff = density.psi[i] * (
                -0.5j * np.pi * radii[i] * bessel_j_orders(orders, k * radii[i])
            )
            if not coeff.any():
                continue
            z = k * dist[ext_idx, i]
            theta = np.arctan2(diff[ext_idx, i, 1], diff[ext_idx, i, 0])
            basis = hankel1_orders(orders[:, None], z[None, :]) * np.exp(
                1j * orders[:, None] * theta[None, :]
            )
            values[ext_idx] += coeff @ basis

    for j in range(array.n):
        idx = np.nonzero(region == j)[0]
        if not idx.size:
            continue
        for i in range(array.n):
            if not density.phi[i].any():
                continue
            z = kb * dist[idx, i]
            theta = np.arctan2(diff[idx, i, 1], diff[idx, i, 0])
            phase = np.exp(1j * orders[:, None] * theta[None, :])
            if i == j:
                coeff = density.phi[j] * (
                    -0.5j * np.pi * radii[j] * hankel1_orders(orders, kb * radii[j])
                )
                basis = bessel_j_orders(orders[:, None], z[None, :]) * phase
            else:
                coeff = density.phi[i] * (
                    -0.5j * np.pi * radii[i] * bessel_j_orders(orders, kb * radii[i])
                )
                basis = hankel1_orders(orders[:, None], z[None, :]) * phase
            values[idx] += coeff @ basis

    if scalar_input:
        return complex(values[0])
    return values
