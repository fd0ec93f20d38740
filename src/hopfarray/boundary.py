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
Every circle lies on the line x2 = 0, so the system commutes with the order
reversal m -> -m and is assembled directly on its even and odd mirror
blocks (mirror_basis).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cylinder import HankelPanels, bessel_hankel_orders, bessel_j_orders, hankel1_orders
from .cylinder import bessel_j_prime_orders, hankel1, hankel1_prime_orders  # noqa: F401  kept for perfbench/tracing.py, which patches them here
from .geometry import ResonatorArray, classify_points


@dataclass(frozen=True)
class WaveParams:
    """Material contrasts of the two-phase medium.

    v and v_b are the exterior/interior wave speeds, delta the (small)
    density contrast.
    """

    v: float
    v_b: float
    delta: float

    def __post_init__(self) -> None:
        if not self.v > 0:
            raise ValueError(f"v must be positive, got {self.v}")
        if not self.v_b > 0:
            raise ValueError(f"v_b must be positive, got {self.v_b}")
        if not self.delta > 0:
            raise ValueError(f"delta must be positive, got {self.delta}")

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

    @classmethod
    def from_vector(cls, vec: np.ndarray, n: int, M: int) -> "MultipoleDensity":
        vec = np.asarray(vec, dtype=complex)
        half = n * (2 * M + 1)
        if vec.size != 2 * half:
            raise ValueError(f"vector length {vec.size} != 2*N*(2M+1) = {2 * half}")
        return cls(psi=vec[:half].reshape(n, 2 * M + 1), phi=vec[half:].reshape(n, 2 * M + 1))

    def scaled(self, factor: complex) -> "MultipoleDensity":
        return MultipoleDensity(psi=self.psi * factor, phi=self.phi * factor)


def _layer_blocks(array: ResonatorArray, k: np.ndarray, M: int):
    """Trace and one-sided normal-derivative matrices of the k-layer at each
    of W wavenumbers k, folded onto the two mirror blocks.

    Every circle lies on the line x2 = 0, so the mirror x2 -> -x2 maps the
    order-m coefficient of every density onto its order -m coefficient, and
    the layer commutes with that reversal. In the orthonormal basis e_0,
    (e_m + e_-m)/sqrt 2 (m = 1..M) of the even block and (e_m - e_-m)/sqrt 2
    of the odd block the layer is block diagonal: the even block keeps the
    rows n >= 0 and sums the columns m and -m, the odd block keeps the rows
    n >= 1 and subtracts them, and e_0's row and column carry 1/sqrt 2.

    Returns [even, odd], each a triple (trace, dtr_out, dtr_in) of W x K x K
    stacks with K = N(M+1) and N M: the boundary values and exterior/interior
    -side radial derivatives on every circle of the single layer carried by
    every circle, in (circle, folded order) block layout. Only the self
    blocks differ between the two sides. Every entry is an elementwise
    function of its own k, so a stack holds the same bits as its one-k
    slices.
    """
    n_res = array.n
    radii = array.radii
    k = k[:, None, None]
    J, Jp, H, Hp = bessel_hankel_orders(np.arange(M + 1), k * radii[:, None])  # each (W, N, M+1)
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
    h_wide = np.zeros((len(k), n_res, n_res, wide.size), dtype=complex)
    h_wide[:, upper[0], upper[1]] = h_pair
    h_wide[:, upper[1], upper[0]] = h_pair
    h_wide *= np.exp(1j * wide * np.arctan2(delta[..., 1], delta[..., 0])[..., None])
    # rows n and folded columns m, both 0..M: the column -m enters through
    # H_{-m-n} and its strength (-1)^m J_m
    n = np.arange(M + 1)
    plus = h_wide[..., n[None, :] - n[:, None] + 2 * M]  # (W, j, i, n, m)
    minus = (-1.0) ** n * h_wide[..., -n[None, :] - n[:, None] + 2 * M]
    weight = np.where(n == 0, np.sqrt(0.5), 1.0)  # e_0 against the pair sums
    self_layer = -0.5j * np.pi * radii[:, None]

    blocks = []
    for fold, w, lo in ((plus + minus, weight, 0), (plus - minus, 1.0, 1)):
        width = M + 1 - lo
        G = np.moveaxis(fold[..., lo:, lo:], 2, 3)  # (W, j, n, i, m)
        block = G * (w * strength)[:, None, None, :, lo:]
        trace = (w * J)[..., lo:, None, None] * block
        dtr_out = k[..., None, None] * (w * Jp)[..., lo:, None, None] * block
        dtr_in = dtr_out.copy()
        own, order = np.arange(n_res)[:, None], np.arange(width)[None, :]
        trace[:, own, order, own, order] = (self_layer * J * H)[..., lo:]
        dtr_out[:, own, order, own, order] = (self_layer * k * J * Hp)[..., lo:]
        dtr_in[:, own, order, own, order] = (self_layer * k * H * Jp)[..., lo:]
        shape = (len(k), n_res * width, n_res * width)
        blocks.append((trace.reshape(shape), dtr_out.reshape(shape), dtr_in.reshape(shape)))
    return blocks


def mirror_basis(n: int, M: int) -> tuple[np.ndarray, np.ndarray]:
    """Real orthonormal bases (Q_even, Q_odd) of the even and odd mirror
    blocks in the 2N(2M+1) density space: on each circle and density, the
    columns e_0, (e_m + e_-m)/sqrt 2 and (e_m - e_-m)/sqrt 2, m = 1..M. A
    boundary matrix is Q_even A_even Q_even^T + Q_odd A_odd Q_odd^T."""
    q = np.sqrt(0.5)
    even, odd = np.zeros((2 * M + 1, M + 1)), np.zeros((2 * M + 1, M))
    even[M, 0] = 1.0
    for m in range(1, M + 1):
        even[M + m, m] = even[M - m, m] = q
        odd[M + m, m - 1], odd[M - m, m - 1] = q, -q
    units = np.eye(2 * n)  # (density, circle) pairs
    return np.kron(units, even), np.kron(units, odd)


def assemble_boundary_matrices(array: ResonatorArray, params: WaveParams, omegas, M: int):
    """The transmission matrices at W frequencies on their two mirror
    blocks: (even, odd) stacks of shape (W, 2N(M+1), 2N(M+1)) and
    (W, 2NM, 2NM), in the bases of mirror_basis.

    Row blocks enforce continuity of the field and the delta-weighted
    normal-derivative jump on each circle; column blocks are the exterior
    and interior density coefficients. Each matrix has the same bits as
    when its frequency is assembled alone.
    """
    omegas = np.asarray(omegas, dtype=complex).ravel()
    if not omegas.all():
        raise ValueError("omega must be nonzero")
    if M < 1:
        raise ValueError(f"truncation order M must be >= 1, got {M}")
    k, kb = params.wavenumbers(omegas)
    exterior = _layer_blocks(array, k, M)
    interior = exterior
    if not np.array_equal(kb, k):  # v = v_b makes the two layers one
        interior = _layer_blocks(array, kb, M)
    stacks = []
    for (ext_tr, ext_dtr, _), (int_tr, _, int_dtr) in zip(exterior, interior):
        K = ext_tr.shape[-1]
        matrix = np.empty((len(omegas), 2 * K, 2 * K), dtype=complex)
        np.copyto(matrix[:, :K, :K], ext_tr)
        np.negative(int_tr, out=matrix[:, :K, K:])
        np.multiply(params.delta, ext_dtr, out=matrix[:, K:, :K])
        np.negative(int_dtr, out=matrix[:, K:, K:])
        stacks.append(matrix)
    return tuple(stacks)


def assemble_boundary_system(
    array: ResonatorArray, params: WaveParams, omega: complex, M: int
) -> np.ndarray:
    """The full 2N(2M+1) transmission matrix at one frequency, rebuilt from
    the one-omega blocks of assemble_boundary_matrices."""
    even, odd = (stack[0] for stack in assemble_boundary_matrices(array, params, [omega], M))
    q_even, q_odd = mirror_basis(array.n, M)
    return (q_even @ even) @ q_even.T + (q_odd @ odd) @ q_odd.T


def evaluate_field(array: ResonatorArray, params: WaveParams, omega: complex, density: MultipoleDensity,
                   points) -> np.ndarray | complex:
    """Evaluate the represented field at one or many points: the
    one-density case of sample_fields."""
    values = sample_fields(array, params, [omega], [density], points)[0]
    return complex(values[0]) if np.asarray(points).ndim == 1 else values


# mode x node entries per chunk: bounds the (M+1, modes, nodes) tables
_CHUNK = 1 << 13


def sample_fields(array: ResonatorArray, params: WaveParams, omegas, densities: list[MultipoleDensity],
                  points) -> np.ndarray:
    """(F, P) values of F represented fields, each at its own frequency.

    Outside every circle the exterior density radiates at omega/v; inside a
    circle the interior densities of all circles radiate at omega/v_b (the
    host circle through its regular expansion, the others through their
    outgoing expansions). Per circle, distances, angles and e^{im theta}
    serve all fields, and the nodes of each region are chunked. The outgoing
    tables at the nodes' distances come from the call's own
    cylinder.HankelPanels, one per circle and wavenumber set (one set when
    v = v_b), within 1e-12 relative of AMOS and about 3e-14 in the
    subwavelength band; the rest are the cylinder tables. Each chunk's table
    is contracted with the densities order by order. Every point sums the
    circles in order, so its value does not depend on the other points. A
    point on a circle (geometry.classify_points) raises ValueError.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if pts.shape[1] != 2:
        raise ValueError(f"points must be 2-vectors, got shape {pts.shape}")
    if any(d.n_resonators != array.n for d in densities):
        raise ValueError("density resonator count does not match array")
    psi = np.stack([d.psi for d in densities])  # (F, N, 2M+1)
    phi = np.stack([d.phi for d in densities])
    M = densities[0].truncation
    k, kb = params.wavenumbers(np.asarray(omegas, dtype=complex)[:, None])  # (F, 1)
    orders = np.arange(-M, M + 1)
    exterior = [HankelPanels(k, radius) for radius in array.radius]
    interior = exterior if np.array_equal(k, kb) else [HankelPanels(kb, radius) for radius in array.radius]

    # coefficients of the outgoing (J strength) and regular (H strength) waves
    radii = array.radii[None, :, None]
    strength = -0.5j * np.pi * radii
    ext_out = psi * (strength * bessel_j_orders(orders, k[:, :, None] * radii))
    int_out = phi * (strength * bessel_j_orders(orders, kb[:, :, None] * radii))
    int_reg = phi * (strength * hankel1_orders(orders, kb[:, :, None] * radii))

    def regular(nmax, r):  # the host circle's J table
        return bessel_j_orders(np.arange(nmax + 1)[:, None, None], kb * r)

    values = np.zeros((len(psi), len(pts)), dtype=complex)
    step = max(1, _CHUNK // len(psi))
    region = np.empty(len(pts), dtype=int)
    for start in range(0, len(pts), step):
        region[start:start + step] = classify_points(array.centers, array.radii, pts[start:start + step])
    for i, center in enumerate(array.centers):
        diff = pts - center
        rho = np.hypot(diff[:, 0], diff[:, 1])
        turn = (diff[:, 0] + 1j * diff[:, 1]) / np.where(rho > 0, rho, 1.0)
        for mask, coeff, table in (
            (region < 0, ext_out[:, i], exterior[i].orders),
            ((region >= 0) & (region != i), int_out[:, i], interior[i].orders),
            (region == i, int_reg[:, i], regular),
        ):
            if not coeff.any():
                continue
            nodes = np.flatnonzero(mask)
            for start in range(0, nodes.size, step):
                idx = nodes[start:start + step]
                tab = table(M, rho[idx])  # (M+1, F, P)
                acc = coeff[:, M, None] * tab[0]
                e_theta = turn[idx]
                power = np.ones_like(e_theta)
                for m in range(1, M + 1):
                    power = power * e_theta  # e^{i m theta}
                    acc += tab[m] * (
                        coeff[:, M + m, None] * power + (-1) ** m * coeff[:, M - m, None] * power.conj()
                    )
                values[:, idx] += acc
    return values
