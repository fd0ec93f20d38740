"""Complex resonances and eigenmodes of the coupled resonator array.

The N subwavelength resonances are the complex frequencies where the
assembled boundary system becomes singular. They are located by seeding
from the isolated-disk monopole resonances plus the local minima of a
coarse smallest-singular-value scan, then refined with Muller iteration on
the reciprocal of a resolvent probe (which has simple zeros exactly at the
resonances and stays analytic nearby). Found roots deflate the probe so
clustered, hybridized resonances are resolved one by one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import lu_factor, lu_solve

from .boundary import (
    MultipoleDensity,
    WaveParams,
    assemble_boundary_system,
    evaluate_field,
)
from .cylinder import bessel_j, hankel1
from .geometry import ResonatorArray
from .quadrature import disk_rule


class ResonanceSearchError(RuntimeError):
    """Raised when the search window does not yield exactly N resonances."""


class DegenerateModeError(RuntimeError):
    """Raised when the nullspace at a resonance is (numerically) multiple."""


@dataclass(frozen=True)
class Resonance:
    """A located resonance: frequency, boundary-system residual, truncation,
    and the relative drift of the frequency under M -> M+2 refinement."""

    omega: complex
    residual: float
    truncation: int
    drift: float


@dataclass(frozen=True)
class Eigenmode:
    """Normalized eigenmode attached to a resonance.

    density already carries the normalization: the represented field has
    unit L2 norm over the union of disk interiors and the interior mean
    over the largest disk is real and positive. normalization is the
    complex factor that was applied to the raw unit singular vector.
    sv_gap is the ratio s[-2]/s[-1] of the two smallest singular values of
    the boundary system at the resonance: how clearly the mode is simple.
    """

    resonance: Resonance
    density: MultipoleDensity
    normalization: complex
    array: ResonatorArray
    params: WaveParams
    sv_gap: float

    def field(self, points, side: str | None = None):
        """Evaluate the mode at one or many points."""
        return evaluate_field(
            self.array, self.params, self.resonance.omega, self.density, points, side=side
        )


def _muller(
    f,
    z0: complex,
    tol: float = 1e-13,
    max_iter: int = 60,
    max_step: float | None = None,
) -> complex:
    """Muller iteration for a simple zero of an analytic function.

    max_step caps the length of each update so the iteration cannot leave
    the region of interest in one jump.
    """
    h = 1e-3 * max(abs(z0), 1e-12)
    xs = [z0 + h, z0 - 0.5j * h, z0]
    fs = [f(x) for x in xs]
    x = xs[-1]
    for _ in range(max_iter):
        x0, x1, x2 = xs
        f0, f1, f2 = fs
        if x1 == x2 or x0 == x1:
            break
        q = (x2 - x1) / (x1 - x0)
        a = q * f2 - q * (1 + q) * f1 + q**2 * f0
        b = (2 * q + 1) * f2 - (1 + q) ** 2 * f1 + q**2 * f0
        c = (1 + q) * f2
        disc = np.sqrt(complex(b * b - 4 * a * c))
        den1, den2 = b + disc, b - disc
        den = den1 if abs(den1) >= abs(den2) else den2
        if den == 0:
            break
        step = -(x2 - x1) * (2 * c / den)
        if max_step is not None and abs(step) > max_step:
            step *= max_step / abs(step)
        x = x2 + step
        fx = f(x)
        xs = [x1, x2, x]
        fs = [f1, f2, fx]
        if abs(x - x2) <= tol * max(abs(x), 1e-30):
            return x
        if abs(fx) == 0.0:
            return x
    return x


def single_disk_resonance(radius: float, params: WaveParams) -> complex:
    """Monopole resonance of one isolated disk.

    Root of  k_b J_1(k_b R) H_0(k R) - delta k J_0(k_b R) H_1(k R) = 0,
    seeded from the high-contrast small-frequency asymptotics (Minnaert-type
    scaling with the 2D logarithmic correction).
    """
    R = float(radius)
    delta = params.delta

    # fixed-point on kb^2 = (4 delta / (pi R^2)) * (-i) / (1 + (2i/pi) L)
    kb = 2.0 * np.sqrt(delta) / R
    for _ in range(4):
        k = kb * params.v_b / params.v
        L = np.log(k * R / 2.0) + np.euler_gamma
        kb = np.sqrt((4.0 * delta / (np.pi * R * R)) * (-1j) / (1.0 + (2j / np.pi) * L))
        if kb.real < 0:
            kb = -kb

    def det(omega: complex) -> complex:
        k, kbv = params.wavenumbers(omega)
        return kbv * bessel_j(1, kbv * R) * hankel1(0, k * R) - delta * k * bessel_j(
            0, kbv * R
        ) * hankel1(1, k * R)

    return _muller(det, params.v_b * kb)


def _sigma_min(matrix: np.ndarray) -> float:
    return float(np.linalg.svd(matrix, compute_uv=False)[-1])


class _ResolventProbe:
    """1 / (w^H A(omega)^{-1} q) with fixed random probe vectors.

    Vanishes (simply, generically) exactly where A is singular and is
    analytic nearby, so it is a good Muller target.
    """

    def __init__(self, array: ResonatorArray, params: WaveParams, M: int):
        self.array = array
        self.params = params
        self.M = M
        dim = 2 * array.n * (2 * M + 1)
        rng = np.random.default_rng(7)
        q = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        w = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        self.q = q / np.linalg.norm(q)
        self.w = w / np.linalg.norm(w)

    def __call__(self, omega: complex) -> complex:
        A = assemble_boundary_system(self.array, self.params, omega, self.M).matrix
        x = lu_solve(lu_factor(A), self.q)
        return 1.0 / np.vdot(self.w, x)


def _default_search(seeds: list[complex], omega_max: float) -> dict:
    # collective modes hybridize far beyond the isolated-disk values
    # (log-range coupling in 2D), so the window is generous on both sides
    re_vals = np.array([s.real for s in seeds])
    im_vals = np.array([s.imag for s in seeds])
    re_lo = max(0.2 * re_vals.min(), 1e-6 * re_vals.max())
    re_hi = min(max(6.0 * re_vals.max(), 2.0 * re_vals.min()), omega_max)
    im_extent = 4.0 * max(np.abs(im_vals).max(), 0.02 * re_vals.max())
    return {"re": (re_lo, re_hi), "im": (-im_extent, im_extent)}


def subwavelength_cutoff(array: ResonatorArray, params: WaveParams, ratio: float = 10.0) -> float:
    """Largest omega whose wavelength is >= ratio times the largest diameter."""
    d_max = 2.0 * float(array.radii.max())
    return 2.0 * np.pi * params.v / (ratio * d_max)


def find_resonances(
    array: ResonatorArray,
    params: WaveParams,
    M: int = 5,
    search: dict | None = None,
) -> list[Resonance]:
    """Locate the N subwavelength resonances of the coupled array.

    Returns exactly N resonances sorted by ascending real part, each with
    smallest singular value <= tolerance and frequency drift < 1e-4
    relative under M -> M+2 refinement. Raises ResonanceSearchError when
    the window produces a different count or refinement does not settle.
    """
    search = dict(search or {})
    omega_max = search.pop("omega_max", None) or subwavelength_cutoff(array, params)
    grid = search.pop("grid", None)
    tolerance = search.pop("tolerance", 1e-9)
    drift_tol = search.pop("drift_tolerance", 1e-4)
    if search:
        raise ValueError(f"unknown search keys: {sorted(search)}")
    if grid is None:
        grid = (24 + 8 * array.n, 9)
    if isinstance(grid, int):
        grid = (grid, max(5, grid // 3))

    n_res = array.n
    disk_seeds = [single_disk_resonance(r.radius, params) for r in array.resonators]
    if any(abs(s) > omega_max for s in disk_seeds):
        raise ResonanceSearchError(
            "isolated-disk seeds exceed the subwavelength window; "
            "lower delta or raise omega_max"
        )
    window = _default_search(disk_seeds, omega_max)

    # coarse scan: local minima of sigma_min seed the refinement
    re_grid = np.linspace(*window["re"], grid[0])
    im_grid = np.linspace(*window["im"], grid[1])
    sig = np.empty((grid[0], grid[1]))
    for a, re in enumerate(re_grid):
        for b, im in enumerate(im_grid):
            sig[a, b] = _sigma_min(
                assemble_boundary_system(array, params, complex(re, im), M).matrix
            )
    scan_seeds = []
    for a in range(grid[0]):
        for b in range(grid[1]):
            lo_a, hi_a = max(a - 1, 0), min(a + 2, grid[0])
            lo_b, hi_b = max(b - 1, 0), min(b + 2, grid[1])
            if sig[a, b] == sig[lo_a:hi_a, lo_b:hi_b].min():
                scan_seeds.append((sig[a, b], complex(re_grid[a], im_grid[b])))
    scan_seeds = [z for _, z in sorted(scan_seeds, key=lambda t: t[0])][: 3 * n_res]

    probe = _ResolventProbe(array, params, M)
    max_step = 0.25 * (window["re"][1] - window["re"][0])

    roots: list[complex] = []
    sigma: dict[complex, float] = {}  # sigma_min of each accepted root at order M

    def deflated(omega: complex) -> complex:
        val = probe(omega)
        for r in roots:
            val /= omega - r
        return val

    def try_seed(seed: complex) -> None:
        near_known = any(abs(seed - r) <= 1e-6 * abs(r) for r in roots)
        if near_known:
            return
        z = _muller(deflated, seed, max_step=max_step)
        if not np.isfinite(z.real) or not np.isfinite(z.imag):
            return
        if not (0 < z.real <= omega_max and abs(z) <= omega_max):
            return
        for r in roots:
            if abs(z - r) <= 1e-8 * abs(r):
                return  # duplicate
        res = _sigma_min(assemble_boundary_system(array, params, z, M).matrix)
        if res <= tolerance:
            roots.append(z)
            sigma[z] = res

    for seed in disk_seeds + scan_seeds:
        try_seed(seed)
    if len(roots) < n_res:
        for seed in disk_seeds:
            for fac in (1.0 + 0.05j, 1.0 - 0.05j, 0.9, 1.1, 1.3, 1.6):
                try_seed(seed * fac)
    if len(roots) < n_res:
        # close pairs hide next to already-found roots; deflation steers
        # perturbed restarts onto the hidden neighbour
        for eps in (0.003, 0.01, 0.03, 0.1):
            for root in list(roots):
                for fac in (1 + eps, 1 - eps, 1 + 1j * eps, 1 - 1j * eps):
                    try_seed(root * fac)
                if len(roots) >= n_res:
                    break

    if len(roots) != n_res:
        raise ResonanceSearchError(
            f"found {len(roots)} resonances, expected {n_res}; the search "
            f"window (omega_max={omega_max:.4g}) is likely misconfigured"
        )

    # stability under truncation refinement
    probe_hi = _ResolventProbe(array, params, M + 2)
    refined: list[Resonance] = []
    for z in sorted(roots, key=lambda w: w.real):
        z_hi = _muller(probe_hi, z)
        drift = abs(z_hi - z) / abs(z)
        if drift > drift_tol:
            raise ResonanceSearchError(
                f"resonance {z:.6g} drifts by {drift:.3g} "
                f"relative under M={M} -> {M + 2} refinement"
            )
        refined.append(Resonance(omega=z, residual=sigma[z], truncation=M, drift=drift))
    return refined


def extract_eigenmode(
    array: ResonatorArray,
    params: WaveParams,
    resonance: Resonance,
    n_radial: int = 24,
    n_angular: int = 64,
) -> Eigenmode:
    """Nullspace density at a resonance, normalized over the disk interiors.

    The density is the right singular vector of the boundary system for its
    smallest singular value, scaled so the interior L2 norm is one and the
    interior mean over the largest disk is real and positive. Raises
    DegenerateModeError when the two smallest singular values are not
    clearly separated.
    """
    system = assemble_boundary_system(array, params, resonance.omega, resonance.truncation)
    _, s, vh = np.linalg.svd(system.matrix)
    if s[-2] <= 1e4 * s[-1]:
        raise DegenerateModeError(
            f"smallest singular values {s[-1]:.3g}, {s[-2]:.3g} are not separated; "
            "resolve the degeneracy with a symmetry-restricted subsystem"
        )
    raw = MultipoleDensity.from_vector(
        vh[-1].conj(), array.n, resonance.truncation
    )

    # interior L2 normalization
    norm_sq = 0.0
    disk_means: list[complex] = []
    for r in array.resonators:
        pts, wts = disk_rule(r.center, r.radius, n_radial, n_angular)
        vals = evaluate_field(array, params, resonance.omega, raw, pts)
        norm_sq += float(np.sum(wts * np.abs(vals) ** 2))
        disk_means.append(complex(np.sum(wts * vals) / np.sum(wts)))
    if norm_sq <= 0:
        raise DegenerateModeError("nullspace vector has zero interior norm")
    scale = 1.0 / np.sqrt(norm_sq)

    anchor = array.largest_index()
    mean = disk_means[anchor]
    if abs(mean) < 1e-10 * np.sqrt(norm_sq):
        anchor = int(np.argmax(np.abs(disk_means)))
        mean = disk_means[anchor]
    phase = mean / abs(mean)
    normalization = complex(scale / phase)

    return Eigenmode(
        resonance=resonance,
        density=raw.scaled(normalization),
        normalization=normalization,
        array=array,
        params=params,
        sv_gap=float(s[-2] / s[-1]),
    )
