"""Complex resonances and eigenmodes of the coupled resonator array.

The N subwavelength resonances are the complex frequencies where the
boundary system A(omega) is singular. find_resonances locates them with
Beyn's contour-integral method (W.-J. Beyn, Linear Algebra Appl. 436, 2012)
on rectangles right of omega = 0 (the branch point of H_0), and counts them
independently by the winding number of det A. All dense linear algebra here
is numpy.linalg: numpy and scipy ship separate OpenBLAS builds whose thread
pools stall each other when their calls alternate.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .boundary import MultipoleDensity, WaveParams, assemble_boundary_matrices, sample_fields
from .boundary import assemble_boundary_system  # noqa: F401  kept for perfbench/tracing.py, which patches it here
from .boundary import evaluate_field  # noqa: F401  kept for perfbench/tracing.py, which patches it here
from .cylinder import bessel_j, hankel1
from .geometry import ResonatorArray
from .quadrature import default_spec, interior_rule
from .quadrature import disk_rule  # noqa: F401  kept for perfbench/tracing.py, which patches it here


class ResonanceSearchError(RuntimeError):
    """Raised when the search window does not yield exactly N resonances."""


class DegenerateModeError(RuntimeError):
    """Raised when the nullspace at a resonance is (numerically) multiple."""


@dataclass(frozen=True)
class Resonance:
    """A located resonance: frequency, boundary-system residual, truncation,
    and the relative drift of the frequency under M -> M+2 refinement.
    svd holds the singular values and the last right singular vector of the
    boundary system as the search decomposed it, which the eigenmode reuses;
    it is None on a resonance read back from a cache entry."""

    omega: complex
    residual: float
    truncation: int
    drift: float
    svd: tuple[np.ndarray, np.ndarray] | None = field(default=None, repr=False, compare=False)


@dataclass(frozen=True)
class Eigenmode:
    """Normalized eigenmode attached to a resonance.

    density already carries the normalization: the represented field has
    unit L2 norm over the union of disk interiors and the interior mean
    over the largest disk is real and positive. sv_gap is the ratio
    s[-2]/s[-1] of the two smallest singular values of the boundary system
    at the resonance: how clearly the mode is simple.
    """

    resonance: Resonance
    density: MultipoleDensity
    array: ResonatorArray
    params: WaveParams
    sv_gap: float


def _muller(
    f,
    z0: complex,
    tol: float = 1e-13,
    max_iter: int = 60,
) -> complex:
    """Muller iteration for a simple zero of an analytic function."""
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


class _ResolventProbe:
    """1 / (w^H A(omega)^{-1} q) with fixed random probe vectors.

    Vanishes (simply, generically) exactly where A is singular and is
    analytic nearby, so it is a good Muller target.
    """

    def __init__(self, array: ResonatorArray, params: WaveParams, M: int):
        self.array = array
        self.params = params
        self.M = M
        self.calls = 0  # boundary systems assembled
        dim = 2 * array.n * (2 * M + 1)
        rng = np.random.default_rng(7)
        q = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        w = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        self.q = q / np.linalg.norm(q)
        self.w = w / np.linalg.norm(w)

    def matrices(self, omegas) -> np.ndarray:
        """Boundary matrices at the given frequencies, as one stack."""
        self.calls += len(omegas)
        return assemble_boundary_matrices(self.array, self.params, omegas, self.M)

    def __call__(self, omega: complex) -> complex:
        try:
            x = np.linalg.solve(self.matrices([omega])[0], self.q)
        except np.linalg.LinAlgError:  # exactly singular: omega is a resonance
            return 0.0
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


class Resonances(list):
    """Located resonances; search lists each certified sub-contour (box, nodes,
    winding number of det A, resonances accepted, Beyn rank) and the total
    search_assemblies."""
    search: dict


_NODES = (16, 128)  # Gauss-Legendre nodes per edge: fewest and most
_MAX_CONTOURS = 16  # sub-contours per search, so a search ends in bounded time
_RANK_TOL = 1e-10  # singular-value cut of moment 0, relative to its bound
_BEYN_RESIDUAL = 1e-6  # largest |A(z) v| / (|A(z)|_F |v|) of a Beyn pair
_STACK_ENTRIES = 2**17  # contour nodes x matrix entries assembled at a time: about 2 MB


def _inside(box, z: complex) -> bool:
    return bool(box[0] < z.real < box[1] and box[2] < z.imag < box[3])


def _describe(box) -> str:
    return "sub-contour Re [{:.6g}, {:.6g}] x Im [{:.6g}, {:.6g}]".format(*box)


def _beyn(matrices, box, n: int, V: np.ndarray):
    """Winding number of det A around box (n Gauss-Legendre nodes per edge),
    its largest step, the Beyn rank, and the eigenvalues inside box and of
    those the ones whose eigenpairs pass the residual test. The node matrices
    are assembled _STACK_ENTRIES at a time, each stack when its first node
    is reached."""
    corners = np.array([complex(box[i], box[j]) for i, j in ((0, 2), (1, 2), (1, 3), (0, 3))])
    sides = np.roll(corners, -1) - corners
    x, w = np.polynomial.legendre.leggauss(n)
    nodes = (corners[:, None] + np.outer(sides, 0.5 * (x + 1))).ravel()
    weights = np.outer(sides, 0.5 * w).ravel() / (2j * np.pi)
    moments = np.zeros((2, *V.shape), dtype=complex)  # of omega^p A^{-1} V, p = 0, 1
    bound, phase = 0.0, np.empty(len(nodes), dtype=complex)
    size = max(1, _STACK_ENTRIES // len(V) ** 2)
    for j, (z, wz) in enumerate(zip(nodes, weights)):
        if j % size == 0:
            stack = matrices(nodes[j:j + size])
        A = stack[j % size]
        try:
            X = np.linalg.solve(A, V)
        except np.linalg.LinAlgError:
            raise ResonanceSearchError(
                f"{_describe(box)}: boundary system singular at node {z:.6g}") from None
        moments += np.multiply.outer([wz, wz * z], X)
        bound += abs(wz) * np.sqrt(np.vdot(X, X).real)  # |moment 0| without cancellation
        phase[j] = np.linalg.slogdet(A)[0]  # det A / |det A|
    steps = np.angle(np.roll(phase, -1) / phase)
    U, s, Wh = np.linalg.svd(moments[0], full_matrices=False)
    r = int(np.count_nonzero(s > _RANK_TOL * bound))
    eigs, Y = np.linalg.eig(U[:, :r].conj().T @ moments[1] @ Wh[:r].conj().T / s[:r])
    inner = [(z, v) for z, v in zip(eigs, (U[:, :r] @ Y).T) if _inside(box, z)]
    stack = matrices([z for z, _ in inner]) if inner else []
    norm = np.linalg.norm
    passed = [z for (z, v), A in zip(inner, stack) if norm(A @ v) <= _BEYN_RESIDUAL * norm(A) * norm(v)]
    return round(steps.sum() / (2 * np.pi)), np.abs(steps).max(), r, [z for z, _ in inner], passed


def _split(box, points):
    """Halve box across its longer side at the cut in its middle half that
    lies farthest from the points, so no resonance sits on the new edge."""
    k = 0 if box[1] - box[0] >= box[3] - box[2] else 2
    lo, hi = box[k:k + 2]
    cuts = np.linspace(0.75 * lo + 0.25 * hi, 0.25 * lo + 0.75 * hi, 65)
    coords = np.array([lo, hi] + [(z.real, z.imag)[k // 2] for z in points])
    c = float(cuts[np.argmax(np.abs(cuts[:, None] - coords).min(axis=1))])
    return [box[:k] + (lo, c) + box[k + 2:], box[:k] + (c, hi) + box[k + 2:]]


def find_resonances(
    array: ResonatorArray,
    params: WaveParams,
    M: int = 5,
    search: dict | None = None,
) -> Resonances:
    """Locate the N subwavelength resonances of the coupled array.

    Returns exactly N resonances sorted by ascending real part, each with
    smallest singular value <= tolerance and frequency drift < 1e-4
    relative under M -> M+2 refinement. Raises ResonanceSearchError when a
    sub-contour cannot be certified (naming it and both counts) or has a
    node where the system is exactly singular, the window holds another
    count, or refinement does not settle.
    """
    search = dict(search or {})
    omega_max = search.pop("omega_max", None) or subwavelength_cutoff(array, params)
    tolerance = search.pop("tolerance", 1e-9)
    drift_tol = search.pop("drift_tolerance", 1e-4)
    if search:
        raise ValueError(f"unknown search keys: {sorted(search)}")

    n_res = array.n
    disk_seeds = [single_disk_resonance(r, params) for r in array.radii]
    if any(abs(s) > omega_max for s in disk_seeds):
        raise ResonanceSearchError("isolated-disk seeds exceed the subwavelength window; "
                                   "lower delta or raise omega_max")
    window = _default_search(disk_seeds, omega_max)
    probe, probe_hi = _ResolventProbe(array, params, M), _ResolventProbe(array, params, M + 2)
    V = np.random.default_rng(0).standard_normal((probe.q.size, n_res + 4, 2)) @ np.array([1, 1j])
    # nodes per edge: a power of two, about five per resonance on the long edges
    n = min(_NODES[1], max(_NODES[0], 1 << (5 * n_res - 1).bit_length()))
    pending, contours, found = [(window["re"] + window["im"], n)], [], Resonances()
    while pending:
        box, n = pending.pop()
        winding, step, rank, inner, passed = _beyn(probe.matrices, box, n, V)
        resolved = step <= 0.5 * np.pi
        roots: dict[complex, tuple] = {}  # polished, inside, distinct -> (s, last row of V^H)
        for z in passed if resolved and len(passed) == winding else []:
            z = _muller(probe, z)
            if _inside(box, z) and all(abs(z - r) > 1e-8 * abs(r) for r in roots):
                _, s, vh = np.linalg.svd(probe.matrices([z])[0])
                roots[z] = s, vh[-1].copy()  # not a view that keeps all of V^H
        if resolved and winding == len(roots) and all(s[-1] <= tolerance for s, _ in roots.values()):
            for z, svd in roots.items():  # stability under truncation refinement
                z_hi = _muller(probe_hi, z)
                drift = abs(z_hi - z) / abs(z)
                if drift > drift_tol:
                    raise ResonanceSearchError(f"resonance {z:.6g} drifts by {drift:.3g} "
                                               f"relative under M={M} -> {M + 2} refinement")
                found.append(Resonance(omega=z, residual=float(svd[0][-1]), truncation=M, drift=drift,
                                       svd=svd))
            contours.append({"box": [float(v) for v in box], "nodes": 4 * n, "winding": winding,
                             "accepted": winding, "rank": rank})
        elif n < _NODES[1]:
            pending.append((box, 2 * n))
        elif len(contours) + len(pending) + 2 <= _MAX_CONTOURS:
            pending += [(half, _NODES[0]) for half in _split(box, inner)]
        else:
            raise ResonanceSearchError(
                f"{_describe(box)} ({4 * n} nodes, largest arg step {step:.2f}, Beyn rank {rank},"
                f" {len(passed)} pass the residual test): winding number {winding}, but"
                f" {len(roots)} accepted")
    if len(found) != n_res:
        raise ResonanceSearchError(
            f"found {len(found)} resonances, expected {n_res}; the search "
            f"window (omega_max={omega_max:.4g}) is likely misconfigured"
        )
    found.sort(key=lambda res: res.omega.real)
    found.search = {"contours": sorted(contours, key=lambda c: c["box"]),
                    "search_assemblies": probe.calls + probe_hi.calls}
    return found


def _null_density(array: ResonatorArray, params: WaveParams, resonance: Resonance):
    """Raw unit null density at a resonance (the right singular vector of the
    boundary system's smallest singular value) and the gap s[-2]/s[-1], both
    from the search's decomposition. Raises ValueError for a resonance that
    carries none, and DegenerateModeError when the two are not clearly
    separated."""
    if resonance.svd is None:
        raise ValueError(f"resonance {resonance.omega:.6g} carries no decomposition of the "
                         "boundary system; take it from find_resonances")
    s, null = resonance.svd
    if s[-2] <= 1e4 * s[-1]:
        raise DegenerateModeError(
            f"smallest singular values {s[-1]:.3g}, {s[-2]:.3g} are not separated; "
            "resolve the degeneracy with a symmetry-restricted subsystem"
        )
    raw = MultipoleDensity.from_vector(null.conj(), array.n, resonance.truncation)
    return raw, float(s[-2] / s[-1])


def sample_eigenmodes(
    array: ResonatorArray, params: WaveParams, resonances: list[Resonance], rule, points, first: int
) -> tuple[list[Eigenmode], np.ndarray]:
    """Normalized eigenmodes at the resonances, sampled once.

    The raw null densities are evaluated in one sample_fields call over
    points, whose columns first, first + 1, ... are the nodes of the
    interior rule (points, weights, disk index). Each mode is scaled to unit
    L2 norm over the rule and a real, positive interior mean over the
    largest disk (over the disk of largest |mean| when that mean vanishes).
    Returns the modes and their (N_modes, P) sample, scaled alike.
    """
    raws, gaps = zip(*(_null_density(array, params, r) for r in resonances))
    values = sample_fields(array, params, [r.omega for r in resonances], raws, points)
    _, wts, disk = rule
    interior = values[:, first:first + len(wts)]
    norm_sq = np.abs(interior) ** 2 @ wts
    if norm_sq.min() <= 0:
        raise DegenerateModeError("nullspace vector has zero interior norm")
    on_disk = (disk[None, :] == np.arange(array.n)[:, None]) * wts  # (N, P)
    means = (interior @ on_disk.T) / on_disk.sum(axis=1)  # (N_modes, N)
    mean = means[:, array.largest_index()]
    fallback = means[np.arange(len(means)), np.abs(means).argmax(axis=1)]
    mean = np.where(np.abs(mean) < 1e-10 * np.sqrt(norm_sq), fallback, mean)
    normalization = (1.0 / np.sqrt(norm_sq)) / (mean / np.abs(mean))
    values *= normalization[:, None]
    return [
        Eigenmode(resonance=r, density=raw.scaled(c), array=array, params=params, sv_gap=gap)
        for r, raw, gap, c in zip(resonances, raws, gaps, normalization)
    ], values


def extract_eigenmode(array: ResonatorArray, params: WaveParams, resonance: Resonance) -> Eigenmode:
    """Nullspace density at a resonance, normalized over the disk interiors:
    the one-resonance case of sample_eigenmodes over the interior rule of
    the default quadrature."""
    rule = interior_rule(array, default_spec(array))
    return sample_eigenmodes(array, params, [resonance], rule, rule[0], 0)[0][0]
