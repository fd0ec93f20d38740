"""Complex resonances and eigenmodes of the coupled resonator array.

The N subwavelength resonances are the complex frequencies where the
boundary system A(omega) is singular. Every array lies on one line, so A
splits into an even and an odd mirror block (boundary.mirror_basis), and
every subwavelength mode lives in the even block A_+. find_resonances
locates them with Beyn's contour-integral method (W.-J. Beyn, Linear
Algebra Appl. 436, 2012) on A_+, over rectangles right of omega = 0 (the
branch point of H_0), and polishes every eigenvalue inside a rectangle by
Muller's method, all in lockstep. Each root is certified by its own SVD,
the count independently by the winding number of det A = det A_+ det A_-,
and the odd block must hold none: the winding number of det A_- must be 0.
All dense linear algebra here is numpy.linalg.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .boundary import MultipoleDensity, WaveParams, assemble_boundary_matrices, mirror_basis, sample_fields
from .boundary import assemble_boundary_system  # noqa: F401  kept for perfbench/tracing.py, which patches it here
from .boundary import evaluate_field  # noqa: F401  kept for perfbench/tracing.py, which patches it here
from .cylinder import bessel_j, hankel1  # noqa: F401  kept for perfbench/tracing.py, which patches them here
from .cylinder import bessel_j_orders, hankel1_orders
from .geometry import ResonatorArray
from .quadrature import gauss_legendre, interior_rule
from .quadrature import disk_rule  # noqa: F401  kept for perfbench/tracing.py, which patches it here


class ResonanceSearchError(RuntimeError):
    """Raised when the search window does not yield exactly N resonances."""


class DegenerateModeError(RuntimeError):
    """Raised when the nullspace at a resonance is (numerically) multiple."""


@dataclass(frozen=True)
class Resonance:
    """A located resonance: frequency, boundary-system residual, truncation,
    and the relative drift of the frequency under M -> M+2 refinement.
    svd holds the root decomposition of _root_svd: the singular values of
    the even block and of the odd block, and the null vector, which the
    eigenmode reuses; it is None on a resonance read back from a cache
    entry."""

    omega: complex
    residual: float
    truncation: int
    drift: float
    svd: tuple[np.ndarray, np.ndarray, np.ndarray] | None = field(
        default=None, repr=False, compare=False)


@dataclass(frozen=True)
class Eigenmode:
    """Normalized eigenmode attached to a resonance.

    density already carries the normalization: the represented field has
    unit L2 norm over the union of disk interiors and the interior mean
    over the largest disk is real and positive. sv_gap is the ratio
    s[-2]/s[0] of the second-smallest singular value of the boundary system
    at the resonance to its largest: how far the system is from a second
    null vector, so how clearly the mode is simple.
    """

    resonance: Resonance
    density: MultipoleDensity
    array: ResonatorArray
    params: WaveParams
    sv_gap: float


def _muller(f, starts) -> list[complex]:
    """Muller iteration for simple zeros of an analytic function, from every
    start in lockstep: f maps a list of points to their values, and each
    round evaluates it once, at the new point of every start still running.
    Each start's arithmetic is on scalars, as if it ran alone."""
    xs = [[z0 + h, z0 - 0.5j * h, z0] for z0, h in ((z, 1e-3 * max(abs(z), 1e-12)) for z in starts)]
    fs = [list(v) for v in zip(*(f([x[j] for x in xs]) for j in range(3)))]  # one column at a time
    running = range(len(xs))
    for _ in range(_MULLER_ITERS):
        stepped = []
        for i in running:
            (x0, x1, x2), (f0, f1, f2) = xs[i], fs[i]
            if x1 == x2 or x0 == x1:
                continue
            q = (x2 - x1) / (x1 - x0)
            a = q * f2 - q * (1 + q) * f1 + q**2 * f0
            b = (2 * q + 1) * f2 - (1 + q) ** 2 * f1 + q**2 * f0
            c = (1 + q) * f2
            disc = np.sqrt(complex(b * b - 4 * a * c))
            den1, den2 = b + disc, b - disc
            den = den1 if abs(den1) >= abs(den2) else den2
            if den == 0:
                continue
            step = -(x2 - x1) * (2 * c / den)
            xs[i] = [x1, x2, x2 + step]
            stepped.append(i)
        if not stepped:
            break
        for i, fx in zip(stepped, f([xs[i][2] for i in stepped])):
            fs[i] = [fs[i][1], fs[i][2], fx]
        running = [i for i in stepped if not (abs(fs[i][2]) == 0.0 or
                   abs(xs[i][2] - xs[i][1]) <= _MULLER_TOL * max(abs(xs[i][2]), 1e-30))]
    return [x[2] for x in xs]


@np.errstate(all="ignore")  # a run off the physical sheet may end in NaN, which find_resonances names
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
        j0, j1 = bessel_j_orders([0, 1], kbv * R)
        h0, h1 = hankel1_orders([0, 1], k * R)
        return complex(kbv * j1 * h0 - delta * k * j0 * h1)

    return _muller(lambda zs: [det(z) for z in zs], [params.v_b * kb])[0]


class _ResolventProbe:
    """1 / (w^H A_+(omega)^{-1} q) on the even mirror block, with fixed
    random probe vectors, at each of a list of frequencies (_muller's f).

    Vanishes (simply, generically) exactly where A_+ is singular and is
    analytic nearby, so it is a good Muller target. Each block is solved alone.
    """

    def __init__(self, array: ResonatorArray, params: WaveParams, M: int):
        self.array = array
        self.params = params
        self.M = M
        self.calls = 0  # boundary systems assembled
        dim = 2 * array.n * (M + 1)
        self.entries = dim**2 + (dim - 2 * array.n) ** 2  # of the two blocks at one frequency
        rng = np.random.default_rng(7)
        q = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        w = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        self.q = q / np.linalg.norm(q)
        self.w = w / np.linalg.norm(w)

    def stacks(self, omegas):
        """(index of the first frequency, even blocks, odd blocks) per stack of
        the given frequencies, _STACK_ENTRIES block entries at most."""
        size = max(1, _STACK_ENTRIES // self.entries)
        for start in range(0, len(omegas), size):
            chunk = omegas[start:start + size]
            self.calls += len(chunk)
            yield start, *assemble_boundary_matrices(self.array, self.params, chunk, self.M)

    def __call__(self, omegas) -> list:
        values = []
        for _, even, _ in self.stacks(omegas):
            for A in even:
                try:
                    values.append(1.0 / np.vdot(self.w, np.linalg.solve(A, self.q)))
                except np.linalg.LinAlgError:  # exactly singular: omega is a resonance
                    values.append(0.0)
        return values


def _default_search(seeds: list[complex]) -> dict:
    # collective modes hybridize far beyond the isolated-disk values
    # (log-range coupling in 2D), so the window is generous on both sides
    re_vals = np.array([s.real for s in seeds])
    im_vals = np.array([s.imag for s in seeds])
    re_lo = max(0.2 * re_vals.min(), 1e-6 * re_vals.max())
    re_hi = max(6.0 * re_vals.max(), 2.0 * re_vals.min())
    im_extent = 4.0 * max(np.abs(im_vals).max(), 0.02 * re_vals.max())
    return {"re": (re_lo, re_hi), "im": (-im_extent, im_extent)}


class Resonances(list):
    """Located resonances; search lists each certified sub-contour (box, nodes,
    winding number of det A, which is its count of resonances, Beyn rank) and
    the total search_assemblies."""
    search: dict


_NODES = (16, 128)  # Gauss-Legendre nodes per edge: fewest and most
_MAX_CONTOURS = 16  # sub-contours per search, so a search ends in bounded time
_RANK_TOL = 1e-10  # singular-value cut of moment 0, relative to its bound
_STACK_ENTRIES = 2**17  # contour nodes x block entries assembled at a time: about 2 MB
_RESONANCE_TOL = 1e-10  # largest smallest singular value of A at an accepted resonance
_DRIFT_TOL = 1e-4  # largest relative move of a resonance under M -> M+2
_MULLER_TOL = 1e-13  # a Muller run stops once its last step is this small relative to its point
_MULLER_ITERS = 60  # steps per Muller run


def _inside(box, z: complex) -> bool:
    return bool(box[0] < z.real < box[1] and box[2] < z.imag < box[3])


def _describe(box) -> str:
    return "sub-contour Re [{:.6g}, {:.6g}] x Im [{:.6g}, {:.6g}]".format(*box)


def _winding(phase: np.ndarray) -> tuple[int, float]:
    """Winding number of a closed loop of unit phases and its largest step."""
    steps = np.angle(np.roll(phase, -1) / phase)
    return round(steps.sum() / (2 * np.pi)), np.abs(steps).max()


def _beyn(probe: _ResolventProbe, box, n: int, V: np.ndarray):
    """Winding numbers of det A and of det A_- around box (n Gauss-Legendre
    nodes per edge), the largest step of arg det A, the Beyn rank, and the
    eigenvalues of A_+ inside box, unchecked. The moments come from the even
    block A_+; the odd block A_- gives only the sign of its slogdet, and det
    A's phase at a node is the product of the two signs. Each stack of node
    blocks (_ResolventProbe.stacks) is solved and factored as one."""
    corners = np.array([complex(box[i], box[j]) for i, j in ((0, 2), (1, 2), (1, 3), (0, 3))])
    sides = np.roll(corners, -1) - corners
    x, w = gauss_legendre(n)
    nodes = (corners[:, None] + np.outer(sides, 0.5 * (x + 1))).ravel()
    weights = np.outer(sides, 0.5 * w).ravel() / (2j * np.pi)
    moments = np.zeros((2, *V.shape), dtype=complex)  # of omega^p A_+^{-1} V, p = 0, 1
    bound, signs = 0.0, np.empty((2, len(nodes)), dtype=complex)
    for start, even, odd in probe.stacks(nodes):
        at = slice(start, start + len(even))
        signs[:, at] = np.linalg.slogdet(even)[0], np.linalg.slogdet(odd)[0]  # det / |det|
        singular = ~signs[:, at].all(axis=0)
        if singular.any():
            raise ResonanceSearchError(
                f"{_describe(box)}: boundary system singular at node {nodes[at][singular][0]:.6g}")
        X = np.linalg.solve(even, np.broadcast_to(V, (len(even), *V.shape)))
        moments += np.tensordot([weights[at], weights[at] * nodes[at]], X, axes=1)
        bound += np.abs(weights[at]) @ np.linalg.norm(X, axis=(1, 2))  # |moment 0| without cancellation
    winding, step = _winding(signs[0] * signs[1])
    U, s, Wh = np.linalg.svd(moments[0], full_matrices=False)
    r = int(np.count_nonzero(s > _RANK_TOL * bound))
    eigs = np.linalg.eig(U[:, :r].conj().T @ moments[1] @ Wh[:r].conj().T / s[:r])[0]
    return winding, _winding(signs[1])[0], step, r, [z for z in eigs if _inside(box, z)]


def _root_svd(probe: _ResolventProbe, zs) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """The decomposition at each root: the singular values of A_+ and of
    A_-, and the last right singular vector of A_+ unfolded into the full
    density space (mirror_basis), conjugated as a row of V^H. Each stack of
    blocks (_ResolventProbe.stacks) is decomposed as one."""
    unfold, out = mirror_basis(probe.array.n, probe.M)[0], []
    for _, even, odd in probe.stacks(zs):
        _, s, vh = np.linalg.svd(even)
        out += zip(s, np.linalg.svd(odd, compute_uv=False), [unfold @ v for v in vh[:, -1]])
    return out


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
    M: int,
) -> Resonances:
    """Locate the N subwavelength resonances of the coupled array, in the
    window that _default_search sets around the isolated-disk resonances.

    Returns exactly N resonances sorted by ascending real part, each with
    smallest singular value <= _RESONANCE_TOL and frequency drift
    <= _DRIFT_TOL relative under M -> M+2 refinement. Raises
    ResonanceSearchError when an isolated-disk resonance is not finite with
    Re omega > 0 (naming its circle and the material), a sub-contour cannot
    be certified (naming it and both counts) or has a node where the system
    is exactly singular, the odd block winds, the window holds another
    count, or refinement does not settle.
    """
    n_res = array.n
    seeds = [single_disk_resonance(r, params) for r in array.radii]
    for i, (radius, seed) in enumerate(zip(array.radii, seeds), 1):
        if not (np.isfinite(seed) and seed.real > 0):
            raise ResonanceSearchError(
                f"the isolated-disk resonance of circle {i} (radius {radius:.6g}) is {seed:.6g}, off the"
                f" physical sheet Re omega > 0, at material v = {params.v:.6g}, v_b = {params.v_b:.6g},"
                f" delta = {params.delta:.6g}; the search window cannot be built from it")
    window = _default_search(seeds)
    beyond = f"at delta = {params.delta:.4g} the window may hold resonances that are not subwavelength"
    probe, probe_hi = _ResolventProbe(array, params, M), _ResolventProbe(array, params, M + 2)
    V = np.random.default_rng(0).standard_normal((probe.q.size, n_res + 4, 2)) @ np.array([1, 1j])
    # nodes per edge: a power of two, about five per resonance on the long edges
    n = min(_NODES[1], max(_NODES[0], 1 << (5 * n_res - 1).bit_length()))
    pending, contours, found = [(window["re"] + window["im"], n)], [], Resonances()
    while pending:
        box, n = pending.pop()
        winding, odd_winding, step, rank, inner = _beyn(probe, box, n, V)
        resolved = step <= 0.5 * np.pi
        if resolved and odd_winding:
            raise ResonanceSearchError(
                f"{_describe(box)} ({4 * n} nodes): winding number {winding} of det A, of which"
                f" {odd_winding} in the odd mirror block, where the search finds no resonance; {beyond}")
        polished = []  # inside and distinct
        for z in _muller(probe, inner) if resolved else []:
            if _inside(box, z) and all(abs(z - r) > 1e-8 * abs(r) for r in polished):
                polished.append(z)
        roots = {z: svd for z, svd in zip(polished, _root_svd(probe, polished))
                 if svd[0][-1] <= _RESONANCE_TOL}  # certified
        if resolved and winding == len(roots):
            for (z, svd), z_hi in zip(roots.items(), _muller(probe_hi, list(roots))):  # under M -> M+2
                drift = abs(z_hi - z) / abs(z)
                if drift > _DRIFT_TOL:
                    raise ResonanceSearchError(f"resonance {z:.6g} drifts by {drift:.3g} "
                                               f"relative under M={M} -> {M + 2} refinement")
                found.append(Resonance(omega=z, residual=float(min(svd[0][-1], svd[1][-1])),
                                       truncation=M, drift=drift, svd=svd))
            contours.append({"box": [float(v) for v in box], "nodes": 4 * n, "winding": winding, "rank": rank})
        elif n < _NODES[1]:
            pending.append((box, 2 * n))
        elif len(contours) + len(pending) + 2 <= _MAX_CONTOURS:
            pending += [(half, _NODES[0]) for half in _split(box, inner)]
        else:
            raise ResonanceSearchError(
                f"{_describe(box)} ({4 * n} nodes, largest arg step {step:.2f}, Beyn rank {rank},"
                f" {len(inner)} eigenvalues inside): winding number {winding}, but"
                f" {len(roots)} accepted")
    if len(found) != n_res:
        raise ResonanceSearchError(f"found {len(found)} resonances, expected {n_res}; {beyond}")
    found.sort(key=lambda res: res.omega.real)
    found.search = {"contours": sorted(contours, key=lambda c: c["box"]),
                    "search_assemblies": probe.calls + probe_hi.calls}
    return found


def _null_density(array: ResonatorArray, resonance: Resonance):
    """Raw unit null density at a resonance (the even block's right singular
    vector of its smallest singular value, unfolded) and the gap s[-2]/s[0]
    of the full boundary system, whose singular values are the union of the
    two blocks', all from the search's decomposition. Raises ValueError for
    a resonance that carries none, and DegenerateModeError when the two
    smallest are not clearly separated."""
    if resonance.svd is None:
        raise ValueError(f"resonance {resonance.omega:.6g} carries no decomposition of the "
                         "boundary system; take it from find_resonances")
    s_even, s_odd, null = resonance.svd
    small, second = np.sort(np.append(s_even[-2:], s_odd[-1]))[:2]
    if second <= 1e4 * small:
        block = "odd" if second == s_odd[-1] else "even"
        raise DegenerateModeError(
            f"smallest singular values {small:.3g}, {second:.3g} are not separated; "
            f"the second lies in the {block} mirror block"
        )
    raw = MultipoleDensity.from_vector(null.conj(), array.n, resonance.truncation)
    return raw, float(second / max(s_even[0], s_odd[0]))


def sample_eigenmodes(
    array: ResonatorArray, params: WaveParams, resonances: list[Resonance], rule, points, first: int,
) -> tuple[list[Eigenmode], np.ndarray]:
    """Normalized eigenmodes at the resonances, sampled once.

    The raw null densities are evaluated in one sample_fields call over
    points, whose columns first, first + 1, ... are the nodes of the
    interior rule (points, weights, disk index). Each mode is scaled to unit
    L2 norm over the rule and a real, positive interior mean over the
    largest disk (over the disk of largest |mean| when that mean vanishes).
    Returns the modes and their (N_modes, P) sample, scaled alike.
    """
    raws, gaps = zip(*(_null_density(array, r) for r in resonances))
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
    the one-resonance case of sample_eigenmodes over the interior rule."""
    rule = interior_rule(array)
    return sample_eigenmodes(array, params, [resonance], rule, rule[0], 0)[0][0]
