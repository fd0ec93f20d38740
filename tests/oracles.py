"""Independent reference computations used by the test suite.

Everything here deliberately avoids the code paths it is used to check:
series summations for the cylinder functions, an exact DFT extraction for
the cubic line coefficients, a loop contraction of the pure-tone residual,
a per-pair loop assembly of the boundary system and a parity-reduced one
for the mirror-symmetric two-resonator system, a point-by-point sum of the
layer potentials that represent a field (all three take their cylinder
functions from scipy.special, not from hopfarray.cylinder), an
argument-principle count of the resonances in a rectangle from the
loop-built determinant, a time integration of the single forced Hopf
oscillator, a pair-by-pair validity check of a line of circles, and the
composite rule over the full box, both halves, against which the
half-plane rules are checked. The node-doubling refinement report at the
end takes its finer rule from that full-box rule, but reuses the modal
sampling and projections, as it checks convergence of the quadrature
rather than the code.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import special as sp
from scipy.integrate import solve_ivp


# ---------------------------------------------------------------------------
# series oracles for cylinder functions
# ---------------------------------------------------------------------------
def bessel_j_series(n: int, z: complex, terms: int = 200) -> complex:
    """Power series sum_m (-1)^m (z/2)^{n+2m} / (m! (n+m)!) to convergence."""
    if n < 0:
        val = bessel_j_series(-n, z, terms)
        return -val if n % 2 else val
    z = complex(z)
    half = z / 2.0
    term = half**n
    for m in range(1, n + 1):
        term /= m  # 1/n!
    total = term
    for m in range(1, terms):
        term *= -(half * half) / (m * (m + n))
        total += term
        if abs(term) < 1e-20 * max(abs(total), 1e-30):
            break
    return total


def bessel_y0_series(z: complex, terms: int = 200) -> complex:
    """Y_0(z) = (2/pi)[(ln(z/2) + gamma) J_0(z) + sum_k (-1)^{k+1} H_k (z^2/4)^k / (k!)^2]."""
    z = complex(z)
    q = z * z / 4.0
    total = 0.0 + 0.0j
    term = 1.0 + 0.0j
    harmonic = 0.0
    for k in range(1, terms):
        term *= q / (k * k)
        harmonic += 1.0 / k
        contrib = (-1) ** (k + 1) * harmonic * term
        total += contrib
        if abs(contrib) < 1e-20 * max(abs(total), 1e-30):
            break
    return (2.0 / np.pi) * ((np.log(z / 2.0) + np.euler_gamma) * bessel_j_series(0, z) + total)


def hankel1_0_series(z: complex) -> complex:
    return bessel_j_series(0, z) + 1j * bessel_y0_series(z)


# ---------------------------------------------------------------------------
# exact DFT extraction of the cubic line coefficients
# ---------------------------------------------------------------------------
_LINE_HARMONICS = (89, 55, 2 * 89 - 55, -89 + 2 * 55)  # coprime primaries


def fourier_cubic_coefficients(S10, S01, S21, S12):
    """Coefficients of the four line exponentials in a |a|^2 a, by exact DFT.

    a(t) is sampled over one exact period with the lines placed on integer
    harmonics (89, 55, 123, 21). The cubic of a trig polynomial is band
    limited, so the DFT coefficients are exact to rounding; the harmonics
    are chosen so no small integer combination aliases onto a line except
    the frequency-generic ones.
    """
    K = 1024
    k = np.arange(K)
    S = (S10, S01, S21, S12)
    a = np.zeros(K, dtype=complex)
    for s, h in zip(S, _LINE_HARMONICS):
        a += s * np.exp(2j * np.pi * h * k / K)
    b = a * np.abs(a) ** 2
    spectrum = np.fft.fft(b) / K  # coefficient of e^{+2 pi i h k / K} at bin h
    return tuple(spectrum[h] for h in _LINE_HARMONICS)


# ---------------------------------------------------------------------------
# loop contraction of the pure-tone residual
# ---------------------------------------------------------------------------
def residual_pure_tone_loop(system, Omega: float, F: float, beta: float, X) -> np.ndarray:
    """Pure-tone residual with the cubic tensor contracted by explicit loops.

    O(N^5) scalar arithmetic, sharing no code with the einsum contraction
    of the solver or with the pointwise certificate.
    """
    n = system.n
    T = system.cubic_tensor
    gain = system.gram_inverse.T @ system.source_vec
    out = np.zeros(n, dtype=complex)
    for m in range(n):
        cubic = 0.0 + 0.0j
        for nn in range(n):
            inner = 0.0 + 0.0j
            for i in range(n):
                for j in range(n):
                    for k in range(n):
                        inner += X[i] * X[j] * np.conj(X[k]) * T[nn, i, j, k]
            cubic += system.gram_inverse[nn, m] * inner
        out[m] = (
            (system.omegas[m] ** 2 - Omega**2) * X[m]
            + F * gain[m]
            + 1j * Omega**3 * beta * cubic
        )
    return out


# ---------------------------------------------------------------------------
# per-pair loop assembly of the boundary system
# ---------------------------------------------------------------------------
def layer_blocks_loop(array, k: complex, M: int):
    """Trace and one-sided normal-derivative matrices of the k-layer,
    (trace, dtr_out, dtr_in), built circle pair by circle pair with one
    addition-theorem Hankel call per ordered pair."""
    n_res = array.n
    width = 2 * M + 1
    orders = np.arange(-M, M + 1)
    K = n_res * width
    trace = np.zeros((K, K), dtype=complex)
    dtr_out = np.zeros((K, K), dtype=complex)
    dtr_in = np.zeros((K, K), dtype=complex)
    centers = array.centers
    radii = array.radii
    strength = [-0.5j * np.pi * radii[i] * sp.jv(orders, k * radii[i]) for i in range(n_res)]
    wide = np.arange(-2 * M, 2 * M + 1)
    for j in range(n_res):
        zj = k * radii[j]
        Jj, Jj_p = sp.jv(orders, zj), sp.jvp(orders, zj)
        Hj, Hj_p = sp.hankel1(orders, zj), sp.h1vp(orders, zj)
        rows = slice(j * width, (j + 1) * width)
        for i in range(n_res):
            cols = slice(i * width, (i + 1) * width)
            if i == j:
                trace[rows, cols] = np.diag(-0.5j * np.pi * radii[j] * Jj * Hj)
                dtr_out[rows, cols] = np.diag(-0.5j * np.pi * radii[j] * k * Jj * Hj_p)
                dtr_in[rows, cols] = np.diag(-0.5j * np.pi * radii[j] * k * Hj * Jj_p)
                continue
            dx, dy = centers[j] - centers[i]
            h_wide = sp.hankel1(wide, k * np.hypot(dx, dy)) * np.exp(1j * wide * np.arctan2(dy, dx))
            block = h_wide[orders[None, :] - orders[:, None] + 2 * M] * strength[i][None, :]
            trace[rows, cols] = Jj[:, None] * block
            dtr_out[rows, cols] = k * Jj_p[:, None] * block
            dtr_in[rows, cols] = dtr_out[rows, cols]
    return trace, dtr_out, dtr_in


def boundary_matrix_loop(array, params, omega: complex, M: int) -> np.ndarray:
    """Transmission matrix from two loop-built layers, exterior and interior."""
    ext_tr, ext_dtr, _ = layer_blocks_loop(array, omega / params.v, M)
    int_tr, _, int_dtr = layer_blocks_loop(array, omega / params.v_b, M)
    top = np.hstack([ext_tr, -int_tr])
    bottom = np.hstack([params.delta * ext_dtr, -int_dtr])
    return np.vstack([top, bottom])


def field_loop(array, params, omega: complex, density, point, side=None) -> complex:
    """Field of one density at one point, summed term by term from the
    layer-potential formulas of the boundary module docstring: outside
    every circle the exterior layers at omega/v; inside circle j the
    interior layers at omega/v_b, circle j's through J_m(k rho) with
    strength H_m(k R_j), the others through H_m(k rho) with strength
    J_m(k R_i). A point within 1e-12 of a circle takes the given side."""
    M = (density.psi.shape[1] - 1) // 2
    x, y = point
    host = None
    for j, (center, radius) in enumerate(zip(array.centers, array.radii)):
        rho = np.hypot(x - center[0], y - center[1])
        if abs(rho - radius) <= 1e-12 * max(radius, 1.0):
            if side is None:
                raise ValueError("point on a boundary needs a side")
            if side == "interior":
                host = j
        elif rho < radius:
            host = j
    k = omega / (params.v if host is None else params.v_b)
    coeffs = density.psi if host is None else density.phi
    total = 0j
    for i, (center, radius) in enumerate(zip(array.centers, array.radii)):
        rho = np.hypot(x - center[0], y - center[1])
        theta = np.arctan2(y - center[1], x - center[0])
        for m in range(-M, M + 1):
            if i == host:
                term = sp.hankel1(m, k * radius) * sp.jv(m, k * rho)
            else:
                term = sp.jv(m, k * radius) * sp.hankel1(m, k * rho)
            total += coeffs[i, m + M] * (-0.5j * np.pi * radius) * term * np.exp(1j * m * theta)
    return complex(total)


def argument_principle_count(array, params, M: int, box, n: int = 64, max_n: int = 4096) -> int:
    """Zeros of det A(omega) inside box = (re_lo, re_hi, im_lo, im_hi).

    The phase of det A comes from np.linalg.slogdet of the loop-built
    matrix at n points equally spaced along the boundary. n is doubled,
    keeping the old points, until the winding number agrees with the one
    at n/2 and no phase step between neighbours exceeds pi/4.
    """
    a, b, lo, hi = box
    corners = np.array([complex(a, lo), complex(b, lo), complex(b, hi), complex(a, hi)])
    lengths = np.abs(np.roll(corners, -1) - corners)
    ends = np.concatenate([[0.0], np.cumsum(lengths)])
    phases: dict[int, complex] = {}  # keyed by position on the finest grid

    def phase(k: int) -> complex:
        if k not in phases:
            s = k * ends[-1] / max_n
            e = min(int(np.searchsorted(ends, s, side="right")) - 1, 3)
            z = corners[e] + (corners[(e + 1) % 4] - corners[e]) * (s - ends[e]) / lengths[e]
            phases[k] = np.linalg.slogdet(boundary_matrix_loop(array, params, z, M))[0]
        return phases[k]

    previous = None
    while n <= max_n:
        ph = np.array([phase(j * (max_n // n)) for j in range(n)])
        steps = np.angle(np.roll(ph, -1) / ph)
        count = int(round(steps.sum() / (2 * np.pi)))
        if count == previous and np.abs(steps).max() <= 0.25 * np.pi:
            return count
        previous, n = count, 2 * n
    raise RuntimeError(f"argument-principle count did not settle by {max_n} points")


# ---------------------------------------------------------------------------
# parity-reduced system for two mirrored identical circles
# ---------------------------------------------------------------------------
def parity_reduced_matrix(
    radius: float, half_distance: float, params, omega: complex, M: int, parity: int
) -> np.ndarray:
    """Reduced transmission matrix on one circle of a mirrored pair.

    The mirror x1 -> -x1 exchanges the circles and maps the order-m density
    coefficient on one onto parity * (-1)^m times the order -m coefficient
    on the other; eliminating circle 2 gives a 2(2M+1) system per parity
    whose singular frequencies are the full system's resonances.
    """
    if parity not in (+1, -1):
        raise ValueError("parity must be +1 or -1")
    r = radius
    b = 2.0 * half_distance
    k = omega / params.v
    kb = omega / params.v_b
    orders = np.arange(-M, M + 1)

    def blocks(kappa):
        J = sp.jv(orders, kappa * r)
        Jp = sp.jvp(orders, kappa * r)
        H = sp.hankel1(orders, kappa * r)
        Hp = sp.h1vp(orders, kappa * r)
        strength = -0.5j * np.pi * r * J  # radiating strength per order
        self_tr = np.diag(-0.5j * np.pi * r * J * H)
        self_dtr_out = np.diag(-0.5j * np.pi * r * kappa * J * Hp)
        self_dtr_in = np.diag(-0.5j * np.pi * r * kappa * H * Jp)
        # cross block after the parity substitution: H_{n+mu}(kappa b)
        Hsum = sp.hankel1(orders[:, None] + orders[None, :], kappa * b)
        cross_tr = J[:, None] * Hsum * strength[None, :]
        cross_dtr = kappa * Jp[:, None] * Hsum * strength[None, :]
        return self_tr, self_dtr_out, self_dtr_in, cross_tr, cross_dtr

    et, edo, _, ect, ecd = blocks(k)
    it_, _, idi, ict, icd = blocks(kb)
    top = np.hstack([et + parity * ect, -(it_ + parity * ict)])
    bottom = np.hstack([params.delta * (edo + parity * ecd), -(idi + parity * icd)])
    return np.vstack([top, bottom])


def parity_resonance(radius, half_distance, params, M, parity, seed: complex) -> complex:
    """Muller root of the parity-reduced smallest singular value."""

    def probe(omega):
        mat = parity_reduced_matrix(radius, half_distance, params, omega, M, parity)
        rng = np.random.default_rng(3)
        dim = mat.shape[0]
        q = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        w = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        return 1.0 / np.vdot(w, np.linalg.solve(mat, q))

    from hopfarray.spectral import _muller

    return _muller(lambda zs: [probe(z) for z in zs], [seed])[0]


# ---------------------------------------------------------------------------
# time integration of the single forced Hopf oscillator
# ---------------------------------------------------------------------------
def hopf_steady_state_rk(mu: float, omega0: float, Omega: float, F: float) -> float:
    """Steady amplitude of dz/dt = (mu + i omega0) z - |z|^2 z + F e^{i Omega t}.

    Integrates the rotating-frame system w' = (mu + i (omega0 - Omega)) w
    - |w|^2 w + F by adaptive Runge-Kutta, doubling the horizon until the
    amplitude drifts by less than 1e-6 relative over the last 10% of the
    run. For mu > 0 with F = 0 it starts from a small kick, since w = 0 is
    then an unstable equilibrium. Slow where the flow relaxes slowly (weak
    forcing off resonance), so only fast cases belong in the tests.
    """
    detuning = omega0 - Omega

    def rhs(_t, y):
        w = y[0] + 1j * y[1]
        dw = (mu + 1j * detuning) * w - (abs(w) ** 2) * w + F
        return [dw.real, dw.imag]

    w0 = 1e-3 * np.sqrt(mu) if F == 0.0 and mu > 0.0 else 0.0
    y = np.array([w0, 0.0])
    rate = max(abs(mu), abs(F) ** (2.0 / 3.0), abs(detuning), 1e-6)
    horizon = 50.0 / rate
    t_done = 0.0
    for _ in range(36):
        t_eval = np.linspace(t_done + 0.9 * horizon, t_done + horizon, 64)
        sol = solve_ivp(rhs, (t_done, t_done + horizon), y, method="RK45",
                        rtol=1e-10, atol=1e-14, t_eval=t_eval)
        if not sol.success:
            raise RuntimeError(f"time integration failed: {sol.message}")
        amps = np.hypot(sol.y[0], sol.y[1])
        y = sol.y[:, -1]
        t_done += horizon
        mean = amps.mean()
        drift = (amps.max() - amps.min()) / max(mean, 1e-30)
        if drift < 1e-6 or (mean < 1e-15 and amps.max() < 1e-15):
            return float(mean)
        horizon *= 2.0
    raise RuntimeError("steady state not reached within the horizon cap")


# ---------------------------------------------------------------------------
# validity of a line of circles, pair by pair
# ---------------------------------------------------------------------------
def array_violations_pairwise(center_x, radius, source_x) -> list[str]:
    """Every violation of the circles (center_x[i], 0) of radius radius[i]
    and the source (source_x, 0), in Python floats: a radius that is not
    positive and finite, a center that is not finite, every pair i < j not
    in order or where circle i does not end before circle j begins, and
    every circle that holds the source or lies within 1e-12 * max(r, 1) of
    it. O(n^2); empty iff the array is valid."""
    x, r, s = [float(v) for v in center_x], [float(v) for v in radius], float(source_x)
    if len(x) == 0 or len(x) != len(r):
        return [f"need as many radii as centers, at least one: got {len(x)} and {len(r)}"]
    violations = [f"radius {i} not positive and finite" for i, ri in enumerate(r)
                  if not (math.isfinite(ri) and ri > 0)]
    violations += [f"center {i} not finite" for i, xi in enumerate(x) if not math.isfinite(xi)]
    if violations:
        return violations
    for i in range(len(x)):
        for j in range(i + 1, len(x)):
            if not x[i] < x[j]:
                violations.append(f"resonators {i} and {j} not ordered by increasing x1")
            if not x[i] + r[i] < x[j] - r[j]:
                violations.append(f"resonators {i} and {j} overlap")
    violations += [f"source lies inside or on resonator {i}"
                   for i in range(len(x)) if not abs(s - x[i]) - r[i] > 1e-12 * max(r[i], 1.0)]
    return violations


# ---------------------------------------------------------------------------
# the composite rule over the whole box (x2 of either sign, every weight once)
# ---------------------------------------------------------------------------
def _gauss_on(n: int, a: float, b: float):
    from hopfarray.quadrature import gauss_legendre

    x, w = gauss_legendre(n)
    return 0.5 * (b - a) * x + 0.5 * (a + b), 0.5 * (b - a) * w


def full_disk_rule(center, radius: float, n_radial: int, n_angular: int):
    """Polar rule over a whole disk: Gauss-Legendre radius, n_angular uniform angles."""
    rho, w_rho = _gauss_on(n_radial, 0.0, radius)
    theta = 2.0 * np.pi * np.arange(n_angular) / n_angular
    R, T = np.meshgrid(rho, theta, indexing="ij")
    pts = np.column_stack([center[0] + (R * np.cos(T)).ravel(),
                           center[1] + (R * np.sin(T)).ravel()])
    return pts, ((w_rho * rho)[:, None] * np.full(n_angular, 2.0 * np.pi / n_angular)).ravel()


def full_ring_rule(center, r_inner: float, half_width: float, n_radial: int, n_angular: int):
    """Polar rule over a whole square collar minus its disk: four face panels."""
    from hopfarray.quadrature import gauss_legendre

    t, w_t = gauss_legendre(n_angular)
    u, w_u = gauss_legendre(n_radial)
    pts, wts = [], []
    for face in range(4):
        phi0 = face * np.pi / 2.0
        theta = phi0 + (np.pi / 4.0) * t
        r_out = half_width / np.cos(theta - phi0)
        rho = r_inner + 0.5 * (u[:, None] + 1.0) * (r_out[None, :] - r_inner)
        w_rho = 0.5 * (r_out[None, :] - r_inner) * w_u[:, None]
        pts.append(np.column_stack([(center[0] + rho * np.cos(theta)).ravel(),
                                    (center[1] + rho * np.sin(theta)).ravel()]))
        wts.append((w_rho * rho * (np.pi / 4.0) * w_t[None, :]).ravel())
    return np.vstack(pts), np.concatenate(wts)


def full_rectangle_rule(x0: float, x1: float, y0: float, y1: float, order: int, panel_size: float):
    """Panelized tensor Gauss-Legendre over a whole rectangle."""
    xs = np.linspace(x0, x1, max(1, int(np.ceil((x1 - x0) / panel_size))) + 1)
    ys = np.linspace(y0, y1, max(1, int(np.ceil((y1 - y0) / panel_size))) + 1)
    pts, wts = [], []
    for i in range(len(xs) - 1):
        gx, wx = _gauss_on(order, xs[i], xs[i + 1])
        for j in range(len(ys) - 1):
            gy, wy = _gauss_on(order, ys[j], ys[j + 1])
            X, Y = np.meshgrid(gx, gy, indexing="ij")
            pts.append(np.column_stack([X.ravel(), Y.ravel()]))
            wts.append(np.outer(wx, wy).ravel())
    return np.vstack(pts), np.concatenate(wts)


def full_exterior_rule(array, box, panel_size: float, order: int = 8,
                       ring: tuple[int, int] = (10, 12)):
    """Quadrature over the whole box = (x0, x1, y0, y1) minus all disks:
    collar rings of ring = (radial, angular) nodes per face, and rectangles
    in panels at most panel_size long of order x order nodes. The default
    counts are those of hopfarray.quadrature."""
    from hopfarray.quadrature import collar_half_widths

    x0, x1, y0, y1 = box
    widths = collar_half_widths(array, box)
    cxs, radii = array.centers[:, 0], array.radii
    rules = [full_ring_rule((cx, 0.0), r, w, *ring) for cx, r, w in zip(cxs, radii, widths)]
    edges = [x0, *np.column_stack([cxs - widths, cxs + widths]).ravel(), x1]
    for k in range(len(edges) - 1):
        a, b = edges[k], edges[k + 1]
        if b - a <= 1e-12:
            continue
        w_i = widths[(k - 1) // 2]
        spans = ((y0, -w_i), (w_i, y1)) if k % 2 else ((y0, y1),)
        rules += [full_rectangle_rule(a, b, lo, hi, order, panel_size)
                  for lo, hi in spans if hi - lo > 1e-12]
    return np.vstack([p for p, _ in rules]), np.concatenate([w for _, w in rules])


def full_interior_rule(array, disk: tuple[int, int] = (16, 48)):
    """Quadrature over the whole disk interiors, disk = (radial, angular)
    nodes per disk, by default those of hopfarray.quadrature: (points,
    weights, disk index)."""
    rules = [full_disk_rule((x, 0.0), r, *disk) for x, r in zip(array.center_x, array.radius)]
    return (np.vstack([p for p, _ in rules]), np.concatenate([w for _, w in rules]),
            np.concatenate([np.full(len(w), i) for i, (_, w) in enumerate(rules)]))


# ---------------------------------------------------------------------------
# node-doubling refinement of the projected quantities
# ---------------------------------------------------------------------------
def refinement_report(modes, panel_size: float) -> dict[str, float]:
    """Max relative change of the Gram matrix and the cubic tensor from the
    build's composite rule at panel_size to the full-box rule above over the
    same box and panels with every node count doubled: order 16 per panel
    side, 20 x 24 per collar face and 32 x 96 per disk. A convergence check:
    it samples the modes and forms the projections as a build does, but
    builds its finer rule here, taking from hopfarray.quadrature only the
    box, the collar widths and the one-dimensional Gauss-Legendre nodes."""
    from hopfarray.modal import _gram_from_values, _mode_values, _nodes, cubic_tensor_from_values
    from hopfarray.quadrature import default_spec

    array = modes[0].array
    pts, wts, (_, built_interior, _) = _nodes(array, panel_size)
    ext_pts, ext_wts = full_exterior_rule(array, default_spec(array), panel_size, order=16,
                                          ring=(20, 24))
    int_pts, int_wts, _ = full_interior_rule(array, disk=(32, 96))
    # (nodes, weights, interior nodes): each rule ends with its interior nodes
    rules = ((pts, wts, len(built_interior)),
             (np.vstack([ext_pts, int_pts]), np.concatenate([ext_wts, int_wts]), len(int_wts)))
    reports = []
    for pts, wts, n_interior in rules:
        U = _mode_values(modes, pts)
        reports.append((_gram_from_values(U, wts),
                        cubic_tensor_from_values(U[:, -n_interior:], wts[-n_interior:])))
    (g0, t0), (g1, t1) = reports
    return {
        "gram": float(np.max(np.abs(g1 - g0)) / np.max(np.abs(g1))),
        "cubic_tensor": float(np.max(np.abs(t1 - t0)) / np.max(np.abs(t1))),
    }
