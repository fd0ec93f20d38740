"""Harmonic-balance solutions of the projected cubic amplitude equations.

Pure-tone forcing at frequency Omega reduces the projected dynamics to N
coupled cubic equations for the complex amplitudes X:

    (omega_m^2 - Omega^2) X_m + F g_m
        + i Omega^3 beta sum_n G[m,n] sum_{ijk} X_i X_j conj(X_k) T[n,i,j,k] = 0,

with g the deprojected source coupling and G[m,n] = [gram^{-1}]_{n,m}. The
cubic prefactor follows from substituting X e^{i Omega t} into the
time-domain projection: each time derivative contributes i Omega and the
conjugate factor -i Omega, so |da/dt|^2 da/dt carries +i Omega^3.

Two-tone forcing keeps the four dominant response lines Omega_1, Omega_2,
2 Omega_1 - Omega_2 and -Omega_1 + 2 Omega_2; matching coefficients of the
four exponentials in |dp/dt|^2 dp/dt yields four coupled N-vector systems
whose cubic sources are the closed-form combinations implemented in
:func:`cubic_coefficients`.

All solves run damped Newton on the stacked real/imaginary parts (the
residuals depend on conj(X), so they are not complex-differentiable) with
analytic Wirtinger Jacobians from the cubic tensor, plus geometric
continuation in the forcing amplitude when Newton stalls.

Solutions are certified pointwise: the response is sampled at the interior
quadrature nodes, its cubic nonlinearity is formed there and projected back
onto the modes (alternating frequency/time evaluation). That path shares no
code with the tensor contraction Newton uses, for either forcing.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .modal import ModalSystem


class ConvergenceError(RuntimeError):
    """Newton failed to reach the requested tolerance, or the single-oscillator
    oracle has no unique stable steady state."""


# Default cubic strength. Only beta x (amplitude scale)^2 is meaningful at
# fixed geometry; this value puts the saturation knee of the default array
# near F ~ 1e-5, inside the forcing range the response studies sweep.
DEFAULT_BETA = 5.0e5


@dataclass(frozen=True)
class PureToneSolution:
    Omega: float
    F: float
    beta: float
    X: np.ndarray
    newton_iters: int
    residual_norm: float


@dataclass(frozen=True)
class TwoToneSolution:
    Omega1: float
    Omega2: float
    F1: float
    F2: float
    X10: np.ndarray
    X01: np.ndarray
    X21: np.ndarray
    X12: np.ndarray
    newton_iters: int
    residual_norm: float

    @property
    def frequencies(self) -> tuple[float, float, float, float]:
        return (
            self.Omega1,
            self.Omega2,
            2.0 * self.Omega1 - self.Omega2,
            -self.Omega1 + 2.0 * self.Omega2,
        )


@dataclass(frozen=True)
class HopfOracleResult:
    mu: float
    omega0: float
    Omega: float
    F: float
    steady_amplitude: float


# ---------------------------------------------------------------------------
# passive (linear) closed form
# ---------------------------------------------------------------------------
def solve_passive(system: ModalSystem, Omega: float, F: float) -> np.ndarray:
    """Exact linear response X_m = -F g_m / (omega_m^2 - Omega^2)."""
    denom = system.omegas**2 - Omega**2
    bad = np.abs(denom) < 1e-14 * np.abs(system.omegas) ** 2
    if bad.any():
        raise ValueError(
            f"Omega = {Omega} is numerically resonant with mode(s) {np.nonzero(bad)[0]}"
        )
    return -F * system.source_gain / denom


# ---------------------------------------------------------------------------
# pure tone
# ---------------------------------------------------------------------------
def residual_pure_tone(
    system: ModalSystem, Omega: float, F: float, beta: float, X: np.ndarray
) -> np.ndarray:
    """Residual of the N coupled pure-tone equations at amplitudes X."""
    cubic = np.einsum("nijk,i,j,k->n", system.cubic_tensor, X, X, X.conj())
    return (
        (system.omegas**2 - Omega**2) * X
        + F * system.source_gain
        + 1j * Omega**3 * beta * system.project(cubic)
    )


def _project_pointwise(system: ModalSystem, values: np.ndarray) -> np.ndarray:
    """Interior integral of a field sampled at the interior quadrature nodes
    against each conjugated mode: entry n = sum_p w_p conj(u_n(x_p)) values_p."""
    _, wts, _, U = system.interior_quadrature()
    return (U.conj() * wts[None, :]) @ values


def residual_pure_tone_reference(
    system: ModalSystem, Omega: float, F: float, beta: float, X: np.ndarray
) -> np.ndarray:
    """Pointwise re-evaluation of the pure-tone residual.

    Samples a = sum_i X_i u_i at the interior quadrature nodes, integrates
    |a|^2 a against each conjugated mode and deprojects with the Gram
    inverse. It never touches the cubic tensor, so it checks how the tensor
    was built as well as how Newton contracts it; used as an independent
    certificate on returned solutions.
    """
    _, _, _, U = system.interior_quadrature()
    a = X @ U
    cubic = _project_pointwise(system, np.abs(a) ** 2 * a)
    G = system.gram_inverse.T
    return (
        (system.omegas**2 - Omega**2) * X
        + F * (G @ system.source_vec)
        + 1j * Omega**3 * beta * (G @ cubic)
    )


def _pure_tone_fun_jac(system: ModalSystem, Omega: float, F: float, beta: float):
    T = system.cubic_tensor
    G = system.gram_inverse.T
    lin = system.omegas**2 - Omega**2
    gain = system.source_gain
    pref = 1j * Omega**3 * beta

    def fun_jac(X: np.ndarray):
        Xc = X.conj()
        cubic = np.einsum("nijk,i,j,k->n", T, X, X, Xc)
        R = lin * X + F * gain + pref * (G @ cubic)
        M1 = np.einsum("najk,j,k->na", T, X, Xc)
        M2 = np.einsum("nija,i,j->na", T, X, X)
        A = np.diag(lin) + pref * (G @ (2.0 * M1))
        B = pref * (G @ M2)
        return R, A, B

    return fun_jac


def _newton_complex(fun_jac, Z0: np.ndarray, tol: float, max_iter: int = 60):
    """Damped Newton on stacked (Re, Im) with Wirtinger-assembled Jacobian.

    Converges well past the contractual tolerance (to 1e-8 x the initial
    residual, or the float floor) so the returned iterate is pinned to the
    root independently of the starting point; stalling below tol counts as
    success.
    """
    Z = Z0.astype(complex).copy()
    R, A, B = fun_jac(Z)
    norm = np.linalg.norm(R)
    target = min(tol, 1e-8 * norm) if norm > 0 else tol
    scale0 = max(np.linalg.norm(Z0), 1.0)
    polish_left = 3
    for it in range(max_iter):
        if norm <= target:
            if polish_left == 0:
                return Z, it, norm
            polish_left -= 1  # keep contracting toward the float floor
        J = np.block(
            [
                [np.real(A + B), -np.imag(A - B)],
                [np.imag(A + B), np.real(A - B)],
            ]
        )
        rhs = np.concatenate([R.real, R.imag])
        try:
            step = np.linalg.solve(J, -rhs)
        except np.linalg.LinAlgError as exc:
            raise ConvergenceError(f"singular Newton system: {exc}") from exc
        dZ = step[: len(Z)] + 1j * step[len(Z):]
        t = 1.0
        for _ in range(30):
            Zt = Z + t * dZ
            Rt, At, Bt = fun_jac(Zt)
            nt = np.linalg.norm(Rt)
            if nt <= (1.0 - 1e-4 * t) * norm:
                Z, R, A, B, norm = Zt, Rt, At, Bt, nt
                break
            t *= 0.5
        else:
            if norm <= tol:
                return Z, it + 1, norm  # at the float floor but within contract
            raise ConvergenceError(
                f"line search stalled at residual {norm:.3e} (tolerance {tol:.1e})"
            )
        if np.linalg.norm(Z) > 1e9 * scale0 + 1e9:
            raise ConvergenceError(
                "iterates diverged to large amplitude (possible unstable branch)"
            )
    if norm <= tol:
        return Z, max_iter, norm
    raise ConvergenceError(
        f"Newton did not converge in {max_iter} iterations; last residual {norm:.3e}"
    )


def solve_pure_tone(
    system: ModalSystem,
    Omega: float,
    F: float,
    beta: float,
    start: np.ndarray | None = None,
) -> PureToneSolution:
    """Solve the coupled pure-tone system by damped Newton.

    Starts from the passive solution (or the given warm start) and falls
    back to geometric continuation in F from the linear regime when Newton
    stalls. The reported branch is the one continuously connected to the
    passive solution.
    """
    if not np.isfinite(beta):
        raise ValueError("beta must be finite")
    total_iters = 0

    def attempt(f_val: float, X0: np.ndarray):
        fun_jac = _pure_tone_fun_jac(system, Omega, f_val, beta)
        return _newton_complex(fun_jac, X0, 1e-10 * (1.0 + abs(f_val)))

    def attempt_with_rescues(f_val: float, X0: np.ndarray, f_from: float | None):
        # fold crossings leave no nearby solution on the old branch; retry
        # from the saturated-branch extrapolation and scaled variants
        starts = [X0]
        if f_from is not None and f_from > 0:
            starts.append(X0 * (f_val / f_from) ** (1.0 / 3.0))
        starts.extend([X0 * 3.0, X0 * 10.0, X0 * 0.3])
        last_exc: ConvergenceError | None = None
        for Xs in starts:
            try:
                return attempt(f_val, Xs)
            except ConvergenceError as exc:
                last_exc = exc
        raise last_exc

    X0 = solve_passive(system, Omega, F) if start is None else np.asarray(start, dtype=complex)
    try:
        X, iters, norm = attempt(F, X0)
        return PureToneSolution(Omega, F, beta, X, iters, norm)
    except ConvergenceError:
        if F == 0.0:
            raise

    # continuation: march the forcing up from the linear regime
    n_steps = 24
    f_lo = F / 2.0**n_steps
    X_cur = solve_passive(system, Omega, f_lo)
    f_cur = f_lo
    X_cur, iters, norm = attempt(f_cur, X_cur)
    total_iters += iters
    steps = 0
    factor = 2.0
    while f_cur < F and steps < 400:
        f_next = min(f_cur * factor, F)
        try:
            X_next, iters, norm = attempt_with_rescues(f_next, X_cur, f_cur)
            total_iters += iters
            f_cur, X_cur = f_next, X_next
            factor = min(factor * 1.5, 2.0)
        except ConvergenceError:
            factor = np.sqrt(factor)
            if factor < 1.0000001:
                raise ConvergenceError(
                    f"continuation stalled at F = {f_cur:.3e} < {F:.3e}; "
                    f"last residual {norm:.3e}"
                )
        steps += 1
    if f_cur != F:
        raise ConvergenceError(f"continuation did not reach F = {F:.3e}")
    return PureToneSolution(Omega, F, beta, X_cur, total_iters, norm)


# ---------------------------------------------------------------------------
# two-tone
# ---------------------------------------------------------------------------
def cubic_coefficients(S10, S01, S21, S12):
    """Closed-form cubic line coefficients for the four dominant lines.

    Given the four complex line sums of the time-derivative field, returns
    the coefficients of e^{i Omega_1 t}, e^{i Omega_2 t},
    e^{i (2 Omega_1 - Omega_2) t} and e^{i (-Omega_1 + 2 Omega_2) t} in
    a |a|^2 a with a = S10 e1 + S01 e2 + S21 e3 + S12 e4. Accepts scalars
    or broadcastable arrays.
    """
    a10 = np.abs(S10) ** 2
    a01 = np.abs(S01) ** 2
    a21 = np.abs(S21) ** 2
    a12 = np.abs(S12) ** 2
    C10 = (
        S10 * a10
        + 2.0 * S10 * (a01 + a21 + a12)
        + S01**2 * np.conj(S12)
        + 2.0 * S01 * S21 * np.conj(S10)
        + 2.0 * S21 * S12 * np.conj(S01)
    )
    C01 = (
        S01 * a01
        + 2.0 * S01 * (a10 + a21 + a12)
        + S10**2 * np.conj(S21)
        + 2.0 * S10 * S12 * np.conj(S01)
        + 2.0 * S21 * S12 * np.conj(S10)
    )
    C21 = (
        S21 * a21
        + 2.0 * S21 * (a10 + a01 + a12)
        + S10**2 * np.conj(S01)
        + 2.0 * S10 * S01 * np.conj(S12)
    )
    C12 = (
        S12 * a12
        + 2.0 * S12 * (a10 + a01 + a21)
        + S01**2 * np.conj(S10)
        + 2.0 * S10 * S01 * np.conj(S21)
    )
    return C10, C01, C21, C12


# monomial expansion of the four coefficients: (weight, a, b, c) encodes
# weight * S_a S_b conj(S_c); channel order (10, 01, 21, 12)
_MONOMIALS = (
    ((1.0, 0, 0, 0), (2.0, 0, 1, 1), (2.0, 0, 2, 2), (2.0, 0, 3, 3),
     (1.0, 1, 1, 3), (2.0, 1, 2, 0), (2.0, 2, 3, 1)),
    ((1.0, 1, 1, 1), (2.0, 1, 0, 0), (2.0, 1, 2, 2), (2.0, 1, 3, 3),
     (1.0, 0, 0, 2), (2.0, 0, 3, 1), (2.0, 2, 3, 0)),
    ((1.0, 2, 2, 2), (2.0, 2, 0, 0), (2.0, 2, 1, 1), (2.0, 2, 3, 3),
     (1.0, 0, 0, 1), (2.0, 0, 1, 3)),
    ((1.0, 3, 3, 3), (2.0, 3, 0, 0), (2.0, 3, 1, 1), (2.0, 3, 2, 2),
     (1.0, 1, 1, 0), (2.0, 0, 1, 2)),
)


def _two_tone_frequencies(Omega1: float, Omega2: float) -> np.ndarray:
    return np.array(
        [Omega1, Omega2, 2.0 * Omega1 - Omega2, -Omega1 + 2.0 * Omega2], dtype=float
    )


def _cubic_projections_tensor(system: ModalSystem, freqs: np.ndarray, Xs: np.ndarray):
    """(4, N) interior projections of the four line coefficients, via the
    cubic tensor contracted over the frequency-scaled amplitude vectors."""
    T = system.cubic_tensor
    Y = freqs[:, None] * Xs  # line sums carry their own frequency factor
    out = np.zeros((4, system.n), dtype=complex)
    for ch in range(4):
        for w, a, b, c in _MONOMIALS[ch]:
            out[ch] += w * np.einsum("nijk,i,j,k->n", T, Y[a], Y[b], Y[c].conj())
    return out


def _cubic_projections_pointwise(system: ModalSystem, freqs: np.ndarray, Xs: np.ndarray):
    """Same projections evaluated through the sampled line-sum fields.

    Applies cubic_coefficients at the interior quadrature nodes and
    integrates against the conjugated modes; an independent route used to
    cross-check the tensor contraction.
    """
    _, _, _, U = system.interior_quadrature()
    S = (freqs[:, None] * Xs) @ U  # (4, P) line-sum fields
    C = cubic_coefficients(S[0], S[1], S[2], S[3])
    out = np.zeros((4, system.n), dtype=complex)
    for ch in range(4):
        out[ch] = _project_pointwise(system, C[ch])
    return out


def residual_two_tone(
    system: ModalSystem,
    Omega1: float,
    Omega2: float,
    F1: float,
    F2: float,
    beta: float,
    Xs: np.ndarray,
    pointwise: bool = False,
) -> np.ndarray:
    """(4, N) residual of the four coupled line systems at amplitudes Xs."""
    freqs = _two_tone_frequencies(Omega1, Omega2)
    forcing = np.array([F1, F2, 0.0, 0.0])
    proj = (
        _cubic_projections_pointwise(system, freqs, Xs)
        if pointwise
        else _cubic_projections_tensor(system, freqs, Xs)
    )
    R = np.zeros((4, system.n), dtype=complex)
    for ch in range(4):
        R[ch] = (
            (system.omegas**2 - freqs[ch] ** 2) * Xs[ch]
            + forcing[ch] * system.source_gain
            + 1j * beta * system.project(proj[ch])
        )
    return R


def _two_tone_fun_jac(system: ModalSystem, Omega1, Omega2, F1, F2, beta):
    T = system.cubic_tensor
    G = system.gram_inverse.T
    n = system.n
    freqs = _two_tone_frequencies(Omega1, Omega2)
    forcing = np.array([F1, F2, 0.0, 0.0])
    lin = system.omegas[None, :] ** 2 - (freqs**2)[:, None]  # (4, N)
    gain = system.source_gain

    def fun_jac(Z: np.ndarray):
        Xs = Z.reshape(4, n)
        Y = freqs[:, None] * Xs
        Yc = Y.conj()
        R = np.zeros((4, n), dtype=complex)
        A = np.zeros((4 * n, 4 * n), dtype=complex)
        B = np.zeros((4 * n, 4 * n), dtype=complex)
        for ch in range(4):
            proj = np.zeros(n, dtype=complex)
            for w, a, b, c in _MONOMIALS[ch]:
                proj += w * np.einsum("nijk,i,j,k->n", T, Y[a], Y[b], Yc[c])
                # Wirtinger blocks: d/dX[a'], d/dconj(X[c'])
                rows = slice(ch * n, (ch + 1) * n)
                da = w * freqs[a] * np.einsum("najk,j,k->na", T, Y[b], Yc[c])
                A[rows, a * n:(a + 1) * n] += 1j * beta * (G @ da)
                db = w * freqs[b] * np.einsum("najk,j,k->na", T, Y[a], Yc[c])
                A[rows, b * n:(b + 1) * n] += 1j * beta * (G @ db)
                dc = w * freqs[c] * np.einsum("nija,i,j->na", T, Y[a], Y[b])
                B[rows, c * n:(c + 1) * n] += 1j * beta * (G @ dc)
            R[ch] = lin[ch] * Xs[ch] + forcing[ch] * gain + 1j * beta * (G @ proj)
        A += np.diag(lin.ravel())
        return R.ravel(), A, B

    return fun_jac


def solve_two_tone(
    system: ModalSystem,
    Omega1: float,
    Omega2: float,
    F1: float,
    F2: float,
    beta: float,
    frequency_floor: float = 1e-8,
) -> TwoToneSolution:
    """Solve the four coupled line systems for two-tone forcing.

    Initialized from single-tone passive solutions with zero combination
    lines; if Newton stalls, both forcing amplitudes are continued up
    geometrically from the linear regime. Rejects configurations where the
    four line frequencies are not clearly distinct.
    """
    freqs = _two_tone_frequencies(Omega1, Omega2)
    scale = np.max(np.abs(freqs))
    for a in range(4):
        for b in range(a + 1, 4):
            if abs(freqs[a] - freqs[b]) <= frequency_floor * scale:
                raise ValueError(
                    f"line frequencies {freqs[a]:.6g} and {freqs[b]:.6g} collide; "
                    f"|Omega1 - Omega2| must exceed the configured floor"
                )
    n = system.n

    def start_for(f1: float, f2: float) -> np.ndarray:
        Xs = np.zeros((4, n), dtype=complex)
        Xs[0] = solve_passive(system, Omega1, f1)
        Xs[1] = solve_passive(system, Omega2, f2)
        return Xs

    def attempt(f1: float, f2: float, Z0: np.ndarray):
        tol = 1e-10 * (1.0 + abs(f1) + abs(f2))
        fun_jac = _two_tone_fun_jac(system, Omega1, Omega2, f1, f2, beta)
        return _newton_complex(fun_jac, Z0, tol)

    total_iters = 0
    try:
        Z, iters, norm = attempt(F1, F2, start_for(F1, F2).ravel())
        Xs = Z.reshape(4, n)
        return TwoToneSolution(Omega1, Omega2, F1, F2, *Xs, iters, norm)
    except ConvergenceError:
        if F1 == 0.0 and F2 == 0.0:
            raise

    n_steps = 24
    shrink = 2.0**n_steps
    f1_cur, f2_cur = F1 / shrink, F2 / shrink
    Z_cur, iters, norm = attempt(f1_cur, f2_cur, start_for(f1_cur, f2_cur).ravel())
    total_iters += iters
    frac = 1.0 / shrink
    factor = 2.0
    steps = 0
    while frac < 1.0 and steps < 400:
        frac_next = min(frac * factor, 1.0)
        starts = [Z_cur, Z_cur * (frac_next / frac) ** (1.0 / 3.0), Z_cur * 3.0, Z_cur * 0.3]
        converged = False
        for Z0 in starts:
            try:
                Z_next, iters, norm = attempt(F1 * frac_next, F2 * frac_next, Z0)
                total_iters += iters
                frac, Z_cur = frac_next, Z_next
                factor = min(factor * 1.5, 2.0)
                converged = True
                break
            except ConvergenceError:
                continue
        if not converged:
            factor = np.sqrt(factor)
            if factor < 1.0000001:
                raise ConvergenceError(
                    f"two-tone continuation stalled at fraction {frac:.3e}; "
                    f"last residual {norm:.3e}"
                )
        steps += 1
    if frac != 1.0:
        raise ConvergenceError("two-tone continuation did not reach the target forcing")
    Xs = Z_cur.reshape(4, n)
    return TwoToneSolution(Omega1, Omega2, F1, F2, *Xs, total_iters, norm)


# ---------------------------------------------------------------------------
# single-oscillator steady-state oracle
# ---------------------------------------------------------------------------
def single_hopf_steady_state(
    mu: float, omega0: float, Omega: float, F: float
) -> HopfOracleResult:
    """Steady response amplitude of dz/dt = (mu + i omega0) z - |z|^2 z + F e^{i Omega t}.

    In the rotating frame w = z e^{-i Omega t} (|w| = |z|) the flow is
    autonomous, w' = (mu + i Delta) w - |w|^2 w + F with Delta = omega0 - Omega,
    and a phase-locked state has s = |w|^2 on the real positive roots of

        s ((mu - s)^2 + Delta^2) = F^2.

    Each root is polished by Newton and must leave a relative residual below
    1e-12. The answer is the root that is stable under the 2x2 Jacobian of
    the flow: trace 2(mu - 2s) < 0 and determinant (mu - 2s)^2 + Delta^2 - s^2 > 0.
    Unforced, the amplitude is sqrt(max(mu, 0)): the origin or the limit cycle.
    Raises ConvergenceError when no root is stable (no phase-locked state) or
    two are (bistable, possible only for mu > 0 and mu^2 > 3 Delta^2).
    """
    if F == 0.0:
        return HopfOracleResult(mu, omega0, Omega, F, float(np.sqrt(max(mu, 0.0))))
    detuning = omega0 - Omega
    cubic = np.array([1.0, -2.0 * mu, mu * mu + detuning * detuning, -F * F])
    stable = []
    for root in np.roots(cubic):
        if root.real <= 0.0 or abs(root.imag) > 1e-6 * abs(root):
            continue
        s = root.real
        for _ in range(3):
            s -= np.polyval(cubic, s) / np.polyval(np.polyder(cubic), s)
        residual = abs(np.polyval(cubic, s)) / np.polyval(np.abs(cubic), s)
        if not residual <= 1e-12:
            raise ConvergenceError(
                f"steady-state root s = {s:.6g} has relative residual {residual:.3g}"
            )
        if mu - 2.0 * s < 0.0 and (mu - 2.0 * s) ** 2 + detuning**2 - s * s > 0.0:
            stable.append(s)
    if not stable:
        raise ConvergenceError(
            f"no stable phase-locked state at mu={mu}, detuning={detuning}, F={F}; "
            "the forced response does not settle to a fixed amplitude"
        )
    if len(stable) > 1:
        raise ConvergenceError(
            f"bistable response at mu={mu}, detuning={detuning}, F={F}: stable "
            f"amplitudes {', '.join(f'{np.sqrt(s):.6g}' for s in stable)}"
        )
    return HopfOracleResult(mu, omega0, Omega, F, float(np.sqrt(stable[0])))
