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
four exponentials in |dp/dt|^2 dp/dt yields four coupled N-vector systems.

Both forcings are one problem: L response lines, each given by an integer
frequency vector over the tones (pure tone: (1,); two tone: (1, 0), (0, 1),
(2, -1), (-1, 2)). Line ch of the cubic term collects S_a S_b conj(S_c)
whenever v_a + v_b - v_c = v_ch, a table generated from the vectors
(M. Krack & J. Gross, Harmonic Balance for Nonlinear Vibration Problems,
Springer 2019). One builder contracts every line with the cubic tensor and
returns the residual with the real Jacobian of its real and imaginary
parts, built from the Wirtinger pair (the residuals depend on conj(X), so
they are not complex-differentiable); one driver runs damped Newton on those
parts, plus geometric continuation in the forcing when Newton stalls. It
solves a stack of independent lanes (points) in lockstep, one matrix per
lane in every product and solve, so a lane's result does not depend on its
stack; past its target residual a lane polishes with full Newton steps only,
down to the float floor.

Solutions of any line set are certified by one alternating frequency/time
residual (T. M. Cameron & J. H. Griffin, J. Appl. Mech. 56, 1989). At each
of the Q phases of a grid on which no cubic product aliases onto a line
(Q = 1 for the pure tone, 7 for the four two-tone lines), the time
derivative is sampled at the interior quadrature nodes, cubed there and
projected onto the modes; a DFT over the phases returns the lines. That path
uses neither the cubic tensor nor the generated line table.
"""

from __future__ import annotations

import itertools
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
class LineSolution:
    """The amplitudes X (L, N) of L response lines at one point, where line l
    rings at vectors[l] . tones. The pure tone is X[0]; the two-tone lines
    are X[0..3], at Omega1, Omega2, 2 Omega1 - Omega2 and -Omega1 + 2 Omega2."""

    X: np.ndarray
    newton_iters: int
    residual_norm: float


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
# harmonic balance on L response lines
# ---------------------------------------------------------------------------
# integer frequency vectors of the response lines over the forcing tones: the
# line sets of a pure tone and of the two-tone lines Omega1, Omega2, 2 Omega1 - Omega2
# and 2 Omega2 - Omega1, as solve_lines takes them
PURE_TONE_LINES = ((1,),)
TWO_TONE_LINES = ((1, 0), (0, 1), (2, -1), (-1, 2))

# lines closer than this, relative to the largest, collide
_FREQUENCY_FLOOR = 1e-8
_STACK_ENTRIES = 2**16  # lanes x (L N)^2 per Newton stack: about 300 bytes each, 20 MB
_NEWTON_ITERS = 60  # Newton iterations per attempt


def _line_weights(vectors) -> np.ndarray:
    """(L, L, L, L) table W with W[ch, a, b, c] = 1 when v_a + v_b - v_c = v_ch.

    Line ch of |a|^2 a, with a = sum_l S_l e^{i (v_l . Omega) t}, is then
    sum_{abc} W[ch, a, b, c] S_a S_b conj(S_c); the pair (a, b) is ordered,
    so a != b counts twice.
    """
    V = np.asarray(vectors, dtype=int)
    sums = V[:, None, None] + V[None, :, None] - V[None, None, :]  # (a, b, c, tone)
    return np.all(sums[None] == V[:, None, None, None], axis=-1).astype(float)


def _line_fun_jac(system: ModalSystem, freqs: np.ndarray, W: np.ndarray, forcing, beta: float):
    """Residual and real Jacobian of the L coupled line systems of lane k,
    which rings line l at freqs[k, l], driven by forcing[k, l].

    Line l balances (omega_m^2 - f_l^2) X_l + F_l g + i beta G C_l with
    C_l = sum_{abc} W[l, a, b, c] T(Y_a, Y_b, conj Y_c), where Y_l = f_l X_l
    is the line sum of the time derivative and G the deprojection. As T is
    symmetric in (i, j), dC_l/dY_a = 2 sum_{bc} W[l, a, b, c] T(., Y_b, conj Y_c)
    and dC_l/d(conj Y_c) = sum_{ab} W[l, a, b, c] T(Y_a, Y_b, .). Every line
    is contracted by the same few matrix products, one matrix per lane
    (swapaxes, as .mT needs numpy 2). fun_jac(Z, lanes) evaluates `lanes`
    (default all) at Z (lanes, L N): R and the Jacobian of (Re R, Im R) in
    (Re Z, Im Z), from the Wirtinger pair A = dR/dZ, B = dR/d(conj Z).
    """
    (K, L), n = freqs.shape, system.n
    T = system.cubic_tensor
    T_jk = T.reshape(n * n, n * n)  # rows (n, i), columns (j, k)
    T_ij = T.transpose(0, 3, 1, 2).reshape(n * n, n * n)  # rows (n, k), columns (i, j)
    # dY_a/dX_a = f_a, folded into the weights of the differentiated line
    f_diff = freqs[:, None, :, None]
    W_a = (2.0 * W.reshape(L, L, L * L) * f_diff).reshape(K, L * L, L * L)  # (ch, a), (b, c)
    W_c = (W.transpose(0, 3, 1, 2).reshape(L, L, L * L) * f_diff).reshape(K, L * L, L * L)
    G = system.gram_inverse.T
    lin = system.omegas**2 - freqs[..., None] ** 2  # (K, L, N)
    drive = np.asarray(forcing, dtype=float)[..., None] * system.source_gain
    pref = 1j * beta
    diag = np.arange(L * n)

    def fun_jac(Z: np.ndarray, lanes=slice(None)):
        k = len(Z)
        X = Z.reshape(k, L, n)
        Y = freqs[lanes, :, None] * X
        YYc = (Y[:, :, None, :, None] * Y.conj()[:, None, :, None, :]).reshape(k, L * L, n * n).swapaxes(1, 2)
        YY = (Y[:, :, None, :, None] * Y[:, None, :, None, :]).reshape(k, L * L, n * n).swapaxes(1, 2)
        dA = (W_a[lanes] @ (T_jk @ YYc).swapaxes(1, 2)).reshape(k, L, L, n, n)  # dC_ch/dX_a, (n, i)
        dB = (W_c[lanes] @ (T_ij @ YY).swapaxes(1, 2)).reshape(k, L, L, n, n)  # dC_ch/d(conj X_c)
        C = 0.5 * np.einsum("klani,kai->kln", dA, X)  # C is half its X-derivative times X
        R = lin[lanes] * X + drive[lanes] + pref * (C @ G.T)
        A = (pref * (G @ dA)).transpose(0, 1, 3, 2, 4).reshape(k, L * n, L * n)
        B = (pref * (G @ dB)).transpose(0, 1, 3, 2, 4).reshape(k, L * n, L * n)
        A[:, diag, diag] += lin[lanes].reshape(k, L * n)
        S, D = A + B, A - B
        return R.reshape(k, L * n), np.block([[S.real, -D.imag], [S.imag, D.real]])

    return fun_jac


def _newton_complex(fun_jac, Z0: np.ndarray, tol: np.ndarray):
    """Damped Newton on stacked (Re, Im) with the real Jacobians of fun_jac
    for a stack of lanes in lockstep, lane k from Z0[k] to tolerance tol[k].

    Converges well past the contractual tolerance (to 1e-8 x the initial
    residual, or tol), then polishes up to three times, so the returned
    iterate is pinned to the root independently of the starting point.
    Above that target a step is halved up to 30 times; a polish step tries
    only the full step, and a lane it does not improve is at the float floor
    and returns, within contract. Returns Z, iterations, residuals,
    evaluations and per lane None or its ConvergenceError.
    """
    Z = np.array(Z0, dtype=complex)
    K, m = Z.shape
    R, J = fun_jac(Z)
    norm = np.linalg.norm(R, axis=1)
    target = np.where(norm > 0, np.minimum(tol, 1e-8 * norm), tol)
    diverged = 1e9 * np.maximum(np.linalg.norm(Z, axis=1), 1.0) + 1e9
    polish, iters, errors, evaluations = np.full(K, 3), np.full(K, _NEWTON_ITERS), [None] * K, K
    dZ, live = np.zeros_like(Z), np.arange(K)
    for it in range(_NEWTON_ITERS):
        done = (norm[live] <= target[live]) & (polish[live] == 0)
        iters[live[done]] = it
        live = live[~done]
        if not len(live):
            break
        polish[live[norm[live] <= target[live]]] -= 1  # keep contracting toward the float floor
        rhs = -np.concatenate([R[live].real, R[live].imag], axis=1)[..., None]
        try:
            step = np.linalg.solve(J[live], rhs)[..., 0]
        except np.linalg.LinAlgError:  # raised for the whole stack: solve lane by lane
            step = np.zeros(rhs.shape[:2])
            for i, k in enumerate(live):
                try:
                    step[i] = np.linalg.solve(J[k], rhs[i])[:, 0]
                except np.linalg.LinAlgError as exc:
                    errors[k] = ConvergenceError(f"singular Newton system: {exc}")
        dZ[live] = step[:, :m] + 1j * step[:, m:]
        live = np.array([k for k in live if errors[k] is None], dtype=int)
        t, pending, stopped = 1.0, live, []
        for _ in range(30):
            Zt = Z[pending] + t * dZ[pending]
            Rt, Jt = fun_jac(Zt, pending)
            evaluations += len(pending)
            nt = np.linalg.norm(Rt, axis=1)
            ok = nt <= (1.0 - 1e-4 * t) * norm[pending]
            acc = pending[ok]
            Z[acc], R[acc], J[acc], norm[acc] = Zt[ok], Rt[ok], Jt[ok], nt[ok]
            pending = pending[~ok]
            floor = norm[pending] <= target[pending]  # a polish step tries the full step only
            stopped.append(pending[floor])
            pending = pending[~floor]
            if not len(pending):
                break
            t *= 0.5
        stopped = np.concatenate([pending, *stopped])
        iters[stopped] = it + 1
        for k in stopped[~(norm[stopped] <= tol[stopped])]:  # NaN fails too
            errors[k] = ConvergenceError(f"line search stalled at residual {norm[k]:.3e} "
                                         f"(tolerance {tol[k]:.1e})")
        live = live[~np.isin(live, stopped)]  # np.setdiff1d (live is sorted) without numpy.ma
        for k in live[np.linalg.norm(Z[live], axis=1) > diverged[live]]:
            errors[k] = ConvergenceError("iterates diverged to large amplitude (possible unstable branch)")
        live = np.array([k for k in live if errors[k] is None], dtype=int)
    for k in live[~(norm[live] <= tol[live])]:
        errors[k] = ConvergenceError(f"Newton did not converge in {_NEWTON_ITERS} iterations; "
                                     f"last residual {norm[k]:.3e}")
    return Z, iters, norm, evaluations, errors


def solve_lines(system: ModalSystem, vectors, tones, forcing, beta: float, starts):
    """Solve line systems (lanes) in lockstep, _STACK_ENTRIES / (L N)^2 at a time.

    Lane k rings line l at vectors[l] . tones[k], driven with amplitude
    forcing[k, l], from starts[k] or, when that is None, from the passive
    response of its driven lines. A lane that stalls is continued alone:
    every forcing is scaled down by 2^24 and continued back up
    geometrically, each step retried from a list of rescue starts; the
    branch reported is then the one continuously connected to the passive
    solution. Returns per lane its LineSolution, or the ConvergenceError or
    ValueError (such as two colliding lines) it failed with, and the solver
    counts. Raises ValueError when beta is not finite.
    """
    if not np.isfinite(beta):
        raise ValueError(f"beta must be finite, got {beta}")
    V = np.asarray(vectors)
    tones = np.asarray(tones, dtype=float)
    freqs = tones @ V.T
    forcing = np.asarray(forcing, dtype=float)
    (K, L), n = forcing.shape, system.n
    W = _line_weights(V)
    counts = {"residual_evaluations": 0, "continuation_points": 0}

    def attempt(lanes, frac: float, X0: np.ndarray) -> list:
        f = forcing[lanes] * frac
        fun_jac = _line_fun_jac(system, freqs[lanes], W, f, beta)
        tol = 1e-10 * (1.0 + np.abs(f).sum(axis=1))
        Z, iters, norm, evals, errors = _newton_complex(fun_jac, X0.reshape(len(lanes), L * n), tol)
        counts["residual_evaluations"] += evals
        return [(X, int(i), float(r)) if e is None else e
                for X, i, r, e in zip(Z.reshape(-1, L, n), iters, norm, errors)]

    def passive(k: int, frac: float) -> np.ndarray:
        X = np.zeros((L, n), dtype=complex)
        for line in np.flatnonzero(forcing[k]):
            X[line] = solve_passive(system, freqs[k, line], forcing[k, line] * frac)
        return X

    def continuation(k: int):
        frac = 2.0**-24
        (first,) = attempt([k], frac, passive(k, frac))
        if isinstance(first, Exception):
            raise first
        X, total_iters, norm = first
        factor, steps = 2.0, 0
        while frac < 1.0 and steps < 400:
            frac_next = min(frac * factor, 1.0)
            # fold crossings leave no nearby solution on the old branch; retry
            # from the saturated-branch extrapolation and scaled variants
            rescues = (X, X * (frac_next / frac) ** (1.0 / 3.0), X * 3.0, X * 0.3)
            for X_start in rescues:
                (out,) = attempt([k], frac_next, X_start)
                if isinstance(out, Exception):
                    continue
                X, iters, norm = out
                total_iters += iters
                frac = frac_next
                factor = min(factor * 1.5, 2.0)
                break
            else:
                factor = np.sqrt(factor)
                if factor < 1.0000001:
                    raise ConvergenceError(f"continuation stalled at forcing fraction "
                                           f"{frac:.3e}; last residual {norm:.3e}")
            steps += 1
        if frac != 1.0:
            raise ConvergenceError("continuation did not reach the target forcing")
        return X, total_iters, norm

    outcomes: list = [None] * K
    X0 = np.zeros((K, L, n), dtype=complex)
    pairs = list(zip(*np.triu_indices(L, 1)))  # lines must stay distinct
    for k in range(K):
        try:
            for a, b in pairs:
                if abs(freqs[k, a] - freqs[k, b]) <= _FREQUENCY_FLOOR * np.max(np.abs(freqs[k])):
                    raise ValueError(f"lines {tuple(V[a].tolist())} and {tuple(V[b].tolist())} collide "
                                     f"at frequencies {freqs[k, a]:.6g} and {freqs[k, b]:.6g}")
            X0[k] = passive(k, 1.0) if starts[k] is None else np.reshape(starts[k], (L, n))
        except ValueError as exc:
            outcomes[k] = exc
    lanes = [k for k in range(K) if outcomes[k] is None]
    size = max(1, _STACK_ENTRIES // (L * n) ** 2)
    for chunk in (lanes[c:c + size] for c in range(0, len(lanes), size)):
        for k, out in zip(chunk, attempt(chunk, 1.0, X0[chunk])):
            if isinstance(out, ConvergenceError) and forcing[k].any():
                counts["continuation_points"] += 1
                try:
                    out = continuation(k)
                except (ConvergenceError, ValueError) as exc:
                    out = exc
            outcomes[k] = out
    return [out if isinstance(out, Exception) else LineSolution(*out) for out in outcomes], counts


# ---------------------------------------------------------------------------
# pointwise certificate on L response lines
# ---------------------------------------------------------------------------
def _phase_grid(vectors) -> tuple[tuple[int, ...], int]:
    """Integer harmonics h (one per line) and size Q of the least phase grid
    on which the cubic products of the lines do not alias.

    Line l rings at harmonic h_l = v_l . (1, K, K^2, ...) mod Q. The least Q,
    then the least direction K, is taken for which the lines' harmonics are
    distinct and no other product v_a + v_b - v_c lands on one of them.
    """
    V = np.asarray(vectors, dtype=int)
    if len(set(map(tuple, V.tolist()))) < len(V):
        raise ValueError(f"response lines {vectors} repeat a frequency vector")
    products = (V[:, None, None] + V[None, :, None] - V[None, None, :]).reshape(-1, V.shape[1])
    others = products[~(products[:, None] == V[None]).all(axis=-1).any(axis=1)]
    for Q in itertools.count(1):
        for K in range(Q):
            direction = K ** np.arange(V.shape[1])
            h = V @ direction % Q
            if len(set(h)) == len(h) and not np.isin(others @ direction % Q, h).any():
                return tuple(int(x) for x in h), Q


def _cubic_lines(vectors, Y: np.ndarray, U: np.ndarray, project: np.ndarray) -> np.ndarray:
    """Line coefficients of |a|^2 a with a = sum_l (Y_l @ U) e^{i (v_l . Omega) t},
    projected: (..., L, N') from line amplitudes Y (..., L, N), mode values
    U (N, P) at P points and a projection (P, N').

    Alternating frequency/time evaluation on the grid of _phase_grid: at each
    phase j, a_j = sum_l e^{2 pi i h_l j / Q} Y_l @ U is sampled, cubed
    pointwise and projected at once, so temporaries stay (..., P); a DFT over
    the phases returns the lines. Exact to rounding, as the grid does not alias.
    """
    h, Q = _phase_grid(vectors)
    lines = 0.0
    for e in np.exp(2j * np.pi * (np.outer(np.arange(Q), h) % Q) / Q):
        a = (e @ Y) @ U
        a *= np.abs(a) ** 2
        lines = lines + e.conj()[:, None] * (a @ project)[..., None, :]
    return lines / Q


def _residual_lines(system: ModalSystem, vectors, tones, forcing, beta: float, X: np.ndarray) -> np.ndarray:
    """Residual of the L line systems at amplitudes X (..., L, N), line l
    ringing at vectors[l] . tones (tones (..., T)) with forcing[l].

    The time derivative is sampled at the interior quadrature nodes (on
    x2 >= 0 with mirrored weights: every mode, and so the derivative, is
    even in x2), its cubic is formed there by _cubic_lines and integrated
    against the conjugated modes. Neither the cubic tensor nor the solver's
    line table is used, so this is an independent certificate on returned
    solutions.
    """
    freqs = np.asarray(tones, dtype=float) @ np.asarray(vectors).T
    _, wts, _, U = system.interior_quadrature()
    cubic = _cubic_lines(vectors, freqs[..., None] * X, U, (U.conj() * wts).T)
    return (
        (system.omegas**2 - freqs[..., None] ** 2) * X
        + np.asarray(forcing, dtype=float)[:, None] * system.source_gain
        + 1j * beta * (cubic @ system.gram_inverse)
    )


# ---------------------------------------------------------------------------
# presets: the pure tone (one line) and the two tone (four lines)
# ---------------------------------------------------------------------------
def residual_pure_tone_reference(
    system: ModalSystem, Omega, F: float, beta: float, X: np.ndarray
) -> np.ndarray:
    """Pointwise residual of the pure-tone system: the one-line case of
    _residual_lines. X may stack points, one Omega each."""
    tones = np.asarray(Omega, dtype=float)[..., None]
    return _residual_lines(system, PURE_TONE_LINES, tones, [F], beta, X[..., None, :])[..., 0, :]


def solve_pure_tone(system: ModalSystem, Omega: float, F: float, beta: float, start=None) -> LineSolution:
    """Solve the coupled pure-tone system (one line at Omega) from the
    passive solution or the given warm start: the one-lane, one-line case of
    solve_lines."""
    (outcome,), _ = solve_lines(system, PURE_TONE_LINES, [[Omega]], [[F]], beta, [start])
    if isinstance(outcome, Exception):
        raise outcome
    return outcome


def residual_two_tone(
    system: ModalSystem,
    Omega1: float,
    Omega2,
    F1: float,
    F2: float,
    beta: float,
    Xs: np.ndarray,
) -> np.ndarray:
    """(4, N) pointwise residual of the four two-tone line systems at
    amplitudes Xs: the four-line case of _residual_lines. Xs may stack
    points, one Omega2 each."""
    tones = np.stack(np.broadcast_arrays(float(Omega1), np.asarray(Omega2, dtype=float)), axis=-1)
    return _residual_lines(system, TWO_TONE_LINES, tones, [F1, F2, 0.0, 0.0], beta, Xs)


def solve_two_tone(system: ModalSystem, Omega1: float, Omega2: float, F1: float, F2: float,
                   beta: float) -> LineSolution:
    """Solve the four coupled two-tone line systems from the passive
    responses to both tones: the one-lane, four-line case of solve_lines."""
    (outcome,), _ = solve_lines(system, TWO_TONE_LINES, [[Omega1, Omega2]], [[F1, F2, 0.0, 0.0]],
                                beta, [None])
    if isinstance(outcome, Exception):
        raise outcome
    return outcome


# ---------------------------------------------------------------------------
# single-oscillator steady-state oracle
# ---------------------------------------------------------------------------
def single_hopf_steady_state(
    mu: float, omega0: float, Omega: float, F: float
) -> float:
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
        return float(np.sqrt(max(mu, 0.0)))
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
    return float(np.sqrt(stable[0]))
