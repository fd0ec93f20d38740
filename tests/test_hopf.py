import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hopfarray.hopf import (
    PURE_TONE_LINES,
    TWO_TONE_LINES,
    ConvergenceError,
    _cubic_lines,
    _line_fun_jac,
    _line_weights,
    _newton_complex,
    _phase_grid,
    _residual_lines,
    residual_pure_tone_reference,
    residual_two_tone,
    single_hopf_steady_state,
    solve_lines,
    solve_passive,
    solve_pure_tone,
    solve_two_tone,
)
from oracles import fourier_cubic_coefficients, hopf_steady_state_rk, residual_pure_tone_loop

BETA = 5.0e5
_SIX_LINES = TWO_TONE_LINES + ((3, -2), (-2, 3))  # the next combination tones


def _line_system(system, vectors, tones, forcing):
    """The solver's residual/Jacobian builder for the given lines, as a
    one-lane stack: Z (L N,) -> R (L N,), J (2 L N, 2 L N)."""
    freqs = np.asarray(vectors) @ np.asarray(tones, dtype=float)
    fun_jac = _line_fun_jac(system, freqs[None], _line_weights(vectors), [forcing], BETA)
    return lambda Z: tuple(part[0] for part in fun_jac(np.asarray(Z)[None]))


# ---------------------------------------------------------------------------
# passive solution
# ---------------------------------------------------------------------------
def test_passive_zero_forcing(six_system):
    X = solve_passive(six_system, 0.02, 0.0)
    assert np.all(X == 0.0)


def test_passive_linearity(six_system):
    for om in (0.01, 0.0231, 0.05):
        x1 = solve_passive(six_system, om, 1e-6)
        x2 = solve_passive(six_system, om, 2e-6)
        assert np.allclose(x2, 2.0 * x1, rtol=1e-14)


def test_passive_peaks_near_resonances(six_system):
    # |X_m| maximized close to Re omega_m, located by a dense scan
    for m in (1, 3):
        center = six_system.omegas[m].real
        grid = np.linspace(0.9 * center, 1.1 * center, 801)
        amps = np.array([abs(solve_passive(six_system, om, 1.0)[m]) for om in grid])
        peak = grid[np.argmax(amps)]
        assert abs(peak - center) <= 2.5 * (grid[1] - grid[0])


def test_passive_near_singular_guard(six_system):
    om = six_system.omegas[0]
    real_at_pole = np.sqrt(om.real**2 + om.imag**2)  # |omega|, not resonant for real input
    X = solve_passive(six_system, real_at_pole, 1.0)
    assert np.all(np.isfinite(X.real))


# ---------------------------------------------------------------------------
# pure tone
# ---------------------------------------------------------------------------
def test_pure_tone_beta_zero_matches_passive(six_system):
    for om in np.linspace(0.015, 0.05, 7):
        passive = solve_passive(six_system, om, 1e-4)
        sol = solve_pure_tone(six_system, om, 1e-4, 0.0, start=np.zeros(6, complex))
        assert np.allclose(sol.X[0], passive, rtol=1e-12, atol=1e-20)
        ref = residual_pure_tone_reference(six_system, om, 1e-4, 0.0, sol.X[0])
        assert np.linalg.norm(ref) <= 1e-10 * (1 + 1e-4)


def test_pure_tone_residual_certificate(six_system):
    om = six_system.omegas[1].real
    sol = solve_pure_tone(six_system, om, 1e-4, BETA)
    ref = residual_pure_tone_reference(six_system, om, 1e-4, BETA, sol.X[0])
    assert np.linalg.norm(ref) <= 1e-10 * (1 + 1e-4)
    # the pointwise certificate, the loop oracle and the solver's residual
    # agree where the residual is not pure noise
    fun_jac = _line_system(six_system, PURE_TONE_LINES, (om,), (1e-4,))
    rng = np.random.default_rng(8)
    for _ in range(5):
        X = 1e-2 * (rng.standard_normal(6) + 1j * rng.standard_normal(6))
        ref = residual_pure_tone_reference(six_system, om, 1e-4, BETA, X)
        loop = residual_pure_tone_loop(six_system, om, 1e-4, BETA, X)
        fast = fun_jac(X)[0]
        assert np.allclose(ref, loop, rtol=1e-12, atol=0.0)
        assert np.allclose(ref, fast, rtol=1e-12, atol=0.0)


def test_pure_tone_small_forcing_is_perturbative(six_system):
    om = six_system.omegas[1].real
    X = solve_pure_tone(six_system, om, 1e-8, BETA).X[0]
    Xp = solve_passive(six_system, om, 1e-8)
    assert np.linalg.norm(X - Xp) / np.linalg.norm(Xp) < 1e-4


def test_pure_tone_cubic_order_scaling(six_system):
    om = six_system.omegas[1].real
    Fs = np.logspace(-8, -6, 7)
    diffs = []
    for F in Fs:
        X = solve_pure_tone(six_system, om, F, BETA).X[0]
        diffs.append(np.linalg.norm(X - solve_passive(six_system, om, F)))
    slope = np.polyfit(np.log(Fs), np.log(diffs), 1)[0]
    assert 2.8 <= slope <= 3.2


def test_pure_tone_compressive_at_resonance(six_system):
    om = six_system.omegas[1].real
    gains = [abs(solve_pure_tone(six_system, om, F, BETA).X[0, 1]) / F for F in (1e-6, 1e-4, 1e-2)]
    assert gains[0] > gains[1] > gains[2]


def test_pure_tone_invalid_beta(six_system):
    with pytest.raises(ValueError, match="beta"):
        solve_pure_tone(six_system, 0.02, 1e-6, np.inf)


# ---------------------------------------------------------------------------
# cubic line coefficients
# ---------------------------------------------------------------------------
def _aft_lines(vectors, S):
    """The certificate's line extraction at one node of unit weight: the line
    coefficients of |a|^2 a from the scalar line sums S (..., L)."""
    return _cubic_lines(vectors, np.asarray(S)[..., None], np.ones((1, 1)), np.ones((1, 1)))[..., 0]


def test_phase_grid_least_alias_free():
    assert _phase_grid(PURE_TONE_LINES) == ((0,), 1)
    assert _phase_grid(TWO_TONE_LINES)[1] == 7
    assert _phase_grid(_SIX_LINES)[1] == 11
    with pytest.raises(ValueError, match="repeat"):
        _phase_grid(((1, 0), (1, 0)))


def test_cubic_coefficients_all_zero():
    assert np.all(_aft_lines(TWO_TONE_LINES, np.zeros(4)) == 0.0)


def test_cubic_coefficients_single_line():
    C = _aft_lines(TWO_TONE_LINES, [1.0, 0.0, 0.0, 0.0])
    assert C == pytest.approx([1.0, 0.0, 0.0, 0.0], abs=1e-14)
    C = _aft_lines(TWO_TONE_LINES, [0.0, 2.0, 0.0, 0.0])
    assert C == pytest.approx([0.0, 8.0, 0.0, 0.0], abs=1e-14)  # |z|^2 z on a lone line


def test_cubic_coefficients_against_fourier_oracle():
    rng = np.random.default_rng(12)
    for _ in range(100):
        S = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        got = _aft_lines(TWO_TONE_LINES, S)
        want = fourier_cubic_coefficients(*S)
        for g, w in zip(got, want):
            assert g == pytest.approx(w, rel=1e-8, abs=1e-12)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_cubic_coefficients_oracle_property(seed):
    rng = np.random.default_rng(seed)
    S = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    got = _aft_lines(TWO_TONE_LINES, S)
    want = fourier_cubic_coefficients(*S)
    for g, w in zip(got, want):
        assert g == pytest.approx(w, rel=1e-8, abs=1e-12)


def test_cubic_coefficients_vectorized():
    rng = np.random.default_rng(3)
    S = rng.standard_normal((50, 4)) + 1j * rng.standard_normal((50, 4))
    C = _aft_lines(TWO_TONE_LINES, S)
    for p in (0, 17, 49):
        assert C[p] == pytest.approx(_aft_lines(TWO_TONE_LINES, S[p]), rel=1e-14)


def test_line_table_matches_closed_form():
    # the generated table contracted with scalar line sums (N = 1, T = 1)
    # is the exact DFT line algebra, and |S|^2 S on a lone line
    W = _line_weights(TWO_TONE_LINES)
    assert W.shape == (4, 4, 4, 4)
    rng = np.random.default_rng(17)
    for _ in range(50):
        S = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        got = np.einsum("labc,a,b,c->l", W, S, S, S.conj())
        assert got == pytest.approx(fourier_cubic_coefficients(*S), rel=1e-8, abs=1e-12)
    W1 = _line_weights(PURE_TONE_LINES)
    assert W1.shape == (1, 1, 1, 1)
    S = complex(rng.standard_normal(), rng.standard_normal())
    assert np.einsum("labc,a,b,c->l", W1, [S], [S], [np.conj(S)])[0] == pytest.approx(
        abs(S) ** 2 * S, rel=1e-15
    )


@pytest.mark.parametrize(
    "vectors, tone_factors, forcing",
    [
        (PURE_TONE_LINES, (1.0,), (1e-4,)),
        (TWO_TONE_LINES, (1.0, 1.03), (1e-5, 2e-5, 0.0, 0.0)),
    ],
)
def test_line_jacobian_matches_finite_differences(six_system, vectors, tone_factors, forcing):
    # (Re dR, Im dR) = J (Re dZ, Im dZ) for every direction, checked by
    # central differences along random real and imaginary steps
    tones = [f * abs(six_system.omegas[3]) for f in tone_factors]
    fun_jac = _line_system(six_system, vectors, tones, forcing)
    rng = np.random.default_rng(23)
    size = len(vectors) * six_system.n
    Z = 1e-2 * (rng.standard_normal(size) + 1j * rng.standard_normal(size))
    _, J = fun_jac(Z)
    for _ in range(4):
        for dZ in (rng.standard_normal(size), 1j * rng.standard_normal(size)):
            h = 1e-6 * np.linalg.norm(Z) / np.linalg.norm(dZ)
            fd = (fun_jac(Z + h * dZ)[0] - fun_jac(Z - h * dZ)[0]) / (2.0 * h)
            lin = J @ np.concatenate([dZ.real, dZ.imag])
            lin = lin[:size] + 1j * lin[size:]
            assert np.linalg.norm(fd - lin) <= 1e-7 * np.linalg.norm(lin)


class _WithoutMatrixTranspose(np.ndarray):
    """An array as numpy 1.x has it: ndarray.mT came with numpy 2.0."""

    @property
    def mT(self):
        raise AttributeError("ndarray.mT needs numpy 2")


def test_line_builder_needs_no_numpy2_transpose(six_system):
    # pyproject declares numpy >= 1.24; arrays derived from the iterate keep
    # this subclass, so a .mT anywhere in the builder raises here
    freqs = np.array([TWO_TONE_LINES]) @ (abs(six_system.omegas[3]) * np.array([1.0, 1.03]))
    fun_jac = _line_fun_jac(six_system, freqs, _line_weights(TWO_TONE_LINES), [(1e-5, 2e-5, 0, 0)], BETA)
    rng = np.random.default_rng(5)
    Z = 1e-2 * (rng.standard_normal((1, 4 * six_system.n)) + 1j * rng.standard_normal((1, 4 * six_system.n)))
    for plain, guarded in zip(fun_jac(Z), fun_jac(Z.view(_WithoutMatrixTranspose))):
        assert np.array_equal(plain, guarded)


# ---------------------------------------------------------------------------
# two-tone
# ---------------------------------------------------------------------------
def test_two_tone_reduces_to_pure_tone(six_system):
    om4 = abs(six_system.omegas[3])
    tt = solve_two_tone(six_system, om4, 1.07 * om4, 1e-5, 0.0, BETA)
    pt = solve_pure_tone(six_system, om4, 1e-5, BETA)
    assert np.allclose(tt.X[0], pt.X[0], rtol=0, atol=1e-10)
    assert np.linalg.norm(tt.X[1]) <= 1e-10
    assert np.linalg.norm(tt.X[2]) <= 1e-10
    assert np.linalg.norm(tt.X[3]) <= 1e-10


def test_two_tone_far_detuned_decoupling(six_system):
    # a second tone placed so that it, and both combination lines, sit
    # mid-gap between resonances barely couples to the first tone
    om = six_system.omegas.real
    om4 = abs(six_system.omegas[3])
    om2_far = 1.12 * om4  # keeps both combination lines off resonance too
    for f in (om2_far, 2 * om4 - om2_far, 2 * om2_far - om4):
        assert np.min(np.abs(om - f)) > 0.045 * f
    tt = solve_two_tone(six_system, om4, om2_far, 1e-5, 1e-5, BETA)
    primaries = max(np.max(np.abs(tt.X[0])), np.max(np.abs(tt.X[1])))
    assert np.max(np.abs(tt.X[2])) * 100 <= primaries
    assert np.max(np.abs(tt.X[3])) * 100 <= primaries


def test_two_tone_residual_paths_agree(six_system):
    om4 = abs(six_system.omegas[3])
    tones = (om4, 1.03 * om4)
    tt = solve_two_tone(six_system, *tones, 1e-5, 1e-5, BETA)
    Xs = tt.X
    fun_jac = _line_system(
        six_system, TWO_TONE_LINES, tones, (1e-5, 1e-5, 0.0, 0.0)
    )
    r_solver = fun_jac(Xs.ravel())[0].reshape(4, -1)
    r_point = residual_two_tone(six_system, *tones, 1e-5, 1e-5, BETA, Xs)
    assert np.linalg.norm(r_solver) <= 1e-10 * (1 + 2e-5)
    assert np.max(np.abs(r_solver - r_point)) <= 1e-10
    # away from the solution the certificate sees the solver's cubic terms:
    # the pure tone, the two-tone lines and the next combination tones
    six_forcing = (1e-5, 1e-5, 0.0, 0.0, 0.0, 0.0)
    cases = [
        (PURE_TONE_LINES, tones[:1], (1e-5,),
         lambda Z: residual_pure_tone_reference(six_system, tones[0], 1e-5, BETA, Z[0])[None]),
        (TWO_TONE_LINES, tones, (1e-5, 1e-5, 0.0, 0.0),
         lambda Z: residual_two_tone(six_system, *tones, 1e-5, 1e-5, BETA, Z)),
        (_SIX_LINES, tones, six_forcing,
         lambda Z: _residual_lines(six_system, _SIX_LINES, tones, six_forcing, BETA, Z)),
    ]
    rng = np.random.default_rng(5)
    for vectors, line_tones, forcing, certificate in cases:
        fun_jac = _line_system(six_system, vectors, line_tones, forcing)
        for _ in range(3):
            Z = 1e-2 * (rng.standard_normal((len(vectors), 6)) + 1j * rng.standard_normal((len(vectors), 6)))
            got = fun_jac(Z.ravel())[0].reshape(len(vectors), -1)
            assert np.allclose(certificate(Z), got, rtol=1e-12, atol=0.0)


def test_two_tone_frequency_collision_rejected(six_system):
    om4 = abs(six_system.omegas[3])
    with pytest.raises(ValueError, match="collide"):
        solve_two_tone(six_system, om4, om4 * (1 + 1e-12), 1e-5, 1e-5, BETA)


def test_line_collision_names_the_lines(six_system):
    # the colliding pair is named by its frequency vectors, whatever the line set
    om4 = abs(six_system.omegas[3])
    forcing = [(1e-5, 1e-5, 0.0, 0.0, 0.0, 0.0)]
    (outcome,), _ = solve_lines(six_system, _SIX_LINES, [(om4, om4 * (1 + 1e-12))], forcing, BETA, [None])
    assert isinstance(outcome, ValueError)
    assert str(outcome).startswith("lines (1, 0) and (0, 1) collide at frequencies ")


def test_solve_lines_six_line_set(six_system):
    # a line set that is neither the pure tone nor the two tone: the two-tone
    # lines plus the next combination tones, each lane certified by the AFT
    # residual, which shares no code with the solver's line table
    om4 = abs(six_system.omegas[3])
    tones = [(om4, 1.02 * om4), (om4, 0.97 * om4)]
    forcing = np.tile([1e-5, 1e-5, 0.0, 0.0, 0.0, 0.0], (2, 1))
    solved, counts = solve_lines(six_system, _SIX_LINES, tones, forcing, BETA, [None, None])
    assert set(counts) == {"residual_evaluations", "continuation_points"}
    for t, sol in zip(tones, solved):
        assert not isinstance(sol, Exception), sol
        assert sol.X.shape == (6, six_system.n)
        cert = np.linalg.norm(_residual_lines(six_system, _SIX_LINES, t, forcing[0], BETA, sol.X))
        assert cert <= 1e-10 * (1 + 2e-5)


def test_newton_flags_a_lane_that_diverges():
    # R(z) = 1/z has no root: each accepted full step z - R/R' = 2 z doubles
    # the iterate, until it passes the divergence bound and the lane fails
    # in its error slot, with nothing raised
    def fun_jac(Z, lanes=slice(None)):
        d = -1.0 / Z[:, 0] ** 2  # dR/dz = a + ib, real Jacobian [[a, -b], [b, a]]
        J = np.array([[d.real, -d.imag], [d.imag, d.real]]).transpose(2, 0, 1)
        return 1.0 / Z, J

    Z, _, _, _, errors = _newton_complex(fun_jac, np.array([[1 + 0.5j]]), np.array([1e-14]))
    (error,) = errors
    assert isinstance(error, ConvergenceError)
    assert str(error) == "iterates diverged to large amplitude (possible unstable branch)"
    assert abs(Z[0, 0]) > 2e9  # past 1e9 (max(|z0|, 1) + 1), where the flag is set


# ---------------------------------------------------------------------------
# single-oscillator oracle
# ---------------------------------------------------------------------------
def test_hopf_oracle_stable_origin():
    assert single_hopf_steady_state(-0.5, 1.0, 1.0, 0.0) == pytest.approx(0.0, abs=1e-12)


def test_hopf_oracle_limit_cycle():
    for mu in (0.25, 1.0):
        assert single_hopf_steady_state(mu, 1.3, 1.0, 0.0) == pytest.approx(np.sqrt(mu), rel=1e-6)


def test_hopf_oracle_one_third_power_law():
    Fs = np.logspace(-8, -2, 7)
    amps = [single_hopf_steady_state(0.0, 1.0, 1.0, F) for F in Fs]
    slope = np.polyfit(np.log(Fs), np.log(amps), 1)[0]
    assert slope == pytest.approx(1.0 / 3.0, abs=0.02)


def test_hopf_oracle_matches_lab_frame_integration():
    # cross-check the rotating-frame result against a direct integration of
    # the forced oscillator in the original frame
    from scipy.integrate import solve_ivp

    mu, omega0, Omega, F = -0.3, 1.1, 1.0, 0.05

    def rhs(t, y):
        z = y[0] + 1j * y[1]
        dz = (mu + 1j * omega0) * z - abs(z) ** 2 * z + F * np.exp(1j * Omega * t)
        return [dz.real, dz.imag]

    sol = solve_ivp(rhs, (0.0, 400.0), [0.0, 0.0], rtol=1e-10, atol=1e-12,
                    t_eval=np.linspace(360.0, 400.0, 400))
    lab_amp = np.hypot(sol.y[0], sol.y[1])
    oracle = single_hopf_steady_state(mu, omega0, Omega, F)
    assert lab_amp.mean() == pytest.approx(oracle, rel=1e-6)
    assert lab_amp.std() <= 1e-6 * lab_amp.mean()


def test_hopf_oracle_detuned_response_smaller():
    on = single_hopf_steady_state(0.0, 1.0, 1.0, 1e-3)
    off = single_hopf_steady_state(0.0, 1.0, 1.4, 1e-3)
    assert off < on


@pytest.mark.parametrize(
    "mu, omega0, Omega, F",
    [
        (-0.5, 1.0, 1.0, 0.0),
        (0.25, 1.3, 1.0, 0.0),
        (1.0, 1.3, 1.0, 0.0),
        (-0.3, 1.1, 1.0, 0.05),
        (-0.2, 1.0, 1.3, 0.02),
        (0.0, 1.0, 1.0, 1e-8),
        (0.0, 1.0, 1.0, 1e-3),
        (1.0, 1.0, 1.0, 0.1),
    ],
)
def test_hopf_oracle_matches_time_integration(mu, omega0, Omega, F):
    # the algebraic steady state against Runge-Kutta, on cases that settle fast
    oracle = single_hopf_steady_state(mu, omega0, Omega, F)
    assert oracle == pytest.approx(hopf_steady_state_rk(mu, omega0, Omega, F), rel=1e-9, abs=1e-14)


def test_hopf_oracle_rejects_non_unique_steady_state():
    # weak forcing off resonance leaves the limit cycle unlocked
    with pytest.raises(ConvergenceError, match="no stable phase-locked state"):
        single_hopf_steady_state(1.0, 1.0, 0.9, 0.05)
    # mu^2/4 < detuning^2 < mu^2/3 with F inside the fold: two stable branches
    with pytest.raises(ConvergenceError, match="bistable"):
        single_hopf_steady_state(1.0, 1.0, 0.45, 0.5265)
