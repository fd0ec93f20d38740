import re
from types import SimpleNamespace

import numpy as np
import pytest

from hopfarray.analysis import (
    SweepResult,
    UnwrapError,
    default_observation_points,
    group_delay,
    phase_response,
    pure_tone_sweep,
    refined_frequency_grid,
    two_tone_sweep,
)
import hopfarray.hopf as hopf
from hopfarray.hopf import solve_passive, solve_pure_tone, solve_two_tone
from hopfarray.modal import build_modal_system

BETA = 5.0e5


def test_sweep_result_requires_increasing_grid():
    with pytest.raises(ValueError, match="increasing"):
        SweepResult(grid=np.array([1.0, 0.5]), X=np.full((2, 1, 1), np.nan, dtype=complex),
                    newton_iters=np.zeros(2, dtype=int), certificates=np.full(2, np.nan),
                    flags=[None, None])


def test_passive_limit_sweep(six_system):
    grid = np.linspace(0.018, 0.03, 25)
    sweep = pure_tone_sweep(six_system, grid, 1e-5, 0.0)
    assert sweep.n_flagged == 0
    for om, X in zip(sweep.grid, sweep.X):
        assert np.allclose(X[0], solve_passive(six_system, om, 1e-5), rtol=1e-12, atol=0)


def test_sweep_rejects_infinite_beta_once(six_system):
    # beta is checked once per solve, not flagged at every point
    with pytest.raises(ValueError, match="beta must be finite"):
        pure_tone_sweep(six_system, np.linspace(0.02, 0.026, 12), 1e-4, np.inf)


def test_sweep_certificates_meet_tolerance(six_system):
    grid = np.linspace(0.02, 0.026, 12)
    sweep = pure_tone_sweep(six_system, grid, 1e-4, BETA)
    assert np.all(sweep.certificates <= 1e-10 * (1 + 1e-4))  # NaN, a failed point, fails


def test_peak_location_near_resonance(six_system):
    # dense local refinement around the second resonance locates the peak of
    # |X_2/F| within a grid step for small forcing
    center = six_system.omegas[1].real
    grid = np.linspace(0.97 * center, 1.03 * center, 61)
    sweep = pure_tone_sweep(six_system, grid, 1e-7, BETA)
    amps = np.abs(sweep.X[:, 0, 1])
    peak = grid[np.argmax(amps)]
    assert abs(peak - center) <= 1.5 * (grid[1] - grid[0])


def test_warm_start_equals_cold_start(six_system):
    grid = np.linspace(0.02, 0.025, 40)
    warm = pure_tone_sweep(six_system, grid, 1e-4, BETA)  # block warm chains
    for om, X in zip(grid, warm.X):
        cold = solve_pure_tone(six_system, float(om), 1e-4, BETA)
        assert np.max(np.abs(X[0] - cold.X[0])) <= 1e-9


def test_lockstep_lanes_match_blocks_solved_alone(six_system):
    # step j of the sweep solves point j of all three blocks as one stack;
    # each block solved alone as a one-block grid gives the same bits
    grid = np.linspace(0.02, 0.025, 40)
    sweep = pure_tone_sweep(six_system, grid, 1e-4, BETA)
    assert sweep.n_flagged == 0
    for b in range(0, len(grid), 16):
        alone = pure_tone_sweep(six_system, grid[b:b + 16], 1e-4, BETA)
        assert np.array_equal(sweep.X[b:b + 16], alone.X)
        assert np.array_equal(sweep.newton_iters[b:b + 16], alone.newton_iters)


@pytest.mark.parametrize("poison, message", [
    ("residual", "line search stalled at residual nan"),
    ("jacobian", "singular Newton system"),  # the stacked solve raises for every lane
])
def test_failed_lane_leaves_other_lanes_unchanged(six_system, monkeypatch, poison, message):
    grid = np.linspace(0.02, 0.025, 40)
    clean = pure_tone_sweep(six_system, grid, 1e-4, BETA)
    bad = grid[18]  # point 2 of the second block
    real = hopf._line_fun_jac

    def poisoned(system, freqs, W, forcing, beta):
        fun_jac = real(system, freqs, W, forcing, beta)
        hit = freqs[:, 0] == bad

        def wrapped(Z, lanes=slice(None)):
            R, J = fun_jac(Z, lanes)
            if poison == "residual":
                R[hit[lanes]] = np.nan
            else:
                J[hit[lanes]] = 0.0
            return R, J

        return wrapped

    monkeypatch.setattr(hopf, "_line_fun_jac", poisoned)
    sweep = pure_tone_sweep(six_system, grid, 1e-4, BETA)
    assert [i for i, f in enumerate(sweep.flags) if f] == [18]
    assert message in sweep.flags[18]
    for i in [*range(18), *range(32, 40)]:  # other blocks, and this one before the failure
        assert np.array_equal(sweep.X[i], clean.X[i])
    assert np.isnan(sweep.X[18]).all() and np.isnan(sweep.certificates[18])
    assert sweep.newton_iters[18] == 0 and list(np.flatnonzero(~sweep.solved)) == [18]
    # the next point of the failed lane's block starts cold
    assert np.array_equal(sweep.X[19], solve_pure_tone(six_system, grid[19], 1e-4, BETA).X)


def test_stalled_continuation_flags_its_point(six_system, monkeypatch):
    # with Newton capped at one iteration every solve fails, so the lane falls
    # back to forcing continuation, which stalls; the point is flagged, not fatal
    newton = hopf._newton_complex
    newton_errors = []

    def recording(*args, **kwargs):
        out = newton(*args, **kwargs)
        newton_errors.extend(str(e) for e in out[-1] if e is not None)
        return out

    monkeypatch.setattr(hopf, "_NEWTON_ITERS", 1)
    monkeypatch.setattr(hopf, "_newton_complex", recording)
    sweep = pure_tone_sweep(six_system, [six_system.omegas[1].real], 1e-2, BETA)
    assert any(e.startswith("Newton did not converge in 1 iterations") for e in newton_errors)
    assert sweep.flags[0].startswith("ConvergenceError: continuation stalled at forcing fraction")
    assert np.isnan(sweep.X[0]).all() and not sweep.solved[0]
    assert sweep.metadata["continuation_points"] == 1


@pytest.mark.parametrize("mode", [3, 4])
def test_continuation_rescues_a_point_on_a_resonance(six_system, mode):
    # a one-point sweep at Re omega_4 or Re omega_5 under this forcing fails
    # its Newton starts and falls back to forcing continuation, which solves it
    omega = six_system.omegas[mode].real
    sweep = pure_tone_sweep(six_system, [omega], 8.382430587987718e-07, BETA)
    assert sweep.metadata["continuation_points"] == 1
    assert sweep.flags == [None] and sweep.solved[0]
    assert sweep.certificates[0] <= 1e-10


def test_continuation_from_a_warm_start_crosses_a_fold(six_system):
    # points 304-316 of a phase grid: the warm start of point 316 (Re omega_4
    # = 0.0460749...) from point 315 fails, and continuation passes a fold
    # near forcing fraction 0.39 only from the rescue start X (f_next / f)^(1/3)
    grid = refined_frequency_grid(six_system, 0.0019838344212410306, 0.07536825888757326, 240)
    assert len(grid) == 572
    sweep = pure_tone_sweep(six_system, grid[304:317], 9.555420020795011e-07, BETA)
    assert sweep.metadata["continuation_points"] == 1
    assert sweep.flags == [None] * 13
    assert sweep.certificates.max() <= 1e-10


def test_sweep_checks_its_grid_before_solving(six_system, monkeypatch):
    import hopfarray.analysis as analysis

    def no_solve(*args, **kwargs):
        raise AssertionError("solved a point")

    monkeypatch.setattr(analysis, "solve_lines", no_solve)
    with pytest.raises(ValueError, match="grid must be strictly increasing"):
        pure_tone_sweep(six_system, [0.03, 0.03], 1e-6, BETA)


def test_single_mode_phase_swings_half_cycle(single_array, params):
    # the phase of a lone passive resonance accumulates half a cycle across
    # it, matching the driven-oscillator response 1 / (omega^2 - Omega^2)
    system = build_modal_system(single_array, params, M=4)
    om0 = system.omegas[0]
    # the lone mode is heavily radiation damped (Q ~ 2), so the window must
    # stretch far on both sides to collect the full half-cycle
    grid = np.linspace(0.05 * om0.real, 10.0 * om0.real, 600)
    resp = phase_response(system, grid, 1e-6, 0.0, [[4.0, 0.0]], phase_reference="pressure")
    phi = resp.phi[:, 0]
    swing = phi[-1] - phi[0]
    # analytic oracle: arg(-1 / (omega0^2 - Omega^2)) unwrapped over the grid
    oracle = np.unwrap(np.angle(-1.0 / (om0**2 - grid**2)))
    oracle_swing = oracle[-1] - oracle[0]
    assert swing == pytest.approx(oracle_swing, abs=0.06)
    # the damping skews the endpoints by arg(omega0^2); the swing reaches
    # the half cycle up to exactly that skew
    skew = abs(np.arctan2(om0.imag * om0.real * 2.0, om0.real**2 - om0.imag**2))
    assert abs(swing) == pytest.approx(np.pi, abs=skew + 0.1)


def test_phase_reference_shift(six_system):
    grid = refined_frequency_grid(six_system, 0.004, 0.03, 60)
    obs = [[1.0, 0.0]]
    vel = phase_response(six_system, grid, 1e-6, BETA, obs, phase_reference="velocity")
    prs = phase_response(six_system, grid, 1e-6, BETA, obs, phase_reference="pressure")
    diff = vel.phase_delay_cycles - prs.phase_delay_cycles
    assert np.allclose(diff, 0.25, atol=1e-12)
    with pytest.raises(ValueError, match="phase_reference"):
        phase_response(six_system, grid, 1e-6, BETA, obs, phase_reference="bogus")


def test_first_phase_is_the_principal_value(six_system):
    # the unwrap starts from np.angle of the first solved response, bit for bit
    grid = refined_frequency_grid(six_system, 0.004, 0.03, 60)
    obs = default_observation_points(six_system)
    resp = phase_response(six_system, grid, 1e-6, BETA, obs, phase_reference="pressure")
    assert not resp.sign_flipped
    amplitudes = resp.sweep.X[resp.sweep.solved, 0] @ six_system.mode_fields_at(obs)
    assert np.array_equal(resp.phi[0], np.angle(amplitudes[0]))


def test_phase_unwrap_flags_coarse_grid(six_system):
    # a grid that hops across the sharpest resonances in one step cannot be
    # unwrapped reliably
    grid = np.linspace(0.02, 0.065, 40)
    # the point is named in plain floats, the middle default point: (6.2275, 0.0)
    with pytest.raises(UnwrapError, match=re.escape("at x = (6.2275, 0.0); refine")):
        phase_response(six_system, grid, 1e-6, BETA, default_observation_points(six_system))


def test_phase_curve_leaves_out_failed_points(six_system, monkeypatch):
    # failed frequencies are flagged in the sweep and left out of the curve;
    # with fewer than two solved the curve cannot be drawn, and the error
    # names the count
    import hopfarray.analysis as analysis

    grid = refined_frequency_grid(six_system, 0.004, 0.03, 60)
    obs = [[1.0, 0.0]]
    real = analysis.solve_lines

    def failing(lost):
        def solve(system, vectors, tones, forcing, beta, starts):
            outcomes, counts = real(system, vectors, tones, forcing, beta, starts)
            forced = hopf.ConvergenceError("forced")
            return [forced if om in lost else out for (om,), out in zip(tones, outcomes)], counts
        return solve

    monkeypatch.setattr(analysis, "solve_lines", failing({grid[3]}))
    resp = phase_response(six_system, grid, 1e-6, BETA, obs)
    assert np.array_equal(resp.grid, np.delete(grid, 3))
    assert resp.phi.shape == resp.group_delay_cycles.shape == (len(grid) - 1, 1)
    assert resp.sweep.flags[3] == "ConvergenceError: forced" and resp.sweep.n_flagged == 1
    monkeypatch.setattr(analysis, "solve_lines", failing(set(grid[1:])))
    with pytest.raises(hopf.ConvergenceError, match=f"got 1 of {len(grid)} "):
        phase_response(six_system, grid, 1e-6, BETA, obs)


def test_phase_unwrap_refinement_stable(six_system):
    lo, hi = 0.004, 0.052  # below the sharpest high modes, past the first two
    coarse = refined_frequency_grid(six_system, lo, hi, 100)
    fine = refined_frequency_grid(six_system, lo, hi, 200)
    obs = [[6.2275, 0.0]]
    c1 = phase_response(six_system, coarse, 1e-6, BETA, obs)
    c2 = phase_response(six_system, fine, 1e-6, BETA, obs)
    shared = np.intersect1d(coarse, fine)
    i1 = np.searchsorted(coarse, shared)
    i2 = np.searchsorted(fine, shared)
    # away from resonance peaks the unwrapped phase is refinement-stable
    mask = np.ones(len(shared), bool)
    for om in six_system.omegas:
        mask &= np.abs(shared - om.real) > 10 * abs(om.imag)
    assert np.max(np.abs(c1.phi[i1, 0][mask] - c2.phi[i2, 0][mask])) < 1e-3


def test_group_delay_linear_phase_exact():
    grid = np.linspace(0.5, 1.5, 21)
    phi = np.outer(grid, [3.7, -1.2])  # one linear phase per column
    gd = group_delay(phi, grid)
    assert np.allclose(gd, phi / (2 * np.pi), rtol=1e-12)


def test_group_delay_richardson_stability(six_system):
    # between the second and fourth resonances, at a downstream point whose
    # response has no nulls in the window; masked away from the peaks
    lo, hi = 0.025, 0.0445
    coarse = np.linspace(lo, hi, 101)
    fine = np.linspace(lo, hi, 201)
    obs = [[18.0, 0.0]]
    c1 = phase_response(six_system, coarse, 1e-6, BETA, obs)
    c2 = phase_response(six_system, fine, 1e-6, BETA, obs)
    g1 = c1.group_delay_cycles[:, 0]
    g2 = c2.group_delay_cycles[::2, 0]
    mask = np.ones(len(coarse), bool)
    mask[0] = mask[-1] = False  # one-sided endpoint stencils differ
    for om in six_system.omegas:
        mask &= np.abs(coarse - om.real) > 10 * abs(om.imag)
    mask &= c1.R[:, 0] > 0.5 * np.median(c1.R)  # exclude response nulls
    assert mask.sum() > 20
    rel = np.abs(g1[mask] - g2[mask]) / np.maximum(np.abs(g2[mask]), 1e-3)
    assert np.max(rel) < 0.01


def test_group_delay_exceeds_one_cycle_near_resonances(six_system):
    grid = refined_frequency_grid(six_system, 0.004, 0.075, 150)
    gd = phase_response(six_system, grid, 1e-6, BETA,
                        default_observation_points(six_system)).group_delay_cycles
    found = False
    for om in six_system.omegas.real:
        mask = np.abs(grid - om) <= 0.05 * om
        if np.any(np.max(gd[mask], axis=0) > 1.0):
            found = True
    assert found


def test_two_tone_sweep_records(six_system):
    om1 = abs(six_system.omegas[3])
    grid = np.linspace(0.96 * om1, 1.04 * om1, 9)
    grid = grid[np.abs(grid - om1) > 1e-3 * om1]
    sweep = two_tone_sweep(six_system, om1, grid, 1e-5, 1e-5, BETA)
    assert sweep.n_flagged == 0
    assert sweep.X.shape == (len(grid), 4, six_system.n)
    passive = np.array([solve_passive(six_system, om2, 1e-5) for om2 in grid])
    assert np.array_equal(sweep.metadata["passive"], passive)
    # combination tones below both primaries pointwise, in mode 4
    x10, x01, x21, x12 = np.abs(sweep.X[:, :, 3]).T
    assert np.all(x21 < np.maximum(x10, x01)) and np.all(x12 < np.maximum(x10, x01))
    # certificates from the pointwise (independent) residual path
    assert np.all(sweep.certificates <= 1e-10 * (1 + 2e-5))


def test_two_tone_stack_matches_points_solved_alone(six_system):
    om1 = abs(six_system.omegas[3])
    grid = np.linspace(0.96 * om1, 1.04 * om1, 9)
    grid = grid[np.abs(grid - om1) > 1e-3 * om1]
    sweep = two_tone_sweep(six_system, om1, grid, 1e-5, 1e-5, BETA)
    for om2, X in zip(grid, sweep.X):
        alone = solve_two_tone(six_system, om1, om2, 1e-5, 1e-5, BETA)
        assert np.array_equal(X, alone.X)


def test_two_tone_scan_solves_bounded_stacks(six_system, monkeypatch):
    # the Newton workspace grows with the stack, so a long scan is solved in
    # stacks of at most _STACK_ENTRIES / (L N)^2 lanes, with the same bits
    om1 = abs(six_system.omegas[3])
    grid = np.linspace(0.96 * om1, 1.04 * om1, 9)
    grid = grid[np.abs(grid - om1) > 1e-3 * om1]
    whole = two_tone_sweep(six_system, om1, grid, 1e-5, 1e-5, BETA)
    sizes, newton = [], hopf._newton_complex

    def recording(fun_jac, Z0, tol):
        sizes.append(len(Z0))
        return newton(fun_jac, Z0, tol)

    monkeypatch.setattr(hopf, "_newton_complex", recording)
    monkeypatch.setattr(hopf, "_STACK_ENTRIES", 3 * (4 * six_system.n) ** 2)
    split = two_tone_sweep(six_system, om1, grid, 1e-5, 1e-5, BETA)
    assert sizes == [3, 3, 2]
    assert np.array_equal(split.X, whole.X)


def test_two_tone_sweep_rejects_collision_points(six_system):
    # the lines collide at Omega2 = Omega1 (1e-8 relative); that point alone is flagged
    om1 = abs(six_system.omegas[3])
    grid = np.array([0.99 * om1, om1 * (1 + 1e-9), 1.01 * om1])
    sweep = two_tone_sweep(six_system, om1, grid, 1e-5, 1e-5, BETA)
    assert sweep.solved.tolist() == [True, False, True]
    assert "collide" in sweep.flags[1]


def test_refined_grid_properties(six_system):
    grid = refined_frequency_grid(six_system, 0.002, 0.07, 100)
    assert np.all(np.diff(grid) > 0)
    assert grid[0] >= 0.002 and grid[-1] <= 0.07
    # local spacing near each resonance resolves its linewidth
    for om in six_system.omegas:
        near = grid[np.abs(grid - om.real) < 5 * abs(om.imag)]
        if len(near) > 1:
            assert np.max(np.diff(near)) <= 1.5 * abs(om.imag)


def test_refined_grid_stable_under_rounding(six_system):
    # a rounding-level change of every resonance leaves the window point
    # counts, and so the grid length, unchanged
    lo, hi = 0.25 * six_system.omegas[0].real, 1.25 * six_system.omegas[-1].real
    base = refined_frequency_grid(six_system, lo, hi, 240)
    for scale in (1.0 + 1e-14, 1.0 - 1e-14, 1.0 + 3e-15):
        moved = SimpleNamespace(omegas=six_system.omegas * scale)
        assert len(refined_frequency_grid(moved, lo, hi, 240)) == len(base)
