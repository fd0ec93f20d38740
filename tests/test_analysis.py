from types import SimpleNamespace

import numpy as np
import pytest

from hopfarray.analysis import (
    PhaseCurve,
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
        SweepResult(grid=np.array([1.0, 0.5]), solutions=[None, None],
                    flags=[None, None], certificates=[None, None])


def test_passive_limit_sweep(six_system):
    grid = np.linspace(0.018, 0.03, 25)
    sweep = pure_tone_sweep(six_system, grid, 1e-5, 0.0)
    assert sweep.n_flagged == 0
    for om, sol in zip(sweep.grid, sweep.solutions):
        assert np.allclose(sol.X[0], solve_passive(six_system, om, 1e-5), rtol=1e-12, atol=0)


def test_sweep_rejects_infinite_beta_once(six_system):
    # beta is checked once per solve, not flagged at every point
    with pytest.raises(ValueError, match="beta must be finite"):
        pure_tone_sweep(six_system, np.linspace(0.02, 0.026, 12), 1e-4, np.inf)


def test_sweep_certificates_meet_tolerance(six_system):
    grid = np.linspace(0.02, 0.026, 12)
    sweep = pure_tone_sweep(six_system, grid, 1e-4, BETA)
    assert all(c is not None and c <= 1e-10 * (1 + 1e-4) for c in sweep.certificates)


def test_peak_location_near_resonance(six_system):
    # dense local refinement around the second resonance locates the peak of
    # |X_2/F| within a grid step for small forcing
    center = six_system.omegas[1].real
    grid = np.linspace(0.97 * center, 1.03 * center, 61)
    sweep = pure_tone_sweep(six_system, grid, 1e-7, BETA)
    amps = np.array([abs(s.X[0, 1]) for s in sweep.solutions])
    peak = grid[np.argmax(amps)]
    assert abs(peak - center) <= 1.5 * (grid[1] - grid[0])


def test_warm_start_equals_cold_start(six_system):
    grid = np.linspace(0.02, 0.025, 40)
    warm = pure_tone_sweep(six_system, grid, 1e-4, BETA)  # block warm chains
    for om, sol in zip(grid, warm.solutions):
        cold = solve_pure_tone(six_system, float(om), 1e-4, BETA)
        assert np.max(np.abs(sol.X[0] - cold.X[0])) <= 1e-9


def test_lockstep_lanes_match_blocks_solved_alone(six_system):
    # step j of the sweep solves point j of all three blocks as one stack;
    # each block solved alone as a one-block grid gives the same bits
    grid = np.linspace(0.02, 0.025, 40)
    sweep = pure_tone_sweep(six_system, grid, 1e-4, BETA)
    assert sweep.n_flagged == 0
    for b in range(0, len(grid), 16):
        alone = pure_tone_sweep(six_system, grid[b:b + 16], 1e-4, BETA)
        for s, a in zip(sweep.solutions[b:b + 16], alone.solutions):
            assert np.array_equal(s.X, a.X)
            assert s.newton_iters == a.newton_iters


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
            R, A, B = fun_jac(Z, lanes)
            if poison == "residual":
                R[hit[lanes]] = np.nan
            else:
                A[hit[lanes]] = B[hit[lanes]] = 0.0
            return R, A, B

        return wrapped

    monkeypatch.setattr(hopf, "_line_fun_jac", poisoned)
    sweep = pure_tone_sweep(six_system, grid, 1e-4, BETA)
    assert [i for i, f in enumerate(sweep.flags) if f] == [18]
    assert message in sweep.flags[18]
    for i in [*range(18), *range(32, 40)]:  # other blocks, and this one before the failure
        assert np.array_equal(sweep.solutions[i].X, clean.solutions[i].X)
    # the next point of the failed lane's block starts cold
    assert np.array_equal(sweep.solutions[19].X, solve_pure_tone(six_system, grid[19], 1e-4, BETA).X)


def test_single_mode_phase_swings_half_cycle(single_array, params):
    # the phase of a lone passive resonance accumulates half a cycle across
    # it, matching the driven-oscillator response 1 / (omega^2 - Omega^2)
    system = build_modal_system(single_array, params, M=4)
    om0 = system.omegas[0]
    # the lone mode is heavily radiation damped (Q ~ 2), so the window must
    # stretch far on both sides to collect the full half-cycle
    grid = np.linspace(0.05 * om0.real, 10.0 * om0.real, 600)
    curves = phase_response(system, grid, 1e-6, 0.0, [[4.0, 0.0]], phase_reference="pressure")
    phi = curves[0].phi
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
    diff = vel[0].phase_delay_cycles - prs[0].phase_delay_cycles
    assert np.allclose(diff, 0.25, atol=1e-12)
    assert vel[0].phase_reference == "velocity"
    with pytest.raises(ValueError, match="phase_reference"):
        phase_response(six_system, grid, 1e-6, BETA, obs, phase_reference="bogus")


def test_phase_unwrap_flags_coarse_grid(six_system):
    # a grid that hops across the sharpest resonances in one step cannot be
    # unwrapped reliably
    grid = np.linspace(0.02, 0.065, 40)
    with pytest.raises(UnwrapError, match="refine"):
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
    (curve,) = phase_response(six_system, grid, 1e-6, BETA, obs)
    assert np.array_equal(curve.grid, np.delete(grid, 3))
    assert len(curve.phi) == len(curve.group_delay_cycles) == len(grid) - 1
    assert curve.sweep.flags[3] == "ConvergenceError: forced" and curve.sweep.n_flagged == 1
    monkeypatch.setattr(analysis, "solve_lines", failing(set(grid[1:])))
    with pytest.raises(hopf.ConvergenceError, match=f"got 1 of {len(grid)} "):
        phase_response(six_system, grid, 1e-6, BETA, obs)


def test_phase_unwrap_refinement_stable(six_system):
    lo, hi = 0.004, 0.052  # below the sharpest high modes, past the first two
    coarse = refined_frequency_grid(six_system, lo, hi, 100)
    fine = refined_frequency_grid(six_system, lo, hi, 200)
    obs = [[6.2275, 0.0]]
    c1 = phase_response(six_system, coarse, 1e-6, BETA, obs)[0]
    c2 = phase_response(six_system, fine, 1e-6, BETA, obs)[0]
    shared = np.intersect1d(coarse, fine)
    i1 = np.searchsorted(coarse, shared)
    i2 = np.searchsorted(fine, shared)
    # away from resonance peaks the unwrapped phase is refinement-stable
    mask = np.ones(len(shared), bool)
    for om in six_system.omegas:
        mask &= np.abs(shared - om.real) > 10 * abs(om.imag)
    assert np.max(np.abs(c1.phi[i1][mask] - c2.phi[i2][mask])) < 1e-3


def test_group_delay_linear_phase_exact():
    grid = np.linspace(0.5, 1.5, 21)
    a = 3.7
    curve = PhaseCurve(
        x=(0.0, 0.0), grid=grid, R=np.ones_like(grid), phi=a * grid,
        phase_delay_cycles=a * grid / (2 * np.pi),
        group_delay_cycles=np.empty(0), sign_flipped=False,
    )
    gd = group_delay(curve)
    assert np.allclose(gd, a * grid / (2 * np.pi), rtol=1e-12)


def test_group_delay_richardson_stability(six_system):
    # between the second and fourth resonances, at a downstream point whose
    # response has no nulls in the window; masked away from the peaks
    lo, hi = 0.025, 0.0445
    coarse = np.linspace(lo, hi, 101)
    fine = np.linspace(lo, hi, 201)
    obs = [[18.0, 0.0]]
    c1 = phase_response(six_system, coarse, 1e-6, BETA, obs)[0]
    c2 = phase_response(six_system, fine, 1e-6, BETA, obs)[0]
    g1 = c1.group_delay_cycles
    g2 = c2.group_delay_cycles[::2]
    mask = np.ones(len(coarse), bool)
    mask[0] = mask[-1] = False  # one-sided endpoint stencils differ
    for om in six_system.omegas:
        mask &= np.abs(coarse - om.real) > 10 * abs(om.imag)
    mask &= c1.R > 0.5 * np.median(c1.R)  # exclude response nulls
    assert mask.sum() > 20
    rel = np.abs(g1[mask] - g2[mask]) / np.maximum(np.abs(g2[mask]), 1e-3)
    assert np.max(rel) < 0.01


def test_group_delay_exceeds_one_cycle_near_resonances(six_system):
    grid = refined_frequency_grid(six_system, 0.004, 0.075, 150)
    curves = phase_response(six_system, grid, 1e-6, BETA, default_observation_points(six_system))
    found = False
    for om in six_system.omegas.real:
        mask = np.abs(grid - om) <= 0.05 * om
        if any(np.max(c.group_delay_cycles[mask]) > 1.0 for c in curves):
            found = True
    assert found


def test_two_tone_sweep_records(six_system):
    om1 = abs(six_system.omegas[3])
    grid = np.linspace(0.96 * om1, 1.04 * om1, 9)
    grid = grid[np.abs(grid - om1) > 1e-3 * om1]
    sweep = two_tone_sweep(six_system, om1, grid, 1e-5, 1e-5, BETA, mode_index=3)
    assert sweep.n_flagged == 0
    recs = sweep.metadata["records"]
    assert all(set(r) == {"abs_X10", "abs_X01", "abs_X21", "abs_X12", "abs_X01_passive"}
               for r in recs)
    # combination tones below both primaries pointwise
    for r in recs:
        assert r["abs_X21"] < max(r["abs_X10"], r["abs_X01"])
        assert r["abs_X12"] < max(r["abs_X10"], r["abs_X01"])
    # certificates from the pointwise (independent) residual path
    assert all(c <= 1e-10 * (1 + 2e-5) for c in sweep.certificates)


def test_two_tone_stack_matches_points_solved_alone(six_system):
    om1 = abs(six_system.omegas[3])
    grid = np.linspace(0.96 * om1, 1.04 * om1, 9)
    grid = grid[np.abs(grid - om1) > 1e-3 * om1]
    sweep = two_tone_sweep(six_system, om1, grid, 1e-5, 1e-5, BETA, mode_index=3)
    for om2, s in zip(grid, sweep.solutions):
        alone = solve_two_tone(six_system, om1, om2, 1e-5, 1e-5, BETA)
        assert np.array_equal(s.X, alone.X)


def test_two_tone_scan_solves_bounded_stacks(six_system, monkeypatch):
    # the Newton workspace grows with the stack, so a long scan is solved in
    # stacks of at most _STACK_ENTRIES / (L N)^2 lanes, with the same bits
    om1 = abs(six_system.omegas[3])
    grid = np.linspace(0.96 * om1, 1.04 * om1, 9)
    grid = grid[np.abs(grid - om1) > 1e-3 * om1]
    whole = two_tone_sweep(six_system, om1, grid, 1e-5, 1e-5, BETA, mode_index=3)
    sizes, newton = [], hopf._newton_complex

    def recording(fun_jac, Z0, tol):
        sizes.append(len(Z0))
        return newton(fun_jac, Z0, tol)

    monkeypatch.setattr(hopf, "_newton_complex", recording)
    monkeypatch.setattr(hopf, "_STACK_ENTRIES", 3 * (4 * six_system.n) ** 2)
    split = two_tone_sweep(six_system, om1, grid, 1e-5, 1e-5, BETA, mode_index=3)
    assert sizes == [3, 3, 2]
    for s, w in zip(split.solutions, whole.solutions):
        assert np.array_equal(s.X, w.X)


def test_two_tone_sweep_rejects_collision_points(six_system):
    om1 = abs(six_system.omegas[3])
    grid = np.array([0.99 * om1, om1 * (1 + 1e-9), 1.01 * om1])
    with pytest.raises(ValueError, match="collision"):
        two_tone_sweep(six_system, om1, grid, 1e-5, 1e-5, BETA, mode_index=3)
    with pytest.raises(ValueError, match="mode_index"):
        two_tone_sweep(six_system, om1, grid[:1], 1e-5, 1e-5, BETA, mode_index=9)


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
