"""Acceptance suite: every criterion at its stated tolerance.

Each test exercises one acceptance criterion end to end on the default
desk-scale configuration (six graded resonators, truncation order 5) and
prints a PASS/FAIL line through the shared recorder, with timing.
"""

import time

import numpy as np
import pytest

from conftest import mode_field, record_acceptance
from hopfarray.analysis import (
    default_observation_points,
    phase_response,
    pure_tone_sweep,
    refined_frequency_grid,
    two_tone_sweep,
)
from hopfarray.hopf import (
    TWO_TONE_LINES,
    _cubic_lines,
    single_hopf_steady_state,
    solve_passive,
    solve_pure_tone,
    solve_two_tone,
)
from hopfarray.spectral import _ResolventProbe, _muller, find_resonances
from oracles import fourier_cubic_coefficients, parity_resonance, refinement_report

BETA = 5.0e5


def test_criterion_1_resonance_count_and_stability(
    single_array, pair_array, six_array, params
):
    name = "1 resonance count and stability"
    t0 = time.perf_counter()
    try:
        timings = {}
        for label, arr, M in (("N=1", single_array, 5), ("N=2", pair_array, 5), ("N=6", six_array, 5)):
            t1 = time.perf_counter()
            res = find_resonances(arr, params, M=M)
            timings[label] = time.perf_counter() - t1
            assert len(res) == arr.n, f"{label}: found {len(res)}"
            assert all(r.residual <= 1e-8 for r in res), f"{label}: residual too large"
            for r in res:
                probe = _ResolventProbe(arr, params, M + 2)
                z_hi = _muller(probe, r.omega)
                assert abs(z_hi - r.omega) < 1e-4 * abs(r.omega), f"{label}: drift too large"
        detail = (
            f"residual<=1e-8, drift<1e-4; "
            + ", ".join(f"{k} {v:.1f}s" for k, v in timings.items())
            + f"; total {time.perf_counter() - t0:.1f}s (target N=6 < 60s)"
        )
        record_acceptance(name, True, detail)
    except AssertionError as exc:
        record_acceptance(name, False, str(exc))
        raise


def test_criterion_2_hybridization_symmetry(pair_array, params, pair_resonances, pair_modes):
    name = "2 hybridization symmetry"
    t0 = time.perf_counter()
    try:
        r = pair_array.radius[0]
        d = abs(pair_array.center_x[0])
        from hopfarray.spectral import single_disk_resonance

        seed = single_disk_resonance(r, params)
        oracle = sorted(
            (parity_resonance(r, d, params, 5, p, seed) for p in (+1, -1)),
            key=lambda z: z.real,
        )
        for got, want in zip(sorted(r_.omega for r_ in pair_resonances), oracle):
            assert abs(got - want) <= 1e-6 * abs(want), "frequency vs parity oracle"
        pts = np.array([[0.6, 0.9], [1.25, 0.4], [2.0, -1.1], [0.4, 1.9]])
        refl = pts * np.array([-1.0, 1.0])
        parities = []
        for mode in pair_modes:
            u = mode_field(mode, pts)
            ur = mode_field(mode, refl)
            scale = np.max(np.abs(u))
            sym = np.max(np.abs(ur - u)) / scale
            anti = np.max(np.abs(ur + u)) / scale
            assert min(sym, anti) <= 1e-6, f"mode defect {min(sym, anti):.2e}"
            parities.append(+1 if sym < anti else -1)
        assert sorted(parities) == [-1, 1]
        record_acceptance(name, True, f"mode defects <= 1e-6; {time.perf_counter() - t0:.1f}s")
    except AssertionError as exc:
        record_acceptance(name, False, str(exc))
        raise


def test_criterion_3_linear_limit(six_system):
    name = "3 linear-limit equivalence"
    t0 = time.perf_counter()
    try:
        center = six_system.omegas[1].real
        grid = np.linspace(0.5 * center, 2.6 * center, 200)
        worst = 0.0
        for om in grid:
            passive = solve_passive(six_system, om, 1e-4)
            sol = solve_pure_tone(six_system, om, 1e-4, 0.0, start=np.zeros(6, complex))
            worst = max(worst, np.linalg.norm(sol.X[0] - passive) / np.linalg.norm(passive))
        assert worst <= 1e-12, f"worst relative deviation {worst:.2e}"
        record_acceptance(
            name, True, f"worst rel dev {worst:.1e} over 200 points; {time.perf_counter() - t0:.1f}s"
        )
    except AssertionError as exc:
        record_acceptance(name, False, str(exc))
        raise


def test_criterion_4_cubic_order_consistency(six_system):
    name = "4 cubic-order consistency"
    t0 = time.perf_counter()
    try:
        om = six_system.omegas[1].real
        Fs = np.logspace(-8, -6, 9)
        diffs = [
            np.linalg.norm(
                solve_pure_tone(six_system, om, F, BETA).X[0] - solve_passive(six_system, om, F)
            )
            for F in Fs
        ]
        slope = float(np.polyfit(np.log(Fs), np.log(diffs), 1)[0])
        assert 2.8 <= slope <= 3.2, f"exponent {slope:.3f}"
        record_acceptance(name, True, f"exponent {slope:.3f} in [2.8, 3.2]; {time.perf_counter() - t0:.1f}s")
    except AssertionError as exc:
        record_acceptance(name, False, str(exc))
        raise


def _compressive_slope_report(system, omega, Fs):
    """Local log-log slopes, their compressive-region bracket, and the best
    decade-wide fitted slope inside the compressive region."""
    amps = []
    start = None
    for F in Fs:
        sol = solve_pure_tone(system, omega, F, BETA, start=start)
        start = sol.X
        amps.append(abs(sol.X[0, 1]))
    amps = np.array(amps)
    logF = np.log10(Fs)
    slopes = np.diff(np.log10(amps)) / np.diff(logF)
    compressive = slopes < 0.9
    # longest contiguous compressive run
    best_run = (0, 0)
    i = 0
    while i < len(slopes):
        if compressive[i]:
            j = i
            while j < len(slopes) and compressive[j]:
                j += 1
            if j - i > best_run[1] - best_run[0]:
                best_run = (i, j)
            i = j
        else:
            i += 1
    lo, hi = best_run
    bracket = (float(slopes[lo:hi].min()), float(slopes[lo:hi].max()))
    # best decade-wide least-squares fit inside the run
    best_fit = None
    for a in range(lo, hi + 1):
        for b in range(a + 2, hi + 1):
            if logF[b] - logF[a] < 1.0 - 1e-9:
                continue
            fit = float(np.polyfit(np.log(Fs[a:b + 1]), np.log(amps[a:b + 1]), 1)[0])
            if best_fit is None or abs(fit - 1.0 / 3.0) < abs(best_fit - 1.0 / 3.0):
                best_fit = fit
    return slopes, bracket, best_fit


def test_criterion_5_one_third_power_law(six_system):
    name = "5 one-third power law"
    t0 = time.perf_counter()
    try:
        Fs = np.logspace(-8, -2, 13)  # six decades
        amps = [single_hopf_steady_state(0.0, 1.0, 1.0, F).steady_amplitude for F in Fs]
        oracle_slope = float(np.polyfit(np.log(Fs), np.log(amps), 1)[0])
        assert abs(oracle_slope - 1.0 / 3.0) <= 0.02, f"oracle slope {oracle_slope:.4f}"

        om = six_system.omegas[1].real
        Fs2 = np.logspace(-6, -1.5, 24)
        _, bracket, fitted = _compressive_slope_report(six_system, om, Fs2)
        assert fitted is not None and 0.30 <= fitted <= 0.37, (
            f"coupled fitted slope {fitted}, bracket {bracket}"
        )
        record_acceptance(
            name,
            True,
            f"oracle {oracle_slope:.4f} (1/3 +- 0.02); coupled decade fit {fitted:.3f} "
            f"in [0.30, 0.37], compressive bracket [{bracket[0]:.2f}, {bracket[1]:.2f}]; "
            f"{time.perf_counter() - t0:.1f}s",
        )
    except AssertionError as exc:
        record_acceptance(name, False, str(exc))
        raise


def test_criterion_6_compressive_amplification(six_system):
    name = "6 compressive amplification ordering"
    t0 = time.perf_counter()
    try:
        center = six_system.omegas[1].real
        grid = np.linspace(0.75 * center, 1.35 * center, 121)
        peaks = {}
        for F in (1e-6, 1e-4, 1e-2):
            sweep = pure_tone_sweep(six_system, grid, F, BETA)
            assert sweep.n_flagged == 0
            peaks[F] = max(abs(s.X[0, 1]) / F for s in sweep.solutions)
        passive_peak = max(abs(solve_passive(six_system, om, 1.0)[1]) for om in grid)
        assert peaks[1e-6] > peaks[1e-4] > peaks[1e-2], f"peaks {peaks}"
        assert peaks[1e-6] > passive_peak, (
            f"active {peaks[1e-6]:.2f} vs passive {passive_peak:.2f}"
        )
        record_acceptance(
            name,
            True,
            f"peaks {peaks[1e-6]:.1f} > {peaks[1e-4]:.1f} > {peaks[1e-2]:.1f}; "
            f"passive {passive_peak:.1f}; {time.perf_counter() - t0:.1f}s",
        )
    except AssertionError as exc:
        record_acceptance(name, False, str(exc))
        raise


def test_criterion_7_phase_behavior(six_system):
    name = "7 phase behavior"
    t0 = time.perf_counter()
    try:
        re_oms = six_system.omegas.real
        grid = refined_frequency_grid(six_system, 0.25 * re_oms[0], 1.25 * re_oms[-1], 240)
        obs = default_observation_points(six_system)
        curves = phase_response(six_system, grid, 1e-6, BETA, obs)

        starts = [float(c.phase_delay_cycles[0]) for c in curves]
        assert all(abs(s - (-0.25)) <= 0.1 for s in starts), f"low-frequency delays {starts}"

        exceeds = False
        for om in re_oms:
            mask = np.abs(grid - om) <= 0.05 * om
            if any(np.max(c.group_delay_cycles[mask]) > 1.0 for c in curves):
                exceeds = True
        assert exceeds, "group delay never exceeds one cycle near a resonance"

        window = (grid >= 1.08 * re_oms[-1]) & (grid <= 1.22 * re_oms[-1])
        means = [float(np.mean(c.phase_delay_cycles[window])) for c in curves]
        worst = 0.0
        for i in range(len(means)):
            for j in range(i + 1, len(means)):
                d = abs(means[i] - means[j]) % 1.0
                worst = max(worst, min(d, 1.0 - d))
        assert worst <= 0.15, f"plateau separation off integer by {worst:.3f}"
        record_acceptance(
            name,
            True,
            f"starts {[round(s, 3) for s in starts]}; plateaus {[round(m, 2) for m in means]} "
            f"(worst off-integer {worst:.3f}); {time.perf_counter() - t0:.1f}s",
        )
    except AssertionError as exc:
        record_acceptance(name, False, str(exc))
        raise


def test_criterion_8_cubic_coefficient_oracle():
    name = "8 cubic line-coefficient algebra"
    t0 = time.perf_counter()
    try:
        rng = np.random.default_rng(2024)
        worst = 0.0
        for _ in range(100):
            S = rng.standard_normal(4) + 1j * rng.standard_normal(4)
            got = _cubic_lines(TWO_TONE_LINES, S[:, None], np.ones((1, 1)), np.ones((1, 1)))[:, 0]  # one node, unit weight
            want = fourier_cubic_coefficients(*S)
            for g, w in zip(got, want):
                worst = max(worst, abs(g - w) / max(abs(w), 1e-30))
        assert worst <= 1e-8, f"worst relative deviation {worst:.2e}"
        record_acceptance(name, True, f"worst rel dev {worst:.1e} over 100 draws; {time.perf_counter() - t0:.1f}s")
    except AssertionError as exc:
        record_acceptance(name, False, str(exc))
        raise


def test_criterion_9_two_tone_interference(six_system):
    name = "9 two-tone reduction and interference"
    t0 = time.perf_counter()
    try:
        om1 = abs(six_system.omegas[3])
        tt = solve_two_tone(six_system, om1, 1.07 * om1, 1e-5, 0.0, BETA)
        pt = solve_pure_tone(six_system, om1, 1e-5, BETA)
        reduction = max(
            np.max(np.abs(tt.X[0] - pt.X[0])),
            np.max(np.abs(tt.X[1])),
            np.max(np.abs(tt.X[2])),
            np.max(np.abs(tt.X[3])),
        )
        assert reduction <= 1e-10, f"F2=0 reduction defect {reduction:.2e}"

        grid = np.linspace(0.9 * om1, 1.1 * om1, 41)
        grid = grid[np.abs(grid - om1) > 1e-3 * om1]
        sweep = two_tone_sweep(six_system, om1, grid, 1e-5, 1e-5, BETA, mode_index=3)
        assert sweep.n_flagged == 0
        recs = sweep.metadata["records"]
        x10 = np.array([r["abs_X10"] for r in recs])
        x01 = np.array([r["abs_X01"] for r in recs])
        x21 = np.array([r["abs_X21"] for r in recs])
        x12 = np.array([r["abs_X12"] for r in recs])
        xp = np.array([r["abs_X01_passive"] for r in recs])

        detuned = np.abs(sweep.grid - om1) >= 0.06 * om1
        near = np.abs(sweep.grid - om1) <= 0.02 * om1
        plateau = float(np.median(x10[detuned]))
        dip = float(np.min(x10[near]))
        assert dip < plateau, f"no dip: min near {dip:.3e} vs plateau {plateau:.3e}"

        assert np.max(x01) < np.max(xp), (
            f"active peak {np.max(x01):.3e} not below passive {np.max(xp):.3e}"
        )
        primaries = np.maximum(x10, x01)
        assert np.all(x21 < primaries) and np.all(x12 < primaries), "combination tones too large"
        record_acceptance(
            name,
            True,
            f"reduction {reduction:.1e}; dip {dip:.2e} < plateau {plateau:.2e}; "
            f"suppressed peak {np.max(x01):.2e} < passive {np.max(xp):.2e}; "
            f"{time.perf_counter() - t0:.1f}s",
        )
    except AssertionError as exc:
        record_acceptance(name, False, str(exc))
        raise


def test_criterion_10_numerical_hygiene(six_system, tmp_path):
    name = "10 numerical hygiene"
    t0 = time.perf_counter()
    try:
        g = six_system.gram
        herm = np.max(np.abs(g - g.conj().T)) / np.max(np.abs(g))
        assert herm <= 1e-10, f"Hermitian defect {herm:.2e}"
        assert np.linalg.eigvalsh(g).min() > 0, "Gram not positive definite"
        inv_err = np.max(np.abs(g @ six_system.gram_inverse - np.eye(six_system.n)))
        assert inv_err <= 1e-8, f"inverse defect {inv_err:.2e}"

        rep = refinement_report(six_system.modes, six_system.quad)
        assert rep["gram"] < 1e-6 and rep["cubic_tensor"] < 1e-6, f"refinement {rep}"

        import json

        from hopfarray.cli import parse_config, run_experiment

        cfg = parse_config(json.dumps({
            "geometry": {"n": 2, "first_radius": 1.0, "s": 1.0, "gap_ratio": 0.5,
                         "source_x": -5.0},
            "material": {"v": 1.0, "v_b": 1.0, "delta": 1e-3, "beta": BETA},
            "numerics": {"ext_order": 6, "disk_radial": 10, "disk_angular": 24,
                         "ring_radial": 8, "ring_angular": 10},
            "experiment": {"type": "sweep", "mode_ref": 2, "num_points": 24,
                           "F_values": [1e-6, 1e-4]},
        }))
        run_experiment(cfg, tmp_path / "run1")
        run_experiment(cfg, tmp_path / "run2")
        same = (
            (tmp_path / "run1" / "sweep.csv").read_bytes()
            == (tmp_path / "run2" / "sweep.csv").read_bytes()
        ) and (
            (tmp_path / "run1" / "resonances.csv").read_bytes()
            == (tmp_path / "run2" / "resonances.csv").read_bytes()
        )
        assert same, "a repeated run changed CSV bytes"
        record_acceptance(
            name,
            True,
            f"gram herm {herm:.1e}, refinement {rep['gram']:.1e}/{rep['cubic_tensor']:.1e}, "
            f"repeat byte-identical; {time.perf_counter() - t0:.1f}s",
        )
    except AssertionError as exc:
        record_acceptance(name, False, str(exc))
        raise
