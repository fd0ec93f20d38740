import re
from dataclasses import replace

import numpy as np
import pytest

from conftest import mode_field
from hopfarray import spectral
from hopfarray.boundary import WaveParams, assemble_boundary_system
from hopfarray.geometry import build_graded_array
from hopfarray.quadrature import disk_rule
from hopfarray.spectral import (
    ResonanceSearchError,
    _default_search,
    extract_eigenmode,
    find_resonances,
    single_disk_resonance,
    subwavelength_cutoff,
)
from oracles import argument_principle_count, field_loop, parity_resonance

# resonances.csv of the default array as the sigma_min-scan search wrote it
# (re_omega, im_omega); the contour search must reproduce it to 1e-10
_PINNED_SIX = [
    (0.00794938121534151, -0.0020000598607258263),
    (0.02313279193737228, -0.00013271249286715342),
    (0.035577140541579164, -0.00022728188576104957),
    (0.04607494362162062, -5.7617493277241706e-05),
    (0.054113188516433125, -4.759175103395384e-05),
    (0.06124158959927345, -2.67293918080304e-05),
]


def _window_box(array, params):
    seeds = [single_disk_resonance(r, params) for r in array.radii]
    window = _default_search(seeds, subwavelength_cutoff(array, params))
    return window["re"] + window["im"]


def _assert_certified(res, n):
    """Every sub-contour's winding number is its accepted count, the counts
    add up to n, and no two resonances coincide."""
    contours = res.search["contours"]
    assert all(c["winding"] == c["accepted"] for c in contours)
    assert sum(c["accepted"] for c in contours) == len(res) == n
    omegas = [r.omega for r in res]
    for i, a in enumerate(omegas):
        assert all(abs(a - b) > 1e-8 * abs(a) for b in omegas[i + 1:])


def test_single_disk_seed_matches_full_search(single_array, params, single_resonances):
    seed = single_disk_resonance(1.0, params)
    assert len(single_resonances) == 1
    assert single_resonances[0].omega == pytest.approx(seed, rel=1e-8)


def test_sigma_min_contrast_at_resonance(single_array, params, single_resonances):
    res = single_resonances[0]
    at_root, off_root = (
        np.linalg.svd(assemble_boundary_system(single_array, params, omega, res.truncation),
                      compute_uv=False)[-1]
        for omega in (res.omega, 1.1 * res.omega)
    )
    assert off_root >= 1e4 * at_root
    assert res.residual <= 1e-9


def test_resonance_counts(params, single_resonances, pair_resonances, six_resonances):
    assert len(single_resonances) == 1
    assert len(pair_resonances) == 2
    assert len(six_resonances) == 6


def test_six_array_ordering_and_residuals(six_resonances):
    res = [r.omega.real for r in six_resonances]
    assert res == sorted(res)
    assert all(r.residual <= 1e-8 for r in six_resonances)
    assert len({round(r.omega.real, 10) for r in six_resonances}) == 6


def test_resonances_inside_subwavelength_window(six_array, params, six_resonances):
    cutoff = subwavelength_cutoff(six_array, params)
    assert all(abs(r.omega) <= cutoff for r in six_resonances)


def test_delta_scaling(six_array):
    # resonance magnitudes shrink with the contrast, pairwise on a delta grid
    omegas = {}
    for delta in (1e-2, 1e-3, 1e-4):
        p = WaveParams(v=1.0, v_b=1.0, delta=delta)
        res = find_resonances(six_array, p, M=5)
        assert len(res) == 6
        omegas[delta] = np.array([abs(r.omega) for r in res])
    assert np.all(omegas[1e-3] < omegas[1e-2])
    assert np.all(omegas[1e-4] < omegas[1e-3])


def test_hybridized_pair_matches_parity_oracle(pair_array, params, pair_resonances):
    r = pair_array.radius[0]
    d = abs(pair_array.center_x[0])
    seed = single_disk_resonance(r, params)
    oracle = sorted(
        (parity_resonance(r, d, params, 5, parity, seed) for parity in (+1, -1)),
        key=lambda z: z.real,
    )
    found = sorted((res.omega for res in pair_resonances), key=lambda z: z.real)
    for a, b in zip(found, oracle):
        assert a == pytest.approx(b, rel=1e-8)
    # both split away from the isolated value
    assert found[0].real < seed.real < found[1].real


def test_pair_modes_have_definite_parity(pair_modes):
    pts = np.array([[0.6, 0.9], [1.25, 0.4], [2.0, -1.1], [0.3, 2.2]])
    refl = pts * np.array([-1.0, 1.0])
    signs = []
    for mode in pair_modes:
        u = mode_field(mode, pts)
        ur = mode_field(mode, refl)
        scale = np.max(np.abs(u))
        sym = np.max(np.abs(ur - u)) / scale
        anti = np.max(np.abs(ur + u)) / scale
        assert min(sym, anti) < 1e-6
        signs.append(+1 if sym < anti else -1)
    assert sorted(signs) == [-1, 1]  # one of each parity


def test_mode_normalization_unit_interior_norm(single_array, params, single_mode):
    total = 0.0
    for center, radius in zip(single_array.centers, single_array.radii):
        pts, wts = disk_rule(center, radius, 30, 72)
        vals = mode_field(single_mode, pts)
        total += np.sum(wts * np.abs(vals) ** 2)
    assert total == pytest.approx(1.0, rel=1e-8)


def test_mode_phase_anchor_real_positive(six_system):
    # interior mean over the largest resonator is real and positive
    arr = six_system.array
    largest = arr.largest_index()
    pts, wts = disk_rule(arr.centers[largest], arr.radii[largest], 20, 48)
    for mode in six_system.modes:
        mean = np.sum(wts * mode_field(mode, pts)) / np.sum(wts)
        assert abs(mean.imag) <= 1e-10 * abs(mean)
        assert mean.real > 0


def test_single_mode_monopole_dominated(params):
    # in the high-contrast limit the interior field is nearly uniform
    arr = build_graded_array(1, 1.0, 1.0, 0.5, -5.0)
    p = WaveParams(v=1.0, v_b=1.0, delta=1e-4)
    res = find_resonances(arr, p, M=4)
    mode = extract_eigenmode(arr, p, res[0])
    thetas = np.linspace(0, 2 * np.pi, 32, endpoint=False)
    ring = np.column_stack([1.0 + 0.8 * np.cos(thetas), 0.8 * np.sin(thetas)])
    vals = np.abs(mode_field(mode, ring))
    assert (vals.max() - vals.min()) / vals.mean() < 0.05


def _pointwise_condition_defects(mode, n_samples: int = 64):
    """Worst pointwise transmission-condition defects of the represented
    field over boundary samples, via one-sided finite differences. The two
    traces on a circle come from the field oracle, which takes a side."""
    arr = mode.array
    delta = mode.params.delta

    def trace(point, side):
        return field_loop(arr, mode.params, mode.resonance.omega, mode.density, point, side)

    scale = 0.0
    worst_u, worst_flux = 0.0, 0.0
    for c, r in zip(arr.centers, arr.radii):
        h = 1e-5 * r
        thetas = np.linspace(0, 2 * np.pi, n_samples, endpoint=False)
        for th in thetas[:: max(1, n_samples // 8)]:
            e = np.array([np.cos(th), np.sin(th)])
            u_out = complex(mode_field(mode, c + (r + h) * e))
            u_out2 = complex(mode_field(mode, c + (r + 2 * h) * e))
            u_in = complex(mode_field(mode, c + (r - h) * e))
            u_in2 = complex(mode_field(mode, c + (r - 2 * h) * e))
            ub_out = trace(c + r * e, "exterior")
            ub_in = trace(c + r * e, "interior")
            du_plus = (-1.5 * ub_out + 2 * u_out - 0.5 * u_out2) / h
            du_minus = (1.5 * ub_in - 2 * u_in + 0.5 * u_in2) / h
            scale = max(scale, abs(ub_out), abs(du_plus) * r)
            worst_u = max(worst_u, abs(ub_out - ub_in))
            worst_flux = max(worst_flux, abs(delta * du_plus - du_minus) * r)
    return worst_u, worst_flux, scale


def test_mode_continuity_pointwise(six_system):
    # the value trace of the represented field matches across every circle
    for mode in (six_system.modes[1], six_system.modes[4]):
        worst_u, _, scale = _pointwise_condition_defects(mode)
        assert worst_u <= 1e-8 * scale


def test_mode_flux_defect_shrinks_with_truncation(pair_array, params, pair_resonances):
    """The pointwise flux defect is limited by the inter-circle expansion
    tail ~ (r/b)^M, so refining M must shrink it markedly."""
    from hopfarray.spectral import Resonance, _ResolventProbe, _muller

    base = pair_resonances[0]
    defects = {}
    for M in (5, 8):
        probe = _ResolventProbe(pair_array, params, M)
        omega = _muller(probe, base.omega)
        _, s, vh = np.linalg.svd(assemble_boundary_system(pair_array, params, omega, M))
        res = Resonance(omega=omega, residual=0.0, truncation=M, drift=0.0,
                        svd=(s, vh[-1]))
        mode = extract_eigenmode(pair_array, params, res)
        _, flux, scale = _pointwise_condition_defects(mode, n_samples=32)
        defects[M] = flux / scale
    assert defects[8] < 0.2 * defects[5]


def test_eigenmode_needs_the_search_decomposition(pair_array, params, pair_resonances):
    # a resonance without the search's SVD (as read back from a cache entry)
    # is refused by name, not decomposed a second time
    bare = replace(pair_resonances[0], svd=None)
    with pytest.raises(ValueError, match=re.escape(f"resonance {bare.omega:.6g} carries no")):
        extract_eigenmode(pair_array, params, bare)


def test_mode_residual_in_coefficient_space(six_system):
    for mode in six_system.modes:
        A = assemble_boundary_system(
            six_system.array, six_system.params, mode.resonance.omega, mode.resonance.truncation
        )
        vec = np.concatenate([mode.density.psi.ravel(), mode.density.phi.ravel()])
        resid = np.linalg.norm(A @ vec) / (np.linalg.norm(A, ord=2) * np.linalg.norm(vec))
        assert resid <= 1e-9


def test_refinement_stability(six_resonances, six_array, params):
    # the search itself enforces < 1e-4 drift; re-verify one root explicitly
    from hopfarray.spectral import _ResolventProbe, _muller

    res = six_resonances[1]
    probe = _ResolventProbe(six_array, params, res.truncation + 2)
    z_hi = _muller(probe, res.omega)
    assert abs(z_hi - res.omega) <= 1e-4 * abs(res.omega)


def test_search_window_misconfiguration_raises(single_array, params):
    with pytest.raises(ResonanceSearchError, match="window|seeds"):
        find_resonances(single_array, params, M=3, search={"omega_max": 1e-4})


def test_search_rejects_unknown_keys(single_array, params):
    with pytest.raises(ValueError, match="unknown search keys"):
        find_resonances(single_array, params, M=3, search={"bogus": 1})
    with pytest.raises(ValueError, match="unknown search keys"):
        find_resonances(single_array, params, M=3, search={"grid": (30, 9)})


@pytest.mark.parametrize("name, M", [("single", 4), ("pair", 5), ("six", 5)])
def test_count_matches_argument_principle_oracle(name, M, params, request):
    array = request.getfixturevalue(f"{name}_array")
    res = request.getfixturevalue(f"{name}_resonances")
    _assert_certified(res, array.n)
    assert argument_principle_count(array, params, M, _window_box(array, params)) == len(res)


def test_six_resonances_match_pinned_values(six_resonances):
    for res, (re, im) in zip(six_resonances, _PINNED_SIX, strict=True):
        assert abs(res.omega - complex(re, im)) <= 1e-10 * abs(complex(re, im))


def test_paper_scale_twelve_resonators(params, twelve_array, twelve_resonances):
    array, res = twelve_array, twelve_resonances
    assert len(res) == 12
    assert all(r.residual <= 1e-9 and r.drift < 1e-4 for r in res)
    _assert_certified(res, 12)
    assert argument_principle_count(array, params, 5, _window_box(array, params)) == 12


@pytest.mark.parametrize("rank_tol", [1e-14, 1e-16])
def test_single_disk_spurious_eigenvalues_not_counted(
    single_array, params, single_resonances, monkeypatch, rank_tol
):
    # a lower rank cut lets spurious eigenvalues through (at 1e-16 they fill
    # the probe block and force splits); the residual test, polish and
    # de-duplication still leave exactly the one root
    monkeypatch.setattr(spectral, "_RANK_TOL", rank_tol)
    res = find_resonances(single_array, params, M=4)
    assert max(c["rank"] for c in res.search["contours"]) > 1
    _assert_certified(res, 1)
    assert res[0].omega == pytest.approx(single_resonances[0].omega, rel=1e-10)


def test_resonance_near_subcontour_edge_counted_once(six_array, params, six_resonances):
    # omega_max puts the window's right edge 0.3% above the narrowest mode
    # (Im omega ~ -2.7e-5), so the sub-contour that holds it must resolve it
    # next to its edge: it is split and still counts the mode exactly once
    top = six_resonances[-1].omega
    res = find_resonances(six_array, params, M=5, search={"omega_max": 1.003 * abs(top)})
    assert 0 < max(c["box"][1] for c in res.search["contours"]) - top.real < 4e-3 * top.real
    assert len(res.search["contours"]) > 1
    _assert_certified(res, 6)
    for got, want in zip(res, six_resonances):
        assert got.omega == pytest.approx(want.omega, rel=1e-10)


def test_polish_landing_twice_on_one_root_is_not_certified(pair_array, params, monkeypatch):
    # both Beyn eigenvalues pass, but every polish lands next to the lower
    # root: counted once, the sub-contour falls one short of its winding
    # number instead of reporting the lower root twice
    lower = min((r.omega for r in find_resonances(pair_array, params, M=5)), key=lambda z: z.real)
    polished = iter(lower * (1 + 1e-12 * k) for k in range(100))
    monkeypatch.setattr(spectral, "_muller", lambda f, z0: next(polished))
    monkeypatch.setattr(spectral, "_NODES", (32, 32))
    monkeypatch.setattr(spectral, "_MAX_CONTOURS", 1)
    with pytest.raises(ResonanceSearchError, match="2 pass the residual test.*number 2, but 1 "):
        find_resonances(pair_array, params, M=5)


def test_uncertified_subcontour_names_both_counts(single_array, params, monkeypatch):
    monkeypatch.setattr(spectral, "_BEYN_RESIDUAL", 0.0)  # no eigenpair passes
    monkeypatch.setattr(spectral, "_NODES", (16, 16))
    monkeypatch.setattr(spectral, "_MAX_CONTOURS", 1)
    with pytest.raises(ResonanceSearchError, match=r"sub-contour Re \[.*winding number 1, but 0 "):
        find_resonances(single_array, params, M=3)


def test_exactly_singular_system(single_array, params, monkeypatch):
    # numpy's solve raises on an exactly singular matrix: the probe reads it
    # as a zero (a resonance), and a contour node on one fails the search
    # with the box named; the probe and the contour's stacks share one seam
    singular = assemble_boundary_system(single_array, params, 0.1, 3)
    singular[:, 0] = 0.0
    monkeypatch.setattr(spectral, "assemble_boundary_matrices",
                        lambda array, params, omegas, M: np.stack([singular] * len(omegas)))
    assert spectral._ResolventProbe(single_array, params, 3)(0.1) == 0.0
    box = spectral._describe(_window_box(single_array, params))
    with pytest.raises(ResonanceSearchError, match=re.escape(f"{box}: boundary system singular")):
        find_resonances(single_array, params, M=3)
