import json
import re
from dataclasses import replace

import numpy as np
import pytest

from conftest import mode_field
from hopfarray.modal import (
    ModalSystem,
    _gram_from_values,
    _mode_values,
    build_modal_system,
    cache_request,
    cubic_tensor,
    gram_matrix,
    modal_cache_key,
    source_coupling,
)
from hopfarray.analysis import default_observation_points
from hopfarray.quadrature import (
    MAX_EXTERIOR_NODES,
    PANEL_SIZE,
    default_spec,
    exterior_node_count,
    exterior_rule,
    gauss_legendre,
    interior_rule,
)
from hopfarray.spectral import Eigenmode
from oracles import full_disk_rule, full_exterior_rule, full_interior_rule, refinement_report

BETA = 5.0e5


def _scaled_mode(mode, factor):
    return Eigenmode(
        resonance=mode.resonance,
        density=mode.density.scaled(factor),
        array=mode.array,
        params=mode.params,
        sv_gap=mode.sv_gap,
    )


def test_quadrature_weights_recover_areas(six_array):
    ep, ew = exterior_rule(six_array, PANEL_SIZE)
    ip, iw, idx = interior_rule(six_array)
    x0, x1, y0, y1 = default_spec(six_array)
    disk_area = np.pi * np.sum(six_array.radii**2)
    assert ew.sum() == pytest.approx((x1 - x0) * (y1 - y0) - disk_area, rel=1e-12)
    assert iw.sum() == pytest.approx(disk_area, rel=1e-12)
    # exterior nodes all strictly outside circles, interior nodes inside
    for c, r in zip(six_array.centers, six_array.radii):
        d = np.hypot(ep[:, 0] - c[0], ep[:, 1] - c[1])
        assert np.all(d > r)
    d = np.hypot(
        ip[:, 0] - six_array.centers[idx, 0], ip[:, 1] - six_array.centers[idx, 1]
    )
    assert np.all(d < six_array.radii[idx])


# numbered from 7, so each row keeps the id it has had since the box had rows of its own
_BAD_PANEL_SIZES = [
    ({"panel_size": -1.0}, "panel_size must be positive and finite, got -1.0"),
    ({"panel_size": 0.0}, "panel_size must be positive and finite, got 0.0"),
    ({"panel_size": np.nan}, "panel_size must be positive and finite, got nan"),
    ({"panel_size": np.inf}, "panel_size must be positive and finite, got inf"),
]


@pytest.mark.parametrize("fields, message", _BAD_PANEL_SIZES,
                         ids=[f"fields{i}-{m}" for i, (_, m) in enumerate(_BAD_PANEL_SIZES, 7)])
def test_quadrature_spec_names_a_bad_field(six_array, fields, message):
    # the rules' one input besides the array, checked before any rule is built from it
    for rule in (exterior_node_count, exterior_rule):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}"):
            rule(six_array, **fields)


# panel sizes: 2.0 gives the six-disk array's full-height strips an odd panel
# count, whose middle panel straddles the axis
_HALF_RULE_PANELS = ({}, {"panel_size": 2.0}, {"panel_size": 0.7})


@pytest.mark.parametrize("counts", _HALF_RULE_PANELS + ({"panel_size": 0.3},))
def test_exterior_node_count_is_the_rule_length(single_array, pair_array, six_array, counts):
    panel_size = counts.get("panel_size", PANEL_SIZE)
    for array in (single_array, pair_array, six_array):
        assert exterior_node_count(array, panel_size) == len(exterior_rule(array, panel_size)[1])


def test_build_past_the_exterior_node_bound_raises_before_any_rule(six_array, params, monkeypatch):
    import hopfarray.modal as modal
    import hopfarray.quadrature as quadrature

    def built(*args, **kwargs):
        raise AssertionError("a rule was built or a search run")

    for module, name in ((quadrature, "ring_rule"), (quadrature, "_panels"),
                         (modal, "interior_rule"), (modal, "find_resonances")):
        monkeypatch.setattr(module, name, built)
    with pytest.raises(ValueError, match=r" at panel_size 0\.02 would hold 3\.\d\de\+07 nodes, "
                                         rf"past the bound of {MAX_EXTERIOR_NODES}$"):
        build_modal_system(six_array, params, M=5, panel_size=0.02)


@pytest.mark.parametrize("counts", _HALF_RULE_PANELS)
def test_half_rules_fold_the_full_rules(six_array, counts):
    box, panel_size = default_spec(six_array), counts.get("panel_size", PANEL_SIZE)
    ip, iw, idx = interior_rule(six_array)
    fp, fw, fidx = full_interior_rule(six_array)
    # each disk keeps the nodes of its upper half
    assert np.array_equal(np.bincount(idx), np.bincount(fidx[fp[:, 1] > -1e-12]))
    even = (
        lambda p: np.ones(len(p)),
        lambda p: p[:, 1] ** 2,
        lambda p: p[:, 0] ** 3 * p[:, 1] ** 4 - 2.0 * p[:, 0] * p[:, 1] ** 2,
        lambda p: np.cos(0.7 * p[:, 0]) * np.cos(0.4 * p[:, 1]),
    )
    scale = abs(box[3])
    pairs = (((ip, iw), (fp, fw)),
             (exterior_rule(six_array, panel_size), full_exterior_rule(six_array, box, panel_size)))
    for (hp, hw), (fp, fw) in pairs:
        assert np.all(hp[:, 1] >= 0)
        # a node on the axis lies there exactly and keeps the full rule's weight
        axis, full_axis = hp[:, 1] == 0, np.abs(fp[:, 1]) <= 1e-12 * scale
        assert axis.sum() == full_axis.sum()
        assert len(hw) == (len(fw) + axis.sum()) // 2
        mine, theirs = np.argsort(hp[axis, 0]), np.argsort(fp[full_axis, 0])
        assert np.allclose(hp[axis, 0][mine], fp[full_axis, 0][theirs], rtol=0, atol=1e-12 * scale)
        assert np.allclose(hw[axis][mine], fw[full_axis][theirs], rtol=1e-12, atol=0)
        # every off-axis node stands for its mirror image too
        for f in even:
            full = fw @ f(fp)
            assert abs(hw @ f(hp) - full) <= 1e-14 * np.abs(fw) @ np.abs(f(fp))


def test_gram_hermitian_positive_definite(six_system):
    g = six_system.gram
    assert np.max(np.abs(g - g.conj().T)) <= 1e-10 * np.max(np.abs(g))
    assert np.linalg.eigvalsh(g).min() > 0
    assert np.max(np.abs(g @ six_system.gram_inverse - np.eye(six_system.n))) <= 1e-8


def test_gram_single_mode_real_positive(single_mode):
    g = gram_matrix([single_mode], PANEL_SIZE)
    assert g.shape == (1, 1)
    assert g[0, 0].imag == pytest.approx(0.0, abs=1e-12 * abs(g[0, 0]))
    assert g[0, 0].real > 0


@pytest.mark.parametrize("U, wts, least", [
    ([[1.0, 2.0], [0.0, 0.0]], [1.0, 1.0], "0"),  # a mode that vanishes at every node
    ([[1.0, 1.0]], [1.0, -2.0], "-1"),  # a rule with a negative weight
])
def test_gram_not_positive_definite_is_refused(U, wts, least):
    with pytest.raises(ValueError, match=re.escape(
            f"mode Gram matrix is not positive definite (min eigenvalue {least}); "
            "refine the quadrature or check the modes")):
        _gram_from_values(np.array(U, dtype=complex), np.array(wts))


def test_gram_refinement_under_doubling(pair_modes):
    rep = refinement_report(pair_modes, PANEL_SIZE)
    assert rep["gram"] < 1e-6
    assert rep["cubic_tensor"] < 1e-6


def test_gram_parity_orthogonality(pair_modes):
    # symmetric box for the symmetric pair: parity sectors are orthogonal
    arr = pair_modes[0].array
    span = 4.0 * (arr.center_x[1] + arr.radius[1])
    box = (-span, span, -span, span)
    ext_pts, ext_wts = full_exterior_rule(arr, box, PANEL_SIZE)
    int_pts, int_wts, _ = full_interior_rule(arr)
    g = _gram_from_values(_mode_values(pair_modes, np.vstack([ext_pts, int_pts])),
                          np.concatenate([ext_wts, int_wts]))
    assert abs(g[0, 1]) <= 1e-6 * max(abs(g[0, 0]), abs(g[1, 1]))


def test_source_coupling_is_conjugated_mode_value(six_system):
    src = np.array(six_system.array.source)
    for n, mode in enumerate(six_system.modes):
        assert six_system.source_vec[n] == pytest.approx(
            complex(mode_field(mode, src)).conjugate(), rel=1e-12
        )


def test_source_coupling_conjugate_linear_in_mode(single_mode):
    c = 0.7 - 1.3j
    src = single_mode.array.source
    base = source_coupling([single_mode], src)[0]
    scaled = source_coupling([_scaled_mode(single_mode, c)], src)[0]
    assert scaled == pytest.approx(np.conj(c) * base, rel=1e-12)


def test_source_coupling_far_field_decay(single_mode):
    # the far entries follow the outgoing-kernel envelope; for a complex
    # resonance that is distance^{-1/2} times a slow exponential in Im(k)d
    from hopfarray.cylinder import hankel1

    k = single_mode.resonance.omega / single_mode.params.v
    center = single_mode.array.center_x[0]
    d1, d2 = 50.0, 200.0
    v1 = abs(source_coupling([single_mode], (-d1, 0.0))[0])
    v2 = abs(source_coupling([single_mode], (-d2, 0.0))[0])
    kernel_ratio = abs(hankel1(0, k * (d2 + center))) / abs(hankel1(0, k * (d1 + center)))
    assert v2 / v1 == pytest.approx(kernel_ratio, rel=0.02)
    # the power-law part alone dominates while |Im k| d is small
    d3, d4 = 20.0, 45.0
    v3 = abs(source_coupling([single_mode], (-d3, 0.0))[0])
    v4 = abs(source_coupling([single_mode], (-d4, 0.0))[0])
    assert v4 / v3 == pytest.approx(np.sqrt(d3 / d4), rel=0.2)


def test_source_coupling_parity_sign_flip(pair_modes):
    left = source_coupling(pair_modes, (-6.0, 0.0))
    right = source_coupling(pair_modes, (6.0, 0.0))
    for n, mode in enumerate(pair_modes):
        pts = np.array([[0.5, 1.0]])
        u = complex(mode_field(mode, pts)[0])
        ur = complex(mode_field(mode, pts * [-1.0, 1.0])[0])
        parity = 1.0 if abs(u - ur) < abs(u + ur) else -1.0
        assert right[n] == pytest.approx(parity * left[n], rel=1e-6)


def test_source_on_boundary_rejected(single_mode):
    with pytest.raises(ValueError, match="boundary"):
        source_coupling([single_mode], (2.0, 0.0))


def test_cubic_tensor_diagonal_real_positive(single_mode):
    T = cubic_tensor([single_mode])
    val = T[0, 0, 0, 0]
    assert val.imag == pytest.approx(0.0, abs=1e-14 * abs(val))
    assert val.real > 0
    # matches the direct interior integral of |u|^4
    pts, wts = full_disk_rule(single_mode.array.centers[0], 1.0, 24, 48)
    direct = np.sum(wts * np.abs(mode_field(single_mode, pts)) ** 4)
    assert val.real == pytest.approx(direct, rel=1e-10)


def test_cubic_tensor_pair_symmetry_exact(six_system):
    T = six_system.cubic_tensor
    assert np.array_equal(T, T.transpose(0, 2, 1, 3))


def test_cubic_tensor_conjugation_pairing(six_system):
    T = six_system.cubic_tensor
    rng = np.random.default_rng(11)
    for _ in range(20):
        i, j, k, n = rng.integers(0, six_system.n, 4)
        assert T[n, i, j, k] == pytest.approx(np.conj(T[j, k, n, i]), rel=1e-10, abs=1e-14)


def test_pairing_linearity_under_scaling(pair_modes):
    c = 1.3 + 0.4j
    T = cubic_tensor(pair_modes)
    scaled = cubic_tensor([_scaled_mode(pair_modes[0], c), pair_modes[1]])
    # first slot enters linearly: T[n, 0, 1, k] gains a factor c when mode 0
    # is scaled in slot i, conj(c) in slot k, etc.
    assert scaled[1, 0, 1, 1] == pytest.approx(c * T[1, 0, 1, 1], rel=1e-10)
    assert scaled[1, 1, 1, 0] == pytest.approx(np.conj(c) * T[1, 1, 1, 0], rel=1e-10)
    assert scaled[0, 1, 1, 1] == pytest.approx(np.conj(c) * T[0, 1, 1, 1], rel=1e-10)
    assert scaled[1, 0, 0, 1] == pytest.approx(c * c * T[1, 0, 0, 1], rel=1e-10)


def test_modal_system_serialization_roundtrip(six_system):
    text = six_system.to_json()
    restored = ModalSystem.from_json(text, request=six_system.request)
    assert np.array_equal(restored.omegas, six_system.omegas)
    assert np.array_equal(restored.gram, six_system.gram)
    assert np.array_equal(restored.gram_inverse, six_system.gram_inverse)
    assert np.array_equal(restored.source_vec, six_system.source_vec)
    assert np.array_equal(restored.cubic_tensor, six_system.cubic_tensor)
    assert np.array_equal(restored.interior_values, six_system.interior_values)
    assert restored.interior_values.flags.c_contiguous
    assert restored.array == six_system.array
    assert restored.params == six_system.params
    for a, b in zip(restored.modes, six_system.modes):
        assert a.resonance == b.resonance
        assert a.sv_gap == b.sv_gap
        assert np.array_equal(a.density.psi, b.density.psi)
        assert np.array_equal(a.density.phi, b.density.phi)
    # a second serialization is byte-identical
    assert restored.to_json() == text


def test_loaded_system_samples_modes_like_the_built_one(six_system):
    # the entry keeps no Hankel panels: a loaded system builds its own, on the
    # same panels and so to the same bits, inside the box and far outside it
    loaded = ModalSystem.from_json(six_system.to_json(), request=six_system.request)
    assert "panels" not in json.loads(six_system.to_json())
    for points in (default_observation_points(six_system), [[60.0, 0.0]]):
        assert np.array_equal(loaded.mode_fields_at(points), six_system.mode_fields_at(points))


def test_gauss_legendre_matches_leggauss():
    # Golub-Welsch against numpy's Newton-polished rule
    for n in range(2, 129):
        x, w = gauss_legendre(n)
        x_ref, w_ref = np.polynomial.legendre.leggauss(n)
        assert np.max(np.abs(x - x_ref)) <= 1e-15
        assert np.max(np.abs(w - w_ref) / w_ref) <= (1e-13 if n <= 16 else 1e-10)
    assert gauss_legendre(8) is gauss_legendre(8)
    assert not gauss_legendre(8)[0].flags.writeable


def test_modal_cache_key_sensitivity(six_system, monkeypatch):
    import hopfarray.modal as modal

    def key_of(M=5, panel_size=PANEL_SIZE, array=six_system.array, params=six_system.params):
        return modal_cache_key(cache_request(array, params, M, panel_size))

    key = key_of()
    assert key == key_of()
    assert key != key_of(M=7)
    assert key != key_of(panel_size=2.0)
    assert key != key_of(params=replace(six_system.params, delta=2e-3))
    assert key != key_of(array=replace(six_system.array, source_x=-6.0))
    # a build records the request it answers; an edited module keys a new one
    assert six_system.request == cache_request(six_system.array, six_system.params, 5,
                                               PANEL_SIZE)
    monkeypatch.setattr(modal, "_source_digest", lambda: "0" * 64)
    assert key != key_of()


def test_modes_sampled_once(pair_array, pair_resonances, pair_system, params, monkeypatch):
    import hopfarray.boundary as boundary
    import hopfarray.modal as modal
    import hopfarray.spectral as spectral
    from hopfarray.analysis import pure_tone_sweep, two_tone_sweep
    from hopfarray.spectral import extract_eigenmode

    sample = boundary.sample_fields
    calls = []

    def counting(array, params, omegas, densities, points, **kwargs):
        calls.append((len(densities), len(np.atleast_2d(points))))
        return sample(array, params, omegas, densities, points, **kwargs)

    for module in (boundary, spectral, modal):
        monkeypatch.setattr(module, "sample_fields", counting)
    n_interior = len(interior_rule(pair_array)[1])
    n_nodes = len(exterior_rule(pair_array, PANEL_SIZE)[1]) + n_interior
    # a cold build samples every mode once, over all nodes plus the source:
    # the normalization, the projections and the source vector share it,
    # and extracting the null densities samples nothing
    cold = build_modal_system(pair_array, params, M=5)
    assert calls == [(2, n_nodes + 1)]
    assert np.allclose(cold.gram, pair_system.gram, rtol=1e-12, atol=0)
    calls.clear()
    extract_eigenmode(pair_array, params, pair_resonances[0])
    assert calls == [(1, n_interior)]

    calls.clear()
    loaded = ModalSystem.from_json(pair_system.to_json(), request=pair_system.request)
    center = loaded.omegas[0].real
    pure_tone_sweep(loaded, np.linspace(0.9 * center, 1.1 * center, 3), 1e-5, BETA)
    two_tone_sweep(loaded, center, [0.95 * center, 1.05 * center], 1e-5, 1e-5, BETA)
    assert calls == []


def _assert_normalized_under_own_rule(system, tol):
    """Unit L2 norm over the build's interior rule, and a real, positive
    interior mean over the largest disk, from the stored samples."""
    _, wts, disk, values = system.interior_quadrature()
    assert np.max(np.abs(np.abs(values) ** 2 @ wts - 1.0)) <= tol
    anchor = disk == system.array.largest_index()
    means = values[:, anchor] @ wts[anchor]
    assert np.all(np.abs(means.imag) <= tol * np.abs(means)) and np.all(means.real > 0)


def test_modes_normalized_under_own_rule(six_system, pair_system):
    for system in (six_system, pair_system):
        _assert_normalized_under_own_rule(system, 1e-13)


def test_paper_scale_cold_build(twelve_array, twelve_system):
    system = twelve_system
    assert system.n == 12
    g = system.gram
    assert np.array_equal(g, g.conj().T) and np.linalg.eigvalsh(g).min() > 0
    _assert_normalized_under_own_rule(system, 1e-13)
    pts, wts, _ = full_interior_rule(twelve_array, disk=(30, 72))
    norms = np.abs(system.mode_fields_at(pts)) ** 2 @ wts
    assert np.max(np.abs(norms - 1.0)) <= 1e-8


def _relative(a, b) -> float:
    return float(np.max(np.abs(a - b)) / np.max(np.abs(b)))


def _full_box_build(system, resonances):
    """The build of system, sampled over the full box's rule (tests/oracles.py)."""
    import hopfarray.modal as modal

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(modal, "exterior_rule", lambda array, panel_size: full_exterior_rule(
            array, default_spec(array), panel_size))
        patch.setattr(modal, "interior_rule", full_interior_rule)
        patch.setattr(modal, "find_resonances", lambda *args, **kwargs: resonances)
        return build_modal_system(system.array, system.params, M=5)


@pytest.mark.parametrize("name", ["six", "twelve"])
def test_half_rule_build_matches_full_box_rule(name, request):
    from hopfarray.hopf import TWO_TONE_LINES, _residual_lines

    half = request.getfixturevalue(f"{name}_system")
    full = _full_box_build(half, request.getfixturevalue(f"{name}_resonances"))
    for attr in ("gram", "source_vec", "cubic_tensor"):
        assert _relative(getattr(half, attr), getattr(full, attr)) <= 1e-12, attr
    # the normalization: each density is scaled from the interior sample
    for a, b in zip(half.modes, full.modes):
        assert a.resonance == b.resonance
        assert _relative(a.density.psi, b.density.psi) <= 1e-12
        assert _relative(a.density.phi, b.density.phi) <= 1e-12
    # the AFT certificate integrates the cubic over the interior rule
    rng = np.random.default_rng(3)
    X = 1e-3 * (rng.standard_normal((4, half.n)) + 1j * rng.standard_normal((4, half.n)))
    tones = [1.02 * half.omegas[1].real, 0.97 * half.omegas[1].real]

    def aft(system, beta):
        return _residual_lines(system, TWO_TONE_LINES, tones, [1e-5, 1e-5, 0.0, 0.0], beta, X)

    assert _relative(aft(half, BETA), aft(full, BETA)) <= 1e-12
    # and its cubic part alone
    assert _relative(aft(half, BETA) - aft(half, 0.0), aft(full, BETA) - aft(full, 0.0)) <= 1e-12


@pytest.mark.parametrize("name", ["six", "twelve"])
def test_modes_are_even_in_x2(name, request):
    # the premise of the half-plane rules: u(x1, x2) = u(x1, -x2) for every mode
    system = request.getfixturevalue(f"{name}_system")
    box, panel_size = default_spec(system.array), system.request["inputs"]["panel_size"]
    pts = np.vstack([full_exterior_rule(system.array, box, panel_size)[0],
                     full_interior_rule(system.array)[0]])
    pts = pts[pts[:, 1] > 1e-9]
    upper = system.mode_fields_at(pts)
    lower = system.mode_fields_at(pts * [1.0, -1.0])
    assert np.all(np.max(np.abs(upper - lower), axis=1) <= 1e-12 * np.max(np.abs(upper), axis=1))
