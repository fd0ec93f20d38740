from dataclasses import replace

import numpy as np
import pytest

from conftest import mode_field
from hopfarray.modal import (
    ModalSystem,
    build_modal_system,
    cache_request,
    cubic_tensor,
    gram_matrix,
    modal_cache_key,
    source_coupling,
)
from hopfarray.quadrature import QuadratureSpec, default_spec, disk_rule, exterior_rule, interior_rule
from hopfarray.spectral import Eigenmode
from oracles import refinement_report

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
    quad = default_spec(six_array)
    ep, ew = exterior_rule(six_array, quad)
    ip, iw, idx = interior_rule(six_array, quad)
    x0, x1, y0, y1 = quad.box
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


def test_quadrature_box_contains_everything(six_array):
    quad = default_spec(six_array)
    quad.validate_against(six_array)
    with pytest.raises(ValueError, match="contain"):
        QuadratureSpec(box=(0.0, 10.0, -3.0, 3.0)).validate_against(six_array)


def test_gram_hermitian_positive_definite(six_system):
    g = six_system.gram
    assert np.max(np.abs(g - g.conj().T)) <= 1e-10 * np.max(np.abs(g))
    assert np.linalg.eigvalsh(g).min() > 0
    assert np.max(np.abs(g @ six_system.gram_inverse - np.eye(six_system.n))) <= 1e-8


def test_gram_single_mode_real_positive(single_mode):
    quad = default_spec(single_mode.array)
    g = gram_matrix([single_mode], quad)
    assert g.shape == (1, 1)
    assert g[0, 0].imag == pytest.approx(0.0, abs=1e-12 * abs(g[0, 0]))
    assert g[0, 0].real > 0


def test_gram_refinement_under_doubling(pair_modes):
    quad = default_spec(pair_modes[0].array)
    rep = refinement_report(pair_modes, quad)
    assert rep["gram"] < 1e-6
    assert rep["cubic_tensor"] < 1e-6


def test_gram_parity_orthogonality(pair_modes):
    # symmetric box for the symmetric pair: parity sectors are orthogonal
    arr = pair_modes[0].array
    span = 4.0 * (arr.center_x[1] + arr.radius[1])
    quad = default_spec(arr)
    quad = QuadratureSpec(
        box=(-span, span, -span, span),
        ext_order=quad.ext_order,
        panel_size=quad.panel_size,
        ring_radial=quad.ring_radial,
        ring_angular=quad.ring_angular,
        disk_radial=quad.disk_radial,
        disk_angular=quad.disk_angular,
    )
    g = gram_matrix(pair_modes, quad)
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
    quad = default_spec(single_mode.array)
    T = cubic_tensor([single_mode], quad)
    val = T[0, 0, 0, 0]
    assert val.imag == pytest.approx(0.0, abs=1e-14 * abs(val))
    assert val.real > 0
    # matches the direct interior integral of |u|^4
    pts, wts = disk_rule(single_mode.array.centers[0], 1.0, 24, 48)
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
    quad = default_spec(pair_modes[0].array)
    c = 1.3 + 0.4j
    T = cubic_tensor(pair_modes, quad)
    scaled = cubic_tensor([_scaled_mode(pair_modes[0], c), pair_modes[1]], quad)
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
    assert restored.quad == six_system.quad
    for a, b in zip(restored.modes, six_system.modes):
        assert a.resonance == b.resonance
        assert a.sv_gap == b.sv_gap
        assert np.array_equal(a.density.psi, b.density.psi)
        assert np.array_equal(a.density.phi, b.density.phi)
    # a second serialization is byte-identical
    assert restored.to_json() == text


def test_modal_cache_key_sensitivity(six_system, monkeypatch):
    import hopfarray.modal as modal

    search = {"tolerance": 1e-10, "drift_tolerance": 1e-4}

    def key_of(M=5, quad=six_system.quad, array=six_system.array, params=six_system.params,
               **changes):
        return modal_cache_key(cache_request(array, params, M, quad, {**search, **changes}))

    key = key_of()
    assert key == key_of()
    assert key != key_of(M=7)
    assert key != key_of(quad=six_system.quad.refine(2))
    assert key != key_of(params=replace(six_system.params, delta=2e-3))
    assert key != key_of(array=replace(six_system.array, source_x=-6.0))
    assert key != key_of(tolerance=1e-9)
    assert key != key_of(drift_tolerance=1e-3)
    assert key != key_of(omega_max=0.1)
    # a build records the request it answers; an edited module keys a new one
    assert six_system.request == cache_request(six_system.array, six_system.params, 5,
                                               six_system.quad)
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

    def counting(array, params, omegas, densities, points):
        calls.append((len(densities), len(np.atleast_2d(points))))
        return sample(array, params, omegas, densities, points)

    for module in (boundary, spectral, modal):
        monkeypatch.setattr(module, "sample_fields", counting)
    quad = default_spec(pair_array)
    n_interior = len(interior_rule(pair_array, quad)[1])
    n_nodes = len(exterior_rule(pair_array, quad)[1]) + n_interior
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
    two_tone_sweep(loaded, center, [0.95 * center, 1.05 * center], 1e-5, 1e-5, BETA, mode_index=0)
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


def test_paper_scale_cold_build(twelve_array, twelve_resonances, params, monkeypatch):
    import hopfarray.modal as modal

    # the shared search result stands in for the search; everything after it
    # runs as in a cold build
    monkeypatch.setattr(modal, "find_resonances", lambda *args, **kwargs: twelve_resonances)
    system = build_modal_system(twelve_array, params, M=5)
    assert system.n == 12
    g = system.gram
    assert np.array_equal(g, g.conj().T) and np.linalg.eigvalsh(g).min() > 0
    _assert_normalized_under_own_rule(system, 1e-13)
    pts, wts, _ = interior_rule(twelve_array, replace(system.quad, disk_radial=30, disk_angular=72))
    norms = np.abs(system.mode_fields_at(pts)) ** 2 @ wts
    assert np.max(np.abs(norms - 1.0)) <= 1e-8
