import re

import numpy as np
import pytest

from conftest import mode_field
from hopfarray import boundary
from hopfarray.boundary import (
    MultipoleDensity,
    WaveParams,
    assemble_boundary_matrices,
    assemble_boundary_system,
    classify_points,
    evaluate_field,
    mirror_basis,
    sample_fields,
)
from hopfarray.cylinder import bessel_j_orders, hankel1, hankel1_orders
from hopfarray.geometry import build_graded_array
from hopfarray.spectral import _default_search, single_disk_resonance
from oracles import boundary_matrix_loop, field_loop


def test_wave_params_validation():
    p = WaveParams(v=2.0, v_b=1.0, delta=1e-3)
    assert p.wavenumbers(1.0) == (0.5, 1.0)
    with pytest.raises(ValueError, match="delta"):
        WaveParams(v=1.0, v_b=1.0, delta=0.0)
    with pytest.raises(ValueError, match="v_b"):
        WaveParams(v=1.0, v_b=-1.0, delta=1e-3)


def fundamental_solution(k: complex, x) -> complex:
    """The outgoing 2D kernel -(i/4) H_0^(1)(k |x|) that the layers carry."""
    return -0.25j * hankel1(0, k * float(np.hypot(x[0], x[1])))


def test_fundamental_solution_rotational_invariance():
    k = 0.5 + 0.1j
    r = 2.37
    assert fundamental_solution(k, (r, 0.0)) == pytest.approx(
        fundamental_solution(k, (0.0, r)), rel=1e-15
    )
    assert fundamental_solution(k, (r / np.sqrt(2), r / np.sqrt(2))) == pytest.approx(
        fundamental_solution(k, (r, 0.0)), rel=1e-12
    )


def test_fundamental_solution_satisfies_helmholtz():
    # five-point Laplacian residual against the known kernel
    k = 0.5
    h = 1e-3
    x0, y0 = 2.0, 0.0

    def g(x, y):
        return fundamental_solution(k, (x, y))

    lap = (g(x0 + h, y0) + g(x0 - h, y0) + g(x0, y0 + h) + g(x0, y0 - h) - 4 * g(x0, y0)) / h**2
    residual = lap + k**2 * g(x0, y0)
    assert abs(residual) <= 1e-6 * abs(g(x0, y0))


def test_fundamental_solution_far_field_decay():
    k = 1.0
    r1, r2 = 50.0, 200.0
    ratio = abs(fundamental_solution(k, (r2, 0.0))) / abs(fundamental_solution(k, (r1, 0.0)))
    assert ratio == pytest.approx(np.sqrt(r1 / r2), rel=0.01)


def test_single_circle_matrix_block_diagonal(params):
    arr = build_graded_array(1, 1.0, 1.0, 0.5, -5.0)
    M = 4
    A = assemble_boundary_system(arr, params, 0.3 + 0.01j, M)
    width = 2 * M + 1
    # a lone circle does not mix angular orders: off-diagonal entries of
    # every (psi/phi x continuity/flux) block vanish
    for bi in range(2):
        for bj in range(2):
            block = A[bi * width:(bi + 1) * width, bj * width:(bj + 1) * width]
            off = block - np.diag(np.diag(block))
            assert np.max(np.abs(off)) == 0.0


def test_assembly_bit_reproducible(params, six_array):
    a1 = assemble_boundary_system(six_array, params, 0.02 - 0.001j, 4)
    a2 = assemble_boundary_system(six_array, params, 0.02 - 0.001j, 4)
    assert np.array_equal(a1, a2)


@pytest.mark.parametrize("v_b", [1.0, 1.3])  # one shared layer, then two
@pytest.mark.parametrize("array_name", ["single_array", "pair_array", "six_array"])
def test_stacked_assembly_equals_one_frequency_assembly(array_name, v_b, request):
    # a stack of frequencies holds each one-frequency block pair bit for bit
    array = request.getfixturevalue(array_name)
    params = WaveParams(v=1.0, v_b=v_b, delta=1e-3)
    rng = np.random.default_rng(30 + array.n)
    omegas = rng.uniform(0.005, 0.2, 9) + 1j * rng.uniform(-0.01, 0.01, 9)
    even, odd = assemble_boundary_matrices(array, params, omegas, 5)
    for omega, blocks in zip(omegas, zip(even, odd), strict=True):
        alone = assemble_boundary_matrices(array, params, [omega], 5)
        assert all(np.array_equal(b, a[0]) for b, a in zip(blocks, alone, strict=True))


@pytest.mark.parametrize("array_name, v_b", [("single_array", 1.0), ("pair_array", 1.0),
                                             ("six_array", 1.0), ("six_array", 1.3)])
def test_mirror_blocks_fold_the_loop_oracle(array_name, v_b, request):
    # the blocks assembled folded are the loop-built full matrix in the
    # mirror basis: Q_even^T A Q_even and Q_odd^T A Q_odd, with vanishing
    # cross blocks, so their singular values together are A's
    array = request.getfixturevalue(array_name)
    params = WaveParams(v=1.0, v_b=v_b, delta=1e-3)
    M = 5
    q_even, q_odd = mirror_basis(array.n, M)
    basis = np.hstack([q_even, q_odd])
    assert np.abs(basis.T @ basis - np.eye(len(basis))).max() <= 1e-15
    rng = np.random.default_rng(40 + array.n)
    seeds = [single_disk_resonance(r, params) for r in array.radii]
    window = _default_search(seeds)
    for _ in range(3):
        omega = complex(rng.uniform(*window["re"]), rng.uniform(*window["im"]))
        full = boundary_matrix_loop(array, params, omega, M)
        bound = 1e-13 * np.linalg.norm(full, 2)
        even, odd = (stack[0] for stack in assemble_boundary_matrices(array, params, [omega], M))
        assert np.abs(even - q_even.T @ full @ q_even).max() <= bound
        assert np.abs(odd - q_odd.T @ full @ q_odd).max() <= bound
        assert np.abs(q_even.T @ full @ q_odd).max() <= bound
        assert np.abs(q_odd.T @ full @ q_even).max() <= bound
        union = np.sort(np.concatenate([np.linalg.svd(b, compute_uv=False) for b in (even, odd)]))
        assert np.abs(union - np.sort(np.linalg.svd(full, compute_uv=False))).max() <= bound


@pytest.mark.parametrize("v_b", [1.0, 1.3])  # one shared layer, then two
@pytest.mark.parametrize("array_name", ["single_array", "pair_array", "six_array"])
def test_assembly_matches_loop_oracle(array_name, v_b, request):
    # the vectorised assembly against the per-pair loop over scipy.special
    array = request.getfixturevalue(array_name)
    params = WaveParams(v=1.0, v_b=v_b, delta=1e-3)
    seeds = [single_disk_resonance(r, params) for r in array.radii]
    window = _default_search(seeds)
    rng = np.random.default_rng(array.n)
    M = 5
    for _ in range(5):
        omega = complex(rng.uniform(*window["re"]), rng.uniform(*window["im"]))
        A = assemble_boundary_system(array, params, omega, M)
        B = boundary_matrix_loop(array, params, omega, M)
        assert np.max(np.abs(A - B)) <= 1e-12 * np.max(np.abs(B))


def test_mirror_pair_commutes_with_symmetry(params, pair_array):
    """The mirror exchange (swap circles, m -> -m with sign (-1)^m) must
    commute with the assembled matrix for a symmetric pair."""
    M = 3
    width = 2 * M + 1
    A = assemble_boundary_system(pair_array, params, 0.02 - 0.003j, M)
    dim = A.shape[0]

    # permutation-and-sign operator on (psi_1, psi_2, phi_1, phi_2) blocks
    S = np.zeros((dim, dim))
    orders = np.arange(-M, M + 1)
    for half in range(2):  # psi block then phi block
        base = half * 2 * width
        for i, m in enumerate(orders):
            j = list(orders).index(-m)
            sign = (-1.0) ** m
            S[base + i, base + width + j] = sign
            S[base + width + i, base + j] = sign
    # rows transform the same way as columns
    err = np.max(np.abs(S @ A - A @ S))
    assert err <= 1e-12 * np.max(np.abs(A))


def test_sigma_min_truncation_convergence(params, six_array):
    # the inter-circle expansion tail decays like (r/b)^M; for the tightly
    # packed default array that is ~4e-4 at M=5->7 and below 1e-4 from M=7
    omega = 0.04 - 0.001j  # inside the subwavelength window, off resonance
    s5, s7, s9 = (np.linalg.svd(assemble_boundary_system(six_array, params, omega, M),
                                compute_uv=False)[-1] for M in (5, 7, 9))
    assert abs(s5 - s7) / s7 < 1e-3
    assert abs(s7 - s9) / s9 < 1e-4


def test_assemble_validates_inputs(params, six_array):
    with pytest.raises(ValueError, match="omega"):
        assemble_boundary_system(six_array, params, 0.0, 4)
    with pytest.raises(ValueError, match="M"):
        assemble_boundary_system(six_array, params, 0.1, 0)


def test_block_index_mapping(params, pair_array):
    # unknowns stack [psi_0, psi_1, phi_0, phi_1], order m in column m + M
    A = assemble_boundary_system(pair_array, params, 0.05, 3)
    width = 7
    assert A.shape == (4 * width, 4 * width)
    vec = np.arange(A.shape[0], dtype=complex)
    density = MultipoleDensity.from_vector(vec, 2, 3)
    assert density.psi[0, -3 + 3] == 0
    assert density.psi[1, 0 + 3] == width + 3
    assert density.phi[0, 3 + 3] == 2 * width + 6
    assert np.array_equal(np.concatenate([density.psi.ravel(), density.phi.ravel()]), vec)
    with pytest.raises(ValueError):
        MultipoleDensity.from_vector(vec[:-1], 2, 3)


def test_evaluate_field_zero_density(params, six_array):
    M = 3
    dens = MultipoleDensity(
        psi=np.zeros((6, 2 * M + 1), complex), phi=np.zeros((6, 2 * M + 1), complex)
    )
    pts = np.array([[0.0, 3.0], [2.0, 0.5], [1.0, 0.0]])
    vals = evaluate_field(six_array, params, 0.05, dens, pts)
    assert np.all(vals == 0.0)


def test_evaluate_field_monopole_far_field(params):
    # a monopole density on one circle radiates like the kernel times the
    # monopole moment once the distance is large
    arr = build_graded_array(1, 1.0, 1.0, 0.5, -5.0)
    M = 3
    psi = np.zeros((1, 2 * M + 1), complex)
    psi[0, M] = 1.0  # order zero
    dens = MultipoleDensity(psi=psi, phi=np.zeros_like(psi))
    omega = 0.4
    k = omega / params.v
    c = arr.centers[0]
    x = c + np.array([100.0, 35.0])
    val = evaluate_field(arr, params, omega, dens, x)
    # moment of S[e^{i 0 theta}]: circumference times the kernel average
    dist = np.linalg.norm(x - c)
    expected = 2.0 * np.pi * 1.0 * bessel_j_orders(np.array([0]), k * 1.0)[0] * (
        -0.25j * hankel1(0, k * dist)
    )
    assert val == pytest.approx(expected, rel=0.01)


def test_evaluate_field_satisfies_helmholtz(params, pair_array):
    # finite-difference residual of the represented field at random points
    rng = np.random.default_rng(5)
    M = 4
    n = pair_array.n
    dens = MultipoleDensity(
        psi=rng.standard_normal((n, 2 * M + 1)) + 1j * rng.standard_normal((n, 2 * M + 1)),
        phi=rng.standard_normal((n, 2 * M + 1)) + 1j * rng.standard_normal((n, 2 * M + 1)),
    )
    omega = 0.35 + 0.0j
    h = 1e-4

    def field(pt):
        return evaluate_field(pair_array, params, omega, dens, pt)

    # exterior point at wavenumber omega / v
    for pt, kk in [
        (np.array([0.0, 2.5]), omega / params.v),
        (np.array([-3.0, 0.7]), omega / params.v),
        (pair_array.centers[1] + np.array([0.2, 0.1]), omega / params.v_b),
    ]:
        lap = (
            field(pt + [h, 0]) + field(pt - [h, 0]) + field(pt + [0, h]) + field(pt - [0, h])
            - 4 * field(pt)
        ) / h**2
        residual = lap + kk**2 * field(pt)
        assert abs(residual) <= 1e-5 * max(abs(field(pt)), 1e-12)


@pytest.mark.parametrize("v_b", [1.0, 1.3])  # one wavenumber per field, then two
@pytest.mark.parametrize("array_name", ["single_array", "pair_array", "six_array"])
def test_sample_fields_matches_field_oracle(array_name, v_b, request):
    # three densities at three distinct frequencies in one call, against the
    # point-by-point layer-potential sum over scipy.special, at exterior and
    # interior points, points 1e-9 r inside and outside each circle, their
    # mirror images about the array axis (equal distances to every center)
    # and one repeat; the near points tend to the oracle's two traces
    array = request.getfixturevalue(array_name)
    params = WaveParams(v=1.0, v_b=v_b, delta=1e-3)
    seeds = [single_disk_resonance(r, params) for r in array.radii]
    window = _default_search(seeds)
    rng = np.random.default_rng(20 + array.n)
    M = 4
    omegas = [complex(rng.uniform(*window["re"]), rng.uniform(*window["im"])) for _ in range(3)]
    shape = (array.n, 2 * M + 1)
    densities = [
        MultipoleDensity(
            psi=rng.standard_normal(shape) + 1j * rng.standard_normal(shape),
            phi=rng.standard_normal(shape) + 1j * rng.standard_normal(shape),
        )
        for _ in omegas
    ]
    points, on_circle = [array.source, (0.0, 2.5)], []
    for center, radius in zip(array.centers, array.radii):
        for scale in (0.0, 0.35, 0.9, 1.0, 1.2):
            angle = rng.uniform(0.0, 2.0 * np.pi)
            offset = radius * np.array([np.cos(angle), np.sin(angle)])
            if scale == 1.0:  # the circle point: its near points inside and outside
                on_circle.append((center + offset, len(points)))
                points += [center + (1 - 1e-9) * offset, center + (1 + 1e-9) * offset]
            else:
                points.append(center + scale * offset)
    points += [(x, -y) for x, y in points] + [points[3]]
    got = sample_fields(array, params, omegas, densities, points)
    for values, omega, density in zip(got, omegas, densities, strict=True):
        want = np.array([field_loop(array, params, omega, density, p) for p in points])
        assert np.all(np.abs(values - want) <= 1e-12 * np.abs(want))
        for point, i in on_circle:
            for side, near in (("interior", values[i]), ("exterior", values[i + 1])):
                trace = field_loop(array, params, omega, density, point, side)
                assert abs(near - trace) <= 1e-7 * abs(trace)


def test_sample_fields_point_values_independent_of_chunking(six_array, monkeypatch):
    # with chunks of 4 nodes every circle's region classes span several
    # chunks, whose tables run over distinct distances only; each point must
    # still get the same bits as when it is sampled alone
    params = WaveParams(v=1.0, v_b=1.3, delta=1e-3)
    rng = np.random.default_rng(5)
    M = 4
    omegas = [0.03 - 0.001j, 0.05 - 0.0002j, 0.06 - 0.00003j]
    shape = (six_array.n, 2 * M + 1)
    densities = [
        MultipoleDensity(
            psi=rng.standard_normal(shape) + 1j * rng.standard_normal(shape),
            phi=rng.standard_normal(shape) + 1j * rng.standard_normal(shape),
        )
        for _ in omegas
    ]
    points = []
    for center, radius in zip(six_array.centers, six_array.radii):
        for scale, angle in zip(rng.uniform(0.0, 1.6, 6), rng.uniform(0.0, np.pi, 6)):
            points.append(center + scale * radius * np.array([np.cos(angle), np.sin(angle)]))
    points += [(x, -y) for x, y in points]
    monkeypatch.setattr(boundary, "_CHUNK", 4 * len(omegas))
    whole = sample_fields(six_array, params, omegas, densities, points)
    alone = np.concatenate([sample_fields(six_array, params, omegas, densities, [p]) for p in points],
                           axis=1)
    assert np.array_equal(whole, alone)


def test_circle_point_raises_at_every_entry_point(params, single_array):
    # on a circle the field has two traces, so no entry point picks one
    M = 2
    dens = MultipoleDensity(
        psi=np.ones((1, 2 * M + 1), complex), phi=np.ones((1, 2 * M + 1), complex)
    )
    centers, radii = single_array.centers, single_array.radii
    for point in ((2.0, 0.0), (2.0 + 1e-13, 0.0), (1.0, -1.0)):  # r = 1, center (1, 0)
        message = re.escape(f"point {point} lies on a resonator boundary")
        with pytest.raises(ValueError, match=message):
            classify_points(centers, radii, np.array([(3.0, 0.0), point]))
        with pytest.raises(ValueError, match=message):
            sample_fields(single_array, params, [0.3], [dens], [(3.0, 0.0), point])
        with pytest.raises(ValueError, match=message):
            evaluate_field(single_array, params, 0.3, dens, point)
    near = np.array([(2.0 + 1e-11, 0.0), (2.0 - 1e-11, 0.0)])  # just outside, just inside
    assert classify_points(centers, radii, near).tolist() == [-1, 0]


def test_graf_translation_identity():
    # the addition theorem the cross blocks rely on, checked directly
    k = 0.3 + 0.05j
    ci = np.array([0.2, -0.4])
    cj = np.array([3.1, 1.2])
    b = np.linalg.norm(cj - ci)
    theta_ij = np.arctan2(cj[1] - ci[1], cj[0] - ci[0])
    x = cj + 0.8 * np.array([np.cos(0.7), np.sin(0.7)])
    di = x - ci
    dj = x - cj
    ns = np.arange(-40, 41)
    for m in (0, 1, -2, 3):
        lhs = hankel1(m, k * np.linalg.norm(di)) * np.exp(1j * m * np.arctan2(di[1], di[0]))
        rhs = np.sum(
            hankel1_orders(m - ns, k * b)
            * np.exp(1j * (m - ns) * theta_ij)
            * bessel_j_orders(ns, k * np.linalg.norm(dj))
            * np.exp(1j * ns * np.arctan2(dj[1], dj[0]))
        )
        assert lhs == pytest.approx(rhs, rel=1e-12)


def test_mirror_symmetric_solution_field(params, pair_array, pair_modes):
    # a symmetric geometry yields fields symmetric up to the mode parity
    mode = pair_modes[0]
    pts = np.array([[0.7, 1.3], [2.1, -0.4], [0.0, 2.0]])
    refl = pts * np.array([-1.0, 1.0])
    u = mode_field(mode, pts)
    ur = mode_field(mode, refl)
    sign = 1.0 if abs(u[2] - ur[2]) < abs(u[2] + ur[2]) else -1.0
    assert np.allclose(ur, sign * u, rtol=0, atol=1e-6 * np.max(np.abs(u)))
