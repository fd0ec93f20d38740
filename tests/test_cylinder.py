import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hopfarray
from hopfarray.boundary import WaveParams
from hopfarray.cylinder import (
    HankelPanels,
    bessel_j,
    bessel_j_orders,
    bessel_j_prime_orders,
    hankel1,
    hankel1_orders,
    hankel1_prime_orders,
)
from hopfarray.geometry import build_graded_array
from hopfarray.quadrature import default_spec
from hopfarray.spectral import _default_search, single_disk_resonance
from oracles import bessel_j_series, bessel_y0_series, hankel1_0_series

# values frozen from the series oracles (verified below)
J1_AT_1 = 0.4400505857449335
H0_AT_1 = 0.7651976865579666 + 0.08825696421567696j


def test_j0_at_zero_is_one():
    assert bessel_j(0, 0.0) == 1.0


def test_jn_at_zero_vanishes():
    for n in (1, 2, 5, -3):
        assert bessel_j(n, 0.0) == 0.0


def test_j1_at_one_matches_series_oracle():
    oracle = bessel_j_series(1, 1.0)
    assert oracle == pytest.approx(J1_AT_1, rel=1e-14)
    assert bessel_j(1, 1.0) == pytest.approx(oracle, rel=1e-10)


def test_h0_at_one_matches_series_oracle():
    oracle = hankel1_0_series(1.0)
    assert oracle == pytest.approx(H0_AT_1, rel=1e-12)
    assert hankel1(0, 1.0) == pytest.approx(oracle, rel=1e-10)


def test_hankel_asymptotic_modulus():
    # |H_0(z)| ~ sqrt(2 / (pi z)) for large real z, within 1% at z = 50
    z = 50.0
    assert abs(hankel1(0, z)) == pytest.approx(np.sqrt(2.0 / (np.pi * z)), rel=0.01)


def test_negative_order_reflection():
    zs = [0.5, 2.0 + 0.3j, 7.0 - 1.0j]
    for z in zs:
        for n in (1, 2, 3, 6):
            assert hankel1(-n, z) == pytest.approx((-1) ** n * hankel1(n, z), rel=1e-14)
            assert bessel_j(-n, z) == pytest.approx((-1) ** n * bessel_j(n, z), rel=1e-14)


def test_series_agreement_complex_arguments():
    rng = np.random.default_rng(1)
    for _ in range(25):
        n = int(rng.integers(0, 12))
        z = complex(rng.uniform(-8, 8), rng.uniform(-4, 4))
        if abs(z) < 1e-3:
            continue
        assert bessel_j(n, z) == pytest.approx(bessel_j_series(n, z), rel=1e-10)
    for _ in range(10):
        z = complex(rng.uniform(0.05, 4.0), rng.uniform(-1.5, 1.5))
        assert hankel1(0, z) == pytest.approx(
            bessel_j_series(0, z) + 1j * bessel_y0_series(z), rel=1e-9
        )


@given(
    re=st.floats(0.05, 40.0),
    im=st.floats(-5.0, 5.0),
    n=st.integers(0, 20),
)
@settings(max_examples=80, deadline=None)
def test_wronskian_identity(re, im, n):
    # J_{n+1} H_n - J_n H_{n+1} = 2i / (pi z)
    z = complex(re, im)
    lhs = bessel_j(n + 1, z) * hankel1(n, z) - bessel_j(n, z) * hankel1(n + 1, z)
    rhs = 2j / (np.pi * z)
    assert lhs == pytest.approx(rhs, rel=1e-8)


@given(
    re=st.floats(0.1, 30.0),
    im=st.floats(-3.0, 3.0),
    n=st.integers(-10, 10),
)
@settings(max_examples=80, deadline=None)
def test_three_term_recurrence(re, im, n):
    z = complex(re, im)
    for fn in (bessel_j, hankel1):
        lhs = fn(n - 1, z) + fn(n + 1, z)
        rhs = (2.0 * n / z) * fn(n, z)
        scale = max(abs(lhs), abs(rhs), abs(fn(n, z)))
        assert abs(lhs - rhs) <= 1e-8 * max(scale, 1e-30)


def test_hankel_rejects_zero():
    with pytest.raises(ValueError, match="singular"):
        hankel1(0, 0.0)


def test_out_of_range_argument_rejected():
    with pytest.raises(ValueError, match="exceeds"):
        bessel_j(0, 1e9)
    with pytest.raises(ValueError, match="exceeds"):
        hankel1(2, 1e10 + 0j)


def test_non_integer_order_rejected():
    with pytest.raises(ValueError, match="integer"):
        bessel_j(0.5, 1.0)


def test_vectorized_orders_match_scalars():
    orders = np.arange(-6, 7)
    for z in (1.3 - 0.4j, 25.0 + 1.0j):  # a scalar on each side of |z| = 20
        jv = bessel_j_orders(orders, z)
        hv = hankel1_orders(orders, z)
        for i, n in enumerate(orders):
            assert jv[i] == pytest.approx(bessel_j(int(n), z), rel=1e-14)
            assert hv[i] == pytest.approx(hankel1(int(n), z), rel=1e-14)


def test_orders_at_zero():
    orders = np.arange(-6, 7)
    assert np.array_equal(bessel_j_orders(orders, 0.0), (orders == 0).astype(complex))
    assert np.array_equal(bessel_j_prime_orders(orders, 0.0), 0.5 * (orders == 1) - 0.5 * (orders == -1))


@pytest.mark.parametrize("size, nmax", [(1e-4, 30), (1e-12, 20), (1e-29, 8)])
def test_j_orders_at_small_argument(size, nmax):
    # J_30(1e-4) is about 3.5e-162, and no order underflows; at 1e-12 and
    # 1e-29 the backward recurrence passes 2^300 and rescales
    orders = np.arange(-nmax, nmax + 1)
    zs = size * np.exp(1j * np.array([0.0, 0.03, -0.05, 1.0]))
    got = bessel_j_orders(orders[:, None], zs[None, :])
    want = np.array([[bessel_j(int(n), z) for z in zs] for n in orders])
    assert np.abs(want).min() < 1e-160
    assert np.max(np.abs(got - want) / np.abs(want)) <= 1e-12


def test_j_table_entries_depend_on_their_own_argument():
    # one start order and one rescaling per point: a large array gets the
    # same bits as each of its points alone
    rng = np.random.default_rng(7)
    zs = np.concatenate([
        10.0 ** rng.uniform(-4, np.log10(5), 150) * np.exp(0.05j * rng.uniform(-1, 1, 150)),
        rng.uniform(-50, 50, 150) + 1j * rng.uniform(-5, 5, 150),
        [0.0, 1e-40, 1e-12, 1e-4, 3.0 - 0.4j, 49.0],
    ])
    orders = np.arange(-31, 32)
    whole = bessel_j_orders(orders[:, None], zs[None, :])
    alone = np.stack([bessel_j_orders(orders, z) for z in zs], axis=1)
    assert np.array_equal(whole, alone)


def test_j_orders_leave_scipy_special_unloaded():
    code = ("import sys; from hopfarray.cylinder import HankelPanels, bessel_j_orders, bessel_j_prime_orders,"
            " hankel1_orders, hankel1_prime_orders; from hopfarray.boundary import WaveParams; "
            "from hopfarray.spectral import single_disk_resonance; "
            "bessel_j_orders([[0], [3], [-5]], [0.5, 2.0 - 0.1j]); bessel_j_prime_orders([1], 0.3); "
            "hankel1_orders([[0], [3], [-5]], [0.5, 2.0 - 0.1j, 30.0]); hankel1_prime_orders([1], 0.3); "
            "HankelPanels([0.05, 0.1 - 0.01j], 1.0).orders(5, [1.0, 7.0, 3e4]); "
            "single_disk_resonance(1.0, WaveParams(v=1.0, v_b=1.0, delta=1e-3)); "
            "print([m for m in ('scipy', 'scipy.special') if m in sys.modules])")
    env = dict(os.environ, PYTHONPATH=str(Path(hopfarray.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          timeout=60, check=True)
    assert proc.stdout.split() == ["[]"]


@pytest.mark.parametrize("direction", [0.0, 0.2, -0.2, np.pi - 0.2, np.pi],
                         ids=["real", "above", "below", "left-above", "left"])
def test_hankel_continuous_across_asymptotic_threshold(direction):
    # Neumann's expansion below |z| = 20 and Hankel's from 20 up, at the two
    # floats on either side of 20 along rays of the supported range
    # (|Im z| <= 5): the jump is the Neumann side's error, that of the J
    # table (about 6e-14 on the real axis), which Im z > 0 amplifies
    zs = np.array([np.nextafter(20.0, 0.0), 20.0]) * np.exp(1j * direction)
    h = hankel1_orders(np.array([[0], [1]]), zs[None, :])
    assert np.max(np.abs(h[:, 0] - h[:, 1]) / np.abs(h[:, 1])) <= 1e-11
    want = np.array([[hankel1(n, z) for z in zs] for n in (0, 1)])
    assert np.max(np.abs(h - want) / np.abs(want)) <= 1e-11


_ORDERS = np.arange(-30, 31)


def _orders_error(zs) -> float:
    """Worst relative error of the four *_orders functions over |n| <= 30
    and the points zs (broadcast as orders x points) against scalar AMOS."""
    zs = np.asarray(zs, dtype=complex)
    worst = 0.0
    for vec, prime, scalar in (
        (bessel_j_orders, bessel_j_prime_orders, bessel_j),
        (hankel1_orders, hankel1_prime_orders, hankel1),
    ):
        ref = np.array([[scalar(int(n), z) for z in zs] for n in range(-31, 32)])
        ref_prime = 0.5 * (ref[:-2] - ref[2:])
        for got, want in (
            (vec(_ORDERS[:, None], zs[None, :]), ref[1:-1]),
            (prime(_ORDERS[:, None], zs[None, :]), ref_prime),
        ):
            worst = max(worst, float(np.max(np.abs(got - want) / np.abs(want))))
    return worst


@given(
    st.lists(
        st.tuples(st.floats(-4.0, np.log10(5.0)), st.floats(-0.05, 0.05)),
        min_size=1,
        max_size=3,
    )
)
@settings(max_examples=60, deadline=None)
def test_orders_match_scalars_in_program_band(points):
    # 1e-4 <= |z| <= 5 and |Im z| <= 0.05 |z|: the arguments k r and k b of
    # the boundary system and the field evaluation
    zs = [10.0**lg * complex(np.sqrt(1.0 - t * t), t) for lg, t in points]
    assert _orders_error(zs) <= 1e-12


@given(
    st.lists(
        st.tuples(st.floats(-50.0, 50.0), st.floats(-5.0, 5.0)),
        min_size=1,
        max_size=3,
    ).filter(lambda pts: all(1e-4 <= abs(complex(*p)) <= 50.0 for p in pts))
)
@settings(max_examples=60, deadline=None)
def test_orders_match_scalars_on_supported_range(points):
    assert _orders_error([complex(*p) for p in points]) <= 5e-10


@pytest.mark.parametrize("n", [1, 6, 22])
def test_hankel_panels_match_amos(n):
    # k over the search window, r from just inside each circle to the far
    # corners of the quadrature box and the source, against AMOS point by point
    from scipy import special

    array = build_graded_array(n, 1.0, 1.05, 0.5, -5.0)
    params = WaveParams(v=1.0, v_b=1.0, delta=1e-3)
    seeds = [single_disk_resonance(r, params) for r in array.radii]
    window = _default_search(seeds)
    re, im = np.meshgrid(np.linspace(*window["re"], 4), np.linspace(*window["im"], 3))
    k = (re + 1j * im).ravel() / params.v
    x0, x1, y0, y1 = default_spec(array)
    far = np.array([[x0, y0], [x0, y1], [x1, y0], [x1, y1], array.source])
    rng = np.random.default_rng(n)
    for center, radius in zip(array.centers, array.radii):
        r_max = np.hypot(*(far - center).T).max()
        r = np.concatenate([radius * np.array([1 - 1e-12, 1.0]), [r_max],
                            np.exp(rng.uniform(np.log(radius), np.log(r_max), 300))])
        table = HankelPanels(k, radius).orders(1, r)
        for order in (0, 1):
            want = special.hankel1(order, k[:, None] * r)
            assert np.max(np.abs(table[order] - want) / np.abs(want)) <= 1e-12


def test_hankel_panels_match_amos_far_away():
    # |k| r from 1e5 to 1e6 (a point some 1e7 radii out): Hankel's expansion
    # at the Chebyshev points, on panels of 2 rad, against AMOS point by point.
    # The rounding of log2(r) alone moves |k| r by about 1e-9 rad here
    from scipy import special

    k = np.array([0.05, 0.05 - 1e-9j, 0.1 + 1e-9j])
    r = np.concatenate([[2e6, 1e7], np.exp(np.random.default_rng(3).uniform(np.log(2e6), np.log(1e7), 50))])
    table = HankelPanels(k, 1.0).orders(1, r)
    for order in (0, 1):
        want = special.hankel1(order, k[:, None] * r)
        assert np.max(np.abs(table[order] - want) / np.abs(want)) <= 1e-8
