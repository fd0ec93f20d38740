import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hopfarray.geometry import ResonatorArray, build_graded_array, graded_layout
from oracles import array_violations_pairwise


def test_single_resonator_case():
    arr = build_graded_array(1, 1.0, 1.05, 0.3, -5.0)
    assert arr.n == 1
    assert arr.radius == (1.0,)
    assert arr.center_x[0] > 0  # tangent to the origin, to its right
    assert arr.centers.tolist() == [[1.0, 0.0]]


def test_graded_radii_powers_of_s():
    s = 1.07
    arr = build_graded_array(8, 1.0, s, 0.5, -5.0)
    radii = arr.radii
    assert radii == pytest.approx([s**i for i in range(8)], rel=1e-14)
    ratios = radii[1:] / radii[:-1]
    assert np.allclose(ratios, s, rtol=4e-16, atol=0.0)


def _layout_loop(n, first_radius, s, gap_ratio):
    """The graded layout as a scalar recurrence, one float operation at a time."""
    radii = [float(first_radius)]
    for _ in range(n - 1):
        radii.append(radii[-1] * s)
    centers = [radii[0]]
    for i in range(n - 1):
        centers.append(centers[i] + radii[i] + gap_ratio * radii[i] + radii[i + 1])
    return centers, radii


@given(st.integers(1, 40), st.floats(1e-3, 1e3), st.floats(0.5, 2.0), st.floats(1e-3, 3.0))
@settings(max_examples=200, deadline=None)
def test_graded_layout_matches_scalar_recurrence(n, radius, s, gap_ratio):
    # the accumulations run in the recurrence's order, so the bits agree
    centers, radii = graded_layout(n, radius, s, gap_ratio)
    want_centers, want_radii = _layout_loop(n, radius, s, gap_ratio)
    assert np.array_equal(radii, want_radii) and np.array_equal(centers, want_centers)
    assert np.array_equal(build_graded_array(n, radius, s, gap_ratio, -1.0).centers[:, 0], centers)


def test_uniform_array_when_s_is_one():
    arr = build_graded_array(3, 1.0, 1.0, 0.5, -5.0)
    assert np.all(arr.radii == 1.0)
    gaps = [arr.center_x[i + 1] - arr.center_x[i] - 2.0 for i in range(2)]
    assert gaps == pytest.approx([0.5, 0.5], rel=1e-14)


def test_gap_follows_left_radius():
    arr = build_graded_array(3, 2.0, 1.5, 0.25, -1.0)
    for i in range(2):
        gap = arr.center_x[i + 1] - arr.center_x[i] - arr.radius[i] - arr.radius[i + 1]
        assert gap == pytest.approx(0.25 * arr.radius[i], rel=1e-12)


def test_source_must_be_left_of_first_circle():
    with pytest.raises(ValueError, match="source_x"):
        build_graded_array(2, 1.0, 1.05, 0.5, 0.5)
    with pytest.raises(ValueError):
        build_graded_array(2, 1.0, 1.05, 0.5, 0.0)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"n": 0},
        {"first_radius": 0.0},
        {"first_radius": -1.0},
        {"s": 0.0},
        {"gap_ratio": 0.0},
    ],
)
def test_rejects_nonpositive_parameters(kwargs):
    base = {"n": 2, "first_radius": 1.0, "s": 1.05, "gap_ratio": 0.5, "source_x": -5.0}
    base.update(kwargs)
    with pytest.raises(ValueError):
        build_graded_array(**base)


def test_constructor_detects_overlap():
    arr = build_graded_array(2, 1.0, 1.0, 0.5, -5.0)
    with pytest.raises(ValueError, match="overlap"):
        ResonatorArray(center_x=(0.0, 1.5), radius=(1.0, 1.0), source_x=-5.0)
    assert ResonatorArray(center_x=arr.center_x, radius=arr.radius, source_x=arr.source_x) == arr


def test_constructor_detects_source_inside():
    with pytest.raises(ValueError, match="source") as info:
        ResonatorArray(center_x=(1.0,), radius=(1.0,), source_x=1.0)
    assert "overlap" not in str(info.value)


def test_constructor_rejects_invalid():
    with pytest.raises(ValueError, match="overlap"):
        ResonatorArray(center_x=(0.0, 1.0), radius=(1.0, 1.0), source_x=-5.0)


@pytest.mark.parametrize(
    "kwargs, fragment",
    [
        ({"center_x": (), "radius": ()}, "no resonators"),
        ({"center_x": (3.0, 6.0), "radius": (1.0,)}, "one length"),
        ({"radius": (1.0, 0.0)}, "radius 1 must be positive"),
        ({"radius": (-1.0, 1.0)}, "radius 0 must be positive"),
        ({"radius": (1.0, float("inf"))}, "radius 1 must be positive and finite"),
        ({"radius": (float("nan"), 1.0)}, "radius 0 must be positive and finite"),
        ({"center_x": (3.0, float("nan"))}, "center 1 must be finite"),
        ({"center_x": (6.0, 3.0)}, "resonators 0 and 1 overlap or are out of order"),
        ({"source_x": float("nan")}, "source_x must be finite"),
        ({"source_x": 2.0}, "source (2.0, 0.0) lies inside or on resonator 0"),
    ],
)
def test_constructor_names_each_violation(kwargs, fragment):
    base = {"center_x": (3.0, 6.0), "radius": (1.0, 1.0), "source_x": -5.0}
    with pytest.raises(ValueError, match="invalid resonator array") as info:
        ResonatorArray(**{**base, **kwargs})
    assert fragment in str(info.value)


def test_fields_are_float_tuples():
    arr = ResonatorArray(center_x=np.array([2, 5]), radius=[1, 1.5], source_x=-1)
    assert arr.center_x == (2.0, 5.0) and arr.radius == (1.0, 1.5) and arr.source_x == -1.0
    assert all(type(v) is float for v in (*arr.center_x, *arr.radius, arr.source_x))
    assert hash(arr) == hash(ResonatorArray(center_x=(2.0, 5.0), radius=(1.0, 1.5), source_x=-1.0))
    assert arr.source == (-1.0, 0.0) and arr.n == 2
    assert arr.centers.tolist() == [[2.0, 0.0], [5.0, 0.0]]


@st.composite
def _line_arrays(draw):
    """Circles on a line from drawn radii and neighbour gaps: negative gaps
    overlap, zero and +-1e-15 ones are tangent to rounding, an optional swap
    puts two circles out of order; the source is anywhere, on a circle's left
    end, or inside a circle."""
    n = draw(st.integers(1, 6))
    radius = draw(st.lists(st.floats(1e-3, 10.0), min_size=n, max_size=n))
    gap = st.one_of(st.sampled_from([0.0, 1e-15, -1e-15]), st.floats(-1.0, 5.0))
    gaps = draw(st.lists(gap, min_size=n - 1, max_size=n - 1))
    x = [draw(st.floats(-20.0, 20.0))]
    for i, g in enumerate(gaps):
        x.append(x[-1] + radius[i] + g + radius[i + 1])
    if n > 1 and draw(st.booleans()):
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        x[i], x[j] = x[j], x[i]
    k = draw(st.integers(0, n - 1))
    source = draw(st.one_of(
        st.floats(-200.0, 200.0),
        st.just(x[k] - radius[k]),
        st.floats(-1.0, 1.0).map(lambda t: x[k] + t * radius[k]),
    ))
    return x, radius, source


@given(_line_arrays())
@settings(max_examples=400, deadline=None)
def test_neighbour_check_matches_pairwise_oracle(drawn):
    # x_i + r_i < x_{i+1} - r_{i+1} for neighbours holds for every pair too,
    # in floating point: x - r <= x <= x + r after rounding
    x, radius, source = drawn
    want = array_violations_pairwise(x, radius, source)
    if not want:
        ResonatorArray(center_x=x, radius=radius, source_x=source)
        return
    with pytest.raises(ValueError) as info:
        ResonatorArray(center_x=x, radius=radius, source_x=source)
    message = str(info.value)
    assert any("overlap" in v for v in want) == ("overlap" in message)
    assert any("source" in v for v in want) == ("source" in message)


def test_million_circles_build_in_linear_time():
    # the check is linear in n: a check over every pair would run for days here
    t0 = time.perf_counter()
    arr = build_graded_array(10**6, 1.0, 1.0, 0.5, -5.0)
    elapsed = time.perf_counter() - t0
    assert arr.n == 10**6 and arr.center_x[-1] == 1.0 + 2.5 * (10**6 - 1)
    assert elapsed < 60.0


@given(
    n=st.integers(1, 7),
    radius=st.floats(0.1, 4.0),
    s=st.floats(0.5, 1.8),
    gap_ratio=st.floats(0.05, 2.0),
    margin=st.floats(0.1, 10.0),
)
@settings(max_examples=60, deadline=None)
def test_built_arrays_always_validate(n, radius, s, gap_ratio, margin):
    arr = build_graded_array(n, radius, s, gap_ratio, -margin)
    assert array_violations_pairwise(arr.center_x, arr.radius, arr.source_x) == []
    ratios = arr.radii[1:] / arr.radii[:-1]
    assert np.allclose(ratios, s, rtol=4e-16, atol=0.0)


def _extent(array):
    """Extent of the array along x1, from leftmost to rightmost circle point."""
    return max(array.centers[:, 0] + array.radii) - min(array.centers[:, 0] - array.radii)


@given(
    n=st.integers(1, 6),
    radius=st.floats(0.2, 2.0),
    s=st.floats(0.6, 1.6),
    gap_ratio=st.floats(0.1, 1.5),
)
@settings(max_examples=40, deadline=None)
def test_width_monotone_in_parameters(n, radius, s, gap_ratio):
    w = _extent(build_graded_array(n, radius, s, gap_ratio, -0.1))
    assert _extent(build_graded_array(n + 1, radius, s, gap_ratio, -0.1)) > w
    assert _extent(build_graded_array(n, radius, s * 1.1, gap_ratio, -0.1)) >= w
    if n > 1:
        assert _extent(build_graded_array(n, radius, s, gap_ratio * 1.1, -0.1)) > w


def test_width_single_circle():
    arr = build_graded_array(1, 2.0, 1.05, 0.5, -0.5)
    assert _extent(arr) == pytest.approx(4.0)


def test_largest_index_prefers_lowest_on_ties():
    arr = build_graded_array(3, 1.0, 1.0, 0.5, -5.0)
    assert arr.largest_index() == 0
    graded = build_graded_array(3, 1.0, 1.2, 0.5, -5.0)
    assert graded.largest_index() == 2
