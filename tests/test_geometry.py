import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hopfarray.geometry import Resonator, ResonatorArray, build_graded_array, graded_layout, validate_array


def test_single_resonator_case():
    arr = build_graded_array(1, 1.0, 1.05, 0.3, -5.0)
    assert arr.n == 1
    assert arr.resonators[0].radius == 1.0
    assert arr.resonators[0].center[0] > 0  # tangent to the origin, to its right
    assert arr.resonators[0].center == (1.0, 0.0)


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
    gaps = [
        arr.resonators[i + 1].center[0] - arr.resonators[i].center[0] - 2.0
        for i in range(2)
    ]
    assert gaps == pytest.approx([0.5, 0.5], rel=1e-14)


def test_gap_follows_left_radius():
    arr = build_graded_array(3, 2.0, 1.5, 0.25, -1.0)
    for i in range(2):
        gap = (
            arr.resonators[i + 1].center[0]
            - arr.resonators[i].center[0]
            - arr.resonators[i].radius
            - arr.resonators[i + 1].radius
        )
        assert gap == pytest.approx(0.25 * arr.resonators[i].radius, rel=1e-12)


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


def test_validate_array_detects_overlap():
    arr = build_graded_array(2, 1.0, 1.0, 0.5, -5.0)
    bad = ResonatorArray.__new__(ResonatorArray)
    object.__setattr__(bad, "resonators", (
        Resonator(center=(0.0, 0.0), radius=1.0),
        Resonator(center=(1.5, 0.0), radius=1.0),
    ))
    object.__setattr__(bad, "source", (-5.0, 0.0))
    object.__setattr__(bad, "grading_factor", 1.0)
    violations = validate_array(bad)
    assert len(violations) == 1
    assert "overlap" in violations[0]
    assert validate_array(arr) == []


def test_validate_array_detects_source_inside():
    bad = ResonatorArray.__new__(ResonatorArray)
    object.__setattr__(bad, "resonators", (Resonator(center=(1.0, 0.0), radius=1.0),))
    object.__setattr__(bad, "source", (1.0, 0.0))
    object.__setattr__(bad, "grading_factor", 1.0)
    violations = validate_array(bad)
    assert len(violations) == 1
    assert "source" in violations[0]


def test_constructor_rejects_invalid():
    with pytest.raises(ValueError, match="overlap"):
        ResonatorArray(
            resonators=(
                Resonator(center=(0.0, 0.0), radius=1.0),
                Resonator(center=(1.0, 0.0), radius=1.0),
            ),
            source=(-5.0, 0.0),
        )


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
    assert validate_array(arr) == []
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
