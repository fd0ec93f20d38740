"""The config schema: every field's kind, bound and default come from one
table in `hopfarray.cli`, and every rejection names its field."""

import json
import math
import re
import sys
import warnings
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, example, given, reject, settings
from hypothesis import strategies as st

from hopfarray.cli import (
    _COLLISION_FLOOR, _FIELDS, _REQUIRED, ConfigError, main, parse_config,
    run_experiment,
)
from hopfarray.geometry import classify_points, graded_layout
from hopfarray.quadrature import (
    EXT_ORDER, MAX_EXTERIOR_NODES, RING_COUNTS, collar_half_widths, default_spec,
)

from test_cli import _config

BLOCKS = ("geometry", "material", "numerics", "experiment")
(TYPES,) = (bound for _, key, _, bound, _ in _FIELDS if key == "type")
RANGES = {"sweep": ("omega_min", "omega_max"), "phase": ("omega_min", "omega_max"),
          "twotone": ("omega2_min", "omega2_max")}
NAN, INF = math.nan, math.inf


def rows_of(etype):
    """(object, key, kind, bound, default) of every field a config of this
    experiment type takes; an experiment type's keys sit in "experiment"."""
    return [("experiment" if block == etype else block, key, kind, bound, default)
            for block, key, kind, bound, default in _FIELDS if block in (*BLOCKS, etype)]


# ---------------------------------------------------------------------------
# configs drawn from the table
# ---------------------------------------------------------------------------
_POSITIVE = (st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
             | st.integers(1, 10**12))
_SIGNED = {
    "positive": _POSITIVE,
    "negative": _POSITIVE.map(lambda x: -x),
    "nonnegative": _POSITIVE | st.sampled_from([0, 0.0]),
    None: st.floats(allow_nan=False, allow_infinity=False) | st.integers(-10**12, 10**12),
}


def _valid(kind, bound, default):
    if kind == "integer":
        values = st.integers(bound, bound + 10**6)
    elif kind == "number":
        values = _SIGNED[bound]
    elif kind == "numbers":
        values = st.lists(_SIGNED[bound[0]], min_size=bound[1], max_size=4)
    elif kind == "enum":
        values = st.sampled_from(bound)
    else:  # pairs
        values = st.lists(st.lists(_SIGNED[None], min_size=2, max_size=2), min_size=1, max_size=3)
    return st.none() | values if default is None else values


# The table's draws of n (up to 10**6), of a mode key (n is raised to it),
# of panel_size (any positive float) and of any positive s, radius, gap
# ratio and source distance mostly give layouts past the float range or
# exterior rules past MAX_EXTERIOR_NODES. Four configs in five take these
# instead: with n and every mode key at most 24 and s within 1e-5 of 1, the
# layout is valid, a given panel_size (_buildable_panel) keeps the rule
# within the bound, and the parsed values are checked.
_IN_RANGE_GEOMETRY = st.fixed_dictionaries({
    "n": st.integers(1, 24),
    "first_radius": st.floats(0.01, 100.0) | st.integers(1, 100),
    "s": st.floats(1.0 - 1e-5, 1.0 + 1e-5) | st.just(1),
    "gap_ratio": st.floats(0.01, 10.0) | st.integers(1, 10),
    "source_x": st.floats(-100.0, -0.01) | st.integers(-100, -1),
})
_MODE_KEYS = ("mode_ref", "Omega1_mode", "mode_index")


def _buildable_panel(geo):
    """panel_size draws from 1/100 of the extent of the circles and the
    source along x2 = 0 up to all of it."""
    x, radii = graded_layout(*(geo[k] for k in ("n", "first_radius", "s", "gap_ratio")))
    extent = float(max((x + radii).max(), 0.0) - min((x - radii).min(), geo["source_x"]))
    return (st.floats(0.01, 1.0).map(lambda f: f * extent)
            | st.integers(max(1, math.ceil(extent / 100)), max(1, math.ceil(extent))))


def _object(rows):
    required = {key: _valid(*rest) for _, key, *rest in rows if rest[-1] is _REQUIRED}
    optional = {key: _valid(*rest) for _, key, *rest in rows if rest[-1] is not _REQUIRED}
    return st.fixed_dictionaries(required, optional=optional)


def _enough_modes(cfg):
    """geometry.n raised to the largest mode a key of the experiment picks,
    given or by default, since the search finds exactly n modes."""
    exp = cfg["experiment"]
    for _, key, _, _, default in rows_of(exp["type"]):
        if key in _MODE_KEYS and exp.get(key, default) is not None:
            cfg["geometry"]["n"] = max(cfg["geometry"]["n"], exp.get(key, default))
    return cfg


@st.composite
def configs(draw, etype=None):
    etype = etype or draw(st.sampled_from(TYPES))
    rows = rows_of(etype)
    cfg = {name: draw(_object([r for r in rows if r[0] == name])) for name in BLOCKS}
    in_range = draw(st.sampled_from((True, True, True, True, False)))  # one in five keeps the wide draws
    if in_range:
        cfg["geometry"].update(draw(_IN_RANGE_GEOMETRY))
        for key in _MODE_KEYS:
            if cfg["experiment"].get(key) is not None:
                cfg["experiment"][key] = draw(st.integers(1, 24))
    cfg["experiment"]["type"] = etype
    _enough_modes(cfg)
    if in_range and "panel_size" in cfg["numerics"]:
        cfg["numerics"]["panel_size"] = draw(_buildable_panel(cfg["geometry"]))
    if etype in RANGES:
        lo, hi = (cfg["experiment"].get(k) for k in RANGES[etype])
        assume(lo is None or hi is None or lo < hi)
    if cfg["experiment"].get("observation_points"):  # a point on a circle is invalid
        x, radii = graded_layout(*(cfg["geometry"][k] for k in ("n", "first_radius", "s", "gap_ratio")))
        centers = np.stack([x, np.zeros_like(x)], axis=1)
        try:
            with np.errstate(all="ignore"):  # points near the float range
                classify_points(centers, radii, np.array(cfg["experiment"]["observation_points"], dtype=float))
        except ValueError:
            reject()
    if not cfg["numerics"] and draw(st.booleans()):
        del cfg["numerics"]  # the numerics object may be left out
    return cfg


def _typed(value):
    """value with the Python type of every scalar, so 1 and 1.0 differ."""
    if isinstance(value, dict):
        return {k: _typed(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_typed(v) for v in value]
    return type(value), value


@settings(max_examples=150, deadline=None)
@given(configs())
# circles and a source whose quadrature box is past the float range, which the draws miss
@example({"geometry": {"n": 1, "first_radius": 5e307, "s": 1.0, "gap_ratio": 0.5, "source_x": -5e307},
          "material": {"v": 1.0, "v_b": 1.0, "delta": 1e-3, "beta": 5e5}, "numerics": {},
          "experiment": {"type": "resonances"}})
def test_valid_config_parses_to_drawn_values_and_defaults(cfg):
    try:
        parsed = parse_config(json.dumps(cfg))
    except ConfigError as exc:
        _assert_rejection_holds(cfg, str(exc))
        return
    source_x, r0 = float(cfg["geometry"]["source_x"]), float(cfg["geometry"]["first_radius"])
    assert abs(abs(source_x - r0) - r0) > 1e-12 * max(r0, 1.0)  # circle 0 is centered at r0
    want = {name: {} for name in BLOCKS}
    for name, key, _, _, default in rows_of(cfg["experiment"]["type"]):
        want[name][key] = cfg.get(name, {}).get(key, default)
    geo, array = want.pop("geometry"), parsed.array
    x, radii = graded_layout(*(geo[k] for k in ("n", "first_radius", "s", "gap_ratio")))
    assert np.array_equal(array.centers[:, 0], x) and np.array_equal(array.radii, radii)
    assert array.source_x == geo["source_x"]
    # the rules' box is symmetric about x2 = 0 and strictly holds every circle and the source
    x0, x1, y0, y1 = default_spec(array)
    assert y0 == -y1 and x0 < array.source_x < x1
    assert np.all((x0 < x - radii) & (x + radii < x1) & (radii < y1))
    p = parsed.params
    got = {"material": {"v": p.v, "v_b": p.v_b, "delta": p.delta, "beta": parsed.beta},
           "numerics": {"multipole_order": parsed.M, "panel_size": parsed.panel_size},
           "experiment": parsed.experiment}
    assert _typed(got) == _typed(want)  # an int stays an int, as the cache request reads it


def _assert_rejection_holds(cfg, message):
    """Each way a config of values within their bounds can still be invalid,
    checked against the drawn values: a grading that carries a radius past
    the float range, a source within 1e-12 * max(r, 1) of a circle (such as
    -5e-324 of circle 0), circles and a source whose quadrature box (their
    tight box padded by a quarter of its diagonal) is past the float range,
    or a grid the config fixes (given ends, or ends around a given Omega1)
    that is not finite and strictly increasing, or that the collision floor
    empties. A grid's error names its given upper end, else its given lower
    end, else Omega1."""
    geo, exp = cfg["geometry"], cfg["experiment"]
    if message.startswith("geometry.source_x: "):  # circle 0, or a huge one that ends near it
        centers, radii = graded_layout(*(geo[k] for k in ("n", "first_radius", "s", "gap_ratio")))
        assert any(abs(abs(geo["source_x"] - c) - r) <= 1e-12 * max(r, 1.0)
                   for c, r in zip(centers.tolist(), radii.tolist()))
    elif message.startswith("geometry.first_radius, geometry.source_x: "):
        centers, radii = graded_layout(*(geo[k] for k in ("n", "first_radius", "s", "gap_ratio")))
        pairs = list(zip(centers.tolist(), radii.tolist()))  # Python floats overflow to inf
        xs = [c - r for c, r in pairs] + [c + r for c, r in pairs] + [geo["source_x"]]
        r_max = float(radii.max())
        pad = 0.25 * math.hypot(max(xs) - min(xs), 2.0 * r_max)
        assert not all(map(math.isfinite, (min(xs) - pad, max(xs) + pad, r_max + pad)))
        assert message.endswith(" is not finite")
    elif message.startswith("geometry.first_radius, geometry.s, geometry.gap_ratio: "):
        # a circle or a gap so small that a fraction of it, the collar's slack, rounds to 0
        centers, radii = graded_layout(*(geo[k] for k in ("n", "first_radius", "s", "gap_ratio")))
        step = np.diff(centers)  # each gap in both orders of subtraction, as the collars take it
        gaps = np.r_[step - radii[1:] - radii[:-1], step - radii[:-1] - radii[1:]]
        assert (0.5 * radii == 0).any() or (0.45 * gaps <= 0).any()
        assert re.search(r" leaves no room for a collar around resonator \d+$", message)
    elif message.startswith("numerics.panel_size: "):
        count = _exterior_nodes(cfg)
        assert count > MAX_EXTERIOR_NODES
        held = f"{count:.3g}" if count < INF else "more than 1.8e+308"
        assert f" would hold {held} nodes, past the bound of {MAX_EXTERIOR_NODES}" in message
    elif message.startswith("experiment."):
        lo_key, hi_key = RANGES[exp["type"]]
        omega1 = exp.get("Omega1")  # given whenever an end is not
        lo = exp.get(lo_key) if exp.get(lo_key) is not None else 0.9 * omega1
        hi = exp.get(hi_key) if exp.get(hi_key) is not None else 1.1 * omega1
        (num_points,) = (exp.get(key, default) for _, key, _, _, default in rows_of(exp["type"])
                         if key == "num_points")
        with np.errstate(all="ignore"):
            grid = np.linspace(lo, hi, num_points)
        if message.startswith("experiment.omega2_min/omega2_max: "):  # around a given Omega1
            assert not (np.abs(grid - omega1) > _COLLISION_FLOOR * omega1).any()
            return
        key = next((k for k in (hi_key, lo_key) if exp.get(k) is not None), "Omega1")
        assert message.startswith(f"experiment.{key}: ")
        if "must be below" in message:  # such as both defaults at Omega1 = 5e-324
            assert not lo < hi
        else:  # such as 1.1 x Omega1 at Omega1 = 1.7e308, or 120 points between adjacent floats
            assert message.endswith(" are not finite and strictly increasing")
            assert not (math.isfinite(hi) and np.all(np.diff(grid) > 0))
    else:
        assert message.startswith("geometry.n, geometry.s: ")


def _exterior_nodes(cfg):
    """The exterior rule's nodes at the config's box and panel_size, counted
    as the nodes with x2 >= 0 of the rule over the whole box: per collar, 10
    radial x 12 angular nodes on each of 4 faces; per strip between collars,
    order-8 panels at most panel_size long on each side; per strip above or
    below a collar, the same from the collar to the box. A strip no wider
    than 1e-12 holds none."""
    geo = cfg["geometry"]
    centers, radii = graded_layout(*(geo[k] for k in ("n", "first_radius", "s", "gap_ratio")))
    # the arrays default_spec and collar_half_widths read, without a second validation
    array = SimpleNamespace(centers=np.stack([centers, np.zeros_like(centers)], axis=1),
                            radii=radii, source=(geo["source_x"], 0.0))
    box, panel_size = default_spec(array), cfg.get("numerics", {}).get("panel_size", 2.5)
    assert (EXT_ORDER, RING_COUNTS) == (8, (10, 12))
    x0, x1, _, y1 = box
    widths = collar_half_widths(array, box)
    edges = np.concatenate([[x0], np.ravel([centers - widths, centers + widths], order="F"), [x1]])
    kept = np.diff(edges) > 1e-12
    kept[1::2] &= y1 - widths > 1e-12
    with np.errstate(over="ignore", invalid="ignore"):
        y_panels = np.full(len(kept), np.ceil(2.0 * y1 / panel_size))
        y_panels[1::2] = 2.0 * np.ceil((y1 - widths) / panel_size)
        nodes = np.where(kept, 8 * np.ceil(np.diff(edges) / panel_size) * 8 * y_panels, 0.0)
        return (4 * 10 * 12 * len(radii) + float(nodes.sum())) / 2


def _bad_values(kind, bound, default):
    """Values the row must reject: non-finite, bool, wrong type, out of bound."""
    bad = [NAN, INF, -INF, True, False, "1", {"x": 1}]
    bad += [] if default is None else [None]
    if kind == "integer":
        bad += [bound - 1, float(bound)]
    elif kind == "number":
        bad += [[1.0], 10**400] + {"positive": [0, 0.0, -2.5], "nonnegative": [-1, -1e-300],
                                   "negative": [0, 0.0, 3], None: []}[bound]
    elif kind == "numbers":
        sign, fewest = bound
        bad += [1.0, [NAN], [INF], [-INF], [True], [None], ["1"], [1.0, [1.0]]]
        bad += {"positive": [[0.0], [1.0, -1]], "nonnegative": [[-1e-300]]}[sign]
        bad += [[]] if fewest else []
    elif kind == "enum":
        bad += ["wibble", 1, list(bound[:1])]
    else:  # pairs
        bad += [[], [1.0, 2.0], [[1.0]], [[1.0, 2.0, 3.0]], [[NAN, 0.0]], [[0.0, -INF]],
                [[0.0, True]], [[0.0, "1"]], [[0.0, None]]]
    return bad


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(_FIELDS), st.data())
def test_one_bad_field_is_named(row, data):
    block, key, kind, bound, default = row
    cfg = data.draw(configs(block if block in TYPES else None))
    name = "experiment" if block in TYPES else block
    cfg.setdefault(name, {})[key] = data.draw(st.sampled_from(_bad_values(kind, bound, default)))
    with pytest.raises(ConfigError) as err:
        parse_config(json.dumps(cfg))
    assert str(err.value).startswith(f"{name}.{key}:")


@settings(max_examples=40, deadline=None)
@given(configs(), st.sampled_from(BLOCKS + ("config",)))
def test_unknown_key_is_named(cfg, name):
    (cfg if name == "config" else cfg.setdefault(name, {}))["wibble"] = 1.0
    with pytest.raises(ConfigError, match=rf"^{name}\.wibble: unknown key"):
        parse_config(json.dumps(cfg))


# ---------------------------------------------------------------------------
# named cases
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("etype, block, key, value", [
    ("oracle", "geometry", "source_x", -INF),
    ("oracle", "material", "beta", NAN),
    ("oracle", "experiment", "F_values", [INF]),
    ("phase", "experiment", "observation_points", [[0.0, 1.0], [2.0, NAN]]),
])
def test_validate_rejects_non_finite_numbers(tmp_path, capsys, etype, block, key, value):
    cfg = _config(experiment={"type": etype})
    cfg[block][key] = value
    path = tmp_path / "c.json"
    path.write_text(json.dumps(cfg))  # Python's json writes and reads NaN and Infinity
    assert main(["validate", "--config", str(path)]) == 1
    assert capsys.readouterr().err.startswith(f"error: {block}.{key}: ")


@pytest.mark.parametrize("s, violation", [
    (2.0, "radius 1024 must be positive and finite, got inf"),  # overflows
    (0.5, "radius 1075 must be positive and finite, got 0.0"),  # underflows
])
def test_validate_names_a_grading_past_the_float_range(tmp_path, capsys, s, violation):
    # every key is within its own bounds; only the layout they make is invalid
    cfg = _config(geometry={"n": 1100, "s": s})
    with pytest.raises(ConfigError, match=re.escape(violation)):
        parse_config(json.dumps(cfg))
    path = tmp_path / "c.json"
    path.write_text(json.dumps(cfg))
    assert main(["validate", "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: geometry.n, geometry.s: 1100 circles of first radius 1.0 "
                          f"graded by s = {s} with gap ratio 0.5 do not form a valid array: ")


def test_parse_near_the_float_range_warns_nothing():
    # the quadrature box's diagonal overflows (at -1.7e308 the source's
    # distance to the circle too), or at 1e308 the circle's right edge;
    # only the verdict may show
    for r0, source_x in ((5e307, -5e307), (5e307, -1.2e308), (5e307, -1.7e308), (1e308, -1e300)):
        geometry = {"n": 1, "first_radius": r0, "s": 1.0, "gap_ratio": 0.5, "source_x": source_x}
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConfigError, match=r"^geometry\.first_radius, geometry\.source_x: "
                                                  r".* box \(-inf, inf, -inf, inf\) is not finite$"):
                parse_config(json.dumps(_config(geometry=geometry)))
    # 7 x the step to omega_max overflows, but linspace ends the grid at omega_max itself
    experiment = {"type": "phase", "omega_min": 1.0, "omega_max": sys.float_info.max, "num_points": 8}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert parse_config(json.dumps(_config(experiment=experiment))).experiment == experiment | {
            "F": 1e-6, "observation_points": None, "phase_reference": "velocity"}


@pytest.mark.parametrize("source_x", [-5e307, -1.2e308])
def test_validate_rejects_a_quadrature_box_past_the_float_range(tmp_path, capsys, source_x):
    geometry = {"n": 1, "first_radius": 5e307, "s": 1.0, "gap_ratio": 0.5, "source_x": source_x}
    path = tmp_path / "c.json"
    path.write_text(json.dumps(_config(geometry=geometry)))
    assert main(["validate", "--config", str(path)]) == 1
    assert capsys.readouterr().err == (
        "error: geometry.first_radius, geometry.source_x: the quadrature box around the circles and"
        " the source is past the float range: box (-inf, inf, -inf, inf) is not finite\n")


@pytest.mark.parametrize("geometry, numerics, held", [
    ({"n": 1, "source_x": -1.2e308}, {}, "more than 1.8e+308"),
    ({"n": 1, "source_x": -1e12}, {}, "3.84e+24"),
    ({"n": 6, "s": 1.05}, {"panel_size": 1e-300}, "more than 1.8e+308"),  # the README's array
])
def test_validate_rejects_an_exterior_rule_past_its_node_bound(tmp_path, capsys, geometry, numerics,
                                                               held):
    # the box is finite, but a run would fail to allocate the rule's nodes
    cfg = _config(geometry=geometry, numerics=numerics)
    path = tmp_path / "c.json"
    path.write_text(json.dumps(cfg))
    assert main(["validate", "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: numerics.panel_size: the exterior rule over the box (")
    assert err.endswith(f" would hold {held} nodes, past the bound of {MAX_EXTERIOR_NODES}\n")
    _assert_rejection_holds(cfg, err.removeprefix("error: ").removesuffix("\n"))


def test_validate_rejects_a_circle_too_small_for_a_collar(tmp_path, capsys):
    # radius 1 is 5e-324, so half of it, the collar's room, rounds to 0
    cfg = _config(geometry={"s": 5e-324, "gap_ratio": 1.0, "source_x": -1.0})
    path = tmp_path / "c.json"
    path.write_text(json.dumps(cfg))
    assert main(["validate", "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert err == ("error: geometry.first_radius, geometry.s, geometry.gap_ratio: box (-2.118033988749895,"
                   " 4.118033988749895, -2.118033988749895, 2.118033988749895) leaves no room for a"
                   " collar around resonator 1\n")
    _assert_rejection_holds(cfg, err.removeprefix("error: ").removesuffix("\n"))


# circle 0 of the two-disk array touches the origin, and a point within
# 1e-12 * max(r, 1) of a circle is on it by the rule every field evaluation applies
def test_source_within_the_on_circle_tolerance_is_rejected_when_read(tmp_path, capsys):
    cfg = _config(geometry={"s": 1.05, "source_x": -1e-13})
    with pytest.raises(ConfigError, match=r"^geometry\.source_x: "):
        parse_config(json.dumps(cfg))
    path = tmp_path / "c.json"
    path.write_text(json.dumps(cfg))
    assert main(["validate", "--config", str(path)]) == 1
    assert capsys.readouterr().err.startswith("error: geometry.source_x: ")


def test_source_just_past_the_on_circle_tolerance_parses():
    array = parse_config(json.dumps(_config(geometry={"s": 1.05, "source_x": -2e-12}))).array
    assert classify_points(array.centers, array.radii, np.array([array.source])).tolist() == [-1]


@pytest.mark.parametrize("block, key, value", [
    ("geometry", "n", True),
    ("numerics", "multipole_order", True),
    ("experiment", "mode_ref", True),
    ("material", "delta", True),
    ("experiment", "F_values", [True]),
])
def test_parse_rejects_bools_for_numbers(block, key, value):
    cfg = _config(experiment={"type": "sweep"})
    cfg.setdefault(block, {})[key] = value
    with pytest.raises(ConfigError, match=rf"^{block}\.{key}: "):
        parse_config(json.dumps(cfg))


@pytest.mark.parametrize("block, value", [("geometry", [1]), ("numerics", None),
                                          ("experiment", [])])
def test_validate_names_a_block_that_is_not_an_object(tmp_path, capsys, block, value):
    cfg = _config()
    cfg[block] = value
    path = tmp_path / "c.json"
    path.write_text(json.dumps(cfg))
    assert main(["validate", "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {block}: must be a JSON object")
    assert "Traceback" not in err


@pytest.mark.parametrize("block, key, value", [
    ("geometry", "n", 6),  # read first, so the last value, n = 2, would win silently
    (None, "experiment", {"type": "oracle"}),  # a whole block given twice
])
def test_validate_rejects_a_key_given_twice(tmp_path, capsys, block, key, value):
    cfg = _config()
    obj = json.dumps(cfg if block is None else cfg[block])
    twice = f"{{{json.dumps(key)}: {json.dumps(value)}, {obj[1:]}"  # the key, then the object's own keys
    text = twice if block is None else json.dumps(cfg).replace(obj, twice)
    want = f"config: key {key!r} given twice in one object"
    with pytest.raises(ConfigError, match=f"^{re.escape(want)}$"):
        parse_config(text)
    path = tmp_path / "c.json"
    path.write_text(text)
    assert main(["validate", "--config", str(path)]) == 1
    assert capsys.readouterr().err == f"error: {want}\n"


@pytest.mark.parametrize("text", [b"\xff{}", b'{"geometry": {"n": ' + b"1" * 5000 + b"}}"])
def test_validate_reports_unreadable_text(tmp_path, capsys, text):
    # a file that is not UTF-8, and an int literal past Python's digit limit
    path = tmp_path / "c.json"
    path.write_bytes(text)
    assert main(["validate", "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


@pytest.mark.parametrize("etype, lo_key, hi_key", [
    ("sweep", "omega_min", "omega_max"),
    ("phase", "omega_min", "omega_max"),
    ("twotone", "omega2_min", "omega2_max"),
])
@pytest.mark.parametrize("lo, hi", [(2.0, 1.0), (1.5, 1.5)])
def test_parse_rejects_decreasing_frequency_range(etype, lo_key, hi_key, lo, hi):
    cfg = _config(experiment={"type": etype, lo_key: lo, hi_key: hi})
    with pytest.raises(ConfigError, match=rf"^experiment\.{hi_key}: {lo_key} must be below"):
        parse_config(json.dumps(cfg))


def test_run_rejects_frequency_end_beyond_its_modal_default(tmp_path):
    # omega_max defaults to 1.35 x the reference resonance, below this omega_min
    cfg = _config(experiment={"type": "sweep", "omega_min": 100.0})
    with pytest.raises(ConfigError, match=r"^experiment\.omega_min: omega_min must be below"):
        run_experiment(parse_config(json.dumps(cfg)), tmp_path)
    assert not (tmp_path / "sweep.csv").exists()


@pytest.mark.parametrize("experiment, key, value", [
    ({"type": "sweep", "mode_ref": 3}, "mode_ref", "3"),
    ({"type": "twotone"}, "Omega1_mode", "the default 4"),
    ({"type": "twotone", "Omega1_mode": 1, "mode_index": 3}, "mode_index", "3"),
])
def test_validate_rejects_a_mode_beyond_geometry_n(tmp_path, capsys, monkeypatch,
                                                   experiment, key, value):
    import hopfarray.cli as cli

    def no_build(*args, **kwargs):
        raise AssertionError("cold build")

    monkeypatch.setattr(cli, "build_modal_system", no_build)
    path = tmp_path / "c.json"
    path.write_text(json.dumps(_config(experiment=experiment)))  # two resonators
    want = f"error: experiment.{key}: {key} must be at most geometry.n = 2, got {value}\n"
    assert main(["validate", "--config", str(path)]) == 1
    assert capsys.readouterr().err == want
    assert main([experiment["type"], "--config", str(path), "--out", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err == want


def test_parse_accepts_an_unused_omega1_mode_beyond_geometry_n():
    # with Omega1 and mode_index both given, Omega1_mode (default 4) picks nothing
    exp = {"type": "twotone", "Omega1": 0.01, "mode_index": 2}
    assert parse_config(json.dumps(_config(experiment=exp))).experiment["Omega1_mode"] == 4


def test_readme_lists_every_config_field_with_its_default():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("### Config fields", 1)[1].split("\n#", 1)[0]
    rows = re.findall(r"^\| `(\w+)` \| `(\w+)` \| [^|]+ \| ([^|]+) \| (.+) \|$", section,
                      flags=re.MULTILINE)
    listed = {(block, key): _REQUIRED if cell == "required"
              else _typed(json.loads(cell.strip("`"))) for block, key, _, cell in rows}
    assert len(listed) == len(rows)
    assert listed == {(block, key): default if default is _REQUIRED else _typed(default)
                      for block, key, _, _, default in _FIELDS}
    bounds = {(block, key): cell for block, key, cell, _ in rows}
    assert all(bounds[block, key] == f"≥ {bound}"
               for block, key, kind, bound, _ in _FIELDS if kind == "integer")
