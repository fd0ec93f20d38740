"""The config schema: every field's kind, bound and default come from one
table in `hopfarray.cli`, and every rejection names its field."""

import dataclasses
import json
import math
import re
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hopfarray.cli import (
    _FIELDS, _REQUIRED, ConfigError, _point_on_circle, main, parse_config, run_experiment,
)
from hopfarray.geometry import graded_layout
from hopfarray.quadrature import QuadratureSpec

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


def _object(rows):
    required = {key: _valid(*rest) for _, key, *rest in rows if rest[-1] is _REQUIRED}
    optional = {key: _valid(*rest) for _, key, *rest in rows if rest[-1] is not _REQUIRED}
    return st.fixed_dictionaries(required, optional=optional)


def _enough_modes(cfg):
    """geometry.n raised to the largest mode a key of the experiment picks,
    given or by default, since the search finds exactly n modes."""
    exp = cfg["experiment"]
    for _, key, _, _, default in rows_of(exp["type"]):
        if key in ("mode_ref", "Omega1_mode", "mode_index") and exp.get(key, default) is not None:
            cfg["geometry"]["n"] = max(cfg["geometry"]["n"], exp.get(key, default))
    return cfg


@st.composite
def configs(draw, etype=None):
    etype = etype or draw(st.sampled_from(TYPES))
    rows = rows_of(etype)
    cfg = {name: draw(_object([r for r in rows if r[0] == name])) for name in BLOCKS}
    cfg["experiment"]["type"] = etype
    _enough_modes(cfg)
    if etype in RANGES:
        lo, hi = (cfg["experiment"].get(k) for k in RANGES[etype])
        assume(lo is None or hi is None or lo < hi)
    if cfg["experiment"].get("observation_points"):  # a point on a circle is invalid
        layout = graded_layout(*(cfg["geometry"][k] for k in ("n", "first_radius", "s", "gap_ratio")))
        assume(_point_on_circle(layout, cfg["experiment"]["observation_points"]) is None)
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
def test_valid_config_parses_to_drawn_values_and_defaults(cfg):
    try:
        parsed = parse_config(json.dumps(cfg))
    except ConfigError as exc:  # a drawn grading can carry a radius past the float range
        assert str(exc).startswith("geometry.n, geometry.s: ")
        return
    want = {name: {} for name in BLOCKS}
    for name, key, _, _, default in rows_of(cfg["experiment"]["type"]):
        want[name][key] = cfg.get(name, {}).get(key, default)
    got = {"geometry": parsed.geometry, "material": parsed.material,
           "numerics": parsed.numerics, "experiment": parsed.experiment}
    assert _typed(got) == _typed(want)


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


@pytest.mark.parametrize("block, key, value", [
    ("geometry", "n", True),
    ("numerics", "multipole_order", True),
    ("experiment", "mode_ref", True),
    ("material", "delta", True),
    ("experiment", "F_values", [True]),
])
def test_parse_rejects_bools_for_numbers(block, key, value):
    cfg = _config(experiment={"type": "sweep"})
    cfg[block][key] = value
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


def test_quadrature_counts_at_their_bound_build_the_spec(tmp_path, capsys):
    # each integer numerics row that QuadratureSpec checks: at the table's
    # bound the config validates and its spec builds (the spec only: the
    # rules at a tiny panel_size would allocate without limit)
    checked = {f.name for f in dataclasses.fields(QuadratureSpec)} - {"box", "panel_size"}
    rows = [(key, bound) for block, key, kind, bound, _ in _FIELDS
            if block == "numerics" and kind == "integer" and key in checked]
    assert {key for key, _ in rows} == checked
    for key, bound in rows:
        config = parse_config(json.dumps(_config(numerics={key: bound})))
        assert getattr(config.quadrature_spec(config.build_array()), key) == bound
        path = tmp_path / f"{key}.json"
        path.write_text(json.dumps(_config(numerics={key: bound - 1})))
        assert main(["validate", "--config", str(path)]) == 1
        want = f"error: numerics.{key}: {key} must be an integer >= {bound}"
        assert capsys.readouterr().err.startswith(want)
