"""Batch experiment runner: strict JSON config in, CSV datasets + manifest out.

Subcommands mirror the experiment types: resonances, sweep, phase, twotone,
oracle, plus validate (config check only). Every run writes the experiment
CSV (and every modal-pipeline run resonances.csv) and a run.json manifest
with config echo, content hashes, versions, wall times and solver
statistics, so each number in the CSVs is reproducible from the config and
code version alone at the OPENBLAS_NUM_THREADS it records: numpy's BLAS
runs on one thread unless the environment sets another count, which may
move outputs at rounding level.

Exit codes: 0 clean; 2 completed with flagged points, each named with its
cause in run.json; 1 fatal (a config error, or a failure of the whole run),
with no run.json.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from .analysis import (
    default_observation_points,
    phase_response,
    pure_tone_sweep,
    refined_frequency_grid,
    two_tone_sweep,
)
from .boundary import WaveParams
from .geometry import ResonatorArray, build_graded_array, classify_points
from .hopf import ConvergenceError, single_hopf_steady_state
from .modal import ModalSystem, build_modal_system, cache_request, modal_cache_key
from .quadrature import PANEL_SIZE, collar_half_widths, default_spec, exterior_node_count


class ConfigError(ValueError):
    """Invalid experiment configuration; the message names the field."""


_REQUIRED = object()  # default of a key the config must give

# Every config field, one row each: (block, key, kind, bound, default). The
# block is a top-level object of the config, or an experiment type for the
# keys the "experiment" block takes with that type. Kinds and their bounds:
#   integer  an int (not a bool) >= bound
#   number   a finite int or float (not a bool) of sign bound: "positive" (> 0),
#            "nonnegative" (>= 0), "negative" (< 0), or None for any sign
#   numbers  a list of such numbers; bound is (sign, fewest items)
#   enum     one of the strings in bound
#   pairs    a nonempty list of [x1, x2] pairs of finite numbers
# A default of None also accepts null. Parsed values keep their
# JSON type (an int stays an int), so cache keys and CSVs do not move. The
# README's "Config fields" table lists the same rows and defaults.
_FIELDS = (
    ("geometry", "n", "integer", 1, _REQUIRED),
    ("geometry", "first_radius", "number", "positive", _REQUIRED),
    ("geometry", "s", "number", "positive", _REQUIRED),
    ("geometry", "gap_ratio", "number", "positive", _REQUIRED),
    ("geometry", "source_x", "number", "negative", _REQUIRED),
    ("material", "v", "number", "positive", _REQUIRED),
    ("material", "v_b", "number", "positive", _REQUIRED),
    ("material", "delta", "number", "positive", _REQUIRED),
    ("material", "beta", "number", None, _REQUIRED),
    ("numerics", "multipole_order", "integer", 1, 5),
    ("numerics", "panel_size", "number", "positive", PANEL_SIZE),
    ("experiment", "type", "enum", ("resonances", "sweep", "phase", "twotone", "oracle"),
     _REQUIRED),
    ("sweep", "mode_ref", "integer", 1, 2),
    ("sweep", "omega_min", "number", "positive", None),
    ("sweep", "omega_max", "number", "positive", None),
    ("sweep", "num_points", "integer", 2, 120),
    ("sweep", "F_values", "numbers", ("positive", 1), [1e-6, 1e-4, 1e-2]),
    ("phase", "omega_min", "number", "positive", None),
    ("phase", "omega_max", "number", "positive", None),
    ("phase", "num_points", "integer", 8, 240),
    ("phase", "F", "number", "positive", 1e-6),
    ("phase", "observation_points", "pairs", None, None),
    ("phase", "phase_reference", "enum", ("velocity", "pressure"), "velocity"),
    ("twotone", "Omega1", "number", "positive", None),
    ("twotone", "Omega1_mode", "integer", 1, 4),
    ("twotone", "omega2_min", "number", "positive", None),
    ("twotone", "omega2_max", "number", "positive", None),
    ("twotone", "num_points", "integer", 2, 41),
    ("twotone", "F1", "number", "positive", 1e-5),
    ("twotone", "F2", "number", "nonnegative", 1e-5),
    ("twotone", "mode_index", "integer", 1, None),
    ("oracle", "mu", "number", None, 0.0),
    ("oracle", "omega0", "number", None, 1.0),
    ("oracle", "Omega", "number", None, 1.0),
    ("oracle", "F_values", "numbers", ("nonnegative", 0), [1e-8, 1e-6, 1e-4, 1e-2]),
)

_BLOCKS = ("geometry", "material", "numerics", "experiment")  # the config's top-level objects

# The swept frequency's (lower, upper) keys per experiment type.
_RANGES = {
    "sweep": ("omega_min", "omega_max"),
    "phase": ("omega_min", "omega_max"),
    "twotone": ("omega2_min", "omega2_max"),
}

# a two-tone scan drops each Omega2 within this x Omega1 of Omega1, where its lines crowd
_COLLISION_FLOOR = 1e-3

_SIGNS = {
    None: lambda x: True,
    "positive": lambda x: x > 0,
    "nonnegative": lambda x: x >= 0,
    "negative": lambda x: x < 0,
}


@dataclass
class ExperimentConfig:
    """Validated configuration: the array and material it describes, the
    composite rule's exterior panel size, the truncation M, beta, the
    experiment block and the config as read."""

    array: ResonatorArray
    params: WaveParams
    panel_size: float
    M: int
    beta: float
    experiment: dict
    raw: dict = field(repr=False, default_factory=dict)


def _finite(x) -> bool:
    """A JSON number that is a finite double: not a bool, NaN or +-Infinity."""
    return isinstance(x, (int, float)) and not isinstance(x, bool) and abs(x) <= sys.float_info.max


def _check(name: str, key: str, kind: str, bound, default, val) -> None:
    """Raise unless val is of the row's kind within its bound, or null where allowed."""
    nullable = default is None
    if val is None and nullable:
        return
    if kind == "integer":
        ok = isinstance(val, int) and not isinstance(val, bool) and val >= bound
        rule = f"an integer >= {bound}"
    elif kind == "number":
        ok = _finite(val) and _SIGNS[bound](val)
        rule = f"{bound} and finite" if bound else "a finite number"
    elif kind == "numbers":
        sign, fewest = bound
        ok = isinstance(val, list) and len(val) >= fewest and all(
            _finite(x) and _SIGNS[sign](x) for x in val)
        rule = f"a list of at least {fewest} {sign} finite numbers"
    elif kind == "enum":
        ok = isinstance(val, str) and val in bound
        rule = f"one of {list(bound)}"
    else:  # pairs
        ok = isinstance(val, list) and len(val) > 0 and all(
            isinstance(p, list) and len(p) == 2 and all(map(_finite, p)) for p in val)
        rule = "a nonempty list of [x1, x2] pairs of finite numbers"
    if not ok:
        rule += " or null" if nullable else ""
        raise ConfigError(f"{name}.{key}: {key} must be {rule}, got {val!r}")


def _rows(block: str) -> list:
    return [row for row in _FIELDS if row[0] == block]


def _parse_fields(name: str, given: dict, rows: list) -> dict:
    """The checked keys of the config object `name`, defaults filled in."""
    keys = {row[1] for row in rows}
    for key in given:
        if key not in keys:
            raise ConfigError(f"{name}.{key}: unknown key")
    out = {}
    for _, key, kind, bound, default in rows:
        val = given.get(key, default)
        if val is _REQUIRED:
            raise ConfigError(f"{name}.{key}: missing")
        _check(name, key, kind, bound, default, val)
        out[key] = val
    return out


def _frequency_range(exp: dict, lo_default=None, hi_default=None):
    """The swept (lower, upper) frequencies, each given or else its default,
    and the num_points evenly spaced between them (a phase grid's base), or
    None while an end is unknown. Raises unless the ends are increasing and
    finite and the points strictly increasing, naming the given upper end,
    else the given lower end, else Omega1, from which both two-tone defaults
    derive."""
    lo_key, hi_key = _RANGES[exp["type"]]
    lo = exp[lo_key] if exp[lo_key] is not None else lo_default
    hi = exp[hi_key] if exp[hi_key] is not None else hi_default
    if lo is None or hi is None:
        return lo, hi, None
    key = next((k for k in (hi_key, lo_key) if exp[k] is not None), "Omega1")
    if not lo < hi:
        raise ConfigError(f"experiment.{key}: {lo_key} must be below {hi_key}, got {lo!r} and {hi!r}")
    with np.errstate(over="ignore"):  # the last step to hi near the float range may overflow
        grid = np.linspace(lo, hi, exp["num_points"]) if _finite(hi) else None  # lo < hi, so lo is too
    if grid is None or not np.all(np.diff(grid) > 0):
        raise ConfigError(f"experiment.{key}: the {exp['num_points']} points from {lo_key} = "
                          f"{float(lo)!r} to {hi_key} = {float(hi)!r} are not finite and "
                          "strictly increasing")
    return lo, hi, grid


def _twotone_grid(exp: dict, Omega1):
    """The two-tone experiment's Omega2 grid around Omega1 and the mask of
    its points outside the collision floor; raises naming the range when
    the mask keeps none."""
    lo, hi, grid = _frequency_range(exp, 0.9 * Omega1, 1.1 * Omega1)
    keep = np.abs(grid - Omega1) > _COLLISION_FLOOR * abs(Omega1)
    if not keep.any():
        raise ConfigError(f"experiment.omega2_min/omega2_max: every Omega2 in [{float(lo)!r}, "
                          f"{float(hi)!r}] lies within {_COLLISION_FLOOR!r} x Omega1 of "
                          f"Omega1 = {float(Omega1)!r}")
    return grid, keep


def _mode_keys(exp: dict) -> tuple:
    """The experiment keys whose values pick a mode: mode_ref centers the
    sweep; mode_index picks the two-tone lines, else Omega1_mode does, which
    also gives Omega1 when that is null."""
    if exp["type"] == "sweep":
        return ("mode_ref",)
    if exp["type"] != "twotone":
        return ()
    if exp["mode_index"] is None:
        return ("Omega1_mode",)
    return ("mode_index",) if exp["Omega1"] is not None else ("mode_index", "Omega1_mode")


def _unique_keys(pairs: list) -> dict:
    """One JSON object of a config; a key given twice raises, as the last
    value would otherwise win silently."""
    out = {}
    for key, val in pairs:
        if key in out:
            raise ConfigError(f"config: key {key!r} given twice in one object")
        out[key] = val
    return out


def parse_config(text: str) -> ExperimentConfig:
    """Parse and validate a JSON config (strict keys, defaults applied)."""
    try:
        data = json.loads(text, object_pairs_hook=_unique_keys)
    except ConfigError:
        raise
    except ValueError as exc:  # JSONDecodeError, or an int beyond the digit limit
        raise ConfigError(f"config: not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError(f"config: must be a JSON object, got {type(data).__name__}")
    for name in data:
        if name not in _BLOCKS:
            raise ConfigError(f"config.{name}: unknown key")
    blocks = {name: data.get(name, {}) for name in _BLOCKS}  # numerics may be left out
    for name, block in blocks.items():
        if not isinstance(block, dict):
            raise ConfigError(f"{name}: must be a JSON object, got {block!r}")
    geo, mat, num = (_parse_fields(name, blocks[name], _rows(name)) for name in _BLOCKS[:3])
    # the type picks the experiment's rows, so it is checked on its own first
    given = blocks["experiment"]
    etype = _parse_fields("experiment", {k: v for k, v in given.items() if k == "type"},
                          _rows("experiment"))["type"]
    exp = _parse_fields("experiment", given, _rows("experiment") + _rows(etype))
    if etype == "twotone" and exp["Omega1"] is not None:
        _twotone_grid(exp, exp["Omega1"])  # every grid the config alone fixes is built here
    elif etype in _RANGES:
        _frequency_range(exp)
    for key in _mode_keys(exp):  # the search returns exactly geometry.n modes
        if exp[key] > geo["n"]:
            given_as = "" if key in given else "the default "
            raise ConfigError(f"experiment.{key}: {key} must be at most geometry.n = {geo['n']},"
                              f" got {given_as}{exp[key]!r}")
    try:
        array = build_graded_array(geo["n"], geo["first_radius"], geo["s"], geo["gap_ratio"],
                                   geo["source_x"])
    except ValueError as exc:  # the source is named last, so first only when alone at fault
        reason = str(exc).removeprefix("invalid resonator array: ")
        keys = "geometry.source_x" if reason.startswith("source") else "geometry.n, geometry.s"
        raise ConfigError(f"{keys}: {geo['n']!r} circles of first radius {geo['first_radius']!r}"
                          f" graded by s = {geo['s']!r} with gap ratio {geo['gap_ratio']!r} do "
                          f"not form a valid array: {reason}") from None
    if etype == "phase" and exp["observation_points"] is not None:
        try:
            with np.errstate(all="ignore"):  # points near the float range
                classify_points(array.centers, array.radii, np.array(exp["observation_points"], dtype=float))
        except ValueError as exc:  # names the first point on a circle
            raise ConfigError(f"experiment.observation_points: {exc}, where the field has two traces") from None
    try:
        box = default_spec(array)
    except ValueError as exc:  # the box is past the float range
        raise ConfigError(f"geometry.first_radius, geometry.source_x: the quadrature box around the"
                          f" circles and the source is past the float range: {exc}") from None
    try:
        collar_half_widths(array, box)
    except ValueError as exc:  # a radius or a gap so small that the collar's share rounds to 0
        raise ConfigError(f"geometry.first_radius, geometry.s, geometry.gap_ratio: {exc}") from None
    try:
        exterior_node_count(array, num["panel_size"])
    except ValueError as exc:  # a finite box, too large for its panel_size
        raise ConfigError(f"numerics.panel_size: {exc}") from None
    return ExperimentConfig(
        array=array, params=WaveParams(v=mat["v"], v_b=mat["v_b"], delta=mat["delta"]),
        panel_size=num["panel_size"], M=num["multipole_order"], beta=mat["beta"],
        experiment=exp, raw=data)


# ---------------------------------------------------------------------------
# output helpers
# ---------------------------------------------------------------------------
def _cell(value) -> str:
    """The CSV text of one value."""
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool):
        return str(int(value))
    if value is None:
        return ""
    if isinstance(value, str):
        return value.replace(",", ";").replace("\n", " ")  # keep the CSV well formed
    return repr(float(value))  # shortest round-trip decimal


def _write_csv(path: Path, header: list[str], rows) -> str:
    lines = [",".join(header), *(",".join(map(_cell, row)) for row in rows)]
    data = ("\n".join(lines) + "\n").encode("utf-8")
    path.write_bytes(data)
    return hashlib.sha256(data).hexdigest()


def _obtain_modal_system(config: ExperimentConfig, out_dir: Path, use_cache: bool):
    array, params, panel_size, M = config.array, config.params, config.panel_size, config.M
    request = cache_request(array, params, M, panel_size)
    key = modal_cache_key(request)
    cache_path = out_dir / "cache" / f"modal-{key[:16]}.json"
    cache_info = {"key": key, "hit": False, "path": None, "recovered": None}
    if use_cache and cache_path.exists():
        try:
            system = ModalSystem.from_json(cache_path.read_text(), request=request)
        except (KeyError, TypeError, ValueError) as exc:  # JSONDecodeError is a ValueError
            # a truncated entry, or one for another request, is rebuilt and overwritten below
            cache_info["recovered"] = f"{type(exc).__name__}: {exc}"
        else:
            cache_info.update(hit=True, path=str(cache_path))
            return system, cache_info
    system = build_modal_system(array, params, M=M, panel_size=panel_size)
    if use_cache:
        _write_atomic(cache_path, system.to_json())
        cache_info["path"] = str(cache_path)
    return system, cache_info


def _write_atomic(path: Path, text: str) -> None:
    """Write through a temporary file in the same directory, then rename,
    so readers see the old entry or the whole new one, never a part."""
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")  # one writer per process
    try:
        tmp.write_text(text)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _sweep_stats(sweeps) -> dict:
    """Newton iterations, residual evaluations and continuation points summed
    over the sweeps, and the largest certificate (None when none was solved)."""
    return {
        "newton_iters": int(sum(sw.newton_iters.sum() for sw in sweeps)),
        "residual_evaluations": sum(sw.metadata["residual_evaluations"] for sw in sweeps),
        "continuation_points": sum(sw.metadata["continuation_points"] for sw in sweeps),
        "certificate_max": max(
            (float(c) for sw in sweeps for c in sw.certificates[sw.solved]), default=None
        ),
    }


def _diagnostics(system: ModalSystem) -> dict:
    """Per mode: relative resonance drift under M -> M+2 and the gap
    s[-2]/s[0], the second-smallest singular value at the resonance over the
    largest; and the resonance-search record (sub-contours, assemblies)."""
    return {
        "modes": [
            {"mode": n + 1, "drift": m.resonance.drift, "sv_gap": m.sv_gap}
            for n, m in enumerate(system.modes)
        ],
        "search": system.search,
    }


@dataclass(frozen=True)
class _Result:
    """What one experiment hands to run_experiment: its CSV, the number of
    points it tried, one {point..., "message": cause} per failed point, and
    further solver_stats and sign_flags entries."""

    csv: str
    header: list
    rows: list
    n_points: int
    flagged: list
    stats: dict = field(default_factory=dict)
    sign_flags: dict = field(default_factory=dict)


def _failures(sweep, key: str) -> list:
    """The failed points of a sweep: the swept frequency under key, and the cause."""
    return [{key: float(om), "message": flag}
            for om, flag in zip(sweep.grid, sweep.flags) if flag is not None]


def _resonances(config: ExperimentConfig, system: ModalSystem) -> _Result:
    """The resonances, which every modal experiment writes too."""
    rows = [(n + 1, m.resonance.omega.real, m.resonance.omega.imag, m.resonance.residual)
            for n, m in enumerate(system.modes)]
    return _Result("resonances.csv", ["n", "re_omega", "im_omega", "residual"], rows, system.n, [])


def _sweep(config: ExperimentConfig, system: ModalSystem) -> _Result:
    """Every mode's pure-tone response over the grid, per forcing; a failed
    point keeps its rows, with empty values and the cause."""
    exp = config.experiment
    center = system.omegas[exp["mode_ref"] - 1].real
    grid = _frequency_range(exp, 0.75 * center, 1.35 * center)[2]
    rows, flagged, sweeps = [], [], []
    for F in exp["F_values"]:
        sweep = pure_tone_sweep(system, grid, F, config.beta)
        sweeps.append(sweep)
        flagged += [{**f, "F": F} for f in _failures(sweep, "Omega")]
        for om, X, flag, cert in zip(sweep.grid, sweep.X, sweep.flags, sweep.certificates):
            if flag is not None:
                rows += [(om, F, m, None, None, None, None, flag) for m in range(1, system.n + 1)]
            else:
                rows += [(om, F, m, abs(x) / F, x.real, x.imag, cert, "")
                         for m, x in enumerate(X[0], 1)]
    return _Result("sweep.csv",
                   ["Omega", "F", "mode", "abs_X_over_F", "re_X", "im_X", "residual", "flag"],
                   rows, len(grid) * len(exp["F_values"]), flagged, _sweep_stats(sweeps))


def _phase(config: ExperimentConfig, system: ModalSystem) -> _Result:
    """Response magnitude, unwrapped phase and delays at the observation
    points over the refined grid; failed frequencies are left out."""
    exp = config.experiment
    lo, hi, _ = _frequency_range(exp, 0.25 * system.omegas[0].real, 1.25 * system.omegas[-1].real)
    grid = refined_frequency_grid(system, lo, hi, exp["num_points"])
    if exp["observation_points"] is not None:
        obs = np.asarray(exp["observation_points"], dtype=float)
    else:
        obs = default_observation_points(system)
    resp = phase_response(system, grid, exp["F"], config.beta, obs,
                          phase_reference=exp["phase_reference"])
    columns = (resp.R, resp.phi, resp.phase_delay_cycles, resp.group_delay_cycles)
    rows = [(*x, om, *(c[g, p] for c in columns))
            for p, x in enumerate(obs) for g, om in enumerate(resp.grid)]
    return _Result(
        "phase.csv",
        ["x1", "x2", "Omega", "R", "phi_rad", "phase_delay_cycles", "group_delay_cycles"],
        rows, len(grid), _failures(resp.sweep, "Omega"), _sweep_stats([resp.sweep]),
        sign_flags={"phase_sign_flipped": resp.sign_flipped,
                    "phase_reference": exp["phase_reference"]},
    )


def _twotone(config: ExperimentConfig, system: ModalSystem) -> _Result:
    """One mode's line amplitudes while the second tone sweeps; grid points
    inside the collision floor around Omega1 are dropped, failed ones left out."""
    exp = config.experiment
    mode = exp["mode_index"] if exp["mode_index"] is not None else exp["Omega1_mode"]
    Omega1 = exp["Omega1"]
    if Omega1 is None:
        Omega1 = abs(system.omegas[exp["Omega1_mode"] - 1])
    grid, keep = _twotone_grid(exp, Omega1)
    sweep = two_tone_sweep(system, Omega1, grid[keep], exp["F1"], exp["F2"], config.beta)
    # per solved point, the mode's modulus on each line, then its passive response to Omega2
    # alone; scalar abs, as np.abs on an array may round differently
    rows = [(om2, *(abs(x) for x in X[:, mode - 1]), abs(passive[mode - 1]))
            for om2, X, passive, ok in zip(sweep.grid, sweep.X, sweep.metadata["passive"],
                                           sweep.solved) if ok]
    stats = {"Omega1": float(Omega1), "collision_dropped": [float(v) for v in grid[~keep]],
             **_sweep_stats([sweep])}
    return _Result("twotone.csv",
                   ["Omega2", "abs_X10", "abs_X01", "abs_X21", "abs_X12", "abs_X01_passive"],
                   rows, len(sweep.grid), _failures(sweep, "Omega2"), stats)


def _oracle(config: ExperimentConfig, system: None) -> _Result:
    """The one-oscillator steady state per forcing, with no modal system; a
    forcing without exactly one stable phase-locked state is left out."""
    exp = config.experiment
    rows, flagged = [], []
    for F in exp["F_values"]:
        try:
            amplitude = single_hopf_steady_state(exp["mu"], exp["omega0"], exp["Omega"], F)
        except ConvergenceError as exc:
            flagged.append({"F": F, "message": f"{type(exc).__name__}: {exc}"})
        else:
            rows.append((exp["mu"], exp["omega0"], exp["Omega"], F, amplitude))
    return _Result("oracle.csv", ["mu", "omega0", "Omega", "F", "steady_amplitude"], rows,
                   len(exp["F_values"]), flagged)


# one function per value of experiment.type
_EXPERIMENTS = {"resonances": _resonances, "sweep": _sweep, "phase": _phase,
                "twotone": _twotone, "oracle": _oracle}


def run_experiment(
    config: ExperimentConfig,
    output_dir,
    use_cache: bool = True,
) -> int:
    """Run the configured experiment, writing its CSVs and run.json.

    A point that fails is flagged with its cause under solver_stats and the
    other points are still written. Returns the process exit status: 0
    clean, 2 when some point was flagged. Raises when the whole run fails:
    the build or the search, a phase that cannot be unwrapped or has fewer
    than two solved points.
    """
    out = Path(output_dir)
    out.mkdir(parents=True, exist_ok=True)
    t_start = time.perf_counter()  # a monotonic clock, so no stage time is negative
    etype = config.experiment["type"]
    manifest: dict = {
        "config": config.raw,
        "versions": {
            "hopfarray": __version__,
            "python": sys.version.split()[0],
            "numpy": np.__version__,
            "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),  # outputs round by it
        },
        "outputs": {},
        "wall_times_s": {},
    }
    system, results = None, {}
    if etype != "oracle":  # every other experiment starts from the modal system
        system, manifest["cache"] = _obtain_modal_system(config, out, use_cache)
        manifest["diagnostics"] = _diagnostics(system)
        manifest["wall_times_s"]["modal_system"] = time.perf_counter() - t_start
        results["resonances.csv"] = _resonances(config, system)
    t0 = time.perf_counter()
    result = _EXPERIMENTS[etype](config, system)
    manifest["wall_times_s"]["experiment"] = time.perf_counter() - t0
    results[result.csv] = result
    for name, res in results.items():
        manifest["outputs"][name] = _write_csv(out / name, res.header, res.rows)
    manifest["solver_stats"] = {"n_points": result.n_points, "n_flagged": len(result.flagged),
                                "flagged": result.flagged, **result.stats}
    manifest["sign_flags"] = result.sign_flags
    manifest["wall_times_s"]["total"] = time.perf_counter() - t_start
    (out / "run.json").write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return 2 if result.flagged else 0


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hopfarray",
        description="Subwavelength resonator arrays with coupled Hopf dynamics",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    (types,) = (bound for _, key, _, bound, _ in _FIELDS if key == "type")
    for name in (*types, "validate"):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="JSON config path")
        if name != "validate":
            p.add_argument("--out", required=True, help="output directory")
            p.add_argument("--no-cache", action="store_true",
                           help="bypass the modal-system cache")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        config = parse_config(Path(args.config).read_text())
    except (OSError, UnicodeDecodeError, ConfigError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.command == "validate":
        print("config OK")
        return 0
    if config.experiment["type"] != args.command:
        print(
            f"error: config experiment type {config.experiment['type']!r} "
            f"does not match subcommand {args.command!r}",
            file=sys.stderr,
        )
        return 1
    try:
        return run_experiment(config, args.out, use_cache=not args.no_cache)
    except Exception as exc:  # fatal: resonance search, config cross-checks, IO
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
