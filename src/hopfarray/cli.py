"""Batch experiment runner: strict JSON config in, CSV datasets + manifest out.

Subcommands mirror the experiment types: resonances, sweep, phase, twotone,
oracle, plus validate (config check only). Every run writes the experiment
CSV (and every modal-pipeline run resonances.csv) and a run.json manifest
with config echo, content hashes, versions, wall times and solver
statistics, so each number in the CSVs is reproducible from the config and
code version alone.

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
import scipy

from . import __version__
from .analysis import (
    TWO_TONE_KEYS,
    default_observation_points,
    phase_response,
    pure_tone_sweep,
    refined_frequency_grid,
    two_tone_sweep,
)
from .boundary import WaveParams, classify_points
from .geometry import ResonatorArray, _violations, build_graded_array, graded_layout
from .hopf import ConvergenceError, single_hopf_steady_state
from .modal import ModalSystem, build_modal_system, cache_request, modal_cache_key
from .quadrature import QuadratureSpec, default_spec


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
    ("numerics", "resonance_tolerance", "number", "positive", 1e-10),
    ("numerics", "drift_tolerance", "number", "positive", 1e-4),
    ("numerics", "quad_inflate", "number", "positive", 0.5),
    ("numerics", "ext_order", "integer", 2, 8),
    ("numerics", "panel_size", "number", "positive", 2.5),
    ("numerics", "ring_radial", "integer", 2, 10),
    ("numerics", "ring_angular", "integer", 2, 12),
    ("numerics", "disk_radial", "integer", 2, 16),
    ("numerics", "disk_angular", "integer", 8, 48),
    ("numerics", "omega_max", "number", "positive", None),
    ("numerics", "collision_floor", "number", "positive", 1e-3),
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

_SIGNS = {
    None: lambda x: True,
    "positive": lambda x: x > 0,
    "nonnegative": lambda x: x >= 0,
    "negative": lambda x: x < 0,
}


@dataclass
class ExperimentConfig:
    """Validated configuration: geometry, material, numerics, experiment."""

    geometry: dict
    material: dict
    numerics: dict
    experiment: dict
    raw: dict = field(repr=False, default_factory=dict)

    def build_array(self) -> ResonatorArray:
        g = self.geometry
        return build_graded_array(
            n=g["n"],
            first_radius=g["first_radius"],
            s=g["s"],
            gap_ratio=g["gap_ratio"],
            source_x=g["source_x"],
        )

    def quadrature_spec(self, array: ResonatorArray) -> QuadratureSpec:
        """The composite rule's spec from the numerics block, box around the array."""
        num = self.numerics
        keys = ("ext_order", "panel_size", "ring_radial", "ring_angular", "disk_radial",
                "disk_angular")
        return default_spec(array, inflate=num["quad_inflate"], **{key: num[key] for key in keys})

    def wave_params(self) -> WaveParams:
        m = self.material
        return WaveParams(v=m["v"], v_b=m["v_b"], delta=m["delta"])

    @property
    def beta(self) -> float:
        return self.material["beta"]


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
    """The swept (lower, upper) frequencies, each given or else its default;
    raises naming the given end when both are known and not increasing."""
    lo_key, hi_key = _RANGES[exp["type"]]
    lo = exp[lo_key] if exp[lo_key] is not None else lo_default
    hi = exp[hi_key] if exp[hi_key] is not None else hi_default
    if lo is not None and hi is not None and not lo < hi:
        key = hi_key if exp[hi_key] is not None else lo_key
        raise ConfigError(
            f"experiment.{key}: {lo_key} must be below {hi_key}, got {lo!r} and {hi!r}")
    return lo, hi


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


def parse_config(text: str) -> ExperimentConfig:
    """Parse and validate a JSON config (strict keys, defaults applied)."""
    try:
        data = json.loads(text)
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
    if etype in _RANGES:
        _frequency_range(exp)  # checked here when both ends are given
    for key in _mode_keys(exp):  # the search returns exactly geometry.n modes
        if exp[key] > geo["n"]:
            given_as = "" if key in given else "the default "
            raise ConfigError(f"experiment.{key}: {key} must be at most geometry.n = {geo['n']},"
                              f" got {given_as}{exp[key]!r}")
    layout = _layout(geo)
    if etype == "phase" and exp["observation_points"] is not None:
        point = _point_on_circle(layout, exp["observation_points"])
        if point is not None:
            raise ConfigError(f"experiment.observation_points: {point} lies on a resonator "
                              "boundary, where the field has two traces")
    return ExperimentConfig(geometry=geo, material=mat, numerics=num, experiment=exp, raw=data)


def _layout(geometry: dict):
    """x1 of the centers and the radii of the configured circles. Raises
    naming geometry.n and geometry.s when they form no valid array, such as
    when the grading carries a radius past the float range. Only the layout
    is computed, so any n is cheap."""
    g = geometry
    layout = graded_layout(g["n"], g["first_radius"], g["s"], g["gap_ratio"])
    violations = _violations(*layout, float(g["source_x"]))
    if violations:
        raise ConfigError(f"geometry.n, geometry.s: {g['n']!r} circles of first radius "
                          f"{g['first_radius']!r} graded by s = {g['s']!r} with gap ratio "
                          f"{g['gap_ratio']!r} do not form a valid array: " + "; ".join(violations))
    return layout


def _point_on_circle(layout, points):
    """The first of the points that lies on a circle of the layout (x1 of
    the centers, radii), or None."""
    centers_x, radii = layout
    centers = np.stack([centers_x, np.zeros_like(centers_x)], axis=1)
    for point in points:
        try:
            with np.errstate(all="ignore"):  # points near the float range
                classify_points(centers, radii, np.array([point], dtype=float))
        except ValueError:
            return point
    return None


# ---------------------------------------------------------------------------
# output helpers
# ---------------------------------------------------------------------------
def _fmt(x) -> str:
    if isinstance(x, (int, np.integer)) and not isinstance(x, bool):
        return str(int(x))
    if x is None:
        return ""
    if isinstance(x, str):
        return x.replace(",", ";").replace("\n", " ")  # keep the CSV well formed
    return repr(float(x))  # shortest round-trip decimal


def _write_csv(path: Path, header: list[str], rows) -> str:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    data = ("\n".join(lines) + "\n").encode("utf-8")
    path.write_bytes(data)
    return hashlib.sha256(data).hexdigest()


def _obtain_modal_system(config: ExperimentConfig, out_dir: Path, use_cache: bool):
    array = config.build_array()
    params = config.wave_params()
    num = config.numerics
    M = num["multipole_order"]
    quad = config.quadrature_spec(array)
    search = {
        "tolerance": num["resonance_tolerance"],
        "drift_tolerance": num["drift_tolerance"],
    }
    if num["omega_max"] is not None:
        search["omega_max"] = num["omega_max"]
    request = cache_request(array, params, M, quad, search)
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
    system = build_modal_system(array, params, M=M, quad=quad, search=search)
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
        "newton_iters": sum(s.newton_iters for sw in sweeps for s in sw.solutions if s is not None),
        "residual_evaluations": sum(sw.metadata["residual_evaluations"] for sw in sweeps),
        "continuation_points": sum(sw.metadata["continuation_points"] for sw in sweeps),
        "certificate_max": max(
            (c for sw in sweeps for c in sw.certificates if c is not None), default=None
        ),
    }


def _diagnostics(system: ModalSystem) -> dict:
    """Per mode: relative resonance drift under M -> M+2 and the gap
    s[-2]/s[-1] between the two smallest singular values at the resonance;
    and the resonance-search record (sub-contours, assemblies)."""
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
    lo, hi = _frequency_range(exp, 0.75 * center, 1.35 * center)
    grid = np.linspace(lo, hi, exp["num_points"])
    rows, flagged, sweeps = [], [], []
    for F in exp["F_values"]:
        sweep = pure_tone_sweep(system, grid, F, config.beta)
        sweeps.append(sweep)
        flagged += [{**f, "F": F} for f in _failures(sweep, "Omega")]
        for om, sol, flag, cert in zip(sweep.grid, sweep.solutions, sweep.flags, sweep.certificates):
            if sol is None:
                rows += [(om, F, m, None, None, None, None, flag) for m in range(1, system.n + 1)]
            else:
                rows += [(om, F, m, abs(x) / F, x.real, x.imag, cert, "")
                         for m, x in enumerate(sol.X[0], 1)]
    return _Result("sweep.csv",
                   ["Omega", "F", "mode", "abs_X_over_F", "re_X", "im_X", "residual", "flag"],
                   rows, len(grid) * len(exp["F_values"]), flagged, _sweep_stats(sweeps))


def _phase(config: ExperimentConfig, system: ModalSystem) -> _Result:
    """Response magnitude, unwrapped phase and delays at the observation
    points over the refined grid; failed frequencies are left out."""
    exp = config.experiment
    lo, hi = _frequency_range(exp, 0.25 * system.omegas[0].real, 1.25 * system.omegas[-1].real)
    grid = refined_frequency_grid(system, lo, hi, exp["num_points"])
    if exp["observation_points"] is not None:
        obs = np.asarray(exp["observation_points"], dtype=float)
    else:
        obs = default_observation_points(system)
    curves = phase_response(system, grid, exp["F"], config.beta, obs,
                            phase_reference=exp["phase_reference"])
    sweep = curves[0].sweep
    rows = [(c.x[0], c.x[1], *point) for c in curves
            for point in zip(c.grid, c.R, c.phi, c.phase_delay_cycles, c.group_delay_cycles)]
    return _Result(
        "phase.csv",
        ["x1", "x2", "Omega", "R", "phi_rad", "phase_delay_cycles", "group_delay_cycles"],
        rows, len(grid), _failures(sweep, "Omega"), _sweep_stats([sweep]),
        sign_flags={"phase_sign_flipped": curves[0].sign_flipped,
                    "phase_reference": curves[0].phase_reference},
    )


def _twotone(config: ExperimentConfig, system: ModalSystem) -> _Result:
    """One mode's line amplitudes while the second tone sweeps; grid points
    inside the collision floor around Omega1 are dropped, failed ones left out."""
    exp = config.experiment
    mode = exp["mode_index"] if exp["mode_index"] is not None else exp["Omega1_mode"]
    Omega1 = exp["Omega1"]
    if Omega1 is None:
        Omega1 = abs(system.omegas[exp["Omega1_mode"] - 1])
    lo, hi = _frequency_range(exp, 0.9 * Omega1, 1.1 * Omega1)
    grid = np.linspace(lo, hi, exp["num_points"])
    floor = config.numerics["collision_floor"]
    keep = np.abs(grid - Omega1) > floor * abs(Omega1)
    if not keep.any():
        raise ConfigError(f"experiment.omega2_min/omega2_max: every Omega2 in [{float(lo)!r}, "
                          f"{float(hi)!r}] lies within numerics.collision_floor = {floor!r} "
                          f"of Omega1 = {float(Omega1)!r}")
    sweep = two_tone_sweep(system, Omega1, grid[keep], exp["F1"], exp["F2"], config.beta,
                           mode_index=mode - 1, collision_floor=floor)
    rows = [(om2, *(rec[k] for k in TWO_TONE_KEYS))
            for om2, rec in zip(sweep.grid, sweep.metadata["records"]) if rec is not None]
    stats = {"Omega1": float(Omega1), "collision_dropped": [float(v) for v in grid[~keep]],
             **_sweep_stats([sweep])}
    return _Result("twotone.csv", ["Omega2", *TWO_TONE_KEYS], rows, len(sweep.grid),
                   _failures(sweep, "Omega2"), stats)


def _oracle(config: ExperimentConfig, system: None) -> _Result:
    """The one-oscillator steady state per forcing, with no modal system; a
    forcing without exactly one stable phase-locked state is left out."""
    exp = config.experiment
    rows, flagged = [], []
    for F in exp["F_values"]:
        try:
            res = single_hopf_steady_state(exp["mu"], exp["omega0"], exp["Omega"], F)
        except ConvergenceError as exc:
            flagged.append({"F": F, "message": f"{type(exc).__name__}: {exc}"})
        else:
            rows.append((res.mu, res.omega0, res.Omega, res.F, res.steady_amplitude))
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
    t_start = time.time()
    etype = config.experiment["type"]
    manifest: dict = {
        "config": config.raw,
        "versions": {
            "hopfarray": __version__,
            "python": sys.version.split()[0],
            "numpy": np.__version__,
            "scipy": scipy.__version__,
        },
        "experiment_type": etype,
        "outputs": {},
        "wall_times_s": {},
    }
    system, results = None, {}
    if etype != "oracle":  # every other experiment starts from the modal system
        system, manifest["cache"] = _obtain_modal_system(config, out, use_cache)
        manifest["diagnostics"] = _diagnostics(system)
        manifest["wall_times_s"]["modal_system"] = time.time() - t_start
        results["resonances.csv"] = _resonances(config, system)
    t0 = time.time()
    result = _EXPERIMENTS[etype](config, system)
    manifest["wall_times_s"]["experiment"] = time.time() - t0
    results[result.csv] = result
    for name, res in results.items():
        manifest["outputs"][name] = _write_csv(out / name, res.header, res.rows)
    manifest["solver_stats"] = {"n_points": result.n_points, "n_flagged": len(result.flagged),
                                "flagged": result.flagged, **result.stats}
    manifest["sign_flags"] = result.sign_flags
    manifest["wall_times_s"]["total"] = time.time() - t_start
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
