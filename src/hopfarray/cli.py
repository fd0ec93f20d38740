"""Batch experiment runner: strict JSON config in, CSV datasets + manifest out.

Subcommands mirror the experiment types: resonances, sweep, phase, twotone,
oracle, plus validate (config check only). Every modal-pipeline run writes
resonances.csv, the experiment CSV and a run.json manifest with config echo,
content hashes, versions, wall times and solver statistics, so each number
in the CSVs is reproducible from the config and code version alone.

Exit codes: 0 clean, 2 completed with flagged sweep points, 1 fatal.
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
    default_observation_points,
    phase_response,
    pure_tone_sweep,
    refined_frequency_grid,
    two_tone_sweep,
)
from .boundary import WaveParams
from .geometry import ResonatorArray, build_graded_array
from .hopf import single_hopf_steady_state
from .modal import ModalSystem, build_modal_system, modal_cache_key
from .quadrature import default_spec


class ConfigError(ValueError):
    """Invalid experiment configuration; the message names the field."""


_EXPERIMENT_TYPES = ("resonances", "sweep", "phase", "twotone", "oracle")

_NUMERICS_DEFAULTS = {
    "multipole_order": 5,
    "resonance_tolerance": 1e-10,
    "drift_tolerance": 1e-4,
    "quad_inflate": 0.5,
    "ext_order": 8,
    "panel_size": 2.5,
    "ring_radial": 10,
    "ring_angular": 12,
    "disk_radial": 16,
    "disk_angular": 48,
    "omega_max": None,
    "collision_floor": 1e-3,
}

_EXPERIMENT_DEFAULTS = {
    "resonances": {},
    "sweep": {
        "mode_ref": 2,
        "omega_min": None,
        "omega_max": None,
        "num_points": 120,
        "F_values": [1e-6, 1e-4, 1e-2],
    },
    "phase": {
        "omega_min": None,
        "omega_max": None,
        "num_points": 240,
        "F": 1e-6,
        "observation_points": None,
        "phase_reference": "velocity",
    },
    "twotone": {
        "Omega1": None,
        "Omega1_mode": 4,
        "omega2_min": None,
        "omega2_max": None,
        "num_points": 41,
        "F1": 1e-5,
        "F2": 1e-5,
        "mode_index": None,
    },
    "oracle": {
        "mu": 0.0,
        "omega0": 1.0,
        "Omega": 1.0,
        "F_values": [1e-8, 1e-6, 1e-4, 1e-2],
    },
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

    def wave_params(self) -> WaveParams:
        m = self.material
        return WaveParams(v=m["v"], v_b=m["v_b"], delta=m["delta"], tau=m.get("tau"))

    @property
    def beta(self) -> float:
        return self.material["beta"]


def _require_keys(block: dict, name: str, required, optional=()) -> None:
    unknown = set(block) - set(required) - set(optional)
    if unknown:
        raise ConfigError(f"{name}: unknown key(s) {sorted(unknown)}")
    missing = [k for k in required if k not in block]
    if missing:
        raise ConfigError(f"{name}: missing required key(s) {missing}")


def _check(cond: bool, message: str) -> None:
    if not cond:
        raise ConfigError(message)


def _number(block: dict, name: str, key: str, lo=None, hi=None, allow_none=False):
    val = block[key]
    if val is None and allow_none:
        return None
    _check(isinstance(val, (int, float)) and not isinstance(val, bool),
           f"{name}.{key}: must be a number, got {val!r}")
    if lo is not None:
        _check(val > lo, f"{name}.{key}: must be > {lo}, got {val}")
    if hi is not None:
        _check(val < hi, f"{name}.{key}: must be < {hi}, got {val}")
    return float(val)


def parse_config(text: str) -> ExperimentConfig:
    """Parse and validate a JSON config (strict keys, defaults applied)."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError("config root must be a JSON object")
    _require_keys(data, "config", ("geometry", "material", "experiment"), ("numerics",))

    geo = dict(data["geometry"])
    _require_keys(geo, "geometry", ("n", "first_radius", "s", "gap_ratio", "source_x"))
    _check(isinstance(geo["n"], int) and geo["n"] >= 1,
           f"geometry.n: must be an integer >= 1, got {geo['n']!r}")
    _number(geo, "geometry", "first_radius", lo=0.0)
    _number(geo, "geometry", "s", lo=0.0)
    _number(geo, "geometry", "gap_ratio", lo=0.0)
    _number(geo, "geometry", "source_x", hi=0.0)

    mat = dict(data["material"])
    _require_keys(mat, "material", ("v", "v_b", "delta", "beta"), ("tau",))
    _number(mat, "material", "v", lo=0.0)
    _number(mat, "material", "v_b", lo=0.0)
    _check(isinstance(mat["delta"], (int, float)) and mat["delta"] > 0,
           "material.delta: delta must be positive")
    _number(mat, "material", "beta")
    if "tau" in mat and mat["tau"] is not None:
        tau = _number(mat, "material", "tau", lo=0.0)
        _check(abs(tau - mat["v_b"] / mat["v"]) <= 1e-12 * abs(tau),
               f"material.tau: {tau} inconsistent with v_b/v = {mat['v_b'] / mat['v']}")

    num = dict(_NUMERICS_DEFAULTS)
    given = dict(data.get("numerics", {}))
    _require_keys(given, "numerics", (), tuple(_NUMERICS_DEFAULTS))
    num.update(given)
    _check(isinstance(num["multipole_order"], int) and num["multipole_order"] >= 1,
           f"numerics.multipole_order: must be an integer >= 1, got {num['multipole_order']!r}")
    for key in ("resonance_tolerance", "drift_tolerance", "quad_inflate", "panel_size",
                "collision_floor"):
        _number(num, "numerics", key, lo=0.0)
    for key in ("ext_order", "ring_radial", "ring_angular", "disk_radial", "disk_angular"):
        _check(isinstance(num[key], int) and num[key] >= 2,
               f"numerics.{key}: must be an integer >= 2, got {num[key]!r}")
    if num["omega_max"] is not None:
        _number(num, "numerics", "omega_max", lo=0.0)

    exp_raw = dict(data["experiment"])
    _check("type" in exp_raw, "experiment.type: missing")
    etype = exp_raw["type"]
    _check(etype in _EXPERIMENT_TYPES,
           f"experiment.type: must be one of {_EXPERIMENT_TYPES}, got {etype!r}")
    exp = dict(_EXPERIMENT_DEFAULTS[etype])
    _require_keys(exp_raw, f"experiment({etype})", ("type",), tuple(exp))
    exp.update({k: v for k, v in exp_raw.items() if k != "type"})
    exp["type"] = etype
    _validate_experiment(exp)

    return ExperimentConfig(geometry=geo, material=mat, numerics=num, experiment=exp, raw=data)


def _validate_experiment(exp: dict) -> None:
    etype = exp["type"]
    name = f"experiment({etype})"
    if etype == "sweep":
        _check(isinstance(exp["mode_ref"], int) and exp["mode_ref"] >= 1,
               f"{name}.mode_ref: must be an integer >= 1")
        _number(exp, name, "omega_min", lo=0.0, allow_none=True)
        _number(exp, name, "omega_max", lo=0.0, allow_none=True)
        _check(isinstance(exp["num_points"], int) and exp["num_points"] >= 2,
               f"{name}.num_points: must be an integer >= 2")
        _check(isinstance(exp["F_values"], list) and exp["F_values"]
               and all(isinstance(f, (int, float)) and f > 0 for f in exp["F_values"]),
               f"{name}.F_values: must be a nonempty list of positive numbers")
    elif etype == "phase":
        _number(exp, name, "omega_min", lo=0.0, allow_none=True)
        _number(exp, name, "omega_max", lo=0.0, allow_none=True)
        _check(isinstance(exp["num_points"], int) and exp["num_points"] >= 8,
               f"{name}.num_points: must be an integer >= 8")
        _number(exp, name, "F", lo=0.0)
        _check(exp["phase_reference"] in ("velocity", "pressure"),
               f"{name}.phase_reference: must be 'velocity' or 'pressure'")
        pts = exp["observation_points"]
        if pts is not None:
            _check(isinstance(pts, list) and pts
                   and all(isinstance(p, list) and len(p) == 2 for p in pts),
                   f"{name}.observation_points: must be a list of [x1, x2] pairs")
    elif etype == "twotone":
        _number(exp, name, "Omega1", lo=0.0, allow_none=True)
        _check(isinstance(exp["Omega1_mode"], int) and exp["Omega1_mode"] >= 1,
               f"{name}.Omega1_mode: must be an integer >= 1")
        _number(exp, name, "omega2_min", lo=0.0, allow_none=True)
        _number(exp, name, "omega2_max", lo=0.0, allow_none=True)
        _check(isinstance(exp["num_points"], int) and exp["num_points"] >= 2,
               f"{name}.num_points: must be an integer >= 2")
        _number(exp, name, "F1", lo=0.0)
        _check(isinstance(exp["F2"], (int, float)) and exp["F2"] >= 0,
               f"{name}.F2: must be a nonnegative number, got {exp['F2']!r}")
        if exp["mode_index"] is not None:
            _check(isinstance(exp["mode_index"], int) and exp["mode_index"] >= 1,
                   f"{name}.mode_index: must be an integer >= 1")
    elif etype == "oracle":
        _number(exp, name, "mu")
        _number(exp, name, "omega0")
        _number(exp, name, "Omega")
        _check(isinstance(exp["F_values"], list)
               and all(isinstance(f, (int, float)) and f >= 0 for f in exp["F_values"]),
               f"{name}.F_values: must be a list of nonnegative numbers")


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
    quad = default_spec(
        array,
        inflate=num["quad_inflate"],
        ext_order=num["ext_order"],
        panel_size=num["panel_size"],
        ring_radial=num["ring_radial"],
        ring_angular=num["ring_angular"],
        disk_radial=num["disk_radial"],
        disk_angular=num["disk_angular"],
    )
    search = {
        "tolerance": num["resonance_tolerance"],
        "drift_tolerance": num["drift_tolerance"],
    }
    if num["omega_max"] is not None:
        search["omega_max"] = num["omega_max"]
    key = modal_cache_key(array, params, M, quad, search)
    cache_path = out_dir / "cache" / f"modal-{key[:16]}.json"
    cache_info = {"key": key, "hit": False, "path": None, "recovered": None}
    if use_cache and cache_path.exists():
        try:
            system = ModalSystem.from_json(cache_path.read_text())
        except (KeyError, TypeError, ValueError) as exc:  # JSONDecodeError is a ValueError
            # a truncated or foreign entry is rebuilt and overwritten below
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


def _resonance_rows(system: ModalSystem):
    return [
        (n + 1, m.resonance.omega.real, m.resonance.omega.imag, m.resonance.residual)
        for n, m in enumerate(system.modes)
    ]


def run_experiment(
    config: ExperimentConfig,
    output_dir,
    use_cache: bool = True,
) -> int:
    """Run the configured experiment, writing CSVs and run.json.

    Returns the process exit status: 0 clean, 2 when some sweep points were
    flagged (results still written), never raises for per-point failures.
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
        "solver_stats": {},
        "sign_flags": {},
        "wall_times_s": {},
    }

    if etype == "oracle":
        exp = config.experiment
        rows = []
        for F in exp["F_values"]:
            res = single_hopf_steady_state(exp["mu"], exp["omega0"], exp["Omega"], F)
            rows.append((res.mu, res.omega0, res.Omega, res.F, res.steady_amplitude))
        manifest["outputs"]["oracle.csv"] = _write_csv(
            out / "oracle.csv",
            ["mu", "omega0", "Omega", "F", "steady_amplitude"],
            rows,
        )
        manifest["wall_times_s"]["total"] = time.time() - t_start
        (out / "run.json").write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
        return 0

    t0 = time.time()
    system, cache_info = _obtain_modal_system(config, out, use_cache)
    manifest["cache"] = cache_info
    manifest["diagnostics"] = _diagnostics(system)
    manifest["wall_times_s"]["modal_system"] = time.time() - t0
    manifest["outputs"]["resonances.csv"] = _write_csv(
        out / "resonances.csv",
        ["n", "re_omega", "im_omega", "residual"],
        _resonance_rows(system),
    )

    exp = config.experiment
    beta = config.beta
    n_flagged = 0
    t0 = time.time()

    if etype == "sweep":
        mode_ref = exp["mode_ref"]
        if mode_ref > system.n:
            raise ConfigError(f"experiment(sweep).mode_ref: only {system.n} modes available")
        center = system.omegas[mode_ref - 1].real
        lo = exp["omega_min"] if exp["omega_min"] is not None else 0.75 * center
        hi = exp["omega_max"] if exp["omega_max"] is not None else 1.35 * center
        grid = np.linspace(lo, hi, exp["num_points"])
        rows = []
        flagged = []
        sweeps = []
        for F in exp["F_values"]:
            sweep = pure_tone_sweep(system, grid, F, beta)
            sweeps.append(sweep)
            n_flagged += sweep.n_flagged
            for i, om in enumerate(sweep.grid):
                sol = sweep.solutions[i]
                if sol is None:
                    flagged.append({"Omega": float(om), "F": F, "message": sweep.flags[i]})
                    for m in range(system.n):
                        rows.append((om, F, m + 1, None, None, None, None, sweep.flags[i]))
                    continue
                for m in range(system.n):
                    rows.append(
                        (om, F, m + 1, abs(sol.X[m]) / F, sol.X[m].real, sol.X[m].imag,
                         sweep.certificates[i], "")
                    )
        manifest["outputs"]["sweep.csv"] = _write_csv(
            out / "sweep.csv",
            ["Omega", "F", "mode", "abs_X_over_F", "re_X", "im_X", "residual", "flag"],
            rows,
        )
        manifest["solver_stats"] = {"n_points": len(grid) * len(exp["F_values"]),
                                    "n_flagged": n_flagged, "flagged": flagged,
                                    **_sweep_stats(sweeps)}

    elif etype == "phase":
        lo = exp["omega_min"] if exp["omega_min"] is not None else 0.25 * system.omegas[0].real
        hi = exp["omega_max"] if exp["omega_max"] is not None else 1.25 * system.omegas[-1].real
        grid = refined_frequency_grid(system, lo, hi, exp["num_points"])
        if exp["observation_points"] is not None:
            obs = np.asarray(exp["observation_points"], dtype=float)
        else:
            obs = default_observation_points(system)
        curves = phase_response(
            system, grid, exp["F"], beta, obs,
            phase_reference=exp["phase_reference"],
        )
        rows = []
        for c in curves:
            for i, om in enumerate(c.grid):
                rows.append(
                    (c.x[0], c.x[1], om, c.R[i], c.phi[i],
                     c.phase_delay_cycles[i], c.group_delay_cycles[i])
                )
        manifest["outputs"]["phase.csv"] = _write_csv(
            out / "phase.csv",
            ["x1", "x2", "Omega", "R", "phi_rad", "phase_delay_cycles", "group_delay_cycles"],
            rows,
        )
        manifest["sign_flags"] = {
            "phase_sign_flipped": curves[0].sign_flipped,
            "phase_reference": curves[0].phase_reference,
        }
        manifest["solver_stats"] = {"n_points": len(grid), "n_flagged": 0, "flagged": [],
                                    **_sweep_stats([curves[0].sweep])}

    elif etype == "twotone":
        mode_1b = exp["mode_index"] if exp["mode_index"] is not None else exp["Omega1_mode"]
        if mode_1b > system.n:
            raise ConfigError(f"experiment(twotone).mode_index: only {system.n} modes available")
        if exp["Omega1"] is not None:
            Omega1 = exp["Omega1"]
        else:
            if exp["Omega1_mode"] > system.n:
                raise ConfigError(
                    f"experiment(twotone).Omega1_mode: only {system.n} modes available"
                )
            Omega1 = abs(system.omegas[exp["Omega1_mode"] - 1])
        lo = exp["omega2_min"] if exp["omega2_min"] is not None else 0.9 * Omega1
        hi = exp["omega2_max"] if exp["omega2_max"] is not None else 1.1 * Omega1
        grid_all = np.linspace(lo, hi, exp["num_points"])
        floor = config.numerics["collision_floor"]
        keep = np.abs(grid_all - Omega1) > floor * abs(Omega1)
        dropped = [float(v) for v in grid_all[~keep]]
        grid = grid_all[keep]
        sweep = two_tone_sweep(
            system, Omega1, grid, exp["F1"], exp["F2"], beta,
            mode_index=mode_1b - 1, collision_floor=floor,
        )
        n_flagged = sweep.n_flagged
        rows = []
        flagged = []
        for i, om2 in enumerate(sweep.grid):
            rec = sweep.metadata["records"][i]
            if rec is None:
                flagged.append({"Omega2": float(om2), "message": sweep.flags[i]})
                continue
            rows.append((om2, rec["abs_X10"], rec["abs_X01"], rec["abs_X21"],
                         rec["abs_X12"], rec["abs_X01_passive"]))
        manifest["outputs"]["twotone.csv"] = _write_csv(
            out / "twotone.csv",
            ["Omega2", "abs_X10", "abs_X01", "abs_X21", "abs_X12", "abs_X01_passive"],
            rows,
        )
        manifest["solver_stats"] = {
            "n_points": len(grid), "n_flagged": n_flagged, "flagged": flagged,
            "Omega1": float(Omega1), "collision_dropped": dropped,
            **_sweep_stats([sweep]),
        }

    elif etype != "resonances":
        raise ConfigError(f"unhandled experiment type {etype!r}")

    manifest["wall_times_s"]["experiment"] = time.time() - t0
    manifest["wall_times_s"]["total"] = time.time() - t_start
    (out / "run.json").write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return 2 if n_flagged else 0


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hopfarray",
        description="Subwavelength resonator arrays with coupled Hopf dynamics",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("resonances", "sweep", "phase", "twotone", "oracle", "validate"):
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
    except (OSError, ConfigError) as exc:
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
