"""Digest every CSV and the solver statistics of the reference configs.

    PYTHONPATH=src python tools/output_digest.py > digest.txt

Runs each reference config through ``hopfarray.cli.main`` in a temporary
directory, with a cold cache, and prints one line per output, ``config file
sha256``: one for every CSV the run lists in run.json, one for its
``solver_stats`` (dumped as JSON with sorted keys) and one for its exit
status; a run that exits 1 writes no run.json, and lists the sha256 of its
error text (what it writes to stderr) in their place. A config whose run
wrote a modal cache entry is then run once more on that warm cache, and one
``config cache-hit same`` line says that the rerun loaded the entry and
reproduced every listed output; otherwise the line names the outputs that
differ, or says the rerun missed the cache. A refactor that must keep every
output byte for byte runs it on the parent commit's ``src`` and on its own,
then diffs the two listings.
"""

from __future__ import annotations

import contextlib
import copy
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

from hopfarray.cli import main

# the README's full example config: the default 6-disk array
BASE = {
    "geometry": {"n": 6, "first_radius": 1.0, "s": 1.05, "gap_ratio": 0.5, "source_x": -5.0},
    "material": {"v": 1.0, "v_b": 1.0, "delta": 1e-3, "beta": 5e5},
    "numerics": {"multipole_order": 5},
}

# name: experiment block; every other block is BASE's, apart from OVERRIDES
CONFIGS = {
    "resonances": {"type": "resonances"},
    "sweep": {"type": "sweep"},
    "phase": {"type": "phase"},
    "twotone": {"type": "twotone"},
    "oracle": {"type": "oracle"},
    "twotone-mode2": {"type": "twotone", "mode_index": 2, "F2": 1e-4},
    # Omega1 given, so the grid and its collisions are known when the config is read
    "twotone-omega1": {"type": "twotone", "Omega1": 0.046},
    "phase-pressure": {"type": "phase", "phase_reference": "pressure",
                       "observation_points": [[3.0, 0.5], [10.0, 1.0]]},
    "sweep-mode3": {"type": "sweep", "mode_ref": 3, "omega_min": 0.03, "omega_max": 0.07,
                    "num_points": 50, "F_values": [3e-5, 2e-2]},
    # takes forcing continuation at two points; every other config takes none
    "phase-continuation": {"type": "phase", "omega_min": 0.0019862027948276875,
                           "omega_max": 0.07797730208237533, "F": 8.382430587987718e-07},
    # warm start fails at one point, and the rescue start carries the continuation past a fold
    "phase-fold": {"type": "phase", "omega_min": 0.0019838344212410306,
                   "omega_max": 0.07536825888757326, "F": 9.555420020795011e-07},
    "sweep-numerics": {"type": "sweep", "num_points": 24, "F_values": [1e-6, 1e-2]},
    # the top root (about 0.327) lies past 2 pi v / (10 d_max)
    "resonances-delta": {"type": "resonances"},
    # a search beyond N = 6: one sub-contour of 256 nodes, winding number 12
    "resonances-n12": {"type": "resonances"},
    # the isolated-disk resonance has Re omega < 0, so the run fails before any search
    "resonances-wrong-sheet": {"type": "resonances"},
}

# name: block: keys that replace that block's keys of BASE for that config;
# sweep-numerics covers every numerics key
OVERRIDES = {
    "sweep-numerics": {"numerics": {"multipole_order": 7, "panel_size": 2.0}},
    "resonances-delta": {"material": {"delta": 0.03}},
    "resonances-n12": {"geometry": {"n": 12}},
    "resonances-wrong-sheet": {"material": {"v": 0.01}},
}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _run(experiment: dict, path: Path, out: Path) -> dict:
    """One CLI run of the config at path into out: its exit status, then
    the sha256 of its error text, or of every CSV and its solver_stats."""
    run = out / "run.json"
    run.unlink(missing_ok=True)  # a failed rerun lists no earlier outputs
    with contextlib.redirect_stderr(io.StringIO()) as err:
        status = main([experiment["type"], "--config", str(path), "--out", str(out)])
    listing = {"exit": str(status)}
    if status == 1:
        listing["error"] = _sha256(err.getvalue().encode())
    if run.exists():
        manifest = json.loads(run.read_text())
        for csv in sorted(manifest["outputs"]):
            listing[csv] = _sha256((out / csv).read_bytes())
        listing["solver_stats"] = _sha256(json.dumps(manifest["solver_stats"], sort_keys=True).encode())
    return listing


def digest(name: str, experiment: dict, work: Path) -> list[str]:
    """The listing lines of one config, run in its own directory under work:
    the cold run's outputs, then the cache-hit line when it wrote an entry."""
    config = copy.deepcopy(BASE)
    for block, keys in OVERRIDES.get(name, {}).items():
        config[block].update(keys)
    config["experiment"] = experiment
    path, out = work / f"{name}.json", work / name
    path.write_text(json.dumps(config))
    cold = _run(experiment, path, out)
    lines = [f"{name} {key} {value}" for key, value in cold.items()]
    if (out / "cache").exists():
        warm = _run(experiment, path, out)
        differ = sorted(key for key in cold.keys() | warm.keys() if cold.get(key) != warm.get(key))
        if differ:
            lines.append(f"{name} cache-hit differs in {', '.join(differ)}")
        elif not json.loads((out / "run.json").read_text())["cache"]["hit"]:
            lines.append(f"{name} cache-hit missed: the rerun rebuilt the modal system")
        else:
            lines.append(f"{name} cache-hit same")
    return lines


def run() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        for name, experiment in CONFIGS.items():
            for line in digest(name, experiment, Path(tmp)):
                print(line, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(run())
