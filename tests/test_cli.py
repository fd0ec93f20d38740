import hashlib
import inspect
import itertools
import json
import os
import re
import shutil
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

import hopfarray
import hopfarray.analysis as analysis
import hopfarray.cli as cli
from hopfarray.boundary import assemble_boundary_system, classify_points
from hopfarray.cli import ConfigError, _obtain_modal_system, main, parse_config, run_experiment
from hopfarray.quadrature import PANEL_SIZE

BASE = {
    "geometry": {"n": 2, "first_radius": 1.0, "s": 1.0, "gap_ratio": 0.5, "source_x": -5.0},
    "material": {"v": 1.0, "v_b": 1.0, "delta": 1e-3, "beta": 5.0e5},
    "experiment": {"type": "resonances"},
}


def _config(**overrides):
    cfg = json.loads(json.dumps(BASE))
    for key, val in overrides.items():
        if isinstance(val, dict) and key in cfg:
            cfg[key].update(val)
        else:
            cfg[key] = val
    return cfg


def test_parse_minimal_config_applies_defaults():
    parsed = parse_config(json.dumps(_config()))  # no numerics object
    assert parsed.M == 5
    assert parsed.panel_size == PANEL_SIZE
    assert parsed.beta == 5.0e5


def test_parse_rejects_zero_delta():
    cfg = _config(material={"delta": 0.0})
    with pytest.raises(ConfigError, match="delta must be positive"):
        parse_config(json.dumps(cfg))


def test_parse_rejects_unknown_key(tmp_path, capsys):
    cfg = _config()
    cfg["material"]["betaa"] = 1.0
    with pytest.raises(ConfigError, match="betaa"):
        parse_config(json.dumps(cfg))
    # the Newton tolerance is fixed at 1e-10 (1 + sum |F|); no key sets it
    cfg = _config(numerics={"newton_tolerance": 1e-10})
    with pytest.raises(ConfigError, match="newton_tolerance"):
        parse_config(json.dumps(cfg))
    # so are the box, the exterior and interior rules' counts, the resonance
    # certificate's thresholds and the two-tone collision floor
    for key in ("quad_inflate", "ext_order", "ring_radial", "ring_angular", "disk_radial",
                "disk_angular", "resonance_tolerance", "drift_tolerance", "collision_floor"):
        cfg = _config(numerics={key: 1})
        with pytest.raises(ConfigError, match=f"^numerics.{key}: unknown key$"):
            parse_config(json.dumps(cfg))
    # validate names the key, so no build runs into a box too tight for its collars
    path = tmp_path / "c.json"
    path.write_text(json.dumps(_config(numerics={"quad_inflate": 0.001})))
    assert main(["validate", "--config", str(path)]) == 1
    assert capsys.readouterr().err == "error: numerics.quad_inflate: unknown key\n"


def test_parse_rejects_tau_as_unknown_key():
    # tau = v_b / v is derived; no key sets it, not even to its own value
    cfg = _config(material={"tau": 1.0})
    with pytest.raises(ConfigError, match="^material.tau: unknown key$"):
        parse_config(json.dumps(cfg))


def test_parse_rejects_bad_json():
    with pytest.raises(ConfigError, match="JSON"):
        parse_config("{not json")


def test_parse_rejects_missing_block():
    cfg = _config()
    del cfg["material"]
    with pytest.raises(ConfigError, match="material"):
        parse_config(json.dumps(cfg))


def test_parse_rejects_bad_experiment_type():
    cfg = _config(experiment={"type": "wibble"})
    with pytest.raises(ConfigError, match="experiment.type"):
        parse_config(json.dumps(cfg))


def test_parse_validates_experiment_fields():
    cfg = _config(experiment={"type": "sweep", "num_points": 1})
    with pytest.raises(ConfigError, match="num_points"):
        parse_config(json.dumps(cfg))
    cfg = _config(experiment={"type": "sweep", "F_values": []})
    with pytest.raises(ConfigError, match="F_values"):
        parse_config(json.dumps(cfg))


def test_resonances_experiment(tmp_path):
    parsed = parse_config(json.dumps(_config()))
    status = run_experiment(parsed, tmp_path)
    assert status == 0
    lines = (tmp_path / "resonances.csv").read_text().splitlines()
    assert lines[0] == "n,re_omega,im_omega,residual"
    assert len(lines) == 3  # header + one row per resonator
    manifest = json.loads((tmp_path / "run.json").read_text())
    assert manifest["versions"]["hopfarray"]
    # outputs round by the BLAS thread count, so the run records the setting it ran at
    assert manifest["versions"]["OPENBLAS_NUM_THREADS"] == os.environ["OPENBLAS_NUM_THREADS"]
    assert "resonances.csv" in manifest["outputs"]
    assert manifest["cache"]["hit"] is False
    modes = manifest["diagnostics"]["modes"]
    assert [d["mode"] for d in modes] == [1, 2]
    for d, row in zip(modes, lines[1:]):
        assert 0 <= d["drift"] <= 1e-4  # the default drift tolerance
        # sv_gap is s[-2]/s[0] of the boundary system at the written resonance,
        # whose s[-2] extract_eigenmode's separation check keeps above 1e4 s[-1]
        _, re_omega, im_omega, _ = map(float, row.split(","))
        omega = complex(re_omega, im_omega)
        s = np.linalg.svd(assemble_boundary_system(parsed.array, parsed.params, omega, parsed.M),
                          compute_uv=False)
        assert d["sv_gap"] == pytest.approx(s[-2] / s[0], rel=1e-10)
        assert d["sv_gap"] * s[0] > 1e4 * s[-1]
    _check_search_record(manifest["diagnostics"]["search"], 2)


def _check_search_record(search, n):
    """Each certified sub-contour records its box, nodes, winding number and
    Beyn rank alone, the winding numbers add up to n, and the assembly total
    covers the nodes."""
    contours = search["contours"]
    assert contours
    for c in contours:
        assert set(c) == {"box", "nodes", "winding", "rank"}
        assert len(c["box"]) == 4 and c["box"][0] < c["box"][1] and c["box"][2] < c["box"][3]
        assert c["winding"] <= c["rank"]
    assert sum(c["winding"] for c in contours) == n
    assert search["search_assemblies"] >= sum(c["nodes"] for c in contours)


def test_sweep_schema_and_determinism(tmp_path):
    cfg = _config(experiment={"type": "sweep", "mode_ref": 2, "num_points": 12,
                              "F_values": [1e-6, 1e-4]})
    parsed = parse_config(json.dumps(cfg))
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    assert run_experiment(parsed, out1) == 0
    assert run_experiment(parsed, out2) == 0
    head = (out1 / "sweep.csv").read_text().splitlines()[0]
    assert head == "Omega,F,mode,abs_X_over_F,re_X,im_X,residual,flag"
    assert (out1 / "sweep.csv").read_bytes() == (out2 / "sweep.csv").read_bytes()
    assert (out1 / "resonances.csv").read_bytes() == (out2 / "resonances.csv").read_bytes()


def test_cache_round_trip_identical(tmp_path):
    cfg = _config(experiment={"type": "sweep", "mode_ref": 1, "num_points": 8,
                              "F_values": [1e-5]})
    parsed = parse_config(json.dumps(cfg))
    out = tmp_path / "warm"
    run_experiment(parsed, out)
    first = (out / "sweep.csv").read_bytes()
    manifest1 = json.loads((out / "run.json").read_text())
    assert manifest1["cache"]["hit"] is False
    run_experiment(parsed, out)
    manifest2 = json.loads((out / "run.json").read_text())
    assert manifest2["cache"]["hit"] is True
    assert manifest2["diagnostics"] == manifest1["diagnostics"]
    assert len(manifest2["diagnostics"]["modes"]) == 2
    for manifest in (manifest1, manifest2):  # cold build, then cache hit
        _check_search_record(manifest["diagnostics"]["search"], 2)
    assert (out / "sweep.csv").read_bytes() == first
    # bypassing the cache still reproduces the same bytes
    out_nc = tmp_path / "nocache"
    run_experiment(parsed, out_nc, use_cache=False)
    assert (out_nc / "sweep.csv").read_bytes() == first


def _cut_payload(text):
    entry = json.loads(text)
    data = entry["interior_values"]["data"]
    entry["interior_values"]["data"] = data[: len(data) // 2 + 1]
    return json.dumps(entry)


def _other_M(text):
    entry = json.loads(text)
    entry["request"]["M"] = 3
    return json.dumps(entry)


@pytest.mark.parametrize("damage, cause", [
    (lambda text: text[: len(text) // 2], "JSONDecodeError"),  # a write cut short
    (lambda text: "null", "ValueError: modal cache entry must be an object, got NoneType"),
    (lambda text: "[]", "ValueError: modal cache entry must be an object, got list"),
    (_other_M, "ValueError: modal cache entry is for another request (differs in M)"),
    (_cut_payload, "Error: "),  # binascii.Error, a ValueError
], ids=["half", "null", "list", "request-differs", "cut-base64"])
def test_truncated_cache_is_rebuilt(tmp_path, damage, cause):
    cfg_path = tmp_path / "sweep.json"
    cfg_path.write_text(json.dumps(_config(experiment={
        "type": "sweep", "mode_ref": 1, "num_points": 6, "F_values": [1e-5]})))
    out = tmp_path / "out"
    args = ["sweep", "--config", str(cfg_path), "--out", str(out)]
    assert main(args) == 0
    first = (out / "sweep.csv").read_bytes()
    (entry,) = (out / "cache").iterdir()
    text = entry.read_text()
    entry.write_text(damage(text))
    assert main(args) == 0
    manifest = json.loads((out / "run.json").read_text())
    assert manifest["cache"]["hit"] is False
    assert manifest["cache"]["recovered"].startswith(cause)
    assert manifest["solver_stats"]["newton_iters"] >= manifest["solver_stats"]["n_points"]
    assert (out / "sweep.csv").read_bytes() == first
    assert entry.read_text() == text  # rewritten whole, no temporary left behind
    assert [p.name for p in (out / "cache").iterdir()] == [entry.name]
    assert main(args) == 0
    manifest = json.loads((out / "run.json").read_text())
    assert manifest["cache"]["hit"] is True and manifest["cache"]["recovered"] is None


def test_foreign_cache_entry_is_rebuilt(tmp_path):
    # the N = 1 entry copied over the N = 2 entry's path is not served
    paths = {}
    for n in (1, 2):
        cfg_path, out = tmp_path / f"n{n}.json", tmp_path / f"o{n}"
        cfg_path.write_text(json.dumps(_config(geometry={"n": n})))
        assert main(["resonances", "--config", str(cfg_path), "--out", str(out)]) == 0
        (paths[n],) = (out / "cache").iterdir()
    shutil.copyfile(paths[1], paths[2])
    args = ["resonances", "--config", str(tmp_path / "n2.json")]
    assert main([*args, "--out", str(tmp_path / "o2")]) == 0
    cache = json.loads((tmp_path / "o2" / "run.json").read_text())["cache"]
    assert cache["hit"] is False
    assert cache["recovered"] == (
        "ValueError: modal cache entry is for another request (differs in inputs)")
    assert main([*args, "--out", str(tmp_path / "nc"), "--no-cache"]) == 0
    rebuilt = (tmp_path / "o2" / "resonances.csv").read_bytes()
    assert rebuilt == (tmp_path / "nc" / "resonances.csv").read_bytes()
    assert len(rebuilt.splitlines()) == 3  # header + two resonators


def test_failed_cache_write_leaves_the_old_entry_and_no_temporary(tmp_path, monkeypatch):
    # a rename that fails removes the temporary file and propagates: readers
    # still see the old entry, whole

    path = tmp_path / "cache" / "entry.json"
    path.parent.mkdir()
    path.write_text("old")

    def refuse(src, dst):
        raise OSError("rename refused")

    monkeypatch.setattr(cli.os, "replace", refuse)
    with pytest.raises(OSError, match="rename refused"):
        cli._write_atomic(path, "new")
    assert path.read_text() == "old"
    assert list(path.parent.iterdir()) == [path]


def test_twotone_schema(tmp_path):
    cfg = _config(experiment={"type": "twotone", "Omega1_mode": 2, "num_points": 7,
                              "F1": 1e-5, "F2": 1e-5})
    parsed = parse_config(json.dumps(cfg))
    assert run_experiment(parsed, tmp_path) == 0
    lines = (tmp_path / "twotone.csv").read_text().splitlines()
    assert lines[0] == "Omega2,abs_X10,abs_X01,abs_X21,abs_X12,abs_X01_passive"
    manifest = json.loads((tmp_path / "run.json").read_text())
    stats = manifest["solver_stats"]
    assert stats["collision_dropped"] == [pytest.approx(stats["Omega1"])]
    assert stats["newton_iters"] > 0
    assert 0 <= stats["certificate_max"] <= 1e-10 * (1 + 2e-5)


def test_twotone_without_second_tone_is_a_config_error(tmp_path, capsys):
    # every Omega2 of the grid falls within 1e-3 x Omega1 of Omega1 =
    # |omega_1| (about 0.0155182); Omega1 comes from mode 1, so the collisions
    # are known only after the build. The message carries |omega_1| as a
    # resonances run wrote it, whose cache the twotone run then reads
    cfg = _config(experiment={"type": "twotone", "Omega1_mode": 1, "mode_index": 1,
                              "omega2_min": 0.015515, "omega2_max": 0.015521})
    path, resonances = tmp_path / "cfg.json", tmp_path / "res.json"
    path.write_text(json.dumps(cfg))
    resonances.write_text(json.dumps(_config()))
    assert main(["validate", "--config", str(path)]) == 0
    assert main(["resonances", "--config", str(resonances), "--out", str(tmp_path / "res")]) == 0
    _, re_omega, im_omega, _ = (tmp_path / "res" / "resonances.csv").read_text().splitlines()[1].split(",")
    Omega1 = abs(complex(float(re_omega), float(im_omega)))
    shutil.copytree(tmp_path / "res" / "cache", tmp_path / "out" / "cache")
    capsys.readouterr()
    assert main(["twotone", "--config", str(path), "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == (
        "error: ConfigError: experiment.omega2_min/omega2_max: every Omega2 in "
        f"[0.015515, 0.015521] lies within 0.001 x Omega1 of Omega1 = {Omega1!r}\n")
    assert not (tmp_path / "out" / "run.json").exists()


def test_twotone_grid_with_a_given_omega1_is_checked_when_read(tmp_path, capsys, monkeypatch):
    # with Omega1 given the grid is known from the config alone, so validate
    # rejects it and twotone stops before any build

    def no_build(*args, **kwargs):
        raise AssertionError("cold build")

    monkeypatch.setattr(cli, "build_modal_system", no_build)
    cfg = _config(geometry={"s": 1.05}, experiment={
        "type": "twotone", "Omega1": 0.05, "omega2_min": 0.04999, "omega2_max": 0.05001,
        "mode_index": 1})
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    want = ("error: experiment.omega2_min/omega2_max: every Omega2 in [0.04999, 0.05001] lies "
            "within 0.001 x Omega1 of Omega1 = 0.05\n")
    assert main(["validate", "--config", str(path)]) == 1
    assert capsys.readouterr().err == want
    assert main(["twotone", "--config", str(path), "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == want
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("experiment, want", [
    # 1.1 x Omega1 overflows
    ({"type": "twotone", "Omega1": 1.7e308, "mode_index": 1},
     "experiment.Omega1: the 41 points from omega2_min = 1.53e+308 to omega2_max = inf are not "
     "finite and strictly increasing"),
    # 0.9 x Omega1 and 1.1 x Omega1 round to the same subnormal
    ({"type": "twotone", "Omega1": 5e-324, "mode_index": 1},
     "experiment.Omega1: omega2_min must be below omega2_max, got 5e-324 and 5e-324"),
    # two adjacent floats hold no 120 distinct points
    ({"type": "sweep", "omega_min": 0.03, "omega_max": 0.030000000000000002, "num_points": 120,
      "F_values": [1e-6]},
     "experiment.omega_max: the 120 points from omega_min = 0.03 to omega_max = "
     "0.030000000000000002 are not finite and strictly increasing"),
    # a phase grid refines an even base grid of num_points
    ({"type": "phase", "omega_min": 0.03, "omega_max": 0.030000000000000002},
     "experiment.omega_max: the 240 points from omega_min = 0.03 to omega_max = "
     "0.030000000000000002 are not finite and strictly increasing"),
], ids=["twotone-huge-omega1", "twotone-subnormal-omega1", "sweep-adjacent-ends",
        "phase-adjacent-ends"])
def test_grid_the_config_fixes_is_built_when_read(experiment, want, tmp_path, capsys,
                                                  monkeypatch):

    def no_build(*args, **kwargs):
        raise AssertionError("cold build")

    monkeypatch.setattr(cli, "build_modal_system", no_build)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(_config(geometry={"s": 1.05}, experiment=experiment)))
    assert main(["validate", "--config", str(path)]) == 1
    assert capsys.readouterr().err == f"error: {want}\n"
    out = tmp_path / "out"
    assert main([experiment["type"], "--config", str(path), "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {want}\n"
    assert not (out / "cache").exists()


def test_phase_observation_point_on_a_circle_rejected(tmp_path, capsys):
    # circle 0 of the two-disk array is centered at (1, 0) with radius 1
    cfg = _config(experiment={"type": "phase", "observation_points": [[3.0, 0.5], [2.0, 0.0]]})
    with pytest.raises(ConfigError, match=re.escape(
            "experiment.observation_points: point (2.0, 0.0) lies on a resonator boundary, "
            "where the field has two traces")):
        parse_config(json.dumps(cfg))
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert main(["validate", "--config", str(path)]) == 1
    assert "experiment.observation_points" in capsys.readouterr().err
    array = parse_config(json.dumps(_config())).array
    with pytest.raises(ValueError, match=re.escape("point (2.0, 0.0) lies on a resonator boundary")):
        classify_points(array.centers, array.radii, np.array([[3.0, 0.5], [2.0, 0.0]]))


def test_phase_experiment_and_sign_flags(tmp_path):
    cfg = _config(experiment={"type": "phase", "num_points": 60, "F": 1e-6})
    parsed = parse_config(json.dumps(cfg))
    assert run_experiment(parsed, tmp_path) == 0
    lines = (tmp_path / "phase.csv").read_text().splitlines()
    assert lines[0] == "x1,x2,Omega,R,phi_rad,phase_delay_cycles,group_delay_cycles"
    manifest = json.loads((tmp_path / "run.json").read_text())
    assert manifest["sign_flags"]["phase_reference"] == "velocity"
    assert manifest["sign_flags"]["phase_sign_flipped"] in (True, False)
    assert manifest["solver_stats"]["newton_iters"] >= manifest["solver_stats"]["n_points"]
    assert 0 <= manifest["solver_stats"]["certificate_max"] <= 1e-10 * (1 + 1e-6)


def test_phase_sign_flip_is_applied_and_written(tmp_path, monkeypatch):
    # conjugated amplitudes mirror every phase, so the low-frequency phase
    # lies near +pi and the orientation check negates the curve
    sweep, respond, calls = analysis.pure_tone_sweep, cli.phase_response, []

    def conjugated(*args):
        out = sweep(*args)
        out.X = out.X.conj()
        return out

    def recording(*args, **kwargs):
        calls.append((args, respond(*args, **kwargs)))
        return calls[-1][1]

    monkeypatch.setattr(analysis, "pure_tone_sweep", conjugated)
    monkeypatch.setattr(cli, "phase_response", recording)
    cfg = _config(experiment={"type": "phase", "num_points": 60, "F": 1e-6})
    assert run_experiment(parse_config(json.dumps(cfg)), tmp_path) == 0
    ((system, *_, obs), resp), = calls
    assert resp.sign_flipped
    amplitudes = resp.sweep.X[resp.sweep.solved, 0] @ system.mode_fields_at(obs)
    assert np.array_equal(resp.phi, -(np.unwrap(np.angle(amplitudes), axis=0) + 0.5 * np.pi))
    manifest = json.loads((tmp_path / "run.json").read_text())
    assert manifest["sign_flags"] == {"phase_sign_flipped": True, "phase_reference": "velocity"}


def test_wall_times_do_not_follow_a_clock_stepped_back(tmp_path, monkeypatch):
    # every read of the wall clock is an hour before the one before it
    real, reads = time.time, itertools.count()
    monkeypatch.setattr("hopfarray.cli.time.time", lambda: real() - 3600.0 * next(reads))
    assert run_experiment(parse_config(json.dumps(_config())), tmp_path) == 0
    times = json.loads((tmp_path / "run.json").read_text())["wall_times_s"]
    assert set(times) == {"modal_system", "experiment", "total"}
    assert all(t >= 0 for t in times.values())


def test_phase_at_given_observation_points(tmp_path):
    # one point inside circle 1 (centered at (3.5, 0)), one outside both circles
    points = [[3.5, 0.5], [0.0, 2.0]]
    cfg = _config(experiment={"type": "phase", "num_points": 60, "F": 1e-6,
                              "observation_points": points})
    assert run_experiment(parse_config(json.dumps(cfg)), tmp_path) == 0
    stats = json.loads((tmp_path / "run.json").read_text())["solver_stats"]
    rows = [line.split(",") for line in (tmp_path / "phase.csv").read_text().splitlines()[1:]]
    n = stats["n_points"]
    assert stats["n_flagged"] == 0 and len(rows) == 2 * n
    for k, point in enumerate(points):
        assert all([float(x1), float(x2)] == point for x1, x2, *_ in rows[k * n:(k + 1) * n])


def test_oracle_experiment(tmp_path):
    cfg = _config(experiment={"type": "oracle", "mu": 0.0, "omega0": 1.0,
                              "Omega": 1.0, "F_values": [1e-6, 1e-3]})
    parsed = parse_config(json.dumps(cfg))
    assert run_experiment(parsed, tmp_path) == 0
    lines = (tmp_path / "oracle.csv").read_text().splitlines()
    assert lines[0] == "mu,omega0,Omega,F,steady_amplitude"
    amp = float(lines[1].split(",")[-1])
    assert amp == pytest.approx((1e-6) ** (1 / 3), rel=1e-6)


def test_flagged_points_exit_code(tmp_path, monkeypatch):
    from hopfarray.hopf import ConvergenceError

    real_solver = analysis.solve_lines
    cfg = _config(experiment={"type": "sweep", "mode_ref": 1, "num_points": 6,
                              "F_values": [1e-5]})
    parsed = parse_config(json.dumps(cfg))
    run_experiment(parsed, tmp_path / "probe")
    grid_omega = float(
        (tmp_path / "probe" / "sweep.csv").read_text().splitlines()[1].split(",")[0]
    )

    def failing(system, vectors, tones, forcing, beta, starts):
        # the lane at grid_omega fails; the sweep flags what the driver returns
        outcomes, counts = real_solver(system, vectors, tones, forcing, beta, starts)
        forced = ConvergenceError("forced failure for the flag-path test")
        return [forced if abs(om - grid_omega) < 1e-15 else out
                for (om,), out in zip(tones, outcomes)], counts

    monkeypatch.setattr(analysis, "solve_lines", failing)
    status = run_experiment(parsed, tmp_path / "flagged")
    assert status == 2
    manifest = json.loads((tmp_path / "flagged" / "run.json").read_text())
    assert manifest["solver_stats"]["n_flagged"] == 1
    assert "forced failure" in manifest["solver_stats"]["flagged"][0]["message"]
    rows = (tmp_path / "flagged" / "sweep.csv").read_text().splitlines()[1:]
    flagged_rows = [r for r in rows if r.endswith("test")]
    assert len(flagged_rows) == 2  # one per mode at the failed point


def test_flagged_phase_point_exit_code(tmp_path, monkeypatch):
    from hopfarray.hopf import ConvergenceError

    real_solver = analysis.solve_lines
    parsed = parse_config(json.dumps(_config(experiment={"type": "phase", "num_points": 60})))
    assert run_experiment(parsed, tmp_path / "probe") == 0
    probe = (tmp_path / "probe" / "phase.csv").read_text().splitlines()[1:]
    grid = sorted({float(r.split(",")[2]) for r in probe})
    lost = grid[5]  # an interior point, so both its neighbours' differences change

    def failing(system, vectors, tones, forcing, beta, starts):
        outcomes, counts = real_solver(system, vectors, tones, forcing, beta, starts)
        forced = ConvergenceError("forced failure for the phase flag-path test")
        return [forced if om == lost else out for (om,), out in zip(tones, outcomes)], counts

    monkeypatch.setattr(analysis, "solve_lines", failing)
    assert run_experiment(parsed, tmp_path / "flagged") == 2
    stats = json.loads((tmp_path / "flagged" / "run.json").read_text())["solver_stats"]
    assert stats["n_points"] == len(grid) and stats["n_flagged"] == 1
    assert stats["flagged"] == [
        {"Omega": lost, "message": "ConvergenceError: forced failure for the phase flag-path test"}]
    rows = np.array([[float(v) for v in r.split(",")]
                     for r in (tmp_path / "flagged" / "phase.csv").read_text().splitlines()[1:]])
    points = np.unique(rows[:, :2], axis=0)
    assert len(rows) == len(points) * (len(grid) - 1)
    for x in points:
        om, phi, gd = rows[(rows[:, :2] == x).all(axis=1)][:, [2, 4, 6]].T
        assert sorted(om) == [w for w in grid if w != lost]
        central = (phi[2:] - phi[:-2]) / (om[2:] - om[:-2]) * om[1:-1] / (2 * np.pi)
        assert np.allclose(gd[1:-1], central, rtol=1e-12, atol=0.0)


def test_flagged_twotone_point_exit_code(tmp_path, monkeypatch):
    from hopfarray.hopf import ConvergenceError

    real_solver = analysis.solve_lines
    parsed = parse_config(json.dumps(_config(experiment={"type": "twotone", "Omega1_mode": 2,
                                                         "num_points": 7})))
    assert run_experiment(parsed, tmp_path / "probe") == 0
    probe = (tmp_path / "probe" / "twotone.csv").read_text().splitlines()
    lost = float(probe[3].split(",")[0])

    def failing(system, vectors, tones, forcing, beta, starts):
        outcomes, counts = real_solver(system, vectors, tones, forcing, beta, starts)
        forced = ConvergenceError("forced failure for the two-tone flag-path test")
        return [forced if om2 == lost else out for (_, om2), out in zip(tones, outcomes)], counts

    monkeypatch.setattr(analysis, "solve_lines", failing)
    assert run_experiment(parsed, tmp_path / "flagged") == 2
    stats = json.loads((tmp_path / "flagged" / "run.json").read_text())["solver_stats"]
    assert stats["n_points"] == len(probe) - 1 and stats["n_flagged"] == 1
    assert stats["flagged"] == [
        {"Omega2": lost, "message": "ConvergenceError: forced failure for the two-tone flag-path test"}]
    # the failed row is left out; every other row keeps its bytes
    assert (tmp_path / "flagged" / "twotone.csv").read_text().splitlines() == probe[:3] + probe[4:]


def test_oracle_flags_forcing_without_one_stable_state(tmp_path):
    # the detuning of test_hopf's bistable case: weak forcing leaves the limit
    # cycle unlocked, F = 0.5265 lies inside the fold, strong forcing locks
    cfg = _config(experiment={"type": "oracle", "mu": 1.0, "omega0": 1.0, "Omega": 0.45,
                              "F_values": [0.05, 0.5265, 2.0]})
    assert run_experiment(parse_config(json.dumps(cfg)), tmp_path) == 2
    stats = json.loads((tmp_path / "run.json").read_text())["solver_stats"]
    assert stats["n_points"] == 3 and stats["n_flagged"] == 2
    assert [f["F"] for f in stats["flagged"]] == [0.05, 0.5265]
    assert stats["flagged"][0]["message"].startswith(
        "ConvergenceError: no stable phase-locked state at mu=1.0")
    assert stats["flagged"][1]["message"].startswith(
        "ConvergenceError: bistable response at mu=1.0")
    lines = (tmp_path / "oracle.csv").read_text().splitlines()
    assert len(lines) == 2 and float(lines[1].split(",")[3]) == 2.0


# the README's default 6-disk array with the default sweep
DEFAULT_SWEEP = {
    "geometry": {"n": 6, "first_radius": 1.0, "s": 1.05, "gap_ratio": 0.5, "source_x": -5.0},
    "material": {"v": 1.0, "v_b": 1.0, "delta": 1e-3, "beta": 5e5},
    "experiment": {"type": "sweep"},
}


def test_acceptance_fixture_is_the_cli_system(six_system, tmp_path):
    # the acceptance criteria certify the very system the CLI builds for the
    # README default config, bit for bit
    config = parse_config(json.dumps(DEFAULT_SWEEP))
    system, cache = _obtain_modal_system(config, tmp_path, use_cache=False)
    assert cache["path"] is None and not (tmp_path / "cache").exists()
    for name in ("omegas", "gram", "source_vec", "cubic_tensor", "interior_values"):
        assert np.array_equal(getattr(system, name), getattr(six_system, name)), name


@pytest.fixture(scope="module")
def default_sweep(tmp_path_factory):
    """A default-array sweep run once through main: (config path, output
    directory with its cache, manifest)."""
    root = tmp_path_factory.mktemp("default_sweep")
    cfg_path = root / "sweep.json"
    cfg_path.write_text(json.dumps(DEFAULT_SWEEP))
    out = root / "out"
    assert main(["sweep", "--config", str(cfg_path), "--out", str(out)]) == 0
    return cfg_path, out, json.loads((out / "run.json").read_text())


def test_sweep_counts_residual_evaluations(default_sweep):
    # a polish step at the float floor tries only the full Newton step, so
    # a converged point costs about one evaluation per iteration
    stats = default_sweep[2]["solver_stats"]
    assert stats["n_points"] == 360 and stats["n_flagged"] == 0
    assert stats["continuation_points"] == 0
    assert stats["newton_iters"] <= stats["residual_evaluations"]
    assert stats["residual_evaluations"] <= 2 * (stats["newton_iters"] + stats["n_points"])


def _in_fresh_process(code: str, args=(), src: Path | None = None,
                      env: dict | None = None) -> str:
    """The last line that code prints, run with args in a new interpreter that
    imports the package from src (default: this one) under env (default:
    this one's)."""
    env = dict(os.environ if env is None else env,
               PYTHONPATH=str(src or Path(hopfarray.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-c", code, *args], env=env, capture_output=True,
                          text=True, timeout=120, check=True)
    return proc.stdout.split("\n")[-2]


def _main_in_fresh_process(args: list[str], src: Path | None = None,
                           modules: tuple = ("scipy", "scipy.special", "scipy.linalg",
                                             "numpy.polynomial")) -> str:
    """Run main(args) in a new interpreter that imports the package from src
    (default: this one); its exit status and which of modules it loaded."""
    code = (
        "import sys; from hopfarray.cli import main; status = main(sys.argv[1:]); "
        f"print(status, [m for m in {modules!r} if m in sys.modules])"
    )
    return _in_fresh_process(code, args, src)


def _openblas_threads():
    """The thread count of numpy's bundled OpenBLAS, read as perfbench/run.py's
    blas_threads() reads it; None where no library exports the symbol."""
    import ctypes
    import glob

    import numpy as np
    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(glob.glob(str(libdir / "*openblas*"))):
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            if hasattr(handle, sym):
                fn = getattr(handle, sym)
                fn.argtypes, fn.restype = [], ctypes.c_int
                return fn()
    return None


@pytest.mark.parametrize("given, want", [(None, "1"), ("2", "2")])
def test_openblas_runs_one_thread_unless_the_environment_says(given, want):
    # the console script and python -m hopfarray.cli both import the package
    # first, so the pin comes before numpy loads; a count the user sets stays
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    if given is not None:
        env["OPENBLAS_NUM_THREADS"] = given
    code = ("import os; from pathlib import Path; import hopfarray.cli\n"
            f"{inspect.getsource(_openblas_threads)}\n"
            "print(os.environ.get('OPENBLAS_NUM_THREADS'), _openblas_threads())")
    setting, threads = _in_fresh_process(code, env=env).split()
    assert setting == want
    if threads != "None":  # OpenBLAS caps the count at the machine's cores
        assert int(threads) == min(int(want), os.cpu_count())


def test_the_tests_run_openblas_as_a_fresh_cli_does():
    # conftest imports the package before numpy, so in-process results share
    # bits with the fresh-process runs
    threads = _openblas_threads()
    assert threads in (None, min(int(os.environ["OPENBLAS_NUM_THREADS"]), os.cpu_count()))


@pytest.mark.parametrize("experiment", [
    {"type": "sweep"},
    {"type": "twotone"},
    {"type": "phase"},  # the default points: the centers of circles 1, 3 and 5
    # the first point is inside circle 2, the second outside every circle
    {"type": "phase", "phase_reference": "pressure", "observation_points": [[3.0, 0.5], [10.0, 1.0]]},
], ids=["sweep", "twotone", "phase", "phase-pressure"])
def test_cache_hit_skips_scipy_special_and_linalg(default_sweep, tmp_path, experiment):
    # numpy.ma too, which np.unique and np.median import, and numpy.polynomial,
    # which holds leggauss. The observation points of phase are sampled with
    # numpy alone
    cfg_path, out, manifest = default_sweep
    cache = out / "cache"
    etype = experiment["type"]
    if etype != "sweep":  # the same array and numerics, so the sweep's entry serves it
        cfg_path = tmp_path / f"{etype}.json"
        cfg_path.write_text(json.dumps({**DEFAULT_SWEEP, "experiment": experiment}))
        out = tmp_path / "cold"
        assert main([etype, "--config", str(cfg_path), "--out", str(out), "--no-cache"]) == 0
        manifest = json.loads((out / "run.json").read_text())
    hit = tmp_path / "hit"
    hit.mkdir()
    (hit / "cache").symlink_to(cache)
    args = [etype, "--config", str(cfg_path), "--out", str(hit)]
    modules = ("scipy", "scipy.special", "scipy.linalg", "numpy.ma", "numpy.polynomial")
    assert _main_in_fresh_process(args, modules=modules) == "0 []"
    rerun = json.loads((hit / "run.json").read_text())
    assert rerun["cache"]["hit"] is True
    assert rerun["solver_stats"] == manifest["solver_stats"]  # the counts repeat exactly
    assert (hit / f"{etype}.csv").read_bytes() == (out / f"{etype}.csv").read_bytes()


@pytest.mark.parametrize("etype", ["resonances", "sweep", "phase", "twotone", "oracle"])
def test_exit_status_two_exactly_when_flagged(default_sweep, tmp_path, etype):
    # the benchmark's correctness check reads the exit status by this rule
    cfg_path = tmp_path / f"{etype}.json"
    cfg_path.write_text(json.dumps({**DEFAULT_SWEEP, "experiment": {"type": etype}}))
    (tmp_path / "out").mkdir()
    (tmp_path / "out" / "cache").symlink_to(default_sweep[1] / "cache")
    status = main([etype, "--config", str(cfg_path), "--out", str(tmp_path / "out")])
    stats = json.loads((tmp_path / "out" / "run.json").read_text())["solver_stats"]
    assert stats["n_flagged"] == len(stats["flagged"])
    assert status == (2 if stats["n_flagged"] > 0 else 0)


def test_edited_module_misses_the_cache(tmp_path):
    # the key hashes the package source, so no version needs bumping by hand
    src = tmp_path / "src"
    shutil.copytree(Path(hopfarray.__file__).parent, src / "hopfarray",
                    ignore=shutil.ignore_patterns("__pycache__"))
    cfg_path = tmp_path / "c.json"
    cfg_path.write_text(json.dumps(_config(geometry={"n": 1})))
    out = tmp_path / "o"
    args = ["resonances", "--config", str(cfg_path), "--out", str(out)]
    hits = []
    for edit in (False, False, True):
        if edit:
            with open(src / "hopfarray" / "geometry.py", "a") as module:
                module.write("# an edit that changes no behaviour\n")
        assert _main_in_fresh_process(args, src).startswith("0 ")
        hits.append(json.loads((out / "run.json").read_text())["cache"]["hit"])
    assert hits == [False, True, False]
    assert len(list((out / "cache").iterdir())) == 2


def test_cold_build_skips_scipy_linalg(tmp_path):
    # the search and the modes use numpy alone, and the Gauss-Legendre rules
    # come from numpy.linalg, not numpy.polynomial
    cfg_path = tmp_path / "c.json"
    cfg_path.write_text(json.dumps(_config()))
    args = ["resonances", "--config", str(cfg_path), "--out", str(tmp_path / "o"), "--no-cache"]
    assert _main_in_fresh_process(args) == "0 []"


def test_main_validate_and_mismatch(tmp_path, capsys):
    cfg_path = tmp_path / "c.json"
    cfg_path.write_text(json.dumps(_config()))
    assert main(["validate", "--config", str(cfg_path)]) == 0
    assert "config OK" in capsys.readouterr().out
    # experiment type must match the subcommand
    assert main(["sweep", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert "does not match" in err


@pytest.mark.parametrize("material", [{"v": 1e-6}, {"v": 0.01}, {"v_b": 1000.0}, {"delta": 1000.0}],
                         ids=lambda m: "-".join(f"{k}{v:g}" for k, v in m.items()))
def test_resonances_off_the_physical_sheet_fail_in_one_line(tmp_path, capsys, material):
    # the isolated-disk resonance is NaN or has Re omega < 0: the run fails
    # before any search, naming it and the material, and warns of nothing
    cfg_path = tmp_path / "c.json"
    cfg_path.write_text(json.dumps(_config(material=material)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        status = main(["resonances", "--config", str(cfg_path), "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert status == 1 and err.count("\n") == 1
    assert err.startswith("error: ResonanceSearchError: the isolated-disk resonance of circle 1 ")
    (key, value), = material.items()
    assert "off the physical sheet Re omega > 0, at material " in err and f"{key} = {value:.6g}" in err
    assert not (tmp_path / "o" / "run.json").exists()


def test_main_reports_config_errors(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"geometry": {}}')
    assert main(["validate", "--config", str(bad)]) == 1
    assert "error" in capsys.readouterr().err


def test_csv_floats_round_trip(tmp_path):
    parsed = parse_config(json.dumps(_config()))
    run_experiment(parsed, tmp_path)
    lines = (tmp_path / "resonances.csv").read_text().splitlines()[1:]
    manifest = json.loads((tmp_path / "run.json").read_text())
    # shortest round-trip decimals: parsing back and re-rendering is identity
    for line in lines:
        for field in line.split(",")[1:]:
            assert repr(float(field)) == field


def test_csv_cells_by_type(tmp_path):
    from hopfarray.cli import _write_csv

    rows = [
        (3, np.int64(-4), None, "a,b\nc", np.float64(0.1), 0.1, np.float32(0.1), True),
        (np.int32(7), 0, "", "plain", np.float64(-0.0), float("nan"), np.float32(2.5), 1e300),
        # a column of mixed types, as where a failed point leaves its values empty
        (None, 5, 2.5, None, np.float64("inf"), np.float64(1e-320), None, "x"),
    ]
    digest = _write_csv(tmp_path / "t.csv", list("abcdefgh"), rows)
    text = (tmp_path / "t.csv").read_text()
    assert text == (
        "a,b,c,d,e,f,g,h\n"
        "3,-4,,a;b c,0.1,0.1,0.10000000149011612,1.0\n"
        "7,0,,plain,-0.0,nan,2.5,1e+300\n"
        ",5,2.5,,inf,1e-320,,x\n"
    )
    assert digest == hashlib.sha256(text.encode()).hexdigest()
    _write_csv(tmp_path / "empty.csv", ["a", "b"], [])
    assert (tmp_path / "empty.csv").read_text() == "a,b\n"
