"""Correctness gate for the CSV datasets written by the hopfarray CLI.

Every operation of the benchmark is checked here. The checks compare with
tolerances, never bytes, so a resonance search that agrees with the
reference to 1e-10 relative passes, while a wrong branch, a missing mode or
a swapped mode order fails. Each check returns a list of problems; an empty
list means the output passed.

Two kinds of evidence are used:

* reference data committed under ``reference/``: the resonances (for every
  seed; they scale exactly as 1/c with the geometry), the two-tone lines of
  every mode, and the sweep and phase curves of the default seed;
* certificates that hold for any seed: the Newton tolerance on every
  ``residual`` column, the group delay being the central-difference
  derivative of the reported phase, and the passive two-tone line agreeing
  with the closed-form linear response of the reference modal system.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

REFERENCE = Path(__file__).resolve().parent / "reference"

# Contract tolerances of the program (cli._NUMERICS_DEFAULTS).
RESONANCE_TOL = 1e-10
NEWTON_TOL = 1e-10
TWOTONE_F2 = 1e-5  # the CLI default probe forcing, used by every seed

# Agreement with the reference. A resonance shift of 1e-10 relative moves a
# response near the sharpest mode (|Im w| / Re w ~ 4e-4) by ~2.5e-7 relative.
RESONANCE_RTOL = 1e-8
GRID_RTOL = 1e-8
VALUE_RTOL = 1e-5
PHASE_ATOL = 1e-5  # radians
# Refined phase grids are built with arange over windows set by the
# resonances, so a tiny resonance shift may add or drop an endpoint.
PHASE_UNMATCHED_PER_CURVE = 12


def read_csv(path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _f(row: dict, key: str) -> float:
    return float(row[key])


def _close(a: complex, b: complex, rtol: float, atol: float = 0.0) -> bool:
    return abs(a - b) <= rtol * abs(b) + atol and math.isfinite(abs(a))


def load_reference_model() -> dict:
    """Resonances and source gain g = (G^-1)^T s of the default system."""
    data = json.loads((REFERENCE / "model.json").read_text())
    return {
        "omegas": [complex(*w) for w in data["omegas"]],
        "source_gain": [complex(*g) for g in data["source_gain"]],
    }


def check_resonances(rows: list[dict], ref_rows: list[dict], scale: float = 1.0) -> list[str]:
    """Resonances must equal reference / scale, in order, with small residuals."""
    problems = []
    if len(rows) != len(ref_rows):
        return [f"resonances.csv: {len(rows)} modes, expected {len(ref_rows)}"]
    for k, (row, ref) in enumerate(zip(rows, ref_rows)):
        if int(row["n"]) != k + 1:
            problems.append(f"resonances.csv row {k}: n = {row['n']}, expected {k + 1}")
        w = complex(_f(row, "re_omega"), _f(row, "im_omega"))
        w_ref = complex(_f(ref, "re_omega"), _f(ref, "im_omega")) / scale
        if not _close(w, w_ref, RESONANCE_RTOL):
            problems.append(f"resonances.csv mode {k + 1}: {w} differs from {w_ref}")
        if not _f(row, "residual") <= RESONANCE_TOL:
            problems.append(f"resonances.csv mode {k + 1}: residual {row['residual']} > {RESONANCE_TOL}")
    return problems


def check_sweep(rows: list[dict], expected_rows: int, ref_rows: list[dict] | None) -> list[str]:
    """Newton certificate on every row; values against the reference if given.

    Flagged rows (solver failures) are counted as failed units by the caller
    from run.json, not here; they carry no certificate and are skipped.
    """
    problems = []
    if len(rows) != expected_rows:
        return [f"sweep.csv: {len(rows)} rows, expected {expected_rows}"]
    for k, row in enumerate(rows):
        if row["flag"]:
            continue
        F = _f(row, "F")
        X = complex(_f(row, "re_X"), _f(row, "im_X"))
        if not _f(row, "residual") <= NEWTON_TOL * (1.0 + F):
            problems.append(f"sweep.csv row {k}: residual {row['residual']} above Newton tolerance")
        if not _close(_f(row, "abs_X_over_F"), abs(X) / F, 1e-12):
            problems.append(f"sweep.csv row {k}: abs_X_over_F inconsistent with X")
    if ref_rows is None or problems:
        return problems
    if len(ref_rows) != len(rows):
        return [f"sweep.csv: {len(rows)} rows, reference has {len(ref_rows)}"]
    for k, (row, ref) in enumerate(zip(rows, ref_rows)):
        if row["mode"] != ref["mode"] or row["F"] != ref["F"]:
            problems.append(f"sweep.csv row {k}: (mode, F) = ({row['mode']}, {row['F']}) out of order")
            continue
        if not _close(_f(row, "Omega"), _f(ref, "Omega"), GRID_RTOL):
            problems.append(f"sweep.csv row {k}: Omega {row['Omega']} differs from reference")
            continue
        X = complex(_f(row, "re_X"), _f(row, "im_X"))
        X_ref = complex(_f(ref, "re_X"), _f(ref, "im_X"))
        if not _close(X, X_ref, VALUE_RTOL):
            problems.append(f"sweep.csv row {k}: X = {X} differs from reference {X_ref}")
    return problems[:20]


def _curves(rows: list[dict]) -> dict:
    curves: dict = {}
    for row in rows:
        curves.setdefault((row["x1"], row["x2"]), []).append(row)
    return curves


def check_phase(rows: list[dict], expected_points: int, ref_rows: list[dict] | None) -> list[str]:
    """Phase curves: size, derivative certificate, and the reference if given."""
    problems = []
    curves = _curves(rows)
    if len(curves) != 3:
        return [f"phase.csv: {len(curves)} observation points, expected 3"]
    for key, curve in curves.items():
        if abs(len(curve) - expected_points) > PHASE_UNMATCHED_PER_CURVE:
            problems.append(f"phase.csv at {key}: {len(curve)} points, expected {expected_points}")
            continue
        om = [_f(r, "Omega") for r in curve]
        phi = [_f(r, "phi_rad") for r in curve]
        if any(not om[i] < om[i + 1] for i in range(len(om) - 1)):
            problems.append(f"phase.csv at {key}: grid not strictly increasing")
            continue
        n = len(om)
        for i, r in enumerate(curve):
            lo, hi = max(i - 1, 0), min(i + 1, n - 1)
            gd = (phi[hi] - phi[lo]) / (om[hi] - om[lo]) * om[i] / (2.0 * math.pi)
            if not _close(_f(r, "group_delay_cycles"), gd, 1e-9, 1e-12):
                problems.append(f"phase.csv at {key}, Omega {om[i]}: group delay is not dphi/dOmega")
                break
            if not _close(_f(r, "phase_delay_cycles"), phi[i] / (2.0 * math.pi), 1e-12, 1e-15):
                problems.append(f"phase.csv at {key}, Omega {om[i]}: phase delay is not phi / 2 pi")
                break
            if not (_f(r, "R") > 0.0):
                problems.append(f"phase.csv at {key}, Omega {om[i]}: R not positive")
                break
    if ref_rows is None or problems:
        return problems
    ref_curves = _curves(ref_rows)
    if set(ref_curves) != set(curves):
        return [f"phase.csv: observation points {sorted(curves)} differ from reference"]
    for key, ref_curve in ref_curves.items():
        out = curves[key]
        j = matched = 0
        for ref in ref_curve:
            om_ref = _f(ref, "Omega")
            while j < len(out) and _f(out[j], "Omega") < om_ref * (1.0 - GRID_RTOL):
                j += 1
            if j == len(out) or not _close(_f(out[j], "Omega"), om_ref, GRID_RTOL):
                continue
            matched += 1
            row = out[j]
            if not (_close(_f(row, "R"), _f(ref, "R"), VALUE_RTOL)
                    and abs(_f(row, "phi_rad") - _f(ref, "phi_rad")) <= PHASE_ATOL):
                problems.append(f"phase.csv at {key}, Omega {om_ref}: (R, phi) differ from reference")
                break
        unmatched = (len(ref_curve) - matched) + (len(out) - matched)
        if unmatched > PHASE_UNMATCHED_PER_CURVE:
            problems.append(f"phase.csv at {key}: {unmatched} grid points do not match the reference")
    return problems


def twotone_reference(mode: int) -> list[dict]:
    """Reference twotone.csv of the default config writing lines of `mode`
    (1-based); mode 4 is the CLI default."""
    name = "twotone.csv" if mode == 4 else f"twotone-mode{mode}.csv"
    return read_csv(REFERENCE / name)


def check_twotone(rows: list[dict], expected_rows: int, mode: int, ref_rows: list[dict]) -> list[str]:
    """Two-tone lines against the reference; the passive line also against
    the closed-form linear response of the reference modal system."""
    problems = []
    if len(rows) != expected_rows or len(ref_rows) != expected_rows:
        return [f"twotone.csv: {len(rows)} rows, expected {expected_rows}"]
    model = load_reference_model()
    w = model["omegas"][mode - 1]
    g = model["source_gain"][mode - 1]
    cols = ("abs_X10", "abs_X01", "abs_X21", "abs_X12", "abs_X01_passive")
    for k, (row, ref) in enumerate(zip(rows, ref_rows)):
        om2 = _f(row, "Omega2")
        passive = abs(TWOTONE_F2 * g / (w * w - om2 * om2))
        if not _close(_f(row, "abs_X01_passive"), passive, VALUE_RTOL):
            problems.append(f"twotone.csv row {k}: passive line {row['abs_X01_passive']} != {passive}")
        if not _close(om2, _f(ref, "Omega2"), GRID_RTOL):
            problems.append(f"twotone.csv row {k}: Omega2 differs from reference")
            continue
        for c in cols:
            if not _close(_f(row, c), _f(ref, c), VALUE_RTOL, 1e-12 * _f(ref, "abs_X10")):
                problems.append(f"twotone.csv row {k}: {c} = {row[c]} differs from reference {ref[c]}")
    return problems[:20]


def refined_grid_size(omegas: list[complex], lo: float, hi: float, base_points: int) -> int:
    """Size of the CLI's phase grid: a uniform base grid plus a window of
    one-linewidth spacing over 30 linewidths either side of each resonance."""
    points = {lo + (hi - lo) * i / (base_points - 1) for i in range(base_points)}
    for w in omegas:
        width = abs(w.imag)
        a, b = max(lo, w.real - 30.0 * width), min(hi, w.real + 30.0 * width)
        n = math.ceil((b - a) / width) if b > a else 0
        points.update(a + i * width for i in range(n))
    return len(points)

