"""Self-test of the correctness gate in gate.py.

    python3 perfbench/selftest.py

The gate must accept the reference outputs, a resonance search that agrees
with them to 1e-10 relative, and the resonances of a scaled geometry; it
must reject a wrong branch, a missing mode, a swapped mode order, a residual
above tolerance and perturbed values. Exits 0 when every case behaves.
"""

from __future__ import annotations

import copy
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import gate  # noqa: E402

REF = {name: gate.read_csv(gate.REFERENCE / f"{name}.csv")
       for name in ("resonances", "sweep", "phase", "twotone")}
MODEL = gate.load_reference_model()
N_PHASE = len(REF["phase"]) // 3


def check(name: str, rows: list[dict], scale: float = 1.0) -> list[str]:
    if name == "resonances":
        return gate.check_resonances(rows, REF["resonances"], scale)
    if name == "sweep":
        return gate.check_sweep(rows, len(REF["sweep"]), REF["sweep"])
    if name == "phase":
        return gate.check_phase(rows, N_PHASE, REF["phase"])
    return gate.check_twotone(rows, len(REF["twotone"]), 4, REF["twotone"])


def edit(name: str, fn) -> list[dict]:
    rows = copy.deepcopy(REF[name])
    fn(rows)
    return rows


def scale_cols(rows, cols, factor, which=None):
    for k, row in enumerate(rows):
        if which is None or k in which:
            for c in cols:
                row[c] = repr(float(row[c]) * factor)


def shift_search(factor: float):
    """Every output as a search shifted by `factor` would move it: grids and
    resonances scale, responses near a sharp mode move ~2500x as much."""
    out = {}
    out["resonances"] = edit("resonances", lambda r: scale_cols(r, ("re_omega", "im_omega"), factor))
    amp = 1.0 + 2500.0 * (factor - 1.0)
    out["sweep"] = edit("sweep", lambda r: (scale_cols(r, ("Omega",), factor),
                                             scale_cols(r, ("re_X", "im_X", "abs_X_over_F"), amp)))
    out["twotone"] = edit("twotone", lambda r: scale_cols(r, ("Omega2",), factor))
    return out


def drop_window(rows):
    """Remove the refined window around mode 4 from every phase curve."""
    w = MODEL["omegas"][3]
    half = 30.0 * abs(w.imag)
    rows[:] = [r for r in rows if abs(float(r["Omega"]) - w.real) > half]


def drop_last_point(rows):
    last = {}
    for k, r in enumerate(rows):
        last[(r["x1"], r["x2"])] = k
    for k in sorted(last.values(), reverse=True):
        del rows[k]
    # the new last point's group delay is now one-sided
    for key in last:
        curve = [r for r in rows if (r["x1"], r["x2"]) == key]
        a, b = curve[-2], curve[-1]
        d = (float(b["phi_rad"]) - float(a["phi_rad"])) / (float(b["Omega"]) - float(a["Omega"]))
        b["group_delay_cycles"] = repr(d * float(b["Omega"]) / (2.0 * 3.141592653589793))


def swap_modes(rows):
    rows[1]["re_omega"], rows[2]["re_omega"] = rows[2]["re_omega"], rows[1]["re_omega"]
    rows[1]["im_omega"], rows[2]["im_omega"] = rows[2]["im_omega"], rows[1]["im_omega"]


def wrong_branch(rows):
    # a saturated-branch point: |X| off by 30 % on all six modes of one point
    scale_cols(rows, ("re_X", "im_X", "abs_X_over_F"), 1.3, which=set(range(2106, 2112)))


def main() -> int:
    shifted = shift_search(1.0 + 1e-10)
    c = 1.037
    accept = {
        "reference resonances": ("resonances", REF["resonances"], 1.0),
        "reference sweep": ("sweep", REF["sweep"], 1.0),
        "reference phase": ("phase", REF["phase"], 1.0),
        "reference twotone": ("twotone", REF["twotone"], 1.0),
        "resonances shifted 1e-10": ("resonances", shifted["resonances"], 1.0),
        "sweep after a 1e-10 shift": ("sweep", shifted["sweep"], 1.0),
        "twotone grid after a 1e-10 shift": ("twotone", shifted["twotone"], 1.0),
        "phase grid losing an endpoint": ("phase", edit("phase", drop_last_point), 1.0),
        "resonances of geometry scaled by c": (
            "resonances", edit("resonances", lambda r: scale_cols(r, ("re_omega", "im_omega"), 1 / c)), c),
    }
    reject = {
        "missing mode": ("resonances", edit("resonances", lambda r: r.pop()), 1.0),
        "swapped mode order": ("resonances", edit("resonances", swap_modes), 1.0),
        "resonance off by 1e-6": (
            "resonances", edit("resonances", lambda r: scale_cols(r, ("re_omega",), 1 + 1e-6, {4})), 1.0),
        "resonance residual 1e-8": (
            "resonances", edit("resonances", lambda r: r[0].update(residual="1e-08")), 1.0),
        "unscaled resonances for scaled geometry": ("resonances", REF["resonances"], c),
        "sweep on a wrong branch": ("sweep", edit("sweep", wrong_branch), 1.0),
        "sweep residual above Newton tolerance": (
            "sweep", edit("sweep", lambda r: r[7].update(residual="5e-10")), 1.0),
        "sweep grid moved": ("sweep", edit("sweep", lambda r: scale_cols(r, ("Omega",), 1 + 1e-6, {9})), 1.0),
        "phase curve without mode 4": ("phase", edit("phase", drop_window), 1.0),
        "phase magnitude off by 1e-3": ("phase", edit("phase", lambda r: scale_cols(r, ("R",), 1.001, {100})), 1.0),
        "phase not matching its group delay": (
            "phase", edit("phase", lambda r: scale_cols(r, ("phi_rad", "phase_delay_cycles"), 1.01, {50})), 1.0),
        "twotone combination line off by 1e-3": (
            "twotone", edit("twotone", lambda r: scale_cols(r, ("abs_X21",), 1.001, {20})), 1.0),
        "twotone lines of another mode": ("twotone", gate.twotone_reference(1), 1.0),
        "twotone passive line wrong": (
            "twotone", edit("twotone", lambda r: scale_cols(r, ("abs_X01_passive",), 1.001, {3})), 1.0),
    }
    bad = 0
    for label, (name, rows, scale) in accept.items():
        problems = check(name, rows, scale)
        ok = not problems
        bad += not ok
        print(f"{'PASS' if ok else 'FAIL'} accepts {label}" + ("" if ok else f": {problems[:2]}"))
    for label, (name, rows, scale) in reject.items():
        problems = check(name, rows, scale)
        ok = bool(problems)
        bad += not ok
        print(f"{'PASS' if ok else 'FAIL'} rejects {label}" + (f": {problems[0]}" if ok else ""))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
