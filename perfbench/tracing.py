"""Traced in-process run of one workload, for the per-layer metrics.

Run as a child of ``run.py`` with ``--trace 1``::

    python3 perfbench/tracing.py <plan.json> <result.json>

It imports hopfarray from ``src/`` and wraps the public functions of each
module, where they are defined and everywhere they are imported, so every
call records a span (layer, name, thread, start, end, parent). The program
itself is not edited. Worker threads of the sweep thread pool start with an
empty span stack; their spans are parented to the span the main thread has
open at that moment, which is the sweep that submitted them.

The plan runs the workload's set-up and operation through
``hopfarray.cli.run_experiment``, the same call the CLI makes: the set-up
(a cold build that writes the cache; none for the cold workload, whose
operation is itself the cold build) and the operation traced, then the
operation once more untraced. The ratio of the two operation times is the
tracing overhead.
"""

from __future__ import annotations

import functools
import hashlib
import json
import shutil
import sys
import threading
import time
from pathlib import Path

LAYERS = ("cylinder", "boundary", "spectral", "quadrature", "modal", "hopf", "analysis", "cli")


class Tracer:
    """Keeps spans in memory: [name, thread, start, end, parent, info]."""

    def __init__(self):
        self.spans: list[list] = []
        self._lock = threading.Lock()
        self._stacks: dict[int, list[int]] = {}
        self._main = threading.main_thread().ident

    def wrap(self, name: str, fn, info=None):
        """Wrap fn in a span; info(args, kwargs, result) adds counts to the
        span when fn returns (a call that raises keeps no counts)."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stacks.setdefault(threading.get_ident(), [])
            if stack:
                parent = stack[-1]
            else:
                main = self._stacks.get(self._main) or [None]
                parent = main[-1]
            rec = [name, threading.get_ident(), 0.0, None, parent, None]
            with self._lock:
                idx = len(self.spans)
                self.spans.append(rec)
            stack.append(idx)
            rec[2] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[3] = time.perf_counter()
                stack.pop()
            if info is not None:
                rec[5] = info(args, kwargs, result)
            return result

        return traced


def _points(args, kwargs, result):
    points = kwargs.get("points", args[4] if len(args) > 4 else None)
    shape = getattr(points, "shape", None)
    return {"points": 1 if shape is None or len(shape) == 1 else int(shape[0])}


def _rule_nodes(args, kwargs, result):
    pts = result[0]
    return {"nodes": int(len(pts)), "hash": hashlib.sha1(pts.tobytes()).hexdigest()}


def _newton(args, kwargs, result):
    return {"iters": int(result.newton_iters)}


def _flagged(args, kwargs, result):
    return {"flagged": int(getattr(result, "n_flagged", 0))}


def _count(args, kwargs, result):
    return {"n": len(result)}


def _text_bytes(args, kwargs, result):
    text = result if isinstance(result, str) else args[-1]
    return {"bytes": len(text.encode())}


def instrument(tracer: Tracer):
    """Wrap every traced name; returns a function that restores them all."""
    import hopfarray.analysis as analysis
    import hopfarray.boundary as boundary
    import hopfarray.cli as cli
    import hopfarray.cylinder as cylinder
    import hopfarray.hopf as hopf
    import hopfarray.modal as modal
    import hopfarray.quadrature as quadrature
    import hopfarray.spectral as spectral

    # (defining module, attribute, span name, modules that import it, info)
    table = [
        (cylinder, "bessel_j_orders", "cylinder.orders", (boundary,), None),
        (cylinder, "hankel1_orders", "cylinder.orders", (boundary,), None),
        (cylinder, "bessel_j_prime_orders", "cylinder.orders", (boundary,), None),
        (cylinder, "hankel1_prime_orders", "cylinder.orders", (boundary,), None),
        (cylinder, "bessel_j", "cylinder.scalar", (spectral,), None),
        (cylinder, "hankel1", "cylinder.scalar", (boundary, spectral), None),
        (boundary, "assemble_boundary_system", "boundary.assemble", (spectral,), None),
        (boundary, "evaluate_field", "boundary.evaluate_field", (spectral,), _points),
        (spectral, "find_resonances", "spectral.find_resonances", (modal,), _count),
        (spectral, "extract_eigenmode", "spectral.extract_eigenmode", (modal,), None),
        (quadrature, "default_spec", "quadrature.default_spec", (modal, cli), None),
        (quadrature, "exterior_rule", "quadrature.rule", (modal,), _rule_nodes),
        (quadrature, "interior_rule", "quadrature.rule", (modal,), _rule_nodes),
        (quadrature, "disk_rule", "quadrature.disk_rule", (spectral,), None),
        (modal, "gram_matrix", "modal.gram", (), None),
        (modal, "source_coupling", "modal.source", (), None),
        (modal, "cubic_tensor", "modal.cubic_tensor", (), None),
        (modal, "build_modal_system", "modal.build", (cli,), None),
        (modal, "modal_cache_key", "modal.cache_key", (cli,), None),
        (hopf, "solve_passive", "hopf.passive", (analysis,), None),
        (hopf, "solve_pure_tone", "hopf.pure_tone", (analysis,), _newton),
        (hopf, "residual_pure_tone_reference", "hopf.pure_tone.certificate", (analysis,), None),
        (hopf, "solve_two_tone", "hopf.two_tone", (analysis,), _newton),
        (hopf, "residual_two_tone", "hopf.two_tone.certificate", (analysis,), None),
        (analysis, "pure_tone_sweep", "analysis.pure_tone_sweep", (cli,), _flagged),
        (analysis, "phase_response", "analysis.phase_response", (cli,), None),
        (analysis, "two_tone_sweep", "analysis.two_tone_sweep", (cli,), _flagged),
        (analysis, "refined_frequency_grid", "analysis.grid", (cli,), None),
        (analysis, "default_observation_points", "analysis.grid", (cli,), None),
        (cli, "run_experiment", "cli.run_experiment", (), None),
    ]
    restore = []
    for home, attr, name, importers, info in table:
        original = getattr(home, attr)
        wrapped = tracer.wrap(name, original, info)
        for mod in (home, *importers):
            restore.append((mod, attr, getattr(mod, attr)))
            setattr(mod, attr, wrapped)

    system = modal.ModalSystem
    methods = [
        ("interior_quadrature", "modal.interior_quadrature", None, False),
        ("mode_fields_at", "modal.mode_fields_at", None, False),
        ("to_json", "modal.to_json", _text_bytes, False),
        ("from_json", "modal.from_json", _text_bytes, True),
    ]
    for attr, name, info, is_classmethod in methods:
        original = system.__dict__[attr]
        restore.append((system, attr, original))
        fn = original.__func__ if is_classmethod else original
        wrapped = tracer.wrap(name, fn, info)
        setattr(system, attr, classmethod(wrapped) if is_classmethod else wrapped)

    def undo():
        for mod, attr, value in reversed(restore):
            setattr(mod, attr, value)

    return undo


# ---------------------------------------------------------------------------
# span analysis
# ---------------------------------------------------------------------------
def _percentile(values: list[float], q: float) -> float:
    """Linear-interpolated percentile, q in [0, 100]; 0.0 when empty."""
    if not values:
        return 0.0
    xs = sorted(values)
    pos = (len(xs) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def self_times(spans: list[list], offset: int = 0) -> tuple[list[float], float, float]:
    """Self time of every span, plus wall time covered by no span and the
    time counted twice because self-active spans overlapped on threads.

    A span's self time is its duration minus the union of its children's
    intervals. Sweeping the timeline keeps, per span, the number of open
    children; a span with none is self-active. Then
    sum(self) + unattributed - overlap = wall.
    """
    events = []
    for i, (_, _, start, end, _, _) in enumerate(spans):
        events.append((start, 1, i))
        events.append((end, 0, -i))
    events.sort()
    selfs = [0.0] * len(spans)
    open_children = [0] * len(spans)
    active: set[int] = set()
    is_open = [False] * len(spans)
    unattributed = overlap = 0.0
    prev = events[0][0] if events else 0.0
    for t, kind, key in events:
        dt = t - prev
        if dt > 0:
            for i in active:
                selfs[i] += dt
            if not active:
                unattributed += dt
            elif len(active) > 1:
                overlap += dt * (len(active) - 1)
        prev = t
        i = key if kind == 1 else -key
        parent = spans[i][4]
        parent = None if parent is None or parent < offset else parent - offset
        if kind == 1:
            is_open[i] = True
            active.add(i)
            if parent is not None and is_open[parent]:
                open_children[parent] += 1
                active.discard(parent)
        else:
            is_open[i] = False
            active.discard(i)
            if parent is not None and is_open[parent]:
                open_children[parent] -= 1
                if open_children[parent] == 0:
                    active.add(parent)
    return selfs, unattributed, overlap


def layer_metrics(spans: list[list], n_modes: int) -> dict:
    """Per-layer metrics of one traced run (see BENCHMARK.json per_layer).

    trace.wall_s runs from the first span's start to the last span's end,
    so the self times, trace.unattributed_s and trace.overlap_s add up to it.
    """
    selfs, unattributed, overlap = self_times(spans)
    dur = [s[3] - s[2] for s in spans]

    def counts(name, key):
        return [s[5][key] for s in spans if s[0] == name and s[5] is not None]

    def total(name, values=dur):
        return sum(v for s, v in zip(spans, values) if s[0] == name)

    def calls(name):
        return sum(1 for s in spans if s[0] == name)

    def ancestor(i, prefix):
        p = spans[i][4]
        while p is not None:
            if spans[p][0].startswith(prefix):
                return True
            p = spans[p][4]
        return False

    def top_level(name):
        # the sweep inside phase_response is the phase's, not the sweep's
        return sum(d for i, (s, d) in enumerate(zip(spans, dur))
                   if s[0] == name and not ancestor(i, "analysis."))

    m: dict[str, float] = {}
    for layer in LAYERS:
        m[f"{layer}.self_s"] = sum(v for s, v in zip(spans, selfs) if s[0].split(".")[0] == layer)

    m["cylinder.calls"] = calls("cylinder.orders")
    m["boundary.assemble.calls"] = calls("boundary.assemble")
    m["boundary.assemble.self_s"] = total("boundary.assemble", selfs)
    m["boundary.evaluate_field.points"] = sum(counts("boundary.evaluate_field", "points"))
    m["boundary.evaluate_field.self_s"] = total("boundary.evaluate_field", selfs)

    found = sum(counts("spectral.find_resonances", "n"))
    search_assemblies = sum(1 for i, s in enumerate(spans)
                            if s[0] == "boundary.assemble" and ancestor(i, "spectral.find_resonances"))
    m["spectral.find_resonances_s"] = total("spectral.find_resonances")
    m["spectral.search_assemblies"] = search_assemblies
    m["spectral.assemblies_per_mode"] = search_assemblies / found if found else 0.0
    m["spectral.extract_eigenmode_s"] = total("spectral.extract_eigenmode")

    rules = dict(zip(counts("quadrature.rule", "hash"), counts("quadrature.rule", "nodes")))
    m["quadrature.nodes"] = sum(rules.values())
    m["quadrature.rules_s"] = total("quadrature.rule")

    def caller_layer(i):
        p = spans[i][4]
        while p is not None and spans[p][0].split(".")[0] in ("boundary", "cylinder"):
            p = spans[p][4]
        return None if p is None else spans[p][0].split(".")[0]

    # mode samples the projections take; eigenmode normalization is spectral's
    evals = sum(s[5]["points"] for i, s in enumerate(spans)
                if s[0] == "boundary.evaluate_field" and s[5] and caller_layer(i) == "modal")
    m["modal.gram_s"] = total("modal.gram")
    m["modal.cubic_tensor_s"] = total("modal.cubic_tensor")
    m["modal.source_s"] = total("modal.source")
    m["modal.field_points_per_node"] = (
        evals / (n_modes * m["quadrature.nodes"]) if m["quadrature.nodes"] else 0.0)
    m["modal.interior_quadrature_s"] = total("modal.interior_quadrature")
    m["modal.to_json_s"] = total("modal.to_json")
    m["modal.from_json_s"] = total("modal.from_json")
    m["modal.cache_bytes"] = max(counts("modal.to_json", "bytes") + counts("modal.from_json", "bytes"),
                                 default=0)

    for kind, upper in (("pure_tone", 95), ("two_tone", 75)):
        name = f"hopf.{kind}"
        point_ms = [1e3 * d for s, d in zip(spans, dur) if s[0] == name]
        iters = counts(name, "iters")
        m[f"{name}.calls"] = len(point_ms)
        m[f"{name}.self_s"] = total(name, selfs)
        m[f"{name}.point_ms.p50"] = _percentile(point_ms, 50)
        m[f"{name}.point_ms.p{upper}"] = _percentile(point_ms, upper)
        m[f"{name}.newton_iters_per_point"] = sum(iters) / len(iters) if iters else 0.0
        m[f"{name}.certificate_s"] = total(f"{name}.certificate", selfs)
    m["hopf.passive.calls"] = calls("hopf.passive")

    m["analysis.pure_tone_sweep_s"] = top_level("analysis.pure_tone_sweep")
    m["analysis.phase_response_s"] = total("analysis.phase_response")
    m["analysis.two_tone_sweep_s"] = total("analysis.two_tone_sweep")
    m["analysis.flagged"] = sum(
        s[5]["flagged"] for i, s in enumerate(spans)
        if s[0] in ("analysis.pure_tone_sweep", "analysis.two_tone_sweep") and s[5]
        and not ancestor(i, "analysis."))

    m["trace.wall_s"] = max(s[3] for s in spans) - min(s[2] for s in spans)
    m["trace.unattributed_s"] = unattributed
    m["trace.overlap_s"] = overlap
    return m


# ---------------------------------------------------------------------------
# child entry point
# ---------------------------------------------------------------------------
def _run_steps(cli, steps, keep: bool = False) -> tuple[float, list[int]]:
    """Run the steps; with keep, copy each step's outputs to its "keep" dir
    (steps share one output directory, and so one cache), untimed."""
    statuses = []
    elapsed = 0.0
    for step in steps:
        t0 = time.perf_counter()
        config = cli.parse_config(Path(step["config"]).read_text())
        try:
            statuses.append(cli.run_experiment(config, step["out"], use_cache=not step["no_cache"]))
        except Exception as exc:  # fatal for the CLI too: exit status 1
            print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
            statuses.append(1)
        elapsed += time.perf_counter() - t0
        if keep:
            Path(step["keep"]).mkdir(parents=True, exist_ok=True)
            for path in Path(step["out"]).glob("*.*"):
                shutil.copy(path, step["keep"])
    return elapsed, statuses


def main(plan_path: str, result_path: str) -> int:
    plan = json.loads(Path(plan_path).read_text())
    sys.path.insert(0, plan["src"])
    import hopfarray.cli as cli

    tracer = Tracer()
    undo = instrument(tracer)
    t_setup, st_setup = _run_steps(cli, plan["setup"])
    n_setup = len(tracer.spans)
    traced, st_traced = _run_steps(cli, plan["op"])
    undo()
    untraced, st_untraced = _run_steps(cli, plan["op"], keep=True)

    spans = tracer.spans
    metrics = layer_metrics(spans, plan["n_modes"])
    metrics["trace.overhead"] = traced / untraced
    op_selfs, op_unattributed, op_overlap = self_times(spans[n_setup:], offset=n_setup)
    Path(result_path).write_text(json.dumps({
        "metrics": metrics,
        "statuses": {"setup": st_setup, "traced": st_traced, "untraced": st_untraced},
        "setup_traced_s": t_setup,
        "op_traced_s": traced,
        "op_untraced_s": untraced,
        "op_layer_self_s": {
            layer: sum(v for s, v in zip(spans[n_setup:], op_selfs) if s[0].split(".")[0] == layer)
            for layer in LAYERS
        },
        "op_unattributed_s": op_unattributed,
        "op_overlap_s": op_overlap,
        "spans": len(spans),
    }))
    return 0

if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2]))
