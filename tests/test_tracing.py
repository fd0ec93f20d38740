"""The benchmark tracer's contract with the package.

perfbench/tracing.py wraps public names of hopfarray where they are defined
and where they are imported. Every name it wraps must exist, and undoing
the wrap must leave every module as it was.
"""

import ast
import importlib.util
import sys
from pathlib import Path

import hopfarray.analysis as analysis
import hopfarray.boundary as boundary
import hopfarray.cli as cli
import hopfarray.cylinder as cylinder
import hopfarray.hopf as hopf
import hopfarray.modal as modal
import hopfarray.quadrature as quadrature
import hopfarray.spectral as spectral

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
SRC = Path(__file__).resolve().parents[1] / "src" / "hopfarray"
KEPT = "kept for perfbench/tracing.py"  # the comment on an import that only the tracer uses
MODULES = (cylinder, boundary, spectral, quadrature, modal, hopf, analysis, cli)


def _load_tracing(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # write nothing under perfbench/
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _attributes() -> dict:
    found = {(m.__name__, k): v for m in MODULES for k, v in vars(m).items()}
    found.update({("ModalSystem", k): v for k, v in vars(modal.ModalSystem).items()})
    return found


def test_tracer_wraps_and_restores_every_name(monkeypatch):
    tracing = _load_tracing(monkeypatch)
    before = _attributes()
    undo = tracing.instrument(tracing.Tracer())
    try:
        during = _attributes()
    finally:
        undo()
    after = _attributes()
    patched = {key for key in before if during[key] is not before[key]}
    # the certificate presets and the imports kept only for the tracer
    assert {
        ("hopfarray.hopf", "residual_pure_tone_reference"),
        ("hopfarray.analysis", "residual_pure_tone_reference"),
        ("hopfarray.hopf", "residual_two_tone"),
        ("hopfarray.analysis", "residual_two_tone"),
        ("hopfarray.analysis", "solve_pure_tone"),
        ("hopfarray.analysis", "solve_two_tone"),
        ("hopfarray.modal", "extract_eigenmode"),
        ("hopfarray.spectral", "disk_rule"),
        ("ModalSystem", "interior_quadrature"),
    } <= patched
    assert during.keys() == before.keys() == after.keys()
    assert [key for key in before if after[key] is not before[key]] == []


def _kept_imports() -> set:
    """(module, name) of every name imported in src/ on a line marked KEPT."""
    kept = set()
    for path in sorted(SRC.glob("*.py")):
        text = path.read_text()
        lines = text.splitlines()
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.ImportFrom) and KEPT in lines[node.end_lineno - 1]:
                kept |= {(f"hopfarray.{path.stem}", a.asname or a.name) for a in node.names}
    return kept


def test_tracer_patches_every_import_kept_for_it(monkeypatch):
    kept = _kept_imports()
    assert {("hopfarray.boundary", "hankel1"), ("hopfarray.spectral", "evaluate_field")} <= kept
    tracing = _load_tracing(monkeypatch)
    before = _attributes()
    undo = tracing.instrument(tracing.Tracer())
    try:
        during = _attributes()
    finally:
        undo()
    assert sorted(key for key in kept if during[key] is before[key]) == []


def test_an_import_is_kept_for_the_tracer_iff_its_module_never_reads_it():
    # so the names only the tracer keeps alive are exactly the ones marked KEPT;
    # a name listed in __all__ is read, as the package exports it
    for path in sorted(SRC.glob("*.py")):
        text = path.read_text()
        lines, tree = text.splitlines(), ast.parse(text)
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in tree.body:
            if isinstance(node, ast.Assign) and ast.unparse(node.targets[0]) == "__all__":
                read |= set(ast.literal_eval(node.value))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level:
                kept = KEPT in lines[node.end_lineno - 1]
                for name in (a.asname or a.name for a in node.names):
                    assert kept != (name in read), (path.name, name)
