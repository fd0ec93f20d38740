"""The reference configs of tools/output_digest.py, read without a CLI run."""

import importlib.util
import sys
from pathlib import Path

from hopfarray.cli import _FIELDS

DIGEST = Path(__file__).resolve().parents[1] / "tools" / "output_digest.py"


def test_output_digest_covers_every_type_and_numerics_key(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # write nothing under tools/
    spec = importlib.util.spec_from_file_location("output_digest", DIGEST)
    digest = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(digest)
    (types,) = (bound for _, key, _, bound, _ in _FIELDS if key == "type")
    assert {experiment["type"] for experiment in digest.CONFIGS.values()} == set(types)
    assert set(digest.OVERRIDES) <= set(digest.CONFIGS)
    # as its comment says, sweep-numerics sets every numerics key
    numerics = {key for block, key, *_ in _FIELDS if block == "numerics"}
    assert set(digest.OVERRIDES["sweep-numerics"]["numerics"]) == numerics
