"""The reference configs of tools/output_digest.py, read without a CLI run."""

import importlib.util
import json
import re
import sys
from pathlib import Path

from hopfarray.cli import _FIELDS

ROOT = Path(__file__).resolve().parents[1]
DIGEST = ROOT / "tools" / "output_digest.py"


def _load(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # write nothing under tools/
    spec = importlib.util.spec_from_file_location("output_digest", DIGEST)
    digest = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(digest)
    return digest


def test_output_digest_covers_every_type_and_numerics_key(monkeypatch):
    digest = _load(monkeypatch)
    (types,) = (bound for _, key, _, bound, _ in _FIELDS if key == "type")
    assert {experiment["type"] for experiment in digest.CONFIGS.values()} == set(types)
    assert set(digest.OVERRIDES) <= set(digest.CONFIGS)
    # as its comment says, sweep-numerics sets every numerics key
    numerics = {key for block, key, *_ in _FIELDS if block == "numerics"}
    assert set(digest.OVERRIDES["sweep-numerics"]["numerics"]) == numerics


def test_output_digest_reruns_a_cached_config_on_its_cache(monkeypatch, tmp_path):
    digest = _load(monkeypatch)
    lines = digest.digest("resonances", digest.CONFIGS["resonances"], tmp_path)
    assert [line.split()[1] for line in lines] == ["exit", "resonances.csv", "solver_stats", "cache-hit"]
    assert lines[-1] == "resonances cache-hit same"
    # the oracle builds no modal system, so it writes no entry to rerun on
    assert [line.split()[1] for line in digest.digest("oracle", digest.CONFIGS["oracle"], tmp_path)] == [
        "exit", "oracle.csv", "solver_stats"]


def test_output_digest_base_is_the_readme_full_example(monkeypatch):
    # as its comment says: every block of the README's full example (its one
    # JSON block) but the experiment
    (text,) = re.findall(r"```json\n(.*?)```", (ROOT / "README.md").read_text(), flags=re.S)
    example = json.loads(text)
    assert _load(monkeypatch).BASE == {block: example[block] for block in ("geometry", "material", "numerics")}
