"""The README's code runs against the package as it is."""

import re
from pathlib import Path

import hopfarray

README = Path(__file__).resolve().parents[1] / "README.md"


def _quick_start() -> str:
    section = README.read_text().split("## Library quick start", 1)[1].split("\n## ", 1)[0]
    (block,) = re.findall(r"```python\n(.*?)```", section, flags=re.S)
    return block


def test_readme_library_quick_start_runs(capsys):
    names = {}
    exec(compile(_quick_start(), "README.md", "exec"), names)
    assert names["system"].n == 6
    assert names["sol"].X.shape == (1, 6)
    assert capsys.readouterr().out.count("\n") >= 2  # the resonances, then the modal gains


def test_package_exports_only_the_quick_start_names():
    # every other name is imported from its module
    (imported,) = re.findall(r"from hopfarray import \((.*?)\)", _quick_start(), flags=re.S)
    assert set(hopfarray.__all__) == set(re.findall(r"\w+", imported)) | {"__version__"}
