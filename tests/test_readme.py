"""The README's code runs against the package as it is."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_quick_start_runs(capsys):
    section = README.read_text().split("## Library quick start", 1)[1].split("\n## ", 1)[0]
    (block,) = re.findall(r"```python\n(.*?)```", section, flags=re.S)
    names = {}
    exec(compile(block, "README.md", "exec"), names)
    assert names["system"].n == 6
    assert names["sol"].X.shape == (1, 6)
    assert capsys.readouterr().out.count("\n") >= 2  # the resonances, then the modal gains
