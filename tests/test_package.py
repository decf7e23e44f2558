"""The package surface: the README's library example runs, and ``__all__`` lists every export."""

import re
import types
from pathlib import Path

import hlgt

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_library_example_runs(capsys):
    section = README.read_text().split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    (block,) = re.findall(r"```python\n(.*?)```", section, re.S)
    exec(compile(block, str(README), "exec"), {})
    assert capsys.readouterr().out


def test_all_is_sorted_and_lists_every_public_name():
    public = {name for name, value in vars(hlgt).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert hlgt.__all__ == sorted(public)
