"""The package surface: the README's library example runs, ``__all__`` lists every export,
and starting the CLI loads no module it does not use."""

import re
import subprocess
import sys
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


def test_starting_the_cli_loads_no_record_or_format_module():
    # A fresh interpreter started as the benchmark's setup time starts one.
    # Modules that site loaded before hlgt are not hlgt's to answer for.
    code = (
        "import sys; watched = ('dataclasses', 'inspect', 'json', 'csv'); "
        "before = {m for m in watched if m in sys.modules}; "
        "sys.path.insert(0, sys.argv[1]); import hlgt.cli; hlgt.cli.build_parser(); "
        "print(sorted(m for m in watched if m in sys.modules and m not in before))"
    )
    src = str(Path(hlgt.__file__).resolve().parent.parent)
    result = subprocess.run([sys.executable, "-E", "-s", "-c", code, src],
                            capture_output=True, text=True, check=True)
    assert result.stdout == "[]\n"
