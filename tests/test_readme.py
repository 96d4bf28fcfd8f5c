"""Every Python block in the README runs against the current package."""

import pathlib
import re

import pytest

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.M | re.S)


def test_readme_has_python_blocks():
    assert BLOCKS


@pytest.mark.parametrize("source", BLOCKS)
def test_readme_python_block_runs(source, capsys):
    exec(compile(source, str(README), "exec"), {})
    assert capsys.readouterr().out
