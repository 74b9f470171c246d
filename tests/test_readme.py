"""The README's Python example runs and prints what its comments say."""
from __future__ import annotations

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).parent.parent / "README.md"


def test_readme_library_example():
    (block,) = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    # each print's comment starts with the printed value, up to a colon
    expected = [line.split("#", 1)[1].split(":")[0].strip()
                for line in block.splitlines() if line.startswith("print(")]
    assert expected
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, str(README), "exec"), {})
    assert out.getvalue().splitlines() == expected
