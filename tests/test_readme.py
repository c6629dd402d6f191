"""The README's library quick start runs as written."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_quick_start_runs():
    text = README.read_text()
    section = text[text.index("## Quick start (library)") :]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, str(README), "exec"), {})
    assert out.getvalue() == "NOT-ISOMORPHIC\n"
