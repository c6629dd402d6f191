"""The README's library quick start runs as written, and the names it
cites exist."""

import contextlib
import importlib
import io
import pkgutil
import re
from pathlib import Path

import mosls

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_quick_start_runs():
    text = README.read_text()
    section = text[text.index("## Quick start (library)") :]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, str(README), "exec"), {})
    assert out.getvalue() == "NOT-ISOMORPHIC\n"


def test_readme_dotted_names_resolve():
    # every backticked name rooted at mosls or at one of its layers, such
    # as `gf.is_prime` or `graph.MAX_VERTICES`, names something that exists
    layers = {info.name for info in pkgutil.iter_modules(mosls.__path__)}
    text = re.sub(r"```.*?```", "", README.read_text(), flags=re.S)
    checked = []
    for span in re.findall(r"`([^`]+)`", text):
        dotted = re.match(r"[A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+", span)
        if not dotted:
            continue
        root, *path = dotted.group().split(".")
        if root != "mosls" and root not in layers:
            continue
        obj = importlib.import_module("mosls" if root == "mosls" else f"mosls.{root}")
        for name in path:
            assert hasattr(obj, name), f"README names `{dotted.group()}`, which does not resolve"
            obj = getattr(obj, name)
        checked.append(dotted.group())
    assert len(checked) >= 5, checked
