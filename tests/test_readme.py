"""The README's library example runs and prints what its comments say."""

import ast
import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).parent.parent / "README.md"


def test_library_example_prints_its_commented_values():
    text = README.read_text(encoding="utf-8")
    code = re.search(r"## Library example\n\n```python\n(.*?)```", text, re.S).group(1)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, str(README), "exec"), {})
    printed = out.getvalue().splitlines()
    prints = [line for line in code.splitlines() if line.startswith("print(")]
    assert len(printed) == len(prints)
    checked = 0
    for line, shown in zip(prints, printed):
        comment = line.partition("#")[2].strip()
        try:
            expected = ast.literal_eval(comment)
        except (SyntaxError, ValueError):
            continue  # a description such as "M(z)", not a value
        assert ast.literal_eval(shown) == expected, line
        checked += 1
    assert checked >= 4
