"""The README's examples run: the library example prints what its comments
say, and the CLI lines run on the input format's example."""

import ast
import contextlib
import io
import re
import shlex
from pathlib import Path

from palinfrac.cli import main

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


def test_cli_examples_run_on_the_input_example(tmp_path):
    # each line of the CLI block, run on the input format's example, is a
    # request the command accepts: it exits 0 or 1, not as an input error
    text = README.read_text(encoding="utf-8")
    document = re.search(r"## Input format\n.*?```json\n(.*?)```", text, re.S).group(1)
    (tmp_path / "seq.json").write_text(document, encoding="utf-8")
    block = re.search(r"## CLI\n\n```sh\n(.*?)```", text, re.S).group(1)
    lines = [line.partition("#")[0] for line in block.splitlines()]
    assert len(lines) == 5
    for line in lines:
        words = shlex.split(line)
        assert words[0] == "palinfrac", line
        argv = [str(tmp_path / w) if w == "seq.json" else w for w in words[1:]]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
        assert code in (0, 1), (line, code, err.getvalue())
        assert "input error" not in err.getvalue(), line
        assert "Traceback" not in err.getvalue(), line
        assert out.getvalue(), line
