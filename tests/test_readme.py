"""The README's Python examples run as written, each on its own, and print
what their comments say."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_python_blocks_run():
    # Every `print(...)  # value` line must print `value`; text after the
    # comment's first ':' explains the value and is not compared.
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert blocks
    for block in blocks:
        expected = [comment.split(":")[0].strip() for comment in
                    re.findall(r"^print\(.*\)\s+#\s*(.*)$", block, re.M)]
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            exec(compile(block, str(README), "exec"), {})
        assert out.getvalue().splitlines() == expected
