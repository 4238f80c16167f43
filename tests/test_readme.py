"""The README's library quick start runs and prints what it says."""

import contextlib
import io
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def quick_start_block():
    text = README.read_text()
    section = text.split("## Library quick start", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def test_readme_quick_start_prints_its_comments():
    code = quick_start_block()
    want = [line.split("# -> ", 1)[1].strip()
            for line in code.splitlines() if "# -> " in line]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, str(README), "exec"), {})
    assert want and out.getvalue().splitlines() == want
