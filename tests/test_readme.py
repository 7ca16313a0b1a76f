"""The README's Python quick start runs as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_quick_start_block_certifies(capsys):
    text = README.read_text()
    section = text[text.index("## Quick start (Python)"):]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(block, str(README), "exec"), {"__name__": "readme_quick_start"})
    first = capsys.readouterr().out.splitlines()[0]
    assert first.startswith("GlobalOptimal"), first
