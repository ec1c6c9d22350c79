"""The README's quick start runs and prints what its comments show."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_quick_start_prints_its_comment_lines(capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {})
    printed = capsys.readouterr().out.splitlines()
    shown = [line[2:] for line in blocks[0].splitlines() if line.startswith("# ")]
    assert len(printed) == len(shown) == 4
    for out, comment in zip(printed, shown):
        assert out and comment.startswith(out), (out, comment)
