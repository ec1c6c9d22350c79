"""The README's quick start runs and prints what its comments show, and
its config example builds."""

import re
from pathlib import Path

from monoport.config import parse_config
from monoport.phs import bd_basis

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


def test_readme_config_block_builds_its_condition():
    """The README's annotated config parses, and its system and boundary
    condition build: a V-matrix condition certified maximal monotone."""
    blocks = re.findall(r"```ini\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert len(blocks) == 1
    cfg = parse_config(blocks[0])
    bc = cfg.build_bc(bd_basis(cfg.build_phs()))
    assert bc.provenance == "V-matrix" and bc.is_maximal_monotone
