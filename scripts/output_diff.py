"""How far the outputs of two checkouts lie apart, file by file.

Compares two trees written by ``scripts/output_digests.py --keep`` (or any
two directories of text outputs).  For every file that differs it prints
one line: the largest absolute difference between the numeric fields of
its rows, that difference over the largest magnitude of a numeric field
in either file, and the number of rows that differ.  A row whose text
differs outside its numbers (a verdict, a word, a field count) is counted
and reported as such, and so are a changed row count, a file that is not
text and a file present on one side only.  Rows are lines; numeric fields
are the decimal numbers of a line (``inf`` and ``nan`` included) that do
not stand inside a word.  When any file differs, a last line sums up: how
many files differ, the largest relative difference and its file, and how
many files differ outside their numbers (every file reported as such).
Identical trees print nothing.  Standard library only.  The exit code is
0 when the trees are byte-identical, 1 otherwise.

Usage:
    python3 scripts/output_digests.py --keep base-out   # in the base checkout
    python3 scripts/output_digests.py --keep change-out
    python3 scripts/output_diff.py base-out change-out
"""

import argparse
import math
import re
import sys
from pathlib import Path

#: A decimal number that does not stand inside a word (``seed0``, ``x2``).
NUMBER = re.compile(r"(?<![\w.])[-+]?(?:(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|inf|nan)(?!\w)")


def _files(root: Path) -> set:
    return {p.relative_to(root).as_posix() for p in root.rglob("*") if p.is_file()}


def _split(line: str):
    """The numbers of ``line`` and its text with each number replaced by ``#``."""
    return [float(x) for x in NUMBER.findall(line)], NUMBER.sub("#", line)


def compare(base: bytes, change: bytes):
    """One summary of how the text ``change`` differs from ``base``, with
    the relative difference of its numbers (``None`` when they are not
    compared) and whether it differs outside them."""
    try:
        old, new = base.decode().splitlines(), change.decode().splitlines()
    except UnicodeDecodeError:
        return "not text, bytes differ", None, True
    if len(old) != len(new):
        return f"row count {len(old)} -> {len(new)}", None, True
    largest = worst = 0.0
    rows = text_rows = 0
    for a, b in zip(old, new):
        (xa, ta), (xb, tb) = _split(a), _split(b)
        largest = max([largest] + [abs(x) for x in xa + xb if math.isfinite(x)])
        if a == b:
            continue
        rows += 1
        if ta != tb or len(xa) != len(xb):
            text_rows += 1
            continue
        for x, y in zip(xa, xb):
            if x != y and not (math.isnan(x) and math.isnan(y)):
                worst = max(worst, abs(x - y) if math.isfinite(x) and math.isfinite(y) else math.inf)
    relative = worst / largest if largest else (math.inf if worst else 0.0)
    summary = f"max |diff| {worst:.3g}, relative {relative:.3g}, {rows} of {len(old)} rows differ"
    return summary + (f" ({text_rows} outside their numbers)" if text_rows else ""), relative, text_rows > 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", type=Path, help="outputs of the base checkout")
    parser.add_argument("change", type=Path, help="outputs of the changed checkout")
    args = parser.parse_args(argv)
    for root in (args.base, args.change):
        if not root.is_dir():
            parser.error(f"{root} is not a directory")
    old, new = _files(args.base), _files(args.change)
    differ = outside = 0
    largest = None  # (relative difference, file)
    for name in sorted(old | new):
        if name not in new or name not in old:
            summary, relative, text = f"only in {args.base if name in old else args.change}", None, True
        else:
            a, b = (args.base / name).read_bytes(), (args.change / name).read_bytes()
            if a == b:
                continue
            summary, relative, text = compare(a, b)
        print(f"{name}: {summary}")
        differ, outside = differ + 1, outside + text
        if relative is not None and (largest is None or relative > largest[0]):
            largest = (relative, name)
    if not differ:
        return 0
    where = f"largest relative difference {largest[0]:.3g} in {largest[1]}" if largest else "no numbers compared"
    print(f"{differ} of {len(old | new)} files differ; {where}; {outside} differ outside their numbers")
    return 1


if __name__ == "__main__":
    sys.exit(main())
