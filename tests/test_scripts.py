"""The comparison scripts of ``scripts/``, run as a user runs them."""

import importlib.util
import subprocess
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def _run(script, *args):
    return subprocess.run([sys.executable, str(SCRIPTS / script), *map(str, args)],
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)


def _tree(root, files):
    for name, text in files.items():
        path = root / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(text if isinstance(text, bytes) else text.encode())
    return root


def test_output_diff_measures_every_file_that_differs(tmp_path):
    """One line per differing file: the largest absolute difference of its
    numeric fields, that over the file's largest magnitude, and the rows
    that differ; text outside the numbers, a row count, bytes that are not
    text and a file on one side only are named.  A last line counts the
    files that differ, names the largest relative difference and its file,
    and counts the files that differ outside their numbers; identical
    trees print nothing and exit 0."""
    base = _tree(tmp_path / "base", {
        "run/energy.csv": "t,E\n0,2.5\n0.01,-4.0\n0.02,1e-3\n",
        "run/stdout": "energy: E(0) = 0.5, E(T) = 0.25\nseed0 ok\n",
        "verify/stdout": "criterion 1 PASS\n",
        "same.txt": "x 1\n",
        "rows.csv": "1\n2\n",
        "blob": b"\xff\x00",
        "gone.txt": "old\n",
    })
    change = _tree(tmp_path / "change", {
        "run/energy.csv": "t,E\n0,2.5\n0.01,-4.000000001\n0.02,1.0000001e-3\n",
        "run/stdout": "energy: E(0) = 0.5, E(T) = inf\nseed1 ok\n",
        "verify/stdout": "criterion 1 FAIL\n",
        "same.txt": "x 1\n",
        "rows.csv": "1\n",
        "blob": b"\xff\x01",
        "new.txt": "new\n",
    })
    proc = _run("output_diff.py", base, change)
    assert proc.returncode == 1, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == "blob: not text, bytes differ"
    assert lines[1] == f"gone.txt: only in {base}"
    assert lines[2] == f"new.txt: only in {change}"
    assert lines[3] == "rows.csv: row count 2 -> 1"
    # |-4.000000001 - -4.0| = 1e-9 is the largest difference, over max |x| = 4.000000001
    assert lines[4] == "run/energy.csv: max |diff| 1e-09, relative 2.5e-10, 2 of 4 rows differ"
    assert lines[5] == "run/stdout: max |diff| inf, relative inf, 2 of 2 rows differ (1 outside their numbers)"
    assert lines[6] == "verify/stdout: max |diff| 0, relative 0, 1 of 1 rows differ (1 outside their numbers)"
    # every file but same.txt differs; all but run/energy.csv outside their numbers
    assert lines[7] == ("7 of 8 files differ; largest relative difference inf in run/stdout; "
                        "6 differ outside their numbers")
    assert len(lines) == 8

    numbers = _run("output_diff.py", base / "run", change / "run")
    assert numbers.stdout.splitlines()[-1] == ("2 of 2 files differ; largest relative difference inf in stdout; "
                                               "1 differ outside their numbers")
    energy = tmp_path / "energy"
    _tree(energy / "base", {"energy.csv": "t,E\n0,2.5\n"})
    _tree(energy / "change", {"energy.csv": "t,E\n0,2.5000001\n"})
    last = _run("output_diff.py", energy / "base", energy / "change").stdout.splitlines()[-1]
    assert last == ("1 of 1 files differ; largest relative difference 4e-08 in energy.csv; "
                    "0 differ outside their numbers")

    same = _run("output_diff.py", base, base)
    assert (same.returncode, same.stdout) == (0, "")


def test_output_digests_keeps_only_a_new_or_empty_directory(tmp_path):
    """``--keep`` writes into a new or empty directory; a directory with
    files in it is a usage error before any run."""
    (tmp_path / "old.txt").write_text("x", encoding="utf-8")
    proc = _run("output_digests.py", "--keep", tmp_path)
    assert proc.returncode == 2 and proc.stdout == ""
    assert "is not a new or empty directory" in proc.stderr


def _result(wall, rate, failed=0, attempted=10):
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {"wall_cal": {"value": wall, "unit": "cal"},
                        "steps_per_cal": {"value": rate, "unit": "1/cal"}}}


def test_bench_pairs_summarises_result_lines_without_running_the_benchmark():
    """Each side's median and inclusive quartiles per metric, the pairs the
    change won in the metric's direction (a tie is no win), and each
    side's failed and attempted repetitions; a metric some run lacks is
    left out."""
    spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPTS / "bench_pairs.py")
    bench_pairs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench_pairs)
    pairs = [{"parent": _result(2.0, 400.0), "change": _result(1.8, 440.0)},
             {"parent": _result(1.9, 410.0, failed=1), "change": _result(1.9, 430.0, attempted=12)},
             {"parent": _result(2.1, 390.0), "change": _result(2.2, 380.0)}]
    summary = bench_pairs.summarize(pairs, {"wall_cal": "lower", "steps_per_cal": "higher",
                                            "setup_s": "lower"})
    assert summary["steps_per_cal"] == {
        "parent": {"median": 400.0, "q1": 395.0, "q3": 405.0, "runs": 3},
        "change": {"median": 430.0, "q1": 405.0, "q3": 435.0, "runs": 3},
        "change_wins": 2, "pairs": 3}
    assert summary["wall_cal"]["change"] == {"median": 1.9, "q1": 1.85, "q3": 2.05, "runs": 3}
    assert summary["wall_cal"]["change_wins"] == 1
    assert "setup_s" not in summary
    assert summary["failed"] == {"parent": 1, "change": 0}
    assert summary["attempted"] == {"parent": 30, "change": 32}
