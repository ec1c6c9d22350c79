"""Paired benchmark runs of two checkouts, summed up as a ``BENCH_*.json``.

Runs ``python3 perfbench/run.py --workload W --seed S --seconds T --trace 0``
in each checkout, with ``T`` the ``run_seconds`` of the change checkout's
``BENCHMARK.json``, one pair per seed from ``--seed`` on, the two sides one
after the other: the first pair runs the parent first, and each later pair
swaps which side goes first.  Each run's last output line (the end-to-end
result) is kept as it is.  The summary gives, per end-to-end metric of the
change checkout's ``BENCHMARK.json``, each side's median and quartiles
over its runs, how many pairs the change won (a tie is not a win), and,
per side, the repetitions that failed and that were attempted.  A run that
exits without a result line stops the script with exit 1.

The output file holds one key per workload, next to ``label`` (the file
name without ``BENCH_``), ``command``, ``host`` (the first run's
environment stamp) and ``order``; a workload
written to an existing file replaces only that workload's key, so several
workloads gather in one file.  Standard library only.

Usage:
    python3 scripts/bench_pairs.py PARENT CHANGE --workload bulk_midpoint \\
        --pairs 10 --seed 2801 --out BENCH_name.json
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")


def run_once(checkout: Path, workload: str, seed: int, seconds: float):
    """The result line and the environment stamp of one benchmark run."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    stamps = [ln.split("stamp:", 1)[1] for ln in lines if ln.lstrip().startswith("stamp:")]
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        raise SystemExit(f"error: {checkout} seed {seed} gave no result line (exit {proc.returncode}): "
                         f"{proc.stderr.strip()[-300:]}")
    return result, json.loads(stamps[0]) if stamps else {}


def _spread(values):
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else values * 3
    return {"median": round(median, 6), "q1": round(q1, 6), "q3": round(q3, 6), "runs": len(values)}


def _won(pair, metric, direction):
    old, new = (pair[side]["metrics"][metric]["value"] for side in SIDES)
    return new < old if direction == "lower" else new > old


def summarize(pairs, better):
    """Per metric of ``better`` (name -> ``"lower"`` or ``"higher"``) that
    every run reports: each side's median and quartiles and the pairs the
    change won; then each side's failed and attempted repetitions."""
    summary = {}
    for metric, direction in better.items():
        if not all(metric in p[side]["metrics"] for p in pairs for side in SIDES):
            continue
        summary[metric] = {**{side: _spread([p[side]["metrics"][metric]["value"] for p in pairs]) for side in SIDES},
                           "change_wins": sum(_won(p, metric, direction) for p in pairs), "pairs": len(pairs)}
    for key in ("failed", "attempted"):
        summary[key] = {side: sum(p[side][key] for p in pairs) for side in SIDES}
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, required=True, help="seed of the first pair")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    bench = json.loads((args.change / "BENCHMARK.json").read_text(encoding="utf-8"))
    better = {m["name"]: m["better"] for m in bench["end_to_end"]}
    seconds = bench["run_seconds"]

    pairs, host = [], None
    for i in range(args.pairs):
        seed = args.seed + i
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        pair = {"pair": i + 1, "seed": seed, "first": order[0]}
        for side in order:
            pair[side], stamp = run_once(getattr(args, side), args.workload, seed, seconds)
            if host is None:
                host = {k: v for k, v in stamp.items() if k not in ("git_commit", "src_sha256", "seed")}
        pairs.append(pair)
        print(json.dumps(pair), flush=True)

    data = json.loads(args.out.read_text(encoding="utf-8")) if args.out.exists() else {}
    data["label"] = args.out.stem.removeprefix("BENCH_")
    data["command"] = ("python3 perfbench/run.py --workload WORKLOAD --seed SEED "
                       f"--seconds {seconds:g} --trace 0 (in each checkout; each entry is the last output line)")
    data["host"] = host
    data["order"] = "pairs alternate which side runs first, starting with the parent; 'first' names it"
    data[args.workload] = {"summary": summarize(pairs, better), "pairs": pairs}
    args.out.write_text(json.dumps(data, indent=1) + "\n", encoding="utf-8")
    failed = sum(p[side]["failed"] for p in pairs for side in SIDES)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
