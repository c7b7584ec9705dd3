#!/usr/bin/env python3
"""Compare the benchmark of two trees in alternating pairs of runs.

    python3 scripts/ab.py --base HEAD~1 --change worktree --workload cli-batch \\
        --pairs 5 --seed 1 [--seconds 20] [--cases C] [--json PATH]

Each side is a git ref, extracted with ``git archive``, or ``worktree``: the
tracked and untracked, not ignored, files of the working tree.  Both go to a
temporary directory, and each run is that side's own ``perfbench/run.py
--trace 0``, so each side is measured by its own harness.  The side that runs
first alternates from pair to pair: the base leads the odd pairs.

Prints every pair, then for each end-to-end metric of ``BENCHMARK.json``
each side's median [quartiles], the number of pairs the change won by the
metric's ``better``, ``PAST BOUND`` where the change's median is worse than
the base's by more than the metric's ``bound`` (any rise where the base is 0),
and ``UNRESOLVED`` where the base's own interquartile spread is wider than
``bound`` times its median, so that a regression within the bound could not be
told from noise, unless every change run beats every base run.
Nothing is written into the repository, and no machine setting is changed.
"""

from __future__ import annotations

import argparse
import io
import json
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKTREE = "worktree"


def _git(*args: str) -> bytes:
    return subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True,
                          check=True).stdout


def extract(ref: str, dest: Path) -> None:
    """Write the tree of ``ref``, or of the working tree, into ``dest``."""
    if ref == WORKTREE:
        listed = _git("ls-files", "-z", "--cached", "--others", "--exclude-standard")
        for name in filter(None, listed.decode().split("\0")):
            if (ROOT / name).is_file():  # a tracked file may be deleted
                (dest / name).parent.mkdir(parents=True, exist_ok=True)
                shutil.copy2(ROOT / name, dest / name)
        return
    with tarfile.open(fileobj=io.BytesIO(_git("archive", "--format=tar", ref))) as tar:
        # The "data" filter refuses links and paths out of ``dest`` where Python has it.
        tar.extractall(dest, **({"filter": "data"} if hasattr(tarfile, "data_filter") else {}))


def run_side(tree: Path, args) -> dict[str, float]:
    """The end-to-end metrics of one untraced run of ``tree``'s own harness."""
    argv = [sys.executable, "perfbench/run.py", "--workload", args.workload,
            "--seed", str(args.seed), "--trace", "0", "--seconds", str(args.seconds)]
    if args.cases is not None:
        argv += ["--cases", str(args.cases)]
    proc = subprocess.run(argv, cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        raise SystemExit(f"ab: {tree.name} exited {proc.returncode} without a result:\n"
                         f"{proc.stderr[-2000:]}") from None
    return {name: entry["value"] for name, entry in result["metrics"].items()}


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def summarize(metrics: list[dict], pairs: list[dict]) -> dict[str, dict]:
    """Each metric's medians, quartiles, pairs won by the change and bound verdicts."""
    summary = {}
    for metric in metrics:
        name, higher, bound = metric["name"], metric["better"] == "higher", metric["bound"]
        base = [p["base"][name] for p in pairs]
        change = [p["change"][name] for p in pairs]
        b1, b2, b3 = quartiles(base)
        c1, c2, c3 = quartiles(change)
        won = sum((c > b) if higher else (c < b) for b, c in zip(base, change))
        worse = (b2 - c2) if higher else (c2 - b2)
        beats_all = min(change) > max(base) if higher else max(change) < min(base)
        summary[name] = {
            "base": {"median": b2, "q1": b1, "q3": b3},
            "change": {"median": c2, "q1": c1, "q3": c3},
            "won": won, "pairs": len(pairs),
            "past_bound": worse > bound * abs(b2) if b2 else worse > 0.0,
            "unresolved": b3 - b1 > bound * abs(b2) and not beats_all,
        }
    return summary


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--base", required=True, help="git ref of the base side")
    ap.add_argument("--change", required=True, help=f"git ref of the change, or {WORKTREE!r}")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--cases", type=int, help="one pass over only the first CASES cases")
    ap.add_argument("--json", help="also write the pairs and the summary to this file")
    args = ap.parse_args(argv)
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    names = [m["name"] for m in metrics]
    pairs = []
    with tempfile.TemporaryDirectory(prefix="ab-") as tmp:
        trees = {}
        for side, ref in (("base", args.base), ("change", args.change)):
            trees[side] = Path(tmp) / side
            trees[side].mkdir()
            extract(ref, trees[side])
        for i in range(args.pairs):
            order = ("base", "change") if i % 2 == 0 else ("change", "base")
            pair = {"first": order[0]}
            for side in order:
                pair[side] = run_side(trees[side], args)
            pairs.append(pair)
            print(f"pair {i + 1} ({pair['first']} first): " + "; ".join(
                f"{n} {pair['base'][n]:.6g} -> {pair['change'][n]:.6g}" for n in names))
    summary = summarize(metrics, pairs)
    print(f"{args.workload}, seed {args.seed}, {args.pairs} pair(s): "
          f"{args.base} -> {args.change}, median [q1, q3]")
    for name, s in summary.items():
        b, c = s["base"], s["change"]
        print(f"  {name}: {b['median']:.6g} [{b['q1']:.6g}, {b['q3']:.6g}] -> "
              f"{c['median']:.6g} [{c['q1']:.6g}, {c['q3']:.6g}], change won "
              f"{s['won']}/{s['pairs']}" + ("  PAST BOUND" if s["past_bound"] else "")
              + ("  UNRESOLVED" if s["unresolved"] else ""))
    if args.json:
        with open(args.json, "w") as fh:
            json.dump({"base": args.base, "change": args.change, "workload": args.workload,
                       "seed": args.seed, "seconds": args.seconds, "cases": args.cases,
                       "pairs": pairs, "summary": summary}, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
