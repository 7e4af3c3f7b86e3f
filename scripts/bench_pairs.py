#!/usr/bin/env python3
"""Alternating parent/change benchmark pairs, written to one BENCH_<n>.json.

Exports the parent revision and the change, HEAD, with `git archive` under
.bench_work/pairs/, then for each seed of --seeds runs `python3 bench/run.py
--workload W --seed N --seconds S --trace 0` once in each export, in fresh processes with PYTHONDONTWRITEBYTECODE=1 and no
__pycache__, alternating which side runs first (the parent on the first seed).

Every run goes into the runs of --out (a run of the same workload, side and
seed is replaced; other workloads' runs are kept, so one file can collect
several calls), and the summary of every workload in the file is recomputed
from its runs: the pairs, whether every run was correct, the runs that were
not, and for each end-to-end metric the parent's and the change's quartiles
(statistics.quantiles), the relative change of the median, and in how many
pairs the change is lower or tied.  Other top-level keys of --out are kept.

Usage: python scripts/bench_pairs.py --parent REV --workload W --seeds A-B
       [--seconds 20] --out BENCH_<n>.json
"""

import argparse
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import tarfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
METRICS = ("wall_ref_s", "setup_s", "peak_rss_mb", "ops_ok_frac")
SIDES = ("parent", "change")


def seeds(spec: str) -> range:
    """The seeds of "A-B", both ends included, or of a single "A"."""
    a, _, b = spec.partition("-")
    return range(int(a), int(b or a) + 1)


def order(i: int) -> tuple:
    """The sides in the order they run on the i-th seed: the parent first on even i."""
    return SIDES if i % 2 == 0 else SIDES[::-1]


def git(*args) -> bytes:
    return subprocess.run(["git", "-C", str(ROOT), *args], check=True, capture_output=True).stdout


def export(sha: str) -> Path:
    """A fresh copy of revision sha's committed files under .bench_work/pairs/."""
    dest = ROOT / ".bench_work" / "pairs" / sha[:12]
    shutil.rmtree(dest, ignore_errors=True)
    dest.mkdir(parents=True)
    with tarfile.open(fileobj=io.BytesIO(git("archive", "--format=tar", sha))) as tar:
        tar.extractall(dest, filter="data")
    return dest


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> tuple:
    """(the run's JSON result, its provenance) from one bench/run.py process in tree."""
    for cache in tree.rglob("__pycache__"):
        shutil.rmtree(cache)
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, env=dict(os.environ, PYTHONDONTWRITEBYTECODE="1"),
                          capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        raise SystemExit(f"{tree.name} seed {seed}: no result (exit {proc.returncode})\n{proc.stderr[-2000:]}")
    prov = next((json.loads(line[len("provenance "):]) for line in lines if line.startswith("provenance ")), {})
    return result, prov


def summarize(runs: list) -> dict:
    """Per workload: pairs, correctness, and each metric's quartiles and pairwise comparison."""
    out = {}
    for w in dict.fromkeys(r["workload"] for r in runs):
        by_seed = {}
        for r in runs:
            if r["workload"] == w:
                by_seed.setdefault(r["seed"], {})[r["side"]] = r
        pairs = [p for _, p in sorted(by_seed.items()) if len(p) == 2]
        mine = [r for r in runs if r["workload"] == w]
        s = {"pairs": len(pairs), "correct": all(r["correct"] for r in mine),
             "failed_runs": sum(not r["correct"] for r in mine)}
        for m in METRICS:
            p, c = ([pair[side][m] for pair in pairs] for side in SIDES)
            qp, qc = (statistics.quantiles(x, n=4) if len(x) > 1 else x * 3 for x in (p, c))
            s[m] = {
                "parent_q1_med_q3": qp,
                "change_q1_med_q3": qc,
                "median_change_rel": (qc[1] - qp[1]) / qp[1] if qp and qp[1] else 0.0,
                "change_lower": sum(b < a for a, b in zip(p, c)),
                "ties": sum(b == a for a, b in zip(p, c)),
            }
        out[w] = s
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=seeds, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args()

    revs = dict(zip(SIDES, (args.parent, "HEAD")))
    sha = {side: git("rev-parse", rev + "^{commit}").decode().strip() for side, rev in revs.items()}
    doc = json.loads(args.out.read_text()) if args.out.exists() else {}
    for side in SIDES:
        if doc.get(side, sha[side]) != sha[side]:
            raise SystemExit(f"{args.out} holds runs of {side} {doc[side]}, not {sha[side]}")
    trees = {side: export(sha[side]) for side in SIDES}
    runs = doc.get("runs", [])
    for i, seed in enumerate(args.seeds):
        for side in order(i):
            result, prov = run_once(trees[side], args.workload, seed, args.seconds)
            run = {"side": side, "seed": seed, "workload": args.workload, "correct": result["correct"],
                   "failed": result["failed"], **{m: result["metrics"][m]["value"] for m in METRICS}}
            runs = [r for r in runs if (r["side"], r["seed"], r["workload"]) != (side, seed, args.workload)] + [run]
            print(json.dumps(run), flush=True)
    doc.update(
        command=f"python3 bench/run.py --workload <w> --seed <n> --seconds {args.seconds:g} --trace 0",
        machine={k: prov.get(k) for k in ("cpu", "nproc", "python", "numpy")} | {"PYTHONDONTWRITEBYTECODE": "1"},
        parent=sha["parent"],
        change=sha["change"],
        summary=summarize(runs),
        runs=runs,
    )
    args.out.write_text(json.dumps(doc, indent=1) + "\n")
    for tree in trees.values():
        shutil.rmtree(tree, ignore_errors=True)


if __name__ == "__main__":
    main()
