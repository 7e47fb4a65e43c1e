"""Alternating parent/change pairs of the study benchmark, as a BENCH file.

    python3 tools/bench_pairs.py --parent <tree> --change <tree> \
        --pairs 10 --out BENCH_<n>.json --change-text "..." --target "..." \
        [--claim mc_stab_gt/study_s] [--claim-seed 2]
    python3 tools/bench_pairs.py --merge <set>.json ... --out BENCH_<n>.json

Run from the repository root, which supplies the bounds in
`BENCHMARK.json`. Each tree is a full copy of the repository (for example
from `git archive`); `perfbench/run.py --trace 0` runs from inside it, so
the two sides never share a work directory. Both trees must have the
same bytecode state, since a tree whose modules are already compiled
starts every child process faster: a tree with a `__pycache__` under
`src/` or `perfbench/` is refused, and every child runs with
`PYTHONDONTWRITEBYTECODE=1`, so neither side compiles one. Pair i runs
the parent first when i is even and the change first when it is odd; the
pairs of every workload/seed row are interleaved, so a slow spell of the
host falls on both sides.

The output follows `BENCH_12.json`: per row and end-to-end metric, the
runs of each side with their median and quartiles, the pairs the change
won (lower is better for every end-to-end metric), the median change as a
fraction of the parent's median, the parent's interquartile range, and
whether the change stays inside the `BENCHMARK.json` bound, and a verdict:
"worse" when the median change exceeds the bound; else "unresolved" when
the parent's interquartile range, as a fraction of its median, exceeds
the bound, unless every change run beats every parent run; else "no
worse". The claim section checks the claimed metric, `--claim
workload/metric` (default mc_study/study_s), on every seed: the change
wins at least 9 in 10 pairs and the median gap exceeds the parent's
interquartile range; each seed's row gives the metric's unit from
`BENCHMARK.json`, since its `median_gap_s` and `parent_iqr_s` keep their
names for every metric. `--claim-seed` (repeatable) adds a row of the
claimed workload at that seed, so the claim is also checked on a seed not
used while the change was written. With an empty `--target` the change
claims no gain, and the claim is null.

The record also holds "src_lines": per side, the number of lines in the
tree's `src/gtscore/*.py`, the size to report next to the timings, and
"src_modules": per side, the lines of each of those modules, so a change
in size shows where it happened. "bench_sha256" holds, per side, a
SHA-256 over the tree's `BENCHMARK.json` and its `perfbench/*.py` files
in sorted order: equal digests show that both sides ran one benchmark.

`--merge` pools the runs of earlier outputs of this script, made on the
same trees, into one record over all their pairs, keeping each set's own
claim under "sets", the first set's "src_lines", "src_modules" and
"bench_sha256".
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np

WORKLOADS = ("mc_study", "mc_stab_gt")
SEEDS = (0, 1)
SIDES = ("parent", "change")
DEFAULT_CLAIM = "mc_study/study_s"
MIN_WON_FRACTION = 0.9


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One `perfbench/run.py` run inside `tree`: its result object."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True, check=False,
        env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"})
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise SystemExit(f"no result from {tree} {workload} seed {seed}:\n"
                         f"{proc.stderr}")
    return json.loads(lines[-1])


def refuse_bytecode(tree: Path) -> None:
    """Exit with one line naming a `__pycache__` under `src/` or
    `perfbench/` of `tree`, if it has one."""
    for top in ("src", "perfbench"):
        caches = sorted((tree / top).rglob("__pycache__"))
        if caches:
            raise SystemExit(f"{caches[0]}: compiled modules in a tree to "
                             "benchmark; remove the directory")


def src_modules(tree: Path) -> dict[str, int]:
    """Lines in each package module of `tree`, as `wc -l` counts them."""
    return {path.name: path.read_bytes().count(b"\n")
            for path in sorted((tree / "src" / "gtscore").glob("*.py"))}


def bench_sha256(tree: Path) -> str:
    """SHA-256 over each benchmark file of `tree`, by name and content."""
    digest = hashlib.sha256()
    for path in [tree / "BENCHMARK.json",
                 *sorted((tree / "perfbench").glob("*.py"))]:
        digest.update(f"{path.relative_to(tree)}\0".encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def quartiles(runs: list[float]) -> dict:
    q1, median, q3 = np.percentile(runs, [25, 50, 75])
    return {"median": round(float(median), 4), "q1": round(float(q1), 4),
            "q3": round(float(q3), 4), "runs": [round(r, 4) for r in runs]}


def summarize(row: dict, bounds: dict) -> dict:
    """Per-metric comparison of one row's runs: `row` holds, per side, the
    runs of each metric, whether every run was correct and the failures."""
    metrics = {}
    for name, bound in bounds.items():
        parent, change = (row["runs"][side][name] for side in SIDES)
        p, c = quartiles(parent), quartiles(change)
        frac = (c["median"] - p["median"]) / p["median"]
        iqr = p["q3"] - p["q1"]
        if frac > bound:
            verdict = "worse"
        elif iqr / p["median"] > bound and max(change) >= min(parent):
            verdict = "unresolved"
        else:
            verdict = "no worse"
        metrics[name] = {
            "parent": p, "change": c,
            "change_better_pairs": sum(b < a for a, b in zip(parent, change)),
            "median_change_frac": round(frac, 4),
            "parent_iqr": round(iqr, 4),
            "bound": bound,
            "within_bound": frac <= bound,
            "verdict": verdict,
        }
    return {"pairs": len(parent), "correct": row["correct"],
            "failed": row["failed"], "metrics": metrics}


def claim(rows: dict, target: str, workload: str, metric: str,
          unit: str) -> dict | None:
    if not target:
        return None
    out = {"metric": metric, "workload": workload, "target": target}
    for key, row in rows.items():
        name, _, seed = key.partition("/seed")
        if name != workload:
            continue
        m = row["metrics"][metric]
        gap = m["parent"]["median"] - m["change"]["median"]
        pairs = len(m["parent"]["runs"])
        out[f"seed{seed}"] = {
            "median_change_frac": m["median_change_frac"],
            "change_better_pairs": m["change_better_pairs"],
            "pairs": pairs,
            "median_gap_s": round(gap, 4),
            "parent_iqr_s": m["parent_iqr"],
            "unit": unit,
            "met": (m["change_better_pairs"] >= MIN_WON_FRACTION * pairs
                    and gap > m["parent_iqr"]),
        }
    return out


def empty_row(bounds: dict) -> dict:
    return {"runs": {side: {name: [] for name in bounds} for side in SIDES},
            "correct": {side: True for side in SIDES},
            "failed": {side: 0 for side in SIDES}}


def measure(args, bounds: dict) -> tuple[dict, dict]:
    """Run the pairs; the raw rows and the record's descriptive fields."""
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    for tree in trees.values():
        refuse_bytecode(tree)
    claimed, metric = args.claim
    keys = [(w, s) for w in WORKLOADS
            for s in (*SEEDS, *(args.claim_seed if w == claimed else ()))]
    rows = {f"{w}/seed{s}": empty_row(bounds) for w, s in keys}
    for i in range(args.pairs):
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        for workload, seed in keys:
            row = rows[f"{workload}/seed{seed}"]
            for side in order:
                result = run_once(trees[side], workload, seed, args.seconds)
                for name in bounds:
                    row["runs"][side][name].append(
                        result["metrics"][name]["value"])
                row["correct"][side] &= result["correct"]
                row["failed"][side] += result["failed"]
                print(f"pair {i} {workload} seed {seed} {side}: {metric} "
                      f"{result['metrics'][metric]['value']:.3f}",
                      file=sys.stderr)
    modules = {side: src_modules(tree) for side, tree in trees.items()}
    record = {
        "change": args.change_text,
        "command": (f"python3 perfbench/run.py --workload <w> --seed <s> "
                    f"--seconds {args.seconds:g} --trace 0"),
        "method": ("alternating pairs: pair i runs parent first when i is "
                   "even, change first when odd; each side runs from its "
                   f"own copy of the tree; the pairs of the {len(rows)} "
                   "workload/seed rows are interleaved"),
        "host": {"cpus": len(os.sched_getaffinity(0)),
                 "machine": platform.machine(),
                 "python": platform.python_version(),
                 "numpy": np.__version__},
        "src_lines": {side: sum(modules[side].values()) for side in SIDES},
        "src_modules": modules,
        "bench_sha256": {side: bench_sha256(tree)
                         for side, tree in trees.items()},
    }
    return rows, record


def merge(paths: list[Path], bounds: dict) -> tuple[dict, dict]:
    """Pool the runs of earlier records; the first one's descriptive
    fields and each set's claim."""
    sets = [json.loads(p.read_text()) for p in paths]
    rows = {}
    for s in sets:
        for key, done in s["workloads"].items():
            row = rows.setdefault(key, empty_row(bounds))
            for side in SIDES:
                for name in bounds:
                    row["runs"][side][name] += (
                        done["metrics"][name][side]["runs"])
                row["correct"][side] &= done["correct"][side]
                row["failed"][side] += done["failed"][side]
    record = {k: sets[0][k]
              for k in ("change", "command", "method", "host", "src_lines",
                        "src_modules", "bench_sha256")}
    record["method"] += (f"; {len(sets)} sets of pairs on the same trees, "
                         "pooled")
    record["sets"] = [s["claim"] for s in sets]
    return rows, record


def claim_spec(text: str) -> tuple[str, str]:
    """`workload/metric` as a pair, both known to the benchmark."""
    workload, _, metric = text.partition("/")
    names = [m["name"] for m in json.loads(
        Path("BENCHMARK.json").read_text())["end_to_end"]]
    if workload not in WORKLOADS or metric not in names:
        raise argparse.ArgumentTypeError(
            f"{text!r}: want one of {WORKLOADS} / one of {names}")
    return workload, metric


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--parent", type=Path)
    p.add_argument("--change", type=Path)
    p.add_argument("--merge", nargs="+", type=Path,
                   help="pool these earlier outputs instead of running")
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--out", required=True, type=Path)
    p.add_argument("--change-text", default="",
                   help="one sentence on what the change does")
    p.add_argument("--target", default="",
                   help="the claimed gain, in words; empty for none")
    p.add_argument("--claim", default=DEFAULT_CLAIM, type=claim_spec,
                   help="the claimed workload/metric (default "
                        f"{DEFAULT_CLAIM})")
    p.add_argument("--claim-seed", type=int, action="append", default=[],
                   help="also run the claimed workload at this seed")
    args = p.parse_args(argv)
    if not args.merge and not (args.parent and args.change):
        p.error("give --parent and --change, or --merge")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    spec = json.loads(Path("BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    if args.merge:
        raw, record = merge(args.merge, bounds)
        first = json.loads(args.merge[0].read_text())["claim"]
        target = first["target"] if first else ""
        claimed = ((first["workload"], first["metric"]) if first
                   else args.claim)
    else:
        raw, record = measure(args, bounds)
        target, claimed = args.target, args.claim
    rows = {key: summarize(row, bounds) for key, row in raw.items()}
    record = {"claim": claim(rows, target, *claimed, units[claimed[1]]),
              **record,
              "workloads": rows}
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
