"""Study benchmark for gtscore: whole CLI studies, end to end and per layer.

    python3 perfbench/run.py --workload mc_study --seed 0 --seconds 30 --trace 0

Run from the repository root. The package is imported from `src/`; it
need not be installed.

`--trace 0` runs the CLI in fresh processes with tracing off and reports
the end-to-end metrics:

- setup_s: a fresh interpreter imports `gtscore.cli`, loads the config
  and parses every asset CSV (median of the samples);
- study_s, study_par_s: the `montecarlo` study at `--jobs 1` and at
  `--jobs N` (N = usable CPUs);
- peak_rss_mb: peak resident memory of the `--jobs 1` study process.

Each study is followed by a set-up sample, so the samples spread over the
run; then more follow, at least three in all, until the run has measured
for `--seconds`. The studies always run whole. After set-up, each sample process also runs
`costsweep`, `report` and `verify` on the `--jobs 1` output, untimed.
`--trace 1` runs the study and the post-processing commands untraced
(giving cli.post_s, the wall time of one `costsweep`, `report` and
`verify` pass), then the same in-process under the span tracer
(`tracer.py`), then the study at `--jobs N` with worker-pool traffic
counted, and reports the per-layer metrics.

Correctness: every command must exit 0 (`verify` included); `--jobs 1`
and `--jobs N` outputs must be byte-identical, and so must the traced and
untraced `trials.csv`; the trial count must match the study shape; and at
seed 0 `trials.csv` must match the pinned SHA-256. The last line of stdout
is one JSON object with `correct`, `attempted`, `failed` and `metrics`;
`failed / attempted` is the error fraction. Everything the benchmark
writes goes under `.perfbench_work/` (removed at the end) and
`.perfbench_out/` (kept: span dumps and run records).
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

from inputs import FIXTURE, WORKLOADS, write_inputs
from tracer import METRICS as TRACER_METRICS

ROOT = Path.cwd()
HERE = Path(__file__).resolve().parent
CHILD = HERE / "child.py"
WORK_DIR = ROOT / ".perfbench_work"
OUT_DIR = ROOT / ".perfbench_out"

# SHA-256 of trials.csv at seed 0, full size.
PINNED_TRIALS_SHA256 = {
    "mc_study":
        "8b4c2c7659e96486bc0f60063c65857dcab429faef04624dade36a8dbbfb4727",
    "mc_stab_gt":
        "f112d58b7132b7723e1a29abb758b9484c0a6a5c41e4522cb1186858105b4ab7",
}

RUN_LIMIT_S = 170      # a run stops its children after this long
SETUPS_PER_STUDY = 1   # set-up samples after each study
MIN_SETUPS = 3
MAX_SETUPS = 9
N_MC_SEEDS = 5

END_TO_END = [
    ("setup_s", "s"),
    ("study_s", "s"),
    ("study_par_s", "s"),
    ("peak_rss_mb", "MB"),
]

# The tracer's metrics, then those this process works out itself.
PER_LAYER = [(name, unit) for name, (unit, _) in TRACER_METRICS.items()] + [
    ("search.degenerate_frac", "fraction"),
    ("search.pool_bytes_sent", "bytes"), ("search.pool_bytes_recv", "bytes"),
    ("cli.post_s", "s"), ("cli.verify_s", "s"), ("cli.costsweep_s", "s"),
    ("trace.overhead_frac", "fraction"),
]


class Run:
    """Inputs, child processes and the correctness tally of one run."""

    def __init__(self, workload: str, seed: int, tiny: bool):
        self.workload = workload
        self.seed = seed
        self.tiny = tiny
        self.work = WORK_DIR / f"{workload}-seed{seed}-{os.getpid()}"
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.jobs_par = len(os.sched_getaffinity(0))
        self.deadline = time.monotonic() + RUN_LIMIT_S
        self._n = 0

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(what)
        return ok

    def prepare(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        self.inputs = write_inputs(ROOT, self.work, self.workload, self.seed,
                                   self.tiny)
        self.csvs = [str(self.inputs["data_dir"] / f"{a}.csv")
                     for a in self.inputs["assets"]]

    def _child(self, plan: dict) -> dict | None:
        """Run child.py on `plan`; its report, or None if it failed."""
        self._n += 1
        tag = f"{self._n:02d}"
        plan = dict(plan, report=str(self.work / f"{tag}.report.json"))
        plan_path = self.work / f"{tag}.plan.json"
        plan_path.write_text(json.dumps(plan))
        with open(self.work / f"{tag}.log", "w") as log:
            spawned_at = time.monotonic()
            # Own process group, so a timeout also stops the pool workers.
            proc = subprocess.Popen([sys.executable, str(CHILD), str(plan_path)],
                                    cwd=ROOT, stdout=log,
                                    stderr=subprocess.STDOUT,
                                    start_new_session=True)
            try:
                proc.wait(timeout=max(1.0, self.deadline - time.monotonic()))
            except subprocess.TimeoutExpired:
                print(f"{tag}: out of time", file=log)
            finally:
                if proc.poll() is None:
                    os.killpg(proc.pid, signal.SIGKILL)
                    proc.wait()
        report = None
        if proc.returncode == 0:
            report = json.loads(Path(plan["report"]).read_text())
            report["spawned_at"] = spawned_at
            if not report["gtscore_file"].startswith(str(ROOT / "src")):
                report = None
                self.problems.append(f"{tag}: gtscore not imported from src/")
        if report is None:
            tail = (self.work / f"{tag}.log").read_text()[-2000:]
            print(f"child {tag} failed (exit {proc.returncode}):\n{tail}",
                  file=sys.stderr)
        return report

    def cli(self, commands: list[list[str]], **flags) -> dict | None:
        """Run CLI commands in one child; the report if all exited 0."""
        report = self._child({"commands": commands, **flags})
        done = report["commands"] if report else []
        rcs = [c["rc"] for c in done] + [None] * (len(commands) - len(done))
        argvs = [c["argv"] for c in done] + commands[len(done):]
        for argv, rc in zip(argvs, rcs):
            self.check(rc == 0, f"`gtscore {' '.join(argv)}` failed")
        return report if report and all(rc == 0 for rc in rcs) else None

    def study_argv(self, out: Path, jobs: int) -> list[str]:
        return ["montecarlo", "--config", str(self.inputs["config"]),
                "--out", str(out), "--jobs", str(jobs)]

    def post_argvs(self, out: Path) -> list[list[str]]:
        return [["costsweep", "--trials", str(out / "trials.csv"),
                 "--out", str(out)],
                ["report", "--out", str(out)], ["verify", "--out", str(out)]]

    def expected_trials(self) -> int:
        return (len(self.inputs["assets"]) * 3 * self.inputs["n_objectives"]
                * N_MC_SEEDS)

    def check_trials(self, out: Path) -> list[dict]:
        """Shape and pinned-digest checks on a study's trials.csv."""
        path = out / "trials.csv"
        if not self.check(path.is_file(), f"{path.name} missing in {out.name}"):
            return []
        with path.open(newline="") as fh:
            rows = list(csv.DictReader(fh))
        self.check(len(rows) == self.expected_trials(),
                   f"{len(rows)} trials, expected {self.expected_trials()}")
        if self.seed == 0 and not self.tiny:
            pinned = PINNED_TRIALS_SHA256[self.workload]
            digest = hashlib.sha256(path.read_bytes()).hexdigest()
            self.check(digest == pinned,
                       f"trials.csv sha256 {digest} != pinned {pinned}")
        return rows


def _digests(out: Path) -> dict:
    """SHA-256 of every file in a study's output directory."""
    if not out.is_dir():
        return {}
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.iterdir())}


def measure_end_to_end(run: Run, seconds: float) -> dict:
    """Both studies, each followed by set-up samples so that the samples
    spread over the run."""
    t_start = time.perf_counter()
    setup = {"config": str(run.inputs["config"]), "csvs": run.csvs}
    out1 = run.work / "out_j1"
    values = {"study_s": 0.0, "study_par_s": 0.0, "peak_rss_mb": 0.0}
    setups = []

    def sample() -> bool:
        # A fresh interpreter imports the CLI, loads the config and parses
        # every asset CSV; then, untimed, it post-processes the --jobs 1
        # study, whose `verify` is a correctness check.
        rep = run.cli(run.post_argvs(out1), setup=setup)
        if rep is not None:
            setups.append(rep["setup_done"] - rep["spawned_at"])
        return rep is not None

    outputs = {}
    for jobs, metric in ((1, "study_s"), (run.jobs_par, "study_par_s")):
        out = run.work / f"out_j{jobs}"
        rep = run.cli([run.study_argv(out, jobs)])
        if rep is None:
            continue
        values[metric] = rep["commands"][0]["wall_s"]
        if jobs == 1:
            values["peak_rss_mb"] = rep["maxrss_kb"] / 1024.0
        outputs[jobs] = _digests(out)
        for _ in range(SETUPS_PER_STUDY):
            sample()
    run.check(len(outputs) == 2 and outputs[1] == outputs[run.jobs_par],
              f"--jobs 1 and --jobs {run.jobs_par} outputs differ")
    rows = run.check_trials(out1)
    while len(setups) < MAX_SETUPS and (
            len(setups) < MIN_SETUPS or time.perf_counter() - t_start < seconds):
        if not sample():
            break
    values["setup_s"] = statistics.median(setups) if setups else 0.0
    values["_setups"] = len(setups)
    values["_rows"] = rows
    return values


def measure_per_layer(run: Run) -> dict:
    plain, traced = run.work / "out_plain", run.work / "out_traced"
    pooled = run.work / "out_pool"
    values = {}
    rep = run.cli([run.study_argv(plain, 1)] + run.post_argvs(plain))
    untraced_s = rep["commands"][0]["wall_s"] if rep else 0.0
    if rep:
        values["cli.post_s"] = sum(c["wall_s"] for c in rep["commands"][1:])
    OUT_DIR.mkdir(exist_ok=True)
    spans_out = OUT_DIR / f"spans-{run.workload}.csv"
    rep = run.cli([run.study_argv(traced, 1)] + run.post_argvs(traced),
                  trace=True, spans_out=str(spans_out))
    absent: list[str] = []
    if rep:
        trace = rep["trace"]
        absent = trace["absent"]
        values.update(trace["metrics"])
        walls = {c["argv"][0]: c["wall_s"] for c in rep["commands"]}
        values["cli.verify_s"] = walls["verify"]
        values["cli.costsweep_s"] = walls["costsweep"]
        values["trace.overhead_frac"] = (
            walls["montecarlo"] / untraced_s - 1.0 if untraced_s else 0.0)
        values["_spans"] = trace["n_spans"]
    rep = run.cli([run.study_argv(pooled, run.jobs_par)], pool_bytes=True)
    if rep:
        values["search.pool_bytes_sent"] = rep["pool"]["sent"]
        values["search.pool_bytes_recv"] = rep["pool"]["recv"]
    rows = run.check_trials(plain)
    trials = [_digests(out).get("trials.csv") for out in (plain, traced, pooled)]
    run.check(None not in trials and len(set(trials)) == 1,
              "untraced, traced and --jobs N trials.csv differ")
    values["search.degenerate_frac"] = (
        sum(r["degenerate"] == "true" for r in rows) / len(rows) if rows else 0.0)
    values["_rows"] = rows
    values["_absent"] = absent
    return values


def _git_commit() -> str | None:
    """HEAD of a git checkout at the root, read without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _version(dist: str) -> str | None:
    try:
        return metadata.version(dist)
    except metadata.PackageNotFoundError:
        return None


def run_record(run: Run, rows: list[dict], loadavg: tuple) -> dict:
    src_lines = sum(len(p.read_text().splitlines())
                    for p in sorted((ROOT / "src" / "gtscore").glob("*.py")))
    candidates = sum(len(json.loads(r["candidates_json"])) for r in rows)
    oos = sum(r["degenerate"] != "true" for r in rows)
    return {
        "workload": run.workload, "seed": run.seed, "tiny": run.tiny,
        "nproc": os.cpu_count(), "jobs_par": run.jobs_par,
        "cpu_model": _cpu_model(), "python": platform.python_version(),
        "numpy": _version("numpy"), "scipy": _version("scipy"),
        "git_commit": _git_commit(), "loadavg_start": list(loadavg),
        "src_gtscore_lines": src_lines, "trials": len(rows),
        "backtests_requested": candidates + oos,
    }


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=0,
                   help="0 reproduces the frozen fixture and pinned digests")
    p.add_argument("--seconds", type=float, default=30.0,
                   help="minimum measuring time; whole studies always run")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true",
                   help="1 asset, budget 2 (smoke test; no digest pin)")
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    missing = [str(p) for p in (ROOT / "src" / "gtscore" / "cli.py",
                                ROOT / FIXTURE) if not p.is_file()]
    if missing:
        print(f"error: run from the repository root; missing {missing}",
              file=sys.stderr)
        return 2
    loadavg = os.getloadavg()
    run = Run(args.workload, args.seed, args.tiny)
    run.prepare()
    try:
        if args.trace:
            values = measure_per_layer(run)
            spec = PER_LAYER
        else:
            values = measure_end_to_end(run, args.seconds)
            spec = END_TO_END
    finally:
        shutil.rmtree(run.work, ignore_errors=True)

    record = run_record(run, values["_rows"], loadavg)
    record.update({k[1:]: v for k, v in values.items()
                   if k.startswith("_") and k != "_rows"})
    absent = set()
    for name, unit in spec:
        if values.get(name) is None:
            absent.add(name)
    metrics = {name: {"value": values.get(name) or 0, "unit": unit}
               for name, unit in spec}
    error_frac = run.failed / run.attempted if run.attempted else 1.0

    print(f"run record: {json.dumps(record, sort_keys=True)}")
    for problem in run.problems:
        print(f"FAILED: {problem}")
    for name, unit in spec:
        shown = "absent" if name in absent else f"{metrics[name]['value']:.6g}"
        print(f"{name:32s} {shown:>14s} {unit}")
    print(f"{'error_frac':32s} {error_frac:14.6g} fraction "
          f"({run.failed} of {run.attempted} commands and checks failed)")

    result = {"correct": run.failed == 0, "attempted": max(run.attempted, 1),
              "failed": run.failed, "metrics": metrics}
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps({"record": record, "result": result}, indent=1))
    print(json.dumps(result))
    return 0 if run.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
