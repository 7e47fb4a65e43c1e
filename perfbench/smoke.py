"""Smoke test of the benchmark itself: `python3 perfbench/smoke.py`.

Run from the repository root. For each workload, at a tiny size (1 asset,
budget 2), with tracing off and on, it checks that the run is correct and
prints every metric named in BENCHMARK.json with its unit, both in the
table and in the final JSON line. It also checks that the tracer reports a
vanished function as absent instead of failing, and that the benchmark
refuses to run in a directory without the package. Takes about a minute.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path.cwd()
HERE = Path(__file__).resolve().parent
RUN = HERE / "run.py"


def check_workload(spec: dict, workload: str, trace: int) -> list[str]:
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    where = f"{workload} --trace {trace}"
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return [f"{where}: exit {proc.returncode}\n{proc.stderr[-2000:]}"]
    result = json.loads(lines[-1])
    errors = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        errors.append(f"{where}: result keys {sorted(result)}")
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        errors.append(f"{where}: not correct: {lines[-8:-1]}")
    wanted = spec["per_layer" if trace else "end_to_end"]
    if set(result["metrics"]) != {m["name"] for m in wanted}:
        errors.append(f"{where}: metrics {sorted(result['metrics'])}")
    for m in wanted:
        got = result["metrics"].get(m["name"])
        if (got is None or got["unit"] != m["unit"]
                or not isinstance(got["value"], (int, float))):
            errors.append(f"{where}: {m['name']} = {got}")
    table = {ln.split()[0]: ln.split() for ln in lines[:-1] if ln.split()}
    names = [(m["name"], m["unit"]) for m in wanted]
    for name, unit in names + [("error_frac", "fraction")]:
        row = table.get(name)
        if row is None or len(row) < 3 or row[2] != unit:
            errors.append(f"{where}: table row for {name} is {row}")
        elif row[1] == "absent":
            errors.append(f"{where}: {name} reported absent")
    return errors


def check_absent_target() -> list[str]:
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import tracer
    saved = list(tracer.TARGETS)
    tracer.TARGETS[:] = [t if t[0] != "indicators.ema" else
                         (t[0], t[1], "ema_removed", t[3]) for t in saved]
    try:
        tr = tracer.Tracer()
        tr.install()
        tr.uninstall()
        values = tr.layer_metrics()
    finally:
        tracer.TARGETS[:] = saved
    errors = []
    if not any(a.startswith("indicators.ema ") for a in tr.absent):
        errors.append(f"vanished target not reported absent: {tr.absent}")
    if values["indicators.ema_s"] is not None:
        errors.append("metric of a vanished target not marked absent")
    if values["indicators.rsi_s"] is None:
        errors.append("metric of a present target marked absent")
    return errors


def check_refuses_without_package() -> list[str]:
    bare = ROOT / ".perfbench_work" / "smoke-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / HERE.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, f"{HERE.name}/run.py", "--workload", "mc_study",
             "--seed", "0", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or proc.stdout.strip():
        return [f"ran without the package: exit {proc.returncode}, "
                f"stdout {proc.stdout[-300:]!r}"]
    return []


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    errors = check_absent_target() + check_refuses_without_package()
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace in (0, 1):
            errors += check_workload(spec, workload, trace)
            print(f"{workload} --trace {trace}: checked", flush=True)
    for e in errors:
        print(f"FAIL {e}")
    print("smoke: ok" if not errors else f"smoke: {len(errors)} failures")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
