"""One measured process: `python3 perfbench/child.py <plan.json>`.

The child imports `gtscore.cli` from `src/` of the current directory (the
working tree, not an installed copy), then:

1. if the plan has a "setup" entry, loads that config and parses every
   asset CSV listed, and records the monotonic clock when done, so the
   caller can time set-up from the moment it started the process;
2. runs each of the plan's CLI commands through `gtscore.cli.main`,
   timing each call, optionally under the span tracer (`"trace": true`)
   or with worker-pool traffic counted (`"pool_bytes": true`);
3. writes a JSON report to the plan's "report" path.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path.cwd()
sys.path.insert(0, str(ROOT / "src"))


def run(plan: dict) -> dict:
    import gtscore.cli as cli
    report = {"gtscore_file": cli.__file__, "commands": []}
    if "setup" in plan:
        from gtscore.data import parse_ohlcv_csv
        cli.load_config(plan["setup"]["config"])
        for path in map(Path, plan["setup"]["csvs"]):
            parse_ohlcv_csv(path.read_text(), path.stem)
        report["setup_done"] = time.monotonic()

    tracer = pool = None
    if plan.get("trace"):
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    if plan.get("pool_bytes"):
        from tracer import PoolTraffic
        pool = PoolTraffic()
        pool.install()
    try:
        for argv in plan["commands"]:
            start = time.perf_counter()
            if tracer is not None:
                rc = tracer.root(f"cli.{argv[0]}", cli.main, argv)
            else:
                rc = cli.main(argv)
            wall = time.perf_counter() - start
            report["commands"].append({"argv": argv, "rc": rc, "wall_s": wall})
            if rc != 0:
                break
    finally:
        if tracer is not None:
            tracer.uninstall()
        if pool is not None:
            pool.uninstall()

    report["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tracer is not None:
        report["trace"] = {"metrics": tracer.layer_metrics(),
                           "absent": tracer.absent,
                           "n_spans": len(tracer.spans)}
        tracer.write_spans(plan["spans_out"])
    if pool is not None:
        report["pool"] = {"sent": pool.sent, "recv": pool.recv}
    return report


def main() -> int:
    plan = json.loads(Path(sys.argv[1]).read_text())
    Path(plan["report"]).write_text(json.dumps(run(plan)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
