"""CLI end-to-end: config, synth, studies, costsweep, report, verify."""

import csv
import datetime as dt
import errno
import hashlib
import importlib.util
import io
import json
import math
import os
import re
import shlex
import shutil
import subprocess
import sys
from dataclasses import fields, is_dataclass
from pathlib import Path
from typing import get_args, get_origin, get_type_hints

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import gtscore
from gtscore import cli, search
from gtscore.cli import (
    TRIAL_COLUMNS,
    MonteCarloConfig,
    RunConfig,
    WalkforwardConfig,
    csv_text,
    load_config,
    main,
    read_trials_csv,
    trial_row,
)
from gtscore.data import (
    CSV_HEADER,
    NONEMPTY,
    PriceSeries,
    SyntheticManifest,
    SyntheticSpec,
    decode_config,
    encode_config,
    ohlcv_rows,
)
from gtscore.engine import recompound_with_costs
from gtscore.errors import ConfigError
from gtscore.objective import (
    ObjectiveConfig,
    ObjectiveKind,
    Periodization,
    StabilizationConfig,
)
from gtscore.strategy import StrategyKind, sample_params

from conftest import make_series, random_closes

# Byte-level pins on the outputs of the runs below. A change to any of them
# is a change of behaviour and must be deliberate.
SYNTH_AA_SHA256 = (
    "f9b000129f7ab5510e4e1dc2fb892ab2c281ba8009b5af5a0f3fe87a569ad75b")
MONTECARLO_TRIALS_SHA256 = (
    "c39c72fa3bf4f9bd3ae214f3f03707574fddae9dfdbe25946d4b26a4bc0bb878")
WALKFORWARD_TRIALS_SHA256 = (
    "1a6e3e2384733c226f010aa7313fa39b257bde47bedb54793b4a88ba1faec9e1")
CONFIG_INIT_SHA256 = (
    "eb5200fe96d76c3c76536ebea1321ec054448bfa55bf31b6d711069b95098960")
# the reference walk-forward: the default config on the 8 fixture assets
REFERENCE_WALKFORWARD_TRIALS_SHA256 = (
    "386b2a9129f960964fe4319d6f15d4e401e0ad0b91d6ad10577b7dea3bcd6772")
# every file in a study directory: the workspace Monte Carlo study after
# `costsweep --bps 0,5,10`, and `walkforward_study`; and what `report`
# prints on each
MONTECARLO_OUTPUT_SHA256 = {
    "aggregates.csv": (
        "450e77b9bf78fd8470a2ab8100ecb89747a02e5a75e9a2ad5249c9318900e734"),
    "comparisons.csv": (
        "7d92d69a9c923cec5e6ead9d8e68f50237dcb9d616e94fae2f4d7a166efd1418"),
    "cost_sensitivity.csv": (
        "3af5a9d07e2481d440d01a4e8b8e421572680ee8fc441139f658ead5f6063918"),
    "strategy_means.csv": (
        "2dd16f17934588f4db73d5d2be6e5b59cbb10fa5d2eb2ce50cbfe4aaa7b98f4c"),
    "trade_counts.csv": (
        "943507aa8a9939e0caca2e630438af28b9194919e5748f70efeb26a99a06d8b4"),
    "trials.csv": MONTECARLO_TRIALS_SHA256,
}
WALKFORWARD_OUTPUT_SHA256 = {
    "aggregates.csv": (
        "fc54910fb50ede407658e557baf4d75918c75bd28ecc270ba608aa340976fb0e"),
    "periods.csv": (
        "8214aced6d8b2a38011e4aa16d52d6c2cd9fc19a2e34dfd9f4c013f28383886b"),
    "splits_genratio.csv": (
        "18299e11d73032a0a100c97bb14965b6708bf42701b33ed8aaf219b94ec64e9b"),
    "trials.csv": WALKFORWARD_TRIALS_SHA256,
}
MONTECARLO_REPORT_SHA256 = (
    "b3c8fb71ea628e75ee2472aa3117d2b378df1ca6c8c44d5bb5c569556a1e7666")
WALKFORWARD_REPORT_SHA256 = (
    "b74204b18c2f8c7545ea637fd46f4fd24f613dd9036f6bb159962261393eaedf")

# every file of a stabilized-periodization Monte Carlo study on the
# workspace data (`stabilized_study`)
STABILIZED_OUTPUT_SHA256 = {
    "aggregates.csv": (
        "a2e559a7143cac782e531f3d16b279611dc271ec95a9fa2b55f1764d0b6f4ff0"),
    "comparisons.csv": (
        "fe25e35152765745e3302d2247eb0a9a28e8690d617a3fc7d13f5dabf811bdeb"),
    "strategy_means.csv": (
        "8857f8d8f6c9bbfb7451fcba74318c05f3db64c903baa9cc2460c1eca4490f24"),
    "trade_counts.csv": (
        "1887d7a516a8412b9a41060cb2ac8e775650be07fc21f9f750c26e35e44c1065"),
    "trials.csv": (
        "363f52ce93ec5f58e024cad52cd240b6263ba9de09627477d6f8cb5e74551a66"),
}


def sha256_of(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def small_manifest():
    def regimes(flip):
        out = []
        sign = 1 if not flip else -1
        for _ in range(30):
            out.append([20, sign * 0.003, 0.012])
            sign = -sign
        return out
    return {"assets": [
        {"asset_id": "AA", "n_days": 600, "initial_price": 100.0,
         "regimes": regimes(False), "seed": 1},
        {"asset_id": "BB", "n_days": 600, "initial_price": 80.0,
         "regimes": regimes(True), "seed": 2},
    ]}


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """Synthetic data plus a completed montecarlo run."""
    root = tmp_path_factory.mktemp("cli")
    spec_path = root / "manifest.json"
    spec_path.write_text(json.dumps(small_manifest()))
    data_dir = root / "data"
    assert main(["synth", "--spec", str(spec_path),
                 "--out", str(data_dir)]) == 0

    cfg = RunConfig(data_dir=str(data_dir),
                    mc=MonteCarloConfig(seeds=[42, 43]),
                    budget=5, out_dir=str(root / "mc"))
    cfg_path = root / "config.json"
    cfg_path.write_text(json.dumps(encode_config(cfg)))
    assert main(["montecarlo", "--config", str(cfg_path)]) == 0
    return root, cfg_path


def test_output_files_pinned(workspace, tmp_path, capsys):
    _, cfg_path = workspace
    mc = tmp_path / "mc"
    assert main(["montecarlo", "--config", str(cfg_path),
                 "--out", str(mc)]) == 0
    assert main(["costsweep", "--trials", str(mc / "trials.csv"),
                 "--out", str(mc), "--bps", "0,5,10"]) == 0
    wf = walkforward_study(tmp_path)
    for out, pins, report in (
            (mc, MONTECARLO_OUTPUT_SHA256, MONTECARLO_REPORT_SHA256),
            (wf, WALKFORWARD_OUTPUT_SHA256, WALKFORWARD_REPORT_SHA256)):
        # `report` prints, and changes no file
        before = tree_state(out)
        capsys.readouterr()
        assert main(["report", "--out", str(out)]) == 0
        text = capsys.readouterr().out
        assert hashlib.sha256(text.encode()).hexdigest() == report
        assert tree_state(out) == before
        assert {p.name: sha256_of(p) for p in sorted(out.iterdir())} == pins


def test_reference_walkforward_pinned(tmp_path):
    # 48 tasks of 12 trials, run in a pool of two workers: each task's two
    # windows are what a worker receives
    data_dir = tmp_path / "data"
    assert main(["synth", "--spec", str(Path(__file__).parent / "fixtures"
                                        / "study_assets.json"),
                 "--out", str(data_dir)]) == 0
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(encode_config(
        RunConfig(data_dir=str(data_dir)))))
    assert main(["walkforward", "--config", str(cfg_path),
                 "--out", str(tmp_path / "wf"), "--jobs", "2"]) == 0
    trials = tmp_path / "wf" / "trials.csv"
    assert len(read_trials_csv(trials)) == 576
    assert sha256_of(trials) == REFERENCE_WALKFORWARD_TRIALS_SHA256


def stabilized_study(root, tmp_path):
    """A stabilized-periodization Monte Carlo study of the workspace data
    `root / "data"`, scored on period returns: counts that plateau inside
    n_range and the fallback outside it; its output directory."""
    cfg = RunConfig(data_dir=str(root / "data"),
                    mc=MonteCarloConfig(seeds=[42, 43]), budget=5,
                    objective=ObjectiveConfig(
                        periodization=Periodization.STABILIZED,
                        stabilization=StabilizationConfig(
                            n_range=(10, 80), fallback=90)),
                    out_dir=str(tmp_path / "stab"))
    cfg_path = tmp_path / "stab.json"
    cfg_path.write_text(json.dumps(encode_config(cfg)))
    assert main(["montecarlo", "--config", str(cfg_path)]) == 0
    return tmp_path / "stab"


def test_stabilized_output_files_pinned(workspace, tmp_path):
    out = stabilized_study(workspace[0], tmp_path)
    assert {p.name: sha256_of(p)
            for p in sorted(out.iterdir())} == STABILIZED_OUTPUT_SHA256
    # an int in a float setting is read as that float: a penalty of `300`
    # must not make the search's loss matrix int64, truncating every loss
    cfg_path = tmp_path / "stab.json"
    doc = json.loads(cfg_path.read_text())
    assert doc["objective"]["below_min_penalty"] == 300.0
    doc["objective"]["below_min_penalty"] = 300
    cfg_path.write_text(json.dumps(doc))
    assert main(["montecarlo", "--config", str(cfg_path),
                 "--out", str(tmp_path / "int")]) == 0
    assert (sha256_of(tmp_path / "int" / "trials.csv")
            == STABILIZED_OUTPUT_SHA256["trials.csv"])


# perfbench/tracer.py spans whose target no longer exists; repointing them
# is the benchmark's own repair, which empties this set
KNOWN_STALE = {"indicators.rsi", "indicators.macd", "indicators.ema",
               "strategy.signals", "metrics.context", "objective.loss",
               "objective.stabilize", "search.run_trial",
               "search.draw_candidates", "search.oos"}


def test_tracer_cli_targets_resolve():
    # perfbench/tracer.py wraps these names where the package looks them
    # up; a rename must fail here, not silently zero a benchmark metric
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    stale = set()
    for name, module, attr, _ in tracer.TARGETS:
        owner = importlib.import_module(module)
        for part in attr.split("."):
            owner = getattr(owner, part, None)
        if not callable(owner):
            stale.add(name)
    assert stale == KNOWN_STALE


def test_cli_import_leaves_scipy_stats_unloaded():
    # every subcommand pays for what `import gtscore.cli` loads, and
    # scipy.stats alone took most of a second
    src = Path(gtscore.__file__).resolve().parents[1]
    code = ("import sys, gtscore.cli; print(sorted(m for m in sys.modules "
            "if m.split('.')[:2] == ['scipy', 'stats']))")
    run = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, env={**os.environ, "PYTHONPATH": str(src)})
    assert run.returncode == 0, run.stderr
    assert run.stdout == "[]\n"


def test_cli_import_leaves_multiprocessing_unloaded():
    # only a study with --jobs above 1 starts a process pool: the pool's
    # module, and multiprocessing with it, load there and not before
    src = Path(gtscore.__file__).resolve().parents[1]
    code = ("import sys, gtscore.cli; print(sorted(m for m in sys.modules "
            "if m.split('.')[0] == 'multiprocessing' "
            "or m == 'concurrent.futures.process'))")
    run = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, env={**os.environ, "PYTHONPATH": str(src)})
    assert run.returncode == 0, run.stderr
    assert run.stdout == "[]\n"


def test_config_init_round_trips(tmp_path, capsys):
    out = tmp_path / "cfg.json"
    capsys.readouterr()
    assert main(["config", "init"]) == 0
    out.write_text(capsys.readouterr().out)
    assert load_config(str(out)) == RunConfig()


def test_config_init_output_pinned(capsys):
    capsys.readouterr()
    assert main(["config", "init"]) == 0
    text = capsys.readouterr().out
    assert hashlib.sha256(text.encode()).hexdigest() == CONFIG_INIT_SHA256


def test_run_config_json_round_trip():
    cfg = RunConfig(
        data_dir="d", assets=["X", "Y"], strategies=[StrategyKind.MACD],
        objectives=[ObjectiveKind.SORTINO, ObjectiveKind.GT_SCORE],
        wf=WalkforwardConfig(3, 1, 2, 10),
        mc=MonteCarloConfig([7, 5], 0.6, 12), budget=9,
        objective=ObjectiveConfig(
            eps=1e-5, n_min=20, below_min_penalty=250.0,
            periodization=Periodization.STABILIZED,
            stabilization=StabilizationConfig(0.05, 4, (5, 80), 40),
            benchmark_mode="arithmetic", r2_on_log_equity=True),
        out_dir="o")
    default = RunConfig()
    for ours, theirs in ((cfg, default), (cfg.wf, default.wf),
                         (cfg.mc, default.mc),
                         (cfg.objective, default.objective),
                         (cfg.objective.stabilization,
                          default.objective.stabilization)):
        for f in fields(ours):
            assert getattr(ours, f.name) != getattr(theirs, f.name), f.name
    doc = json.loads(json.dumps(encode_config(cfg)))
    assert doc["objective"]["stabilization"]["n_range"] == [5, 80]
    assert decode_config(RunConfig, doc) == cfg


def test_load_config_errors(tmp_path):
    with pytest.raises(ConfigError):
        load_config(str(tmp_path / "missing.json"))
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError):
        load_config(str(bad))
    unknown = tmp_path / "unknown.json"
    unknown.write_text('{"no_such_field": 1}')
    with pytest.raises(ConfigError):
        load_config(str(unknown))


def test_synth_writes_loadable_csvs(workspace):
    root, _ = workspace
    files = sorted(p.name for p in (root / "data").glob("*.csv"))
    assert files == ["AA.csv", "BB.csv"]
    header = (root / "data" / "AA.csv").read_text().splitlines()[0]
    assert header == "date,open,high,low,close,volume"
    assert sha256_of(root / "data" / "AA.csv") == SYNTH_AA_SHA256


def test_montecarlo_outputs(workspace):
    root, _ = workspace
    out = root / "mc"
    for name in ("trials.csv", "aggregates.csv", "strategy_means.csv",
                 "comparisons.csv", "trade_counts.csv"):
        assert (out / name).exists(), name
    rows = read_trials_csv(out / "trials.csv")
    assert len(rows) == 2 * 3 * 4 * 2  # assets x strategies x objectives x seeds
    assert {r["objective"] for r in rows} == {
        "gt_score", "simple", "sharpe", "sortino"}
    assert sha256_of(out / "trials.csv") == MONTECARLO_TRIALS_SHA256


def test_trial_rows_round_trip_returns(workspace):
    root, _ = workspace
    rows = read_trials_csv(root / "mc" / "trials.csv")
    for r in rows:
        returns = r["oos_trade_returns_json"]
        assert returns.size == r["oos_trades"]
        if returns.size:
            total = float(np.prod(1 + returns) - 1)
            assert total == pytest.approx(r["oos_return"], abs=1e-12)


# finite floats, with the edges of the float format drawn often
FINITE = st.one_of(st.sampled_from([-0.0, 5e-324, -2.2e-308, 1e308, -1e308]),
                   st.floats(allow_nan=False, allow_infinity=False))


@st.composite
def trials(draw):
    """A trial of `search`, its params drawn from one strategy's space."""
    family = draw(st.sampled_from(list(StrategyKind)))
    rng = np.random.Generator(np.random.Philox(draw(st.integers(0, 99))))
    pool = [sample_params(family, rng) for _ in range(draw(st.integers(1, 3)))]
    return {
        "asset": draw(st.sampled_from(["A", "SYN00", "x-y"])),
        "strategy": family.value,
        "objective": draw(st.sampled_from(list(ObjectiveKind))).value,
        "split_id": draw(st.integers(0, 9)),
        "seed": draw(st.integers(-2**63, 2**63)),
        "train_return": draw(FINITE),
        "oos_return": draw(FINITE),
        "train_trades": draw(st.integers(0, 10**6)),
        "oos_trades": draw(st.integers(0, 10**6)),
        "best_loss": draw(FINITE),
        "degenerate": draw(st.booleans()),
        "params_json": draw(st.sampled_from(pool)),
        "candidates_json": pool,
        "oos_trade_returns_json": np.array(draw(st.lists(FINITE, max_size=4)),
                                           dtype=float),
    }


EDGE_POOL = [sample_params(StrategyKind.RSI, np.random.Generator(
    np.random.Philox(0)))]
EDGE_TRIAL = {
    "asset": "A", "strategy": "rsi", "objective": "gt_score", "split_id": 0,
    "seed": 42, "train_return": -0.0, "oos_return": 5e-324,
    "train_trades": 0, "oos_trades": 4, "best_loss": 1e308,
    "degenerate": False, "params_json": EDGE_POOL[0],
    "candidates_json": EDGE_POOL,
    "oos_trade_returns_json": np.array([-0.0, 5e-324, 1e308, -1e308])}


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(drawn=st.lists(trials(), min_size=1, max_size=4, unique_by=lambda t: (
    t["asset"], t["strategy"], t["objective"], t["split_id"], t["seed"])))
@example(drawn=[EDGE_TRIAL, {**EDGE_TRIAL, "seed": 43, "degenerate": True,
                             "oos_trade_returns_json": np.array([])}])
def test_trial_rows_read_back_as_written(tmp_path, drawn):
    # `read_trials_csv` takes each cell only as the writer spells it, so
    # the rows it reads back are spelled by the writer into the same bytes
    cell_json = {}
    text = csv_text(TRIAL_COLUMNS, [trial_row(t, cell_json) for t in drawn])
    (tmp_path / "trials.csv").write_text(text)
    rows = read_trials_csv(tmp_path / "trials.csv")
    assert csv_text(TRIAL_COLUMNS, rows) == text


def test_montecarlo_reruns_identically(workspace, tmp_path):
    root, cfg_path = workspace
    out2 = tmp_path / "mc2"
    assert main(["montecarlo", "--config", str(cfg_path),
                 "--out", str(out2)]) == 0
    a = (root / "mc" / "trials.csv").read_bytes()
    b = (out2 / "trials.csv").read_bytes()
    assert a == b


def test_costsweep_and_report(workspace, capsys):
    root, _ = workspace
    out = root / "mc"
    assert main(["costsweep", "--trials", str(out / "trials.csv"),
                 "--out", str(out), "--bps", "0,5,10"]) == 0
    text = (out / "cost_sensitivity.csv").read_text()
    assert text.splitlines()[0] == "objective,bps_0,bps_5,bps_10"

    capsys.readouterr()
    assert main(["report", "--out", str(out)]) == 0
    assert "Transaction-cost sensitivity\n" in capsys.readouterr().out

    # a level that is not a number, not finite, negative or given twice
    for bps, message in [("0,x", "'x'"), ("nan", "nan: levels must"),
                         ("0,inf", "inf: levels"), ("1e400", "inf: levels"),
                         ("2,2", "2.0: levels"), ("2,5,2.0", "2.0: levels"),
                         ("0,-1", "-1.0: levels"), ("0,-0", "-0.0: levels"),
                         # a 100% round-trip haircut, or more
                         ("5000", "5000.0: levels"),
                         ("20000", "20000.0: levels"),
                         ("1e308,2", "1e+308: levels")]:
        capsys.readouterr()
        assert main(["costsweep", "--trials", str(out / "trials.csv"),
                     "--out", str(out / "bad"), "--bps", bps]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: bad --bps level: ") and message in err
        assert err.count("\n") == 1
        assert not (out / "bad").exists()


def test_costsweep_wiped_out_trade_loses_its_stake(workspace, tmp_path):
    # at 4,999 bps a side the round trip's haircut is 99.98%, so each losing
    # trade of the stabilized study is wiped out: its wealth factor floors
    # at 0 and its trial returns exactly -100%, also where an even number
    # of negative factors would multiply to a gain
    out = stabilized_study(workspace[0], tmp_path)
    assert main(["costsweep", "--trials", str(out / "trials.csv"),
                 "--out", str(out), "--bps", "0,4999"]) == 0
    rows = read_trials_csv(out / "trials.csv")
    wiped = [int((r["oos_trade_returns_json"] <= 2 * 4999 * 1e-4 - 1).sum())
             for r in rows]
    assert any(n % 2 for n in wiped) and any(n and n % 2 == 0 for n in wiped)
    totals = [recompound_with_costs(r["oos_trade_returns_json"], 4999)
              for r in rows]
    assert [t == -1.0 for t in totals] == [n > 0 for n in wiped]
    assert min(totals) == -1.0
    with (out / "cost_sensitivity.csv").open() as fh:
        means = {r["objective"]: float(r["bps_4999"])
                 for r in csv.DictReader(fh)}
    assert means == {obj: pytest.approx(np.mean(
        [t for t, r in zip(totals, rows) if r["objective"] == obj]))
        for obj in cli.OBJECTIVES}
    assert min(means.values()) >= -1.0


def test_cost_zero_level_matches_oos_mean(workspace, tmp_path):
    # the workspace study (default levels) makes no out-of-sample trade,
    # so only the stabilized one (89 trades) shows a cost being charged
    root, _ = workspace
    traded = []
    for study, bps in ((root / "mc", []),
                       (stabilized_study(root, tmp_path), ["--bps", "0,10"])):
        out = tmp_path / "costs" / study.name
        assert main(["costsweep", "--trials", str(study / "trials.csv"),
                     "--out", str(out), *bps]) == 0
        rows = read_trials_csv(study / "trials.csv")
        with (out / "cost_sensitivity.csv").open() as fh:
            for cells in csv.DictReader(fh):
                sub = [r for r in rows if r["objective"] == cells["objective"]]
                assert float(cells["bps_0"]) == pytest.approx(
                    float(np.mean([r["oos_return"] for r in sub])), abs=1e-12)
                assert float(cells["bps_10"]) == np.mean(
                    [recompound_with_costs(r["oos_trade_returns_json"], 10)
                     for r in sub])
                if any(r["oos_trades"] for r in sub):
                    traded.append(cells["objective"])
                    assert float(cells["bps_10"]) < float(cells["bps_0"])
    assert traded


def test_verify_passes_then_catches_tampering(workspace, tmp_path, capsys):
    # `report` prints only what `verify` proves: on every directory both
    # exit with the same code, and an error is the same one line
    def both(out, code):
        errs = []
        for command in ("verify", "report"):
            capsys.readouterr()
            assert main([command, "--out", str(out)]) == code, command
            errs.append(capsys.readouterr().err)
        assert errs[0] == errs[1] and errs[0].count("\n") == (code != 0)
        return errs[0]

    root, _ = workspace
    out = root / "mc"
    both(out, 0)

    broken = tmp_path / "broken"
    shutil.copytree(out, broken)
    agg = broken / "aggregates.csv"
    text = agg.read_text()
    agg.write_text(text.replace("0.", "1.", 1))
    assert both(broken, 3) == (
        "error: aggregates.csv: differs from recomputation\n")
    # cut to its header
    agg.write_text(text.splitlines(keepends=True)[0])
    both(broken, 3)
    # a derived file that is not UTF-8 text is named in one line
    agg.write_bytes(b"\xff\xfe")
    assert both(broken, 2).startswith(f"error: cannot read file {agg}")
    # a cost_sensitivity.csv header whose levels cannot be read back is
    # named with its file in one line
    shutil.rmtree(broken)
    shutil.copytree(out, broken)
    cost = broken / "cost_sensitivity.csv"
    for header in ["objective,bps_x", "objective,bps_0,bps_nan",
                   "objective,bps_-1", "objective,bps_2,bps_2.0",
                   "objective,bps_0,bps_5000", "objective,bps_1e308",
                   "objective,level_5"]:
        cost.write_text(header + "\n")
        cols = header.split(",")
        assert both(broken, 2).startswith(f"error: {cost}: bad header {cols}: ")
    # a file the other protocol writes is checked too: a wrong stray
    # trade_counts.csv in a walkforward study
    wf = walkforward_study(tmp_path)
    both(wf, 0)
    shutil.copy(out / "trade_counts.csv", wf)
    assert both(wf, 3) == (
        "error: trade_counts.csv: differs from recomputation\n")
    # missing files are named for the study's protocol, and with neither
    # protocol's own files there, for each protocol
    (wf / "splits_genratio.csv").unlink()
    (wf / "periods.csv").unlink()
    (wf / "trade_counts.csv").unlink()
    assert both(wf, 3) == (
        "error: splits_genratio.csv, periods.csv (walkforward) or "
        "strategy_means.csv, comparisons.csv, trade_counts.csv (montecarlo): "
        "missing\n")
    shutil.rmtree(broken)
    shutil.copytree(out, broken)
    (broken / "comparisons.csv").unlink()
    assert both(broken, 3) == "error: comparisons.csv (montecarlo): missing\n"
    # a trials.csv that cannot make the paired comparisons is named: one
    # cell's four trials, one pair per comparison, beside a header-only
    # comparisons.csv; and a study missing one sharpe trial
    header, *records = (out / "trials.csv").read_text().splitlines(True)

    def cell(record):  # asset, strategy, split_id, seed
        cells = record.split(",", 5)
        return cells[:2] + cells[3:5]
    shutil.rmtree(broken)
    broken.mkdir()
    (broken / "trials.csv").write_text(header + "".join(
        r for r in records if cell(r) == cell(records[0])))
    (broken / "comparisons.csv").write_text(
        (out / "comparisons.csv").read_text().splitlines(True)[0])
    assert both(broken, 2) == (
        f"error: {broken}/trials.csv: need n >= 2 pairs to compare gt_score "
        "with sharpe, got 1\n")
    shutil.rmtree(broken)
    shutil.copytree(out, broken)
    sharpe = next(r for r in records if ",sharpe," in r)
    (broken / "trials.csv").write_text(
        header + "".join(r for r in records if r != sharpe))
    assert both(broken, 2) == (
        f"error: {broken}/trials.csv: unpaired trials between gt_score and "
        "sharpe\n")


def test_malformed_trials_exit_code(workspace, tmp_path, capsys):
    root, _ = workspace
    table = list(csv.reader(io.StringIO(
        (root / "mc" / "trials.csv").read_text())))
    col = table[0].index

    def broken(line, column, value):
        rows = [list(r) for r in table]
        rows[line - 1][col(column)] = value
        return rows

    truncated = [list(r) for r in table]
    truncated[2] = truncated[2][:5]
    extended = [list(r) for r in table]
    extended[13].append("0.1")
    widened = [[*r, "x" if i == 0 else "0"] for i, r in enumerate(table)]
    swapped = [[r[1], r[0], *r[2:]] for r in table]
    padded = broken(16, "oos_return", f" {table[15][col('oos_return')]} ")
    repeated = [*table, table[1]]
    # (rows, file line and column the message must name; for a row
    # that is too long, what is wrong with it)
    cases = [(broken(1, "seed", "sead"), "line 1", "seed"),
             (broken(4, "oos_return", "abc"), "line 4", "oos_return"),
             (broken(2, "split_id", "1.5"), "line 2", "split_id"),
             (broken(3, "degenerate", "yes"), "line 3", "degenerate"),
             (broken(5, "oos_trade_returns_json", '["0.1", '), "line 5",
              "oos_trade_returns_json"),
             (broken(6, "oos_trade_returns_json", '["0.1", "x"]'), "line 6",
              "oos_trade_returns_json"),
             (broken(7, "oos_trade_returns_json", '[null]'), "line 7",
              "oos_trade_returns_json"),
             (broken(8, "objective", "sharpee"), "line 8", "objective"),
             (broken(9, "strategy", "bolinger"), "line 9", "strategy"),
             (truncated, "line 3", "train_return"),
             # the writer writes only finite numbers, as strings in a list
             (broken(10, "oos_return", "nan"), "line 10", "oos_return"),
             (broken(11, "oos_trade_returns_json", '["inf"]'), "line 11",
              "oos_trade_returns_json"),
             (broken(12, "oos_trade_returns_json", '[true]'), "line 12",
              "oos_trade_returns_json"),
             (broken(13, "oos_trade_returns_json", '[0.1]'), "line 13",
              "oos_trade_returns_json"),
             (broken(14, "oos_trade_returns_json", '"0.1"'), "line 14",
              "oos_trade_returns_json"),
             (extended, "line 14", "more cells than the header's 14"),
             # and spells every cell as the writer does: the header in
             # order, integers as `str` and numbers as `repr` writes them
             (widened, "line 1", "oos_trade_returns_json,x is not"),
             (swapped, "line 1", "header strategy,asset,objective,"),
             (broken(15, "oos_trades", "2_7"), "line 15", "oos_trades"),
             (padded, "line 16", "oos_return"),
             (broken(17, "oos_trade_returns_json", '["0.10"]'), "line 17",
              "oos_trade_returns_json"),
             # and JSON spaced only as the writer spaces it
             (broken(18, "oos_trade_returns_json", '["0.1","0.2"]'),
              "line 18", "oos_trade_returns_json"),
             # JSON that no float holds, or too deep to parse
             (broken(19, "oos_trade_returns_json", f"[{'9' * 400}]"),
              "line 19", "oos_trade_returns_json"),
             (broken(20, "oos_trade_returns_json", "[" * 100_000),
              "line 20", "oos_trade_returns_json"),
             # each trial once, and at least one: a repeated row is named
             # with the row it repeats; a file of no rows is named
             (repeated, f"line {len(table) + 1}",
              "repeats the trial of line 2"),
             (table[:1], "trials.csv", "no trials")]
    for i, (rows, line, column) in enumerate(cases):
        out = tmp_path / f"case{i}"
        out.mkdir()
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerows(rows)
        (out / "trials.csv").write_text(buf.getvalue())
        if len(rows) == 1:  # beside the derived files that no rows make
            for o in cli.OUTPUTS:
                if "montecarlo" in o.written_by:
                    (out / o.name).write_text(csv_text(*cli.derive(o, [])))
        before = tree_state(out)
        for argv in (["costsweep", "--trials", str(out / "trials.csv"),
                      "--out", str(out)],
                     ["report", "--out", str(out)],
                     ["verify", "--out", str(out)]):
            capsys.readouterr()
            assert main(argv) == 2
            err = capsys.readouterr().err
            assert err.startswith("error: ") and err.count("\n") == 1
            assert f"{line}," in err or f"{line}:" in err
            assert column in err
        assert tree_state(out) == before
    # a directory where the trials file should be
    capsys.readouterr()
    assert main(["costsweep", "--trials", str(tmp_path),
                 "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cannot read trials file ")
    assert err.count("\n") == 1


def walkforward_study(root):
    """A walkforward study of one ~9.2-year synthetic asset (4 rolling
    splits) at --jobs 2; its output directory."""
    manifest = {"assets": [{
        "asset_id": "WF", "n_days": 2400, "initial_price": 100.0,
        "regimes": [[2400, 0.0005, 0.015]], "seed": 4}]}
    spec_path = root / "m.json"
    spec_path.write_text(json.dumps(manifest))
    data_dir = root / "data"
    assert main(["synth", "--spec", str(spec_path),
                 "--out", str(data_dir)]) == 0

    cfg = RunConfig(data_dir=str(data_dir), budget=3,
                    out_dir=str(root / "wf"))
    cfg_path = root / "cfg.json"
    cfg_path.write_text(json.dumps(encode_config(cfg)))
    assert main(["walkforward", "--config", str(cfg_path),
                 "--jobs", "2"]) == 0
    return root / "wf"


def test_walkforward_end_to_end(tmp_path):
    out = walkforward_study(tmp_path)
    rows = read_trials_csv(out / "trials.csv")
    splits = {r["split_id"] for r in rows}
    assert splits == set(range(4))
    assert len(rows) == 3 * 4 * 4
    assert sha256_of(out / "trials.csv") == WALKFORWARD_TRIALS_SHA256
    for name in ("aggregates.csv", "periods.csv", "splits_genratio.csv"):
        assert (out / name).exists(), name
    assert main(["verify", "--out", str(out)]) == 0


def test_walkforward_skips_splits_below_two_bars(tmp_path, capsys):
    # Split k of one-year windows two years apart trains on year 2k and
    # validates on year 2k + 1 of 2010-2015. N holds every day. G holds
    # one bar of 2010 and one of 2013, so its splits 0 and 1 are skipped
    # with one warning each; H also holds one bar of 2014-2015, so it keeps
    # no split.
    data_dir = tmp_path / "data"
    data_dir.mkdir()
    full = make_series(random_closes(np.random.Generator(np.random.Philox(7)),
                                     2191), start=dt.date(2010, 1, 1))
    year = full.dates.astype("datetime64[Y]").astype(int) + 1970
    lone = np.isin(full.dates, np.array(
        ["2010-01-01", "2013-07-01", "2015-12-31"], dtype="datetime64[D]"))
    for asset_id, keep in (("N", year > 0),
                           ("G", lone | np.isin(year, [2011, 2012, 2014,
                                                       2015])),
                           ("H", lone | np.isin(year, [2011, 2012]))):
        cols = [getattr(full, name)[keep] for name in (
            "dates", "opens", "highs", "lows", "closes", "volumes")]
        (data_dir / f"{asset_id}.csv").write_text(cli.csv_text(
            CSV_HEADER, ohlcv_rows(PriceSeries(asset_id, *cols))))
    cfg = RunConfig(data_dir=str(data_dir), assets=["N", "G"],
                    strategies=[StrategyKind.BOLLINGER], budget=2,
                    wf=WalkforwardConfig(train_years=1, val_years=1,
                                         step_years=2, embargo_days=0),
                    out_dir=str(tmp_path / "wf"))
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(encode_config(cfg)))
    # in-process, with pytest's handlers on the root logger, each warning
    # reaches stderr once; so do those of the second `main` call below
    capsys.readouterr()
    assert main(["walkforward", "--config", str(cfg_path)]) == 0
    assert capsys.readouterr().err == (
        "WARNING skipping G split 0: 1 training and 365 validation bars, "
        "need >= 2 each\n"
        "WARNING skipping G split 1: 366 training and 1 validation bars, "
        "need >= 2 each\n")
    rows = read_trials_csv(tmp_path / "wf" / "trials.csv")
    assert len(rows) == 4 * len(ObjectiveKind)
    assert {(r["asset"], r["split_id"]) for r in rows} == {
        ("N", 0), ("N", 1), ("N", 2), ("G", 2)}
    assert main(["verify", "--out", str(tmp_path / "wf")]) == 0

    # an asset that keeps no split leaves the study without a cell
    cfg.assets, cfg.out_dir = ["H"], str(tmp_path / "none")
    cfg_path.write_text(json.dumps(encode_config(cfg)))
    capsys.readouterr()
    assert main(["walkforward", "--config", str(cfg_path)]) == 2
    assert capsys.readouterr().err == (
        "WARNING skipping H split 0: 1 training and 365 validation bars, "
        "need >= 2 each\n"
        "WARNING skipping H split 1: 366 training and 1 validation bars, "
        "need >= 2 each\n"
        "WARNING skipping H split 2: 0 training and 1 validation bars, "
        "need >= 2 each\n"
        "error: no asset has a split with >= 2 bars in each window: "
        "skipped H\n")
    assert not (tmp_path / "none").exists()


def test_missing_data_exit_code(tmp_path, capsys):
    cfg = RunConfig(data_dir=str(tmp_path / "nowhere"),
                    out_dir=str(tmp_path / "out"))
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(encode_config(cfg)))
    assert main(["montecarlo", "--config", str(cfg_path)]) == 2

    # non-finite values are data errors too, reported in one line
    data_dir = tmp_path / "data"
    data_dir.mkdir()
    cfg = RunConfig(data_dir=str(data_dir), out_dir=str(tmp_path / "out"))
    cfg_path.write_text(json.dumps(encode_config(cfg)))
    good = "date,open,high,low,close,volume\n2020-01-02,10,11,9,10.5,100\n"
    for row in ["2020-01-03,11,inf,10,10.8,100",
                "2020-01-03,11,12,10,10.8,nan",
                "2020-01-03,11,12,10,10.8,inf"]:
        (data_dir / "X.csv").write_text(good + row + "\n")
        capsys.readouterr()
        assert main(["montecarlo", "--config", str(cfg_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "2020-01-03" in err
        assert err.count("\n") == 1
    # a last bar on the calendar's last day is refused like any bad row,
    # under both protocols
    (data_dir / "X.csv").write_text(good + "9999-12-31,11,12,10,10.8,100\n")
    for command in ("montecarlo", "walkforward"):
        capsys.readouterr()
        assert main([command, "--config", str(cfg_path)]) == 2
        assert capsys.readouterr().err == (
            "error: X: 9999-12-31: date on or after 9999-12-31 (o=11.0 "
            "h=12.0 l=10.0 c=10.8 v=100.0)\n")
    # a parse error names the asset, as validation errors do
    for text, message in [
            (good + "2020-01-03,11,12,10,10.8\n",
             "X: line 3: expected 6 fields, got 5"),
            ("\ufeff" + good,
             "X: line 1: bad header ['\\ufeffdate', 'open', 'high', 'low', "
             "'close', 'volume'], want ['date', 'open', 'high', 'low', "
             "'close', 'volume']")]:
        (data_dir / "X.csv").write_text(text, encoding="utf-8")
        capsys.readouterr()
        assert main(["montecarlo", "--config", str(cfg_path)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
    # a data file that is not UTF-8 text is named in one line
    (data_dir / "X.csv").write_bytes(b"\xff\xfe" + good.encode("utf-16-le"))
    capsys.readouterr()
    assert main(["montecarlo", "--config", str(cfg_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot read data file {data_dir / 'X.csv'}")
    assert err.count("\n") == 1
    # an asset too short for any split leaves the study without a cell
    spec_path = tmp_path / "m.json"
    spec_path.write_text(json.dumps({"assets": [{
        "asset_id": "X", "n_days": 30, "initial_price": 100.0,
        "regimes": [[30, 0.0, 0.01]], "seed": 1}]}))
    assert main(["synth", "--spec", str(spec_path),
                 "--out", str(data_dir)]) == 0
    # after one warning that names the asset once
    for command, reason in (
            ("montecarlo", "chrono split leaves 21 train / 0 test bars, need "
                           ">= 60 each"),
            ("walkforward", "series ends 2010-02-11, needs to reach "
                            "2016-01-31 for one split (4y train + 30d "
                            "embargo + 2y val)")):
        capsys.readouterr()
        assert main([command, "--config", str(cfg_path)]) == 2
        err = capsys.readouterr().err
        assert err == (f"WARNING skipping X: {reason}\n"
                       "error: no asset has a split with >= 2 bars in "
                       "each window: skipped X\n")
    # an asset id holding a newline is named on one line, escaped, in the
    # warning as in the error; printable non-ASCII is left as it is
    (data_dir / "X.csv").rename(data_dir / "X\nY.csv")
    capsys.readouterr()
    assert main(["montecarlo", "--config", str(cfg_path)]) == 2
    assert capsys.readouterr().err == (
        "WARNING skipping X\\nY: chrono split leaves 21 train / 0 test "
        "bars, need >= 60 each\n"
        "error: no asset has a split with >= 2 bars in each window: "
        "skipped X\\nY\n")
    for assets, path in ((["a\nb"], data_dir / "a\\nb.csv"),
                         (["\u00e9t\u00e9"], data_dir / "\u00e9t\u00e9.csv")):
        cfg_path.write_text(json.dumps(encode_config(RunConfig(
            data_dir=str(data_dir), assets=assets,
            out_dir=str(tmp_path / "out")))))
        capsys.readouterr()
        assert main(["montecarlo", "--config", str(cfg_path)]) == 2
        assert capsys.readouterr().err == (
            f"error: cannot read data file {path}: No such file or "
            "directory\n")
    # with no assets configured, each CSV file in the data directory is
    # read as named; a file named only `.csv` names no asset
    shutil.rmtree(data_dir)
    data_dir.mkdir()
    (data_dir / "SYN00.csv").write_text(good)
    shutil.copy(data_dir / "SYN00.csv", data_dir / ".csv")
    cfg_path.write_text(json.dumps(encode_config(RunConfig(
        data_dir=str(data_dir), out_dir=str(tmp_path / "out")))))
    capsys.readouterr()
    assert main(["montecarlo", "--config", str(cfg_path)]) == 2
    assert capsys.readouterr().err == (
        f"error: data file {data_dir / '.csv'} names no asset\n")
    # an asset id that is not UTF-8 text, from a file named in latin-1 or
    # from a JSON escape, is named escaped before any file is read
    (data_dir / ".csv").unlink()
    shutil.copy(data_dir / "SYN00.csv", data_dir / "B.csv")
    (data_dir / os.fsdecode(b"\xe9t\xe9.csv")).write_text(good)
    for assets in ([], ["\udce9t\udce9", "B"]):
        cfg_path.write_text(json.dumps(encode_config(RunConfig(
            data_dir=str(data_dir), assets=assets,
            out_dir=str(tmp_path / "out")))))
        capsys.readouterr()
        assert main(["montecarlo", "--config", str(cfg_path)]) == 2
        assert capsys.readouterr().err == (
            "error: asset id \\udce9t\\udce9 is not UTF-8 text\n")
    # a failing study writes nothing
    assert not (tmp_path / "out").exists()


def test_files_are_utf8_under_an_ascii_locale(workspace, tmp_path):
    # a study of an asset named in UTF-8 is verified under a POSIX locale,
    # whose encoding is ASCII; there, a config naming that asset cannot
    # name its data file, and fails in one line, writing nothing
    root, _ = workspace
    data_dir = tmp_path / "data"
    data_dir.mkdir()
    shutil.copy(root / "data" / "AA.csv", data_dir / "\u00e9t\u00e9.csv")
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(encode_config(RunConfig(
        data_dir=str(data_dir), assets=["\u00e9t\u00e9"], budget=2,
        mc=MonteCarloConfig(seeds=[42, 43]), out_dir=str(tmp_path / "mc")))))
    assert main(["montecarlo", "--config", str(cfg_path)]) == 0
    src = Path(gtscore.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src), "PYTHONUTF8": "0",
           "LC_ALL": "POSIX", "PYTHONCOERCECLOCALE": "0"}

    def run(*argv):
        return subprocess.run([sys.executable, "-m", "gtscore.cli", *argv],
                              capture_output=True, text=True, env=env)
    verify = run("verify", "--out", str(tmp_path / "mc"))
    assert verify.returncode == 0, verify.stderr
    shutil.rmtree(tmp_path / "mc")
    study = run("montecarlo", "--config", str(cfg_path))
    assert study.returncode == 2
    assert study.stderr.startswith("error: cannot read data file ")
    assert study.stderr.count("\n") == 1
    assert not (tmp_path / "mc").exists()


def test_zero_day_training_side_skips_the_asset(workspace, tmp_path,
                                                capsys):
    # a 3-bar asset whose training side rounds to 0 days is skipped with
    # one warning: alone it leaves the study without a cell (exit 2),
    # beside a valid asset the study completes without it
    root, _ = workspace
    data_dir = tmp_path / "data"
    data_dir.mkdir()
    (data_dir / "S.csv").write_text(
        "date,open,high,low,close,volume\n2020-01-02,10,11,9,10.5,100\n"
        "2020-01-03,10,11,9,10.4,100\n2020-01-06,10,11,9,10.6,100\n")
    shutil.copy(root / "data" / "AA.csv", data_dir)
    warning = ("WARNING skipping S: chrono split leaves 0 train / 3 test "
               "bars, need >= 60 each\n")
    cfg_path = tmp_path / "cfg.json"
    for assets, code, err in (
            (["S"], 2, warning + "error: no asset has a split with >= 2 bars "
                                 "in each window: skipped S\n"),
            (["S", "AA"], 0, warning)):
        cfg_path.write_text(json.dumps({
            "data_dir": str(data_dir), "assets": assets,
            "strategies": ["macd"], "budget": 1,
            "mc": {"seeds": [42, 43], "train_fraction": 0.1,
                   "embargo_days": 0},
            "out_dir": str(tmp_path / "out")}))
        capsys.readouterr()
        assert main(["montecarlo", "--config", str(cfg_path)]) == code
        assert capsys.readouterr().err == err
    assert {r["asset"] for r in read_trials_csv(
        tmp_path / "out" / "trials.csv")} == {"AA"}


def test_too_few_pairs_exit_code(workspace, tmp_path, capsys, monkeypatch):
    # one asset, strategy and seed: one pair per comparison, too few for
    # the paired statistics, found before any backtest runs
    root, _ = workspace
    cfg = RunConfig(data_dir=str(root / "data"), assets=["AA"],
                    strategies=[StrategyKind.MACD],
                    mc=MonteCarloConfig(seeds=[42]), budget=2,
                    out_dir=str(tmp_path / "out"))
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(encode_config(cfg)))
    monkeypatch.setattr(search, "run_trials",
                        lambda *args: pytest.fail("the study ran"))
    capsys.readouterr()
    assert main(["montecarlo", "--config", str(cfg_path)]) == 1
    assert capsys.readouterr().err == (
        "error: need n >= 2 pairs to compare gt_score with a baseline; this "
        "study has 1 (one per asset, strategy and seed)\n")
    assert not (tmp_path / "out").exists()


def test_study_out_is_a_file_exit_code(workspace, tmp_path, capsys,
                                       monkeypatch):
    # --out naming a file, or a path under one, fails in one line before
    # any backtest runs, for both protocols; the file is left as it was
    _, cfg_path = workspace
    monkeypatch.setattr(search, "run_trials",
                        lambda *args: pytest.fail("the study ran"))
    taken = tmp_path / "taken"
    taken.write_text("keep")
    for command in ("montecarlo", "walkforward"):
        for out in (taken, taken / "sub"):
            capsys.readouterr()
            assert main([command, "--config", str(cfg_path),
                         "--out", str(out)]) == 1
            assert capsys.readouterr().err == (
                f"error: output path {out}: {taken} is not a directory\n")
    assert taken.read_text() == "keep"


def test_costsweep_out_is_a_file_exit_code(workspace, tmp_path, capsys):
    root, _ = workspace
    taken = tmp_path / "taken"
    taken.write_text("keep")
    for out in (taken, taken / "sub"):
        for argv in (["costsweep", "--trials", str(root / "mc" / "trials.csv")],
                     ["synth", "--spec", str(root / "manifest.json")]):
            capsys.readouterr()
            assert main(argv + ["--out", str(out)]) == 1
            assert capsys.readouterr().err == (
                f"error: output path {out}: {taken} is not a directory\n")
    assert taken.read_text() == "keep"
    assert list(tmp_path.iterdir()) == [taken]  # no CSV written anywhere



@pytest.mark.parametrize("command", ["synth", "montecarlo", "costsweep",
                                     "report"])
def test_output_path_os_error_exit_code(workspace, tmp_path, capsys,
                                        command):
    # a path component longer than the file system allows (ENAMETOOLONG)
    # ends in one error line naming the path, and writes nothing
    root, cfg_path = workspace
    out = tmp_path / ("x" * 300)
    argv = {"synth": ["synth", "--spec", str(root / "manifest.json")],
            "montecarlo": ["montecarlo", "--config", str(cfg_path)],
            "costsweep": ["costsweep", "--trials",
                          str(root / "mc" / "trials.csv")],
            "report": ["report"]}[command]
    capsys.readouterr()
    assert main(argv + ["--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert str(out) in err
    assert list(tmp_path.iterdir()) == []


def tree_state(root):
    """Every path under `root` with its bytes, None for a directory."""
    return {p: None if p.is_dir() else p.read_bytes()
            for p in sorted(root.rglob("*"))}


def assert_output_file_blocked(argv, taken, capsys):
    """`argv` fails in one line naming `taken`, a directory where it
    would write a file, and changes nothing under its parent."""
    before = tree_state(taken.parent)
    capsys.readouterr()
    assert main(argv) == 1
    assert capsys.readouterr().err == f"error: output path {taken}: not a file\n"
    assert tree_state(taken.parent) == before


def test_costsweep_output_file_is_a_directory_exit_code(workspace, tmp_path,
                                                        capsys):
    root, _ = workspace
    (tmp_path / "cost_sensitivity.csv").mkdir()
    assert_output_file_blocked(
        ["costsweep", "--trials", str(root / "mc" / "trials.csv"),
         "--out", str(tmp_path)], tmp_path / "cost_sensitivity.csv", capsys)


def test_study_output_file_is_a_directory_exit_code(workspace, tmp_path,
                                                    capsys, monkeypatch):
    # found before any backtest runs, so no half-written study is left
    _, cfg_path = workspace
    monkeypatch.setattr(search, "run_trials",
                        lambda *args: pytest.fail("the study ran"))
    (tmp_path / "aggregates.csv").mkdir()
    assert_output_file_blocked(
        ["montecarlo", "--config", str(cfg_path), "--out", str(tmp_path)],
        tmp_path / "aggregates.csv", capsys)


def other_seeds(cfg_path, path):
    """The config at `cfg_path` with `mc.seeds` [7, 8], written to `path`."""
    cfg = load_config(str(cfg_path))
    cfg.mc.seeds = [7, 8]
    path.write_text(json.dumps(encode_config(cfg)))
    return path


def test_write_failure_changes_no_file(workspace, tmp_path, capsys,
                                       monkeypatch):
    # a study with other seeds whose third file fails to write, and a
    # costsweep whose one file does, over a finished study: each exits 1
    # in one line and leaves every file as it was, with no temporary file
    root, cfg_path = workspace
    study = tmp_path / "mc"
    shutil.copytree(root / "mc", study)
    assert main(["costsweep", "--trials", str(study / "trials.csv"),
                 "--out", str(study)]) == 0
    before = tree_state(study)
    real, calls = cli.write_csv, []

    def failing(path, *args):
        calls.append(path.parent)
        if len(calls) == fail_at:
            raise OSError(28, "No space left on device")
        real(path, *args)

    monkeypatch.setattr(cli, "write_csv", failing)
    seeds = other_seeds(cfg_path, tmp_path / "seeds.json")
    for fail_at, argv in ((3, ["montecarlo", "--config", str(seeds)]),
                          (1, ["costsweep", "--trials",
                               str(study / "trials.csv")])):
        calls.clear()
        capsys.readouterr()
        assert main(argv + ["--out", str(study)]) == 1
        assert capsys.readouterr().err == (
            "error: [Errno 28] No space left on device\n")
        assert calls == [study] * fail_at
        assert tree_state(study) == before


def test_write_failure_removes_the_directories_it_made(workspace, tmp_path,
                                                       capsys, monkeypatch):
    # a costsweep into fresh/a/b whose file fails to write exits 1 in one
    # line and leaves no fresh/, and the directory it sat in as it was
    root, _ = workspace
    (tmp_path / "keep.txt").write_text("keep")

    def failing(path, *args):
        assert path.parent.is_dir()
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(cli, "write_csv", failing)
    capsys.readouterr()
    assert main(["costsweep", "--trials", str(root / "mc" / "trials.csv"),
                 "--out", str(tmp_path / "fresh" / "a" / "b")]) == 1
    assert capsys.readouterr().err == (
        "error: [Errno 28] No space left on device\n")
    assert tree_state(tmp_path) == {tmp_path / "keep.txt": b"keep"}


def test_write_failure_after_part_of_a_file_changes_no_file(
        workspace, tmp_path, capsys, monkeypatch):
    # rows are streamed into the temporary file: a study that fails once
    # part of its trials.csv is on disk exits 1 in one line, removes the
    # temporary file and leaves the study it would replace as it was
    root, cfg_path = workspace
    study = tmp_path / "mc"
    shutil.copytree(root / "mc", study)
    before = tree_state(study)
    temp, real, streamed = study / ".trials.csv.tmp", cli._cell, []

    def cell(value):
        if temp.exists() and temp.stat().st_size:
            streamed.append(temp.stat().st_size)
            raise OSError(28, "No space left on device")
        return real(value)

    seeds = other_seeds(cfg_path, tmp_path / "seeds.json")
    monkeypatch.setattr(cli, "_cell", cell)
    capsys.readouterr()
    assert main(["montecarlo", "--config", str(seeds),
                 "--out", str(study)]) == 1
    assert capsys.readouterr().err == (
        "error: [Errno 28] No space left on device\n")
    assert 0 < streamed[0] < (study / "trials.csv").stat().st_size
    assert tree_state(study) == before


def test_synth_failure_on_the_second_asset_writes_nothing(
        workspace, tmp_path, capsys, monkeypatch):
    # synth writes all or nothing: into a directory that exists, and into
    # one it makes, which it removes again with the parents it made
    root, _ = workspace
    kept, fresh = tmp_path / "kept", tmp_path / "fresh" / "a" / "data"
    kept.mkdir()
    real, calls = cli.write_csv, []

    def failing(path, *args):
        calls.append(path)
        if len(calls) % 2 == 0:
            raise OSError(28, "No space left on device")
        real(path, *args)

    monkeypatch.setattr(cli, "write_csv", failing)
    for out in (kept, fresh):
        capsys.readouterr()
        assert main(["synth", "--spec", str(root / "manifest.json"),
                     "--out", str(out)]) == 1
        assert capsys.readouterr() == (
            "", "error: [Errno 28] No space left on device\n")
        assert calls[-2:] == [out / ".AA.csv.tmp", out / ".BB.csv.tmp"]
        assert tree_state(tmp_path) == {kept: None}


def test_oversized_csv_field_exit_code(workspace, tmp_path, capsys):
    # a cell longer than csv.field_size_limit() (131,072 characters) ends
    # each reader in one error line naming the file and line, exit 2: an
    # asset CSV (montecarlo), trials.csv (verify, costsweep) and the cost
    # levels' header line (report, verify). A derived file's body is not
    # parsed but compared with its recomputation, so an oversized cell
    # there, or a row with fewer or more cells than its header, is exit 3
    root, _ = workspace
    big = "1" * 200_000
    shutil.copytree(root / "data", tmp_path / "data")
    study = tmp_path / "mc"
    shutil.copytree(root / "mc", study)
    assert main(["costsweep", "--trials", str(study / "trials.csv"),
                 "--out", str(study)]) == 0

    def oversize(text):
        return text.replace(",", f",{big}", 1)

    def cut(text):  # to two cells
        return ",".join(text.split(",")[:2]) + "\n"

    def extend(text):
        return text.replace("\n", ",0.1\n")

    asset, trials = tmp_path / "data" / "BB.csv", study / "trials.csv"
    cost, agg = study / "cost_sensitivity.csv", study / "aggregates.csv"
    cfg = RunConfig(data_dir=str(tmp_path / "data"),
                    mc=MonteCarloConfig(seeds=[42]), budget=2)
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(encode_config(cfg)))
    limit = "field larger than field limit (131072)"
    report = ["report", "--out", str(study)]
    verify = ["verify", "--out", str(study)]
    agg_differs = "aggregates.csv: differs from recomputation"
    cost_differs = "cost_sensitivity.csv: differs from recomputation"
    cases = [(asset, 3, oversize, ["montecarlo", "--config", str(cfg_path),
                                   "--out", str(tmp_path / "new")],
              2, f"BB: line 3: {limit}"),
             (trials, 4, oversize, verify, 2, f"{trials} line 4: {limit}"),
             (trials, 4, oversize, ["costsweep", "--trials", str(trials),
                                    "--out", str(tmp_path / "new")],
              2, f"{trials} line 4: {limit}"),
             (cost, 1, oversize, report, 2, f"{cost} line 1: {limit}"),
             (cost, 1, oversize, verify, 2, f"{cost} line 1: {limit}"),
             (cost, 2, oversize, report, 3, cost_differs),
             (agg, 2, cut, report, 3, agg_differs),
             (agg, 3, extend, report, 3, agg_differs),
             (cost, 3, cut, verify, 3, cost_differs),
             (cost, 2, extend, verify, 3, cost_differs)]
    for path, line, change, argv, code, message in cases:
        text = path.read_text()
        lines = text.splitlines(keepends=True)
        lines[line - 1] = change(lines[line - 1])
        path.write_text("".join(lines))
        before = tree_state(tmp_path)
        capsys.readouterr()
        assert main(argv) == code, argv
        assert capsys.readouterr().err == f"error: {message}\n"
        assert tree_state(tmp_path) == before
        path.write_text(text)


def test_synth_output_file_is_a_directory_exit_code(workspace, tmp_path,
                                                    capsys):
    # the manifest's second asset is not written either
    root, _ = workspace
    (tmp_path / "AA.csv").mkdir()
    assert_output_file_blocked(
        ["synth", "--spec", str(root / "manifest.json"),
         "--out", str(tmp_path)], tmp_path / "AA.csv", capsys)

def test_bad_config_exit_code(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)  # where the default out_dir would be made
    bad = tmp_path / "bad.json"
    bad.write_text('{"wf": 5}')
    assert main(["montecarlo", "--config", str(bad)]) == 1
    stabilization = ['"window": 0', '"n_range": [0, 5]', '"n_range": [50, 10]',
                     '"threshold": -1', '"n_range": [10]', '"fallback": 0']
    stabilization.append('"n_range": [10, "a"]')
    for doc in ['{"budget": "3"}', '{"mc": {"seeds": "12"}}',
                '{"strategies": ["bogus"]}', '{"objectives": ["bogus"]}',
                '{"assets": [1]}', '{"budget": true}',
                '{"mc": {"seeds": ["x"]}}', '[]',
                '{"objective": {"eps": NaN}}',
                '{"objective": {"eps": Infinity}}',
                '{"objective": {"below_min_penalty": NaN}}',
                '{"objective": {"below_min_penalty": Infinity}}'] + [
            '{"objective": {"stabilization": {%s}}}' % item
            for item in stabilization]:
        bad.write_text(doc)
        capsys.readouterr()
        assert main(["montecarlo", "--config", str(bad)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: bad run config: ")
        assert err.count("bad run config") == 1
        assert err.count("\n") == 1
    # an int beyond float range in a float setting is named by its path
    huge = "1" + "0" * 400
    for doc, path in [('{"objective": {"eps": %s}}' % huge, "objective.eps"),
                      ('{"objective": {"below_min_penalty": %s}}' % huge,
                       "objective.below_min_penalty"),
                      ('{"objective": {"stabilization": {"threshold": %s}}}'
                       % huge, "objective.stabilization.threshold")]:
        bad.write_text(doc)
        capsys.readouterr()
        assert main(["montecarlo", "--config", str(bad)]) == 1
        assert capsys.readouterr().err == (
            f"error: bad run config: {path}: int too large to convert to "
            "float\n")
    # a value past its field's bound is named by its path: the upper
    # bounds are the spans the calendar holds
    for doc, message in [
            ('{"mc": {"embargo_days": %s}}' % huge,
             f"mc.embargo_days: must be <= 3652058, got {huge}"),
            ('{"wf": {"embargo_days": %d}}' % 10 ** 12,
             "wf.embargo_days: must be <= 3652058, got 1000000000000"),
            ('{"wf": {"train_years": %d}}' % 10 ** 6,
             "wf.train_years: must be <= 9998, got 1000000"),
            ('{"budget": 0}', "budget: must be >= 1, got 0"),
            ('{"objective": {"benchmark_mode": "median"}}',
             "objective.benchmark_mode: 'median' is not a valid "
             "BenchmarkMode")]:
        for command in ("montecarlo", "walkforward"):
            bad.write_text(doc)
            capsys.readouterr()
            assert main([command, "--config", str(bad)]) == 1
            assert capsys.readouterr().err == (
                f"error: bad run config: {message}\n")
    # an int too long for int() to read is not JSON this program reads
    bad.write_text('{"mc": {"embargo_days": 1%s}}' % ("0" * 5000))
    capsys.readouterr()
    assert main(["montecarlo", "--config", str(bad)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: config is not valid JSON: Exceeds the limit")
    assert err.count("\n") == 1
    # a key its dataclass lacks is named by its path, the first one in
    # document order, before any value is decoded
    for doc, path in [('{"wf": {"step": 1}}', "wf.step"),
                      ('{"objective": {"stabilization": {"windw": 3}}}',
                       "objective.stabilization.windw"),
                      ('{"colour": 1}', "colour"),
                      ('{"budget": "3", "zz": 1, "aa": 2}', "zz")]:
        for command in ("montecarlo", "walkforward"):
            bad.write_text(doc)
            capsys.readouterr()
            assert main([command, "--config", str(bad)]) == 1
            assert capsys.readouterr().err == (
                f"error: bad run config: {path}: unknown key\n")
    # a key repeated in one object is named by its path: the last value
    # would otherwise win unseen
    for doc, path in [('{"budget": 0, "budget": 2}', "budget"),
                      ('{"mc": {"seeds": [1], "embargo_days": 3, '
                       '"seeds": [2]}}', "mc.seeds"),
                      ('{"objective": {"stabilization": {"window": 3, '
                       '"window": 3, "window": 4}}}',
                       "objective.stabilization.window")]:
        for command in ("montecarlo", "walkforward"):
            bad.write_text(doc)
            capsys.readouterr()
            assert main([command, "--config", str(bad)]) == 1
            assert capsys.readouterr().err == (
                f"error: bad run config: {path}: repeated key\n")
    # a string holding a NUL can name no file, nor anything else
    for doc, path in [('{"assets": ["AA", "A\\u0000"]}', "assets[1]"),
                      ('{"out_dir": "out\\u0000"}', "out_dir"),
                      ('{"data_dir": "\\u0000"}', "data_dir"),
                      ('{"strategies": ["rsi\\u0000"]}', "strategies[0]")]:
        for command in ("montecarlo", "walkforward"):
            bad.write_text(doc)
            capsys.readouterr()
            assert main([command, "--config", str(bad)]) == 1
            assert capsys.readouterr().err == (
                f"error: bad run config: {path}: holds a NUL character\n")
    # a wrong JSON type is named by its path
    for doc, path in [('{"assets": [1]}', "assets[0]"),
                      ('{"budget": true}', "budget"),
                      ('{"mc": {"seeds": ["x"]}}', "mc.seeds[0]"),
                      ('{"objective": {"stabilization": {"n_range": '
                       '[10, "a"]}}}', "objective.stabilization.n_range[1]")]:
        bad.write_text(doc)
        capsys.readouterr()
        assert main(["montecarlo", "--config", str(bad)]) == 1
        assert f"bad run config: {path}: expected " in capsys.readouterr().err
    # an empty strategy or objective list would run a study of no trial
    for command in ("montecarlo", "walkforward"):
        for name in ("strategies", "objectives"):
            bad.write_text('{"%s": []}' % name)
            capsys.readouterr()
            assert main([command, "--config", str(bad)]) == 1
            assert capsys.readouterr().err == (
                f"error: bad run config: {name}: must name at least one\n")
    # a repeated list entry would count its trials twice; named by its path
    for doc, path in [('{"assets": ["A", "B", "A"]}',
                       "assets[2]: repeats 'A'"),
                      ('{"strategies": ["rsi", "rsi"]}',
                       "strategies[1]: repeats 'rsi'"),
                      ('{"objectives": ["gt_score", "gt_score", "sharpe"]}',
                       "objectives[1]: repeats 'gt_score'"),
                      ('{"mc": {"seeds": [42, 43, 42]}}',
                       "mc.seeds[2]: repeats 42")]:
        bad.write_text(doc)
        capsys.readouterr()
        assert main(["montecarlo", "--config", str(bad)]) == 1
        err = capsys.readouterr().err
        assert err == f"error: bad run config: {path}\n"
    # a string that is not one of an enum's values is named by its path
    for doc, path in [('{"strategies": ["rsi", "bogus"]}',
                       "strategies[1]: 'bogus' is not a valid StrategyKind"),
                      ('{"objective": {"periodization": "weekly"}}',
                       "objective.periodization: 'weekly' is not a valid "
                       "Periodization")]:
        bad.write_text(doc)
        capsys.readouterr()
        assert main(["montecarlo", "--config", str(bad)]) == 1
        assert capsys.readouterr().err == f"error: bad run config: {path}\n"
    # a key holding a newline is named on the one error line, escaped
    bad.write_text('{"bud\\nget": 1}')
    capsys.readouterr()
    assert main(["montecarlo", "--config", str(bad)]) == 1
    assert capsys.readouterr().err == (
        "error: bad run config: bud\\nget: unknown key\n")
    # a directory where the config file should be
    capsys.readouterr()
    assert main(["montecarlo", "--config", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot read config {tmp_path}")
    assert err.count("\n") == 1
    assert [p.name for p in tmp_path.iterdir()] == ["bad.json"]


def bounded_fields(tp, path):
    """(dotted path, type, limits) of each `bounded` field of the dataclass
    `tp` and of the dataclasses nested in it."""
    hints = get_type_hints(tp)
    for f in fields(tp):
        where = f"{path}.{f.name}" if path else f.name
        if is_dataclass(hints[f.name]):
            yield from bounded_fields(hints[f.name], where)
        elif f.metadata and f.metadata != NONEMPTY:
            yield where, hints[f.name], f.metadata


def test_config_bounds_from_field_metadata():
    # every bound a config field declares, read from its metadata and
    # checked through decode_config: the edge of the range is accepted,
    # one step past it (1 for an int, one float for a float) is refused
    # naming the field's path, and so is a non-finite float
    def run_config(path, value):
        doc = value
        for key in reversed(path.split(".")):
            doc = {key: doc}
        return decode_config(RunConfig, json.loads(json.dumps(doc)))

    def manifest_entry(path, value):
        entry = {"n_days": 10, "initial_price": 1.0, "seed": 0,
                 path.removeprefix("assets[0]."): value}
        entry["regimes"] = [[entry["n_days"], 0.0, 0.01]]
        return decode_config(SyntheticSpec, json.loads(json.dumps(entry)),
                             "assets[0]")

    cases = [(*case, run_config) for case in bounded_fields(RunConfig, "")]
    cases += [(*case, manifest_entry)
              for case in bounded_fields(SyntheticSpec, "assets[0]")]
    assert {path for path, *_ in cases} == {
        "wf.train_years", "wf.val_years", "wf.step_years", "wf.embargo_days",
        "mc.train_fraction", "mc.embargo_days", "budget", "objective.eps",
        "objective.n_min", "objective.below_min_penalty",
        "objective.stabilization.threshold", "objective.stabilization.window",
        "objective.stabilization.fallback", "assets[0].n_days",
        "assets[0].initial_price", "assets[0].seed"}
    for path, kind, limits, decode in cases:
        for name, limit in limits.items():
            up = 1 if name in ("ge", "gt") else -1  # the way into the range
            step = ((lambda x, way: x + way) if kind is int else
                    (lambda x, way: math.nextafter(x, way * math.inf)))
            inside, outside = ((limit, step(limit, -up)) if name in ("ge", "le")
                               else (step(limit, up), limit))
            decode(path, inside)  # accepted
            with pytest.raises(ConfigError, match=rf"^{re.escape(path)}: "
                                                  rf"must be {'<>'[up > 0]}"):
                decode(path, outside)
        if kind is float:
            for value in (math.nan, math.inf, -math.inf):
                with pytest.raises(ConfigError, match=rf"^{re.escape(path)}:"
                                                      r" must be finite"):
                    decode(path, value)


def config_levels(tp, path=()):
    """(key path, dataclass) of `tp` and of each dataclass nested in it,
    through a list's first item."""
    yield path, tp
    hints = get_type_hints(tp)
    for f in fields(tp):
        hint, where = hints[f.name], (*path, f.name)
        if get_origin(hint) is list:
            hint, where = get_args(hint)[0], (*where, 0)
        if is_dataclass(hint):
            yield from config_levels(hint, where)


def test_config_rules_from_the_fields(tmp_path, capsys, monkeypatch):
    # the rules read from the dataclass fields, checked through the CLI: at
    # every level of a run config and of a manifest, an added unknown key,
    # and an empty list in each field declared NONEMPTY, exits 1 with one
    # error line naming its path, and writes no file
    monkeypatch.chdir(tmp_path)  # where the default out_dir would be made
    doc_path = tmp_path / "doc.json"

    def dotted(keys):
        return "".join(f"[{k}]" if isinstance(k, int) else f".{k}"
                       for k in keys).lstrip(".")

    nonempty = []
    for tp, base, argv, prefix in [
            (RunConfig, {}, ["montecarlo", "--config"], "bad run config"),
            (SyntheticManifest, {"assets": small_manifest()["assets"][:1]},
             ["synth", "--out", "data", "--spec"], "bad synthetic manifest")]:
        for path, level in config_levels(tp):
            cases = [("unknown", 1, "unknown key")]
            cases += [(f.name, [], "must name at least one")
                      for f in fields(level) if f.metadata == NONEMPTY]
            nonempty += [dotted((*path, key)) for key, *_ in cases[1:]]
            for key, value, message in cases:
                doc = node = json.loads(json.dumps(base))
                for k in path:
                    node = (node[k] if isinstance(k, int)
                            else node.setdefault(k, {}))
                node[key] = value
                doc_path.write_text(json.dumps(doc))
                capsys.readouterr()
                assert main([*argv, str(doc_path)]) == 1
                assert capsys.readouterr().err == (
                    f"error: {prefix}: {dotted((*path, key))}: {message}\n")
    assert nonempty == ["strategies", "objectives", "mc.seeds"]
    assert [p.name for p in tmp_path.iterdir()] == ["doc.json"]


def test_synth_bad_manifest_exit_code(tmp_path, capsys):
    entry = small_manifest()["assets"][0]
    no_seed = {k: v for k, v in entry.items() if k != "seed"}
    spec = tmp_path / "m.json"
    cases = [(None, "cannot read manifest"),
             ("{not json", "bad synthetic manifest"),
             (json.dumps({"assets": [no_seed]}),
              "bad synthetic manifest: assets[0].seed: missing key"),
             (json.dumps({}), "bad synthetic manifest: assets: missing key"),
             (json.dumps([]),
              "bad synthetic manifest: document: expected dict, got list"),
             (json.dumps({"assets": [{**entry, "n_days": "many"}]}),
              "bad synthetic manifest"),
             (json.dumps({"assets": [{**entry, "regimes": 5}]}),
              "bad synthetic manifest"),
             # a manifest value of the wrong JSON type is named by its path,
             # never coerced
             (json.dumps({"assets": [{**entry, "n_days": 600.7}]}),
              "assets[0].n_days: expected int, got float"),
             (json.dumps({"assets": [{**entry, "seed": True}]}),
              "assets[0].seed: expected int, got bool"),
             (json.dumps({"assets": [{**entry, "seed": "7"}]}),
              "assets[0].seed: expected int, got str"),
             (json.dumps({"assets": [{**entry, "asset_id": 7}]}),
              "assets[0].asset_id: expected str, got int"),
             (json.dumps({"assets": [{**entry, "initial_price": 10 ** 400}]}),
              "assets[0].initial_price: int too large to convert to float"),
             (json.dumps({"assets": [{**entry, "regimes": [[600, 0, "x"]]}]}),
              "assets[0].regimes[0][2]: expected float, got str"),
             (json.dumps({"assets": [{**entry, "start_date": 2010}]}),
              "assets[0].start_date: expected str, got int"),
             (json.dumps({"assets": [{**entry, "start_date": "2010-13-01"}]}),
              "bad synthetic manifest: assets[0].start_date: "),
             (json.dumps({"assets": [entry, entry]}), "assets[1]: repeats"),
             # one CSV per asset_id: a second entry would overwrite the first
             (json.dumps({"assets": [entry, {**entry, "seed": 2}]}),
              "assets[1].asset_id repeats assets[0].asset_id 'AA'"),
             (json.dumps({"assets": [{**entry, "colour": "red"}]}),
              "bad synthetic manifest: assets[0].colour: unknown key"),
             # a repeated key is named by its path; a later value would win
             (json.dumps({"assets": [entry]})[:-3] + ', "seed": 2}]}',
              "bad synthetic manifest: assets[0].seed: repeated key"),
             (json.dumps({"assets": [entry]})[:-1] + ', "assets": []}',
              "bad synthetic manifest: assets: repeated key"),
             # an asset_id names its CSV: one holding a NUL or a "/", or
             # none at all, names no file in the output directory
             (json.dumps({"assets": [{**entry, "asset_id": "A\0B"}]}),
              "bad synthetic manifest: assets[0].asset_id: holds a NUL "
              "character"),
             (json.dumps({"assets": [{**entry, "asset_id": "a/b"}]}),
              "bad synthetic manifest: assets[0].asset_id: must name a file, "
              "got 'a/b'"),
             (json.dumps({"assets": [{**entry, "asset_id": ""}]}),
              "bad synthetic manifest: assets[0].asset_id: must name a file, "
              "got ''"),
             (json.dumps({"assets": [entry], "version": 1}),
              "bad synthetic manifest: version: unknown key"),
             (json.dumps({"assets": [5]}), "assets[0]: expected dict"),
             # lengths that sum to n_days but one is negative
             (json.dumps({"assets": [{**entry, "n_days": 10, "regimes": [
                 [-5, 0.5, 0.0], [15, -0.5, 0.0]]}]}),
              "bad synthetic manifest: assets[0].regimes: need lengths >= 0 "
              "that sum to n_days, finite drifts and finite vols >= 0"),
             # a value out of its field's range is named by its path too
             (json.dumps({"assets": [{**entry, "seed": -1}]}),
              "assets[0].seed: must be >= 0, got -1"),
             (json.dumps({"assets": [{**entry, "start_date": "9999-12-01"}]}),
              "assets[0].start_date: its n_days weekdays must end before "
              "9999-12-31"),
             (json.dumps({"assets": [{**entry, "initial_price": math.nan}]}),
              "assets[0].initial_price: must be finite, got nan"),
             (json.dumps({"assets": [{**entry, "initial_price": math.inf}]}),
              "assets[0].initial_price: must be finite, got inf"),
             (json.dumps({"assets": [{**entry, "regimes": [
                 [600, 0.0, math.nan]]}]}),
              "assets[0].regimes: need lengths >= 0 that sum to n_days, "
              "finite drifts and finite vols >= 0"),
             (json.dumps({"assets": [entry, {
                 k: v for k, v in entry.items() if k != "n_days"}]}),
              "bad synthetic manifest: assets[1].n_days: missing key")]
    for text, message in cases:
        if text is not None:
            spec.write_text(text)
        capsys.readouterr()
        path = str(spec if text is not None else tmp_path / "missing.json")
        assert main(["synth", "--spec", path,
                     "--out", str(tmp_path / "data")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert err.count("\n") == 1
    assert not (tmp_path / "data").exists()


@pytest.mark.parametrize("argv, message", [
    (["montecarlo", "--config", "c.json", "--bogus"],
     "unrecognized arguments: --bogus"),
    (["bogus"], "argument command: invalid choice: 'bogus'"),
    ([], "the following arguments are required: command"),
    (["montecarlo", "--config", "c.json", "--jobs", "two"],
     "argument --jobs: invalid int value: 'two'"),
    # removed options: a study's seeds are its config's, and `config init`
    # prints, for the shell to redirect
    (["montecarlo", "--config", "c.json", "--seed-range", "1..5"],
     "unrecognized arguments: --seed-range 1..5"),
    (["config", "init", "--out", "c.json"],
     "unrecognized arguments: --out c.json")])
def test_usage_error_exit_code(tmp_path, monkeypatch, capsys, argv, message):
    # a usage error is a config error: exit 1, one line, and no file
    monkeypatch.chdir(tmp_path)
    capsys.readouterr()
    assert main(argv) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith(f"error: {message}")
    assert err.count("\n") == 1 and list(tmp_path.iterdir()) == []


def test_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0 and "usage: gtscore" in capsys.readouterr().out


def test_readme_walkthrough_parses():
    # every `gtscore ...` line of the README's walkthrough is one the
    # parser accepts, so a removed option cannot stay in the docs
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    walkthrough = text[text.index("## CLI walkthrough"):
                       text.index("### Outputs")]
    commands = [shlex.split(line.split(">")[0])[1:]
                for line in walkthrough.splitlines()
                if line.startswith("gtscore ")]
    assert {argv[0] for argv in commands} == {
        "config", "synth", "montecarlo", "walkforward", "costsweep",
        "report", "verify"}
    parser = cli.build_parser()
    for argv in commands:
        parser.parse_args(argv)


def test_jobs_below_one_exit_code(tmp_path, capsys):
    # a --jobs below 1 is refused before the config or an asset CSV is
    # read: a config whose data_dir does not exist, and no config at all
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(
        encode_config(RunConfig(data_dir=str(tmp_path / "none")))))
    for config in (cfg_path, tmp_path / "missing.json"):
        capsys.readouterr()
        assert main(["montecarlo", "--config", str(config),
                     "--out", str(tmp_path / "out"), "--jobs", "0"]) == 1
        assert capsys.readouterr().err == (
            "error: argument --jobs: must be >= 1, got 0\n")
    assert list(tmp_path.iterdir()) == [cfg_path]


def test_negative_embargo_exit_code(workspace, tmp_path, capsys):
    root, _ = workspace
    cfg_path = tmp_path / "cfg.json"
    for command, settings, message in (
            ("montecarlo", {"mc": {"embargo_days": -5}},
             "bad run config: mc.embargo_days: must be >= 0, got -5"),
            ("walkforward", {"wf": {"embargo_days": -5}},
             "bad run config: wf.embargo_days: must be >= 0, got -5")):
        cfg_path.write_text(json.dumps({
            "data_dir": str(root / "data"), "budget": 1,
            "out_dir": str(tmp_path / "out"), **settings}))
        capsys.readouterr()
        assert main([command, "--config", str(cfg_path)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "out").exists()


def test_study_settings_reach_splits(workspace, tmp_path, monkeypatch):
    root, _ = workspace
    # step_years 2 leaves 2 of the 4 default splits of a 9.2-year series
    manifest = {"assets": [{
        "asset_id": "WF", "n_days": 2400, "initial_price": 100.0,
        "regimes": [[2400, 0.0005, 0.015]], "seed": 4}]}
    spec_path = tmp_path / "m.json"
    spec_path.write_text(json.dumps(manifest))
    assert main(["synth", "--spec", str(spec_path),
                 "--out", str(tmp_path / "data")]) == 0
    cfg = RunConfig(data_dir=str(tmp_path / "data"), budget=1,
                    strategies=[StrategyKind.MACD],
                    objectives=[ObjectiveKind.SIMPLE],
                    wf=WalkforwardConfig(step_years=2))
    cfg_path = tmp_path / "wf.json"
    cfg_path.write_text(json.dumps(encode_config(cfg)))
    assert main(["walkforward", "--config", str(cfg_path),
                 "--out", str(tmp_path / "wf")]) == 0
    rows = read_trials_csv(tmp_path / "wf" / "trials.csv")
    assert sorted(r["split_id"] for r in rows) == [0, 1]

    calls = []
    real = search.make_chrono_split

    def recording(series, **kwargs):
        calls.append(kwargs)
        return real(series, **kwargs)

    monkeypatch.setattr(search, "make_chrono_split", recording)
    cfg = RunConfig(data_dir=str(root / "data"), budget=1,
                    strategies=[StrategyKind.MACD],
                    objectives=[ObjectiveKind.SIMPLE],
                    mc=MonteCarloConfig([3], 0.6, 12))
    cfg_path.write_text(json.dumps(encode_config(cfg)))
    assert main(["montecarlo", "--config", str(cfg_path),
                 "--out", str(tmp_path / "mc")]) == 0
    assert calls == [{"train_fraction": 0.6, "embargo_days": 12}] * 2


def test_report_without_results_exit_code(tmp_path, capsys):
    # `report` and `verify` read a study's trials.csv first: a directory
    # without one, or no directory, is exit 2 in one line naming the file;
    # an --out too long to be a path (ENAMETOOLONG) is exit 1 naming it,
    # as for the commands that write there
    empty = tmp_path / "empty"
    empty.mkdir()
    for out, code, err in [
            (empty, 2, f"error: cannot read trials file {empty}/trials.csv: "),
            (tmp_path / "none", 2,
             f"error: cannot read trials file {tmp_path}/none/trials.csv: "),
            (tmp_path / ("x" * 300), 1,
             f"error: [Errno {errno.ENAMETOOLONG}] ")]:
        for command in ("report", "verify"):
            capsys.readouterr()
            assert main([command, "--out", str(out)]) == code
            text = capsys.readouterr().err
            assert text.startswith(err) and text.count("\n") == 1
            assert str(out) in text
    assert list(tmp_path.iterdir()) == [empty]
