"""CLI end-to-end: config, synth, studies, costsweep, report, verify."""

import contextlib
import csv
import datetime as dt
import errno
import functools
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
from dataclasses import dataclass, field, fields, is_dataclass
from pathlib import Path
from typing import get_args, get_origin, get_type_hints
from unittest import mock

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
    generate_synthetic_series,
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
from gtscore.strategy import StrategyKind, params_doc, sample_params

from conftest import make_series, random_closes


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


# one ~9.2-year synthetic asset: 4 rolling splits of the default walkforward
WF_MANIFEST = {"assets": [{
    "asset_id": "WF", "n_days": 2400, "initial_price": 100.0,
    "regimes": [[2400, 0.0005, 0.015]], "seed": 4}]}
WF_STUDY = "wf"  # the workspace's walkforward study


FIXTURE_ASSETS = Path(__file__).parent / "fixtures" / "study_assets.json"


@pytest.fixture(scope="module")
def fixture_ws(tmp_path_factory):
    """The 8 fixture assets, synthesized once into `data/`: the benchmark's
    data at seed 0."""
    root = tmp_path_factory.mktemp("fixture")
    assert main(["synth", "--spec", str(FIXTURE_ASSETS),
                 "--out", str(root / "data")]) == 0
    return root


# --- pinned runs -------------------------------------------------------------
# A command that succeeds exits 0 with nothing on stderr. `PINNED` lists
# successful runs and pins every file of each one's output directory;
# `run_pinned` checks that, and that `verify` accepts a study there and
# `report` prints its pinned text, neither changing a file. A change to any
# digest is a change of behaviour and must be deliberate.


@dataclass(frozen=True)
class Pinned:
    """Command lines that succeed and the bytes they leave in `{d}/out`.

    `files` and `argvs` are as in `Case`, but `{ws}` stands for the data
    the row runs on: the module's `workspace`, or `fixture_ws`. `sha256`
    maps each file of `{d}/out` to its digest; `report` is the digest of
    what `report` prints there, None where no study is written."""
    id: str
    argvs: tuple[str, ...]
    sha256: dict
    report: str | None
    files: dict = field(default_factory=dict)


# a stabilized-periodization Monte Carlo study of the workspace data, scored
# on period returns: counts that plateau inside n_range and the fallback
# outside it
STABILIZED = {"data_dir": "{ws}/data", "mc": {"seeds": [42, 43]}, "budget": 5,
              "out_dir": "{d}/out", "objective": {
                  "periodization": "stabilized", "below_min_penalty": 300.0,
                  "stabilization": {"n_range": [10, 80], "fallback": 90}}}
STABILIZED_SHA256 = {
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
STABILIZED_REPORT_SHA256 = (
    "4ae89e137d02c6faf2c1cf4909fb46bbe85bb40227edf213c330b07bd446b290")
SEEDS = {"seeds": [42, 43, 44, 45, 46]}
MC = "montecarlo --config {d}/cfg.json"

PINNED = [
    Pinned("synth/workspace", ("synth --spec {ws}/manifest.json --out "
                               "{d}/out",), {
        "AA.csv":
            "f9b000129f7ab5510e4e1dc2fb892ab2c281ba8009b5af5a0f3fe87a569ad75b",
        "BB.csv":
            "6430f9d5a8a38fa3ada7e148fe56f9a353adc2976d46e8547c4e1820ce3fd028",
    }, None),
    # the workspace study, then its costs at three levels
    Pinned("montecarlo/workspace", (
        "montecarlo --config {ws}/config.json --out {d}/out",
        "costsweep --trials {d}/out/trials.csv --out {d}/out --bps 0,5,10"), {
        "aggregates.csv":
            "450e77b9bf78fd8470a2ab8100ecb89747a02e5a75e9a2ad5249c9318900e734",
        "comparisons.csv":
            "7d92d69a9c923cec5e6ead9d8e68f50237dcb9d616e94fae2f4d7a166efd1418",
        "cost_sensitivity.csv":
            "3af5a9d07e2481d440d01a4e8b8e421572680ee8fc441139f658ead5f6063918",
        "strategy_means.csv":
            "2dd16f17934588f4db73d5d2be6e5b59cbb10fa5d2eb2ce50cbfe4aaa7b98f4c",
        "trade_counts.csv":
            "943507aa8a9939e0caca2e630438af28b9194919e5748f70efeb26a99a06d8b4",
        "trials.csv":
            "c39c72fa3bf4f9bd3ae214f3f03707574fddae9dfdbe25946d4b26a4bc0bb878",
    }, "b3c8fb71ea628e75ee2472aa3117d2b378df1ca6c8c44d5bb5c569556a1e7666"),
    Pinned("walkforward/workspace", (
        "synth --spec {d}/m.json --out {d}/data",
        "walkforward --config {d}/cfg.json --jobs 2"), {
        "aggregates.csv":
            "fc54910fb50ede407658e557baf4d75918c75bd28ecc270ba608aa340976fb0e",
        "periods.csv":
            "8214aced6d8b2a38011e4aa16d52d6c2cd9fc19a2e34dfd9f4c013f28383886b",
        "splits_genratio.csv":
            "18299e11d73032a0a100c97bb14965b6708bf42701b33ed8aaf219b94ec64e9b",
        "trials.csv":
            "1a6e3e2384733c226f010aa7313fa39b257bde47bedb54793b4a88ba1faec9e1",
    }, "b74204b18c2f8c7545ea637fd46f4fd24f613dd9036f6bb159962261393eaedf",
        {"m.json": WF_MANIFEST, "cfg.json": {
            "data_dir": "{d}/data", "budget": 3, "out_dir": "{d}/out"}}),
    Pinned("montecarlo/stabilized", (MC,), STABILIZED_SHA256,
           STABILIZED_REPORT_SHA256, {"cfg.json": STABILIZED}),
    # an int in a float setting is read as that float: a penalty of `300`
    # must not make the search's loss matrix int64, truncating every loss
    Pinned("montecarlo/stabilized int penalty", (MC,), STABILIZED_SHA256,
           STABILIZED_REPORT_SHA256, {"cfg.json": {**STABILIZED, "objective": {
               **STABILIZED["objective"], "below_min_penalty": 300}}}),
    # the benchmark's two workloads at seed 0 (perfbench/run.py pins the
    # same trials.csv): `mc_study` run serially, `mc_stab_gt` in a pool of
    # two workers
    Pinned("montecarlo/mc_study", (f"{MC} --jobs 1",), {
        "aggregates.csv":
            "62897b511d11f65224b68efb0af4122d6e9a8383352ae17fa7d016aa0af380df",
        "comparisons.csv":
            "67261af516f2f9dd7f9435ef21bd71454b14de84062ffc057ce5d66d3e9d3861",
        "strategy_means.csv":
            "7407edd4fd338d55622e3c40d5e3a0d892337d768ac600f19c06766c4b7a6508",
        "trade_counts.csv":
            "da297f9c369fdb0549cc53836940427dffd3259b317422c4ddb9bdab946da549",
        "trials.csv":
            "8b4c2c7659e96486bc0f60063c65857dcab429faef04624dade36a8dbbfb4727",
    }, "31837678bdbb166682fd81330744f35a906410636af190d03e84ee41674771d3",
        {"cfg.json": {"data_dir": "{ws}/data", "mc": SEEDS,
                      "out_dir": "{d}/out"}}),
    Pinned("montecarlo/mc_stab_gt", (f"{MC} --jobs 2",), {
        "aggregates.csv":
            "6578be26407c2b7dc1bda1b57af4a5f3b42ed92930756edff76a89bde77c3404",
        "comparisons.csv":
            "03880034cc333ea48583478eab19ddf95d6659a4009887ade138534c38638718",
        "strategy_means.csv":
            "e5d33e68e728ded45907fa33a9876b0c2f54ff77eb72c0398ffe34ae5b253f78",
        "trade_counts.csv":
            "28a769d9996acebf5fd24c69e81dfb9c149a535330c98ef5322b55a1169ba488",
        "trials.csv":
            "f112d58b7132b7723e1a29abb758b9484c0a6a5c41e4522cb1186858105b4ab7",
    }, "0866a0af73219dc3d900924b5629a87403ac6108d4026df3586bc30a7d41fdcb",
        {"cfg.json": {
            "data_dir": "{ws}/data", "mc": SEEDS, "objectives": ["gt_score"],
            "assets": [a["asset_id"] for a in json.loads(
                FIXTURE_ASSETS.read_text())["assets"][:6]],
            "objective": {"periodization": "stabilized"},
            "out_dir": "{d}/out"}}),
    # the reference walk-forward, the default config on the 8 fixture
    # assets: 48 tasks of 12 trials, run in a pool of two workers, each
    # task's two windows being what a worker receives
    Pinned("walkforward/reference", ("walkforward --config {d}/cfg.json "
                                     "--jobs 2",), {
        "aggregates.csv":
            "1d3dc2086fcaae6955174e795905565b9d0ce4e7263ae30a1683d6e201234bba",
        "periods.csv":
            "bc13737f905a5fa2f322dc5f785dfd9a98a065e8e6fd6e0f2d1a3331d93037bc",
        "splits_genratio.csv":
            "b63ed750deb87c04f76a077c8f1333feefd3e2a100b78d09f22185292f24168d",
        "trials.csv":
            "386b2a9129f960964fe4319d6f15d4e401e0ad0b91d6ad10577b7dea3bcd6772",
    }, "ddc75832d6489e6e696aa04ad7256f45929213749968ba4582ea5f391be1e0da",
        {"cfg.json": {"data_dir": "{ws}/data", "out_dir": "{d}/out"}}),
]


def pinned(row_id):
    """The row of `PINNED` whose id is `row_id`."""
    (row,) = [row for row in PINNED if row.id == row_id]
    return row


def succeed(argv, d, ws):
    """Run `argv`, with `{d}` and `{ws}` filled in, in `d`: it must exit 0
    with nothing on stderr. Its stdout."""
    argv = [fill(arg, d, ws) for arg in shlex.split(argv)]
    code, out, err = in_process(argv, d, False)
    assert (code, err) == (0, ""), (argv, err)
    return out


def run_row(row_id, d, ws):
    """Run the row of `PINNED` whose id is `row_id` in the empty directory
    `d`, with the data `ws`: each command line must succeed."""
    row = pinned(row_id)
    make_files(row.files, d, ws)
    for argv in row.argvs:
        succeed(argv, d, ws)


def check_row(row_id, d, ws):
    """The row's files must be in `{d}/out`, where it ran; there `verify`
    and `report` must succeed, `report` print the row's text, and neither
    change a file."""
    row, out = pinned(row_id), d / "out"
    assert {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.iterdir())} == row.sha256, row.id
    if row.report is not None:
        before = tree_state(out)
        succeed("verify --out {d}/out", d, ws)
        text = succeed("report --out {d}/out", d, ws)
        assert hashlib.sha256(text.encode()).hexdigest() == row.report, row.id
        assert tree_state(out) == before, row.id


def run_pinned(ids, tmp_path, ws):
    """`run_row` then `check_row` on each row of `ids`, each in a directory
    of its own under `tmp_path`."""
    for i, row_id in enumerate(ids):
        d = tmp_path / str(i)
        d.mkdir()
        run_row(row_id, d, ws)
        check_row(row_id, d, ws)


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """The workspace `root`, and the directory each of three rows of
    `PINNED` ran in, by id. Each row runs once, here, and its outputs make
    the workspace: `synth/workspace` its `data/`, `montecarlo/workspace` its
    `mc` (without the row's cost_sensitivity.csv) and
    `walkforward/workspace` its WF_STUDY."""
    root = tmp_path_factory.mktemp("cli")
    (root / "manifest.json").write_text(json.dumps(small_manifest()))
    (root / "config.json").write_text(json.dumps(encode_config(RunConfig(
        data_dir=str(root / "data"), mc=MonteCarloConfig(seeds=[42, 43]),
        budget=5, out_dir=str(root / "mc")))))
    runs = {}
    for row_id, name, without in [
            ("synth/workspace", "data", ()),
            ("montecarlo/workspace", "mc", ("cost_sensitivity.csv",)),
            ("walkforward/workspace", WF_STUDY, ())]:
        runs[row_id] = d = tmp_path_factory.mktemp("run")
        run_row(row_id, d, root)
        shutil.copytree(d / "out", root / name,
                        ignore=shutil.ignore_patterns(*without))
    return root, runs


@pytest.fixture(scope="module")
def stabilized(workspace, tmp_path_factory):
    """The directory the `montecarlo/stabilized` row ran in, once; its
    study is `out` there. A test that writes into the study copies it."""
    d = tmp_path_factory.mktemp("stabilized")
    run_row("montecarlo/stabilized", d, workspace[0])
    return d / "out"


def test_synth_writes_loadable_csvs(workspace):
    root, runs = workspace
    check_row("synth/workspace", runs["synth/workspace"], root)


def test_costsweep_and_report(workspace):
    root, runs = workspace
    check_row("montecarlo/workspace", runs["montecarlo/workspace"], root)


def test_walkforward_end_to_end(workspace):
    root, runs = workspace
    check_row("walkforward/workspace", runs["walkforward/workspace"], root)


def test_stabilized_output_files_pinned(workspace, stabilized, tmp_path):
    check_row("montecarlo/stabilized", stabilized.parent, workspace[0])
    run_pinned(["montecarlo/stabilized int penalty"], tmp_path, workspace[0])


def test_benchmark_studies_pinned(fixture_ws, tmp_path):
    run_pinned(["montecarlo/mc_study", "montecarlo/mc_stab_gt"], tmp_path,
               fixture_ws)


def test_reference_walkforward_pinned(fixture_ws, tmp_path):
    run_pinned(["walkforward/reference"], tmp_path, fixture_ws)


# perfbench/tracer.py spans whose target no longer exists; repointing them
# is the benchmark's own repair, which empties this set
KNOWN_STALE = {"indicators.rsi", "indicators.macd", "indicators.ema",
               "strategy.signals", "metrics.context", "objective.loss",
               "objective.stabilize", "search.run_trial",
               "search.draw_candidates", "search.oos"}


REPO = Path(__file__).resolve().parents[1]


def module_at(path):
    """The module of the file `path` under the repository, loaded by path."""
    spec = importlib.util.spec_from_file_location(
        path.replace("/", "_").removesuffix(".py"), REPO / path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_cli_targets_resolve():
    # perfbench/tracer.py wraps these names where the package looks them
    # up; a rename must fail here, not silently zero a benchmark metric
    tracer = module_at("perfbench/tracer.py")
    stale = set()
    for name, module, attr, _ in tracer.TARGETS:
        owner = importlib.import_module(module)
        for part in attr.split("."):
            owner = getattr(owner, part, None)
        if not callable(owner):
            stale.add(name)
    assert stale == KNOWN_STALE


def test_mutation_ledger_names_what_exists():
    # tools/mutants.py runs outside tier-1: a rename in src or tests must
    # fail here, not leave a mutant that changes nothing or expects a test
    # or a group of `CASES` that is gone
    for mutant in module_at("tools/mutants.py").LEDGER:
        text = (REPO / mutant.path).read_text()
        assert text.count(mutant.snippet) == 1, mutant.id
        for test in mutant.tests:
            path, name = test.split("[")[0].split("::")
            assert f"\ndef {name}(" in (REPO / path).read_text(), test
            if name == "test_exit_contract":
                assert test.split("[")[1][:-1] in CONTRACT_GROUPS, test


def test_benchmark_runs_from_a_copy(tmp_path):
    # the benchmark's tiny mc_study, run from a copy of what the benchmark
    # builds from, as it is run: a change that breaks the imports of its
    # child or an option it passes to the CLI fails here first
    for part in ("src", "perfbench", "tests/fixtures"):
        shutil.copytree(REPO / part, tmp_path / part,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "mc_study",
         "--tiny", "--seconds", "0", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    lines = proc.stdout.splitlines()
    assert lines, proc.stderr
    result = json.loads(lines[-1])
    assert (result["correct"], result["failed"]) == (True, 0), proc.stdout


@functools.cache
def modules_after_cli_import():
    """The scipy.stats modules, and the process pool's modules, that a fresh
    interpreter holds after `import gtscore.cli`, as two printed lists; one
    interpreter serves both checks below."""
    src = Path(gtscore.__file__).resolve().parents[1]
    code = ("import sys, gtscore.cli\n"
            "print(sorted(m for m in sys.modules "
            "if m.split('.')[:2] == ['scipy', 'stats']))\n"
            "print(sorted(m for m in sys.modules "
            "if m.split('.')[0] == 'multiprocessing' "
            "or m == 'concurrent.futures.process'))")
    run = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, env={**os.environ, "PYTHONPATH": str(src)})
    assert run.returncode == 0, run.stderr
    return tuple(run.stdout.splitlines())


def test_cli_import_leaves_scipy_stats_unloaded():
    # every subcommand pays for what `import gtscore.cli` loads, and
    # scipy.stats alone took most of a second
    assert modules_after_cli_import()[0] == "[]"


def test_cli_import_leaves_multiprocessing_unloaded():
    # only a study with --jobs above 1 starts a process pool: the pool's
    # module, and multiprocessing with it, load there and not before
    assert modules_after_cli_import()[1] == "[]"


def test_config_init_round_trips(tmp_path, capsys):
    out = tmp_path / "cfg.json"
    capsys.readouterr()
    assert main(["config", "init"]) == 0
    out.write_text(capsys.readouterr().out)
    assert load_config(str(out)) == RunConfig()


CONFIG_INIT_SHA256 = (
    "eb5200fe96d76c3c76536ebea1321ec054448bfa55bf31b6d711069b95098960")


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


def test_trial_rows_round_trip_returns(stabilized):
    # the stabilized study, whose trials trade out of sample (every trial
    # of the workspace's own montecarlo study is degenerate)
    rows = read_trials_csv(stabilized / "trials.csv")
    assert any(r["oos_trades"] for r in rows)
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
OTHER_POOL = [sample_params(StrategyKind.RSI, np.random.Generator(
    np.random.Philox(1)))]


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(drawn=st.lists(trials(), min_size=1, max_size=4, unique_by=lambda t: (
    t["asset"], t["strategy"], t["objective"], t["split_id"], t["seed"])))
@example(drawn=[EDGE_TRIAL, {**EDGE_TRIAL, "seed": 43, "degenerate": True,
                             "oos_trade_returns_json": np.array([])}])
@example(drawn=[EDGE_TRIAL, {**EDGE_TRIAL, "objective": "sharpe",
                             "params_json": OTHER_POOL[0],
                             "candidates_json": OTHER_POOL}])
def test_trial_rows_read_back_as_written(tmp_path, drawn):
    # each row records its own trial's pool, also where two trials of one
    # cell drew different pools; `read_trials_csv` takes each cell only as
    # the writer spells it, so the rows it reads back are spelled by the
    # writer into the same bytes
    pool_json = {}
    written = [trial_row(t, pool_json) for t in drawn]
    assert [json.loads(row["candidates_json"]) for row in written] == [
        [params_doc(p) for p in t["candidates_json"]] for t in drawn]
    text = csv_text(TRIAL_COLUMNS, written)
    (tmp_path / "trials.csv").write_text(text)
    rows = read_trials_csv(tmp_path / "trials.csv")
    assert csv_text(TRIAL_COLUMNS, rows) == text


def test_costsweep_wiped_out_trade_loses_its_stake(stabilized, tmp_path):
    # at 4,999 bps a side the round trip's haircut is 99.98%, so each losing
    # trade of the stabilized study is wiped out: its wealth factor floors
    # at 0 and its trial returns exactly -100%, also where an even number
    # of negative factors would multiply to a gain
    out = tmp_path / "out"
    shutil.copytree(stabilized, out)
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


def test_cost_zero_level_matches_oos_mean(workspace, stabilized, tmp_path):
    # the workspace study (default levels) makes no out-of-sample trade,
    # so only the stabilized one (89 trades) shows a cost being charged
    root, _ = workspace
    traded = []
    for study, bps in ((root / "mc", []), (stabilized, ["--bps", "0,10"])):
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


@pytest.mark.parametrize("study, stray", [("mc", "periods.csv"),
                                          (WF_STUDY, "trade_counts.csv")])
def test_a_recomputable_stray_file_is_verified(study, stray, workspace,
                                               tmp_path):
    # a complete study beside a file only the other study command writes,
    # recomputed from the same trials.csv: `verify` checks that file too
    # and passes, and `report` prints it, neither changing a file
    ws = workspace[0]
    make_files({"s": copied(study), f"s/{stray}": recomputed(stray, study)},
               tmp_path, ws)
    before = tree_state(tmp_path / "s")
    assert f"verify: {stray} OK" in succeed(
        "verify --out {d}/s", tmp_path, ws).splitlines()
    (out,) = [out for out in cli.OUTPUTS if out.name == stray]
    assert f"\n{out.title}\n" in succeed("report --out {d}/s", tmp_path, ws)
    assert tree_state(tmp_path / "s") == before


def test_walkforward_skips_splits_below_two_bars(workspace, tmp_path, capsys):
    # Split k of one-year windows two years apart trains on year 2k and
    # validates on year 2k + 1 of 2010-2015. N holds every day. G holds
    # one bar of 2010 and one of 2013, so its splits 0 and 1 are skipped
    # with one warning each; its split 2 keeps its calendar id and the
    # trials that G's last two years get alone, as their split 0. H also
    # holds one bar of 2014-2015, so it keeps no split.
    ws = workspace[0]
    case = named("no_split/walkforward H")
    cfg = {**case.files["cfg.json"], "objective": {"n_min": 5}}
    make_files({"cfg.json": {**cfg, "assets": ["N", "G"]},
                "data/N.csv": lone_days_csv("N", range(2010, 2016)),
                "data/G.csv": lone_days_csv("G", [2011, 2012, 2014, 2015])},
               tmp_path, ws)
    # in-process, with pytest's handlers on the root logger, each warning
    # reaches stderr once
    capsys.readouterr()
    assert main(["walkforward", "--config", str(tmp_path / "cfg.json")]) == 0
    assert capsys.readouterr().err == "".join(
        line + "\n" for line in skipped_splits("G", [(1, 365), (366, 1)]))
    rows = read_trials_csv(tmp_path / "out" / "trials.csv")
    assert len(rows) == 4 * len(ObjectiveKind)
    assert {(r["asset"], r["split_id"]) for r in rows} == {
        ("N", 0), ("N", 1), ("N", 2), ("G", 2)}
    assert main(["verify", "--out", str(tmp_path / "out")]) == 0
    head, *lines = (tmp_path / "data" / "G.csv").read_text().splitlines(
        keepends=True)
    make_files({"cfg.json": {**cfg, "assets": ["G"]},
                "data/G.csv": head + "".join(
                    line for line in lines if line >= "2014")},
               tmp_path / "tail", ws)
    succeed("walkforward --config {d}/cfg.json", tmp_path / "tail", ws)
    alone = read_trials_csv(tmp_path / "tail" / "out" / "trials.csv")
    assert {r["split_id"] for r in alone} == {0}
    assert not all(r["degenerate"] for r in alone)
    others = [column for column in TRIAL_COLUMNS if column != "split_id"]
    assert csv_text(others, alone) == csv_text(
        others, [r for r in rows if r["asset"] == "G"])


def test_files_are_utf8_under_an_ascii_locale(workspace, tmp_path,
                                              posix_main):
    # a study of an asset named in UTF-8 is verified under a POSIX locale,
    # whose encoding is ASCII; there, a study of every CSV file in the data
    # directory names that file's asset by its UTF-8 bytes: it writes the
    # same trials.csv, which is verified too
    cfg = {"data_dir": "{d}/data", "budget": 2, "mc": {"seeds": [42, 43]}}
    make_files({"data/\u00e9t\u00e9.csv": copied("data/AA.csv"),
                "named.json": {**cfg, "assets": ["\u00e9t\u00e9"],
                               "out_dir": "{d}/mc"},
                "globbed.json": {**cfg, "out_dir": "{d}/globbed"}},
               tmp_path, workspace[0])
    succeed("montecarlo --config {d}/named.json", tmp_path, workspace[0])
    study = posix_main(["montecarlo", "--config",
                        str(tmp_path / "globbed.json")], tmp_path)
    assert study[0] == 0, study
    trials = tmp_path / "globbed" / "trials.csv"
    assert trials.read_bytes() == (tmp_path / "mc" / "trials.csv").read_bytes()
    assert {r["asset"] for r in read_trials_csv(trials)} == {"\u00e9t\u00e9"}
    for out in ("mc", "globbed"):
        verify = posix_main(["verify", "--out", str(tmp_path / out)], tmp_path)
        assert verify[0] == 0, verify


def test_zero_day_training_side_skips_the_asset(workspace, tmp_path, capsys):
    # a 3-bar asset whose training side rounds to 0 days is skipped with
    # one warning: alone it leaves the study without a cell (exit 2),
    # beside a valid asset the study completes without it
    root = workspace[0]
    case = named("no_split/montecarlo S")
    make_files({**case.files, "data/AA.csv": copied("data/AA.csv"),
                "cfg.json": {**case.files["cfg.json"], "assets": ["S", "AA"]}},
               tmp_path, root)
    capsys.readouterr()
    assert main(["montecarlo", "--config", str(tmp_path / "cfg.json")]) == 0
    assert capsys.readouterr().err == case.warnings[0] + "\n"
    assert {r["asset"] for r in read_trials_csv(
        tmp_path / "out" / "trials.csv")} == {"AA"}


def tree_state(root):
    """Every path under `root` with its bytes, None for a directory."""
    return {p: None if p.is_dir() else p.read_bytes()
            for p in sorted(root.rglob("*"))}


def test_write_failure_changes_no_file(workspace, tmp_path, capsys,
                                       monkeypatch):
    # over a finished study, each exits 1 in one line and leaves every file
    # as it was, with no temporary file: a study with other seeds whose
    # third file fails to write; a costsweep whose one file does; and a
    # study that fails once part of its trials.csv is on disk, the rows
    # being streamed into the temporary file
    root = workspace[0]
    study = tmp_path / "mc"
    shutil.copytree(root / "mc", study)
    assert main(["costsweep", "--trials", str(study / "trials.csv"),
                 "--out", str(study)]) == 0
    before = tree_state(study)
    temp, calls, streamed = study / ".trials.csv.tmp", [], []
    real_write, real_cell = cli.write_csv, cli._cell

    def failing(path, *args):
        calls.append(path.parent)
        if len(calls) == fail_at:
            raise OSError(28, "No space left on device")
        real_write(path, *args)

    def cell(value):
        if fail_at is None and temp.exists() and temp.stat().st_size:
            streamed.append(temp.stat().st_size)
            raise OSError(28, "No space left on device")
        return real_cell(value)

    monkeypatch.setattr(cli, "write_csv", failing)
    monkeypatch.setattr(cli, "_cell", cell)
    cfg = load_config(str(root / "config.json"))
    cfg.mc.seeds = [7, 8]
    (tmp_path / "seeds.json").write_text(json.dumps(encode_config(cfg)))
    seeds = ["montecarlo", "--config", str(tmp_path / "seeds.json")]
    for fail_at, argv in ((3, seeds), (None, seeds), (1, [
            "costsweep", "--trials", str(study / "trials.csv")])):
        calls.clear()
        capsys.readouterr()
        assert main(argv + ["--out", str(study)]) == 1
        assert capsys.readouterr().err == (
            "error: [Errno 28] No space left on device\n")
        assert fail_at is None or calls == [study] * fail_at
        assert tree_state(study) == before
    assert 0 < streamed[0] < (study / "trials.csv").stat().st_size


def test_write_failure_removes_the_directories_it_made(workspace, tmp_path,
                                                       capsys, monkeypatch):
    # synth writes all or nothing, its second asset failing to write: into
    # a directory that exists, and into one it makes, which it removes
    # again with the parents it made; so does a costsweep into fresh/a/b
    # whose one file fails. Each exits 1 in one line.
    root = workspace[0]
    kept, fresh = tmp_path / "kept", tmp_path / "fresh" / "a"
    kept.mkdir()
    real, calls = cli.write_csv, []

    def failing(path, *args):
        assert path.parent.is_dir()
        calls.append(path)
        if path.name != ".AA.csv.tmp":
            raise OSError(28, "No space left on device")
        real(path, *args)

    monkeypatch.setattr(cli, "write_csv", failing)
    synth = ["synth", "--spec", str(root / "manifest.json")]
    assets = [".AA.csv.tmp", ".BB.csv.tmp"]
    for argv, out, names in (
            (synth, kept, assets), (synth, fresh / "data", assets),
            (["costsweep", "--trials", str(root / "mc" / "trials.csv")],
             fresh / "b", [".cost_sensitivity.csv.tmp"])):
        calls.clear()
        capsys.readouterr()
        assert main(argv + ["--out", str(out)]) == 1
        assert capsys.readouterr() == (
            "", "error: [Errno 28] No space left on device\n")
        assert calls == [out / name for name in names]
        assert tree_state(tmp_path) == {kept: None}


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


def test_config_rules_from_the_fields():
    # the rules read from the dataclass fields, the `config_rules` rows of
    # `CASES`: at every level of a run config and of a manifest, an added
    # unknown key, and an empty list in each field declared NONEMPTY, here
    # these three, exits 1 with one error line naming its path
    assert [case.id.split(": ")[1] for case in in_group("config_rules")
            if case.error.endswith("must name at least one")] == [
        "strategies", "objectives", "mc.seeds"]


def test_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0 and "usage: gtscore" in capsys.readouterr().out


def test_readme_walkthrough_parses():
    # every `gtscore ...` line of the README's walkthrough is one the
    # parser accepts, so a removed option cannot stay in the docs
    text = (REPO / "README.md").read_text()
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


def test_study_settings_reach_splits(workspace, tmp_path, monkeypatch):
    # step_years 2 leaves 2 of the 4 default splits of a 9.2-year series;
    # the montecarlo split settings reach the split of each of two assets
    one = {"budget": 1, "strategies": ["macd"], "objectives": ["simple"]}
    make_files({"m.json": WF_MANIFEST, "wf.json": {
        **one, "data_dir": "{d}/data", "wf": {"step_years": 2}},
        "mc.json": {**one, "data_dir": "{ws}/data", "mc": {
            "seeds": [3], "train_fraction": 0.6, "embargo_days": 12}}},
        tmp_path, workspace[0])
    calls, real = [], search.make_chrono_split
    monkeypatch.setattr(search, "make_chrono_split", lambda series, **kw: (
        calls.append(kw) or real(series, **kw)))
    for argv in ("synth --spec {d}/m.json --out {d}/data",
                 "walkforward --config {d}/wf.json --out {d}/wf",
                 "montecarlo --config {d}/mc.json --out {d}/mc"):
        succeed(argv, tmp_path, workspace[0])
    rows = read_trials_csv(tmp_path / "wf" / "trials.csv")
    assert sorted(r["split_id"] for r in rows) == [0, 1]
    assert calls == [{"train_fraction": 0.6, "embargo_days": 12}] * 2


# --- the exit contract -------------------------------------------------------
# A command that fails exits with its code, prints nothing on stdout and, on
# stderr, only its warnings and then one `error:` line, with no traceback;
# and it changes no file. `CASES` lists the failing inputs; `run_case`
# checks all of that on each.


@dataclass(frozen=True)
class Case:
    """Failing command lines and what each must print.

    `files` maps a path under the case's directory to what `make_files`
    makes there. Each of `argvs` (one string, or a tuple of them) is split
    as a shell would. In argvs, file texts and messages, `{d}` stands for
    the case's directory and `{ws}` for the workspace's. `error` is the
    `error:` line after `error: `, where `...` stands for any text;
    `warnings` are the lines before it. `before_search`: the search must
    not run. `posix`: run under an ASCII locale (`posix_main`)."""
    id: str
    argvs: str | tuple[str, ...]
    code: int
    error: str
    files: dict = field(default_factory=dict)
    warnings: tuple[str, ...] = ()
    before_search: bool = False
    posix: bool = False


def fill(text, d, ws):
    return text.replace("{d}", str(d)).replace("{ws}", str(ws))


def copied(name, edit=None, without=()):
    """The workspace's file or directory `name`, copied; a file's text
    passed through `edit`, if given; a directory without the files named
    in `without`."""
    def make(ws, path):
        if edit:
            path.write_text(edit((ws / name).read_text()))
        elif (ws / name).is_dir():
            shutil.copytree(ws / name, path,
                            ignore=shutil.ignore_patterns(*without))
        else:
            shutil.copy(ws / name, path)
    return make


def make_files(files, d, ws):
    """Make each path of `files` under `d`: a function makes it from the
    workspace `ws`; None is an empty directory; bytes are written as they
    are; a str, or a dict as its JSON, is written as UTF-8 text with `{d}`
    and `{ws}` filled in."""
    for name, content in files.items():
        path = d / name
        path.parent.mkdir(parents=True, exist_ok=True)
        if callable(content):
            content(ws, path)
        elif content is None:
            path.mkdir()
        elif isinstance(content, bytes):
            path.write_bytes(content)
        else:
            text = content if isinstance(content, str) else json.dumps(content)
            path.write_text(fill(text, d, ws), encoding="utf-8")


def search_ran(*args):
    raise AssertionError("the search ran")


def in_process(argv, cwd, before_search):
    """(exit code, stdout, stderr) of `main(argv)` run in `cwd`."""
    out, err, home = io.StringIO(), io.StringIO(), os.getcwd()
    os.chdir(cwd)
    try:
        with (mock.patch.object(search, "run_trials", search_ran)
              if before_search else contextlib.nullcontext()), \
                contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(err):
            code = main(argv)
    finally:
        os.chdir(home)
    return code, out.getvalue(), err.getvalue()


# `in_process` in a child interpreter: one call per line of stdin, each
# answered with one line of stdout; its streams are captured in their own
# encoding, so a name the locale cannot spell prints as it would on a
# terminal, and an uncaught exception prints its traceback
POSIX_CHILD = """
import contextlib, io, json, os, sys, traceback
from unittest import mock
from gtscore import cli, search

def search_ran(*args):
    raise AssertionError("the search ran")

streams = sys.stdout, sys.stderr
for line in sys.stdin:
    argv, cwd, before_search = json.loads(line)
    os.chdir(cwd)
    sys.stdout, sys.stderr = captured = [
        io.TextIOWrapper(io.BytesIO(), s.encoding, s.errors) for s in streams]
    try:
        with (mock.patch.object(search, "run_trials", search_ran)
              if before_search else contextlib.nullcontext()):
            code = cli.main(argv)
    except Exception:
        traceback.print_exc()
        code = 1
    sys.stdout, sys.stderr = streams
    for s in captured:
        s.flush()
    print(json.dumps([code, *(s.buffer.getvalue().hex() for s in captured)]),
          flush=True)
"""


@pytest.fixture(scope="module")
def posix_main():
    """`in_process` under the POSIX locale, whose file-system encoding is
    ASCII: in one child interpreter, started at the first call and shared
    by every call in this module."""
    child = None

    def run(argv, cwd, before_search=False):
        nonlocal child
        if child is None:
            src = Path(gtscore.__file__).resolve().parents[1]
            child = subprocess.Popen(
                [sys.executable, "-c", POSIX_CHILD], stdin=subprocess.PIPE,
                stdout=subprocess.PIPE, env={
                    **os.environ, "PYTHONPATH": str(src), "PYTHONUTF8": "0",
                    "LC_ALL": "POSIX", "PYTHONCOERCECLOCALE": "0"})
        child.stdin.write(
            json.dumps([argv, str(cwd), before_search]).encode() + b"\n")
        child.stdin.flush()
        code, out, err = json.loads(child.stdout.readline())
        return code, bytes.fromhex(out).decode(), bytes.fromhex(err).decode()

    yield run
    if child is not None:
        child.stdin.close()
        child.wait(timeout=60)
        child.stdout.close()


def run_case(case, d, ws, posix_main):
    """Set up `case` in the empty directory `d`, with the workspace `ws`,
    and run each of its argvs there, in this interpreter or in
    `posix_main`. Each must exit with the case's code; print nothing on
    stdout; print on stderr the case's warnings, then its one `error:`
    line, and no traceback; and leave every file under `d` and `ws` as it
    was."""
    make_files(case.files, d, ws)
    run = posix_main if case.posix else in_process
    error = "error: " + ".*".join(
        map(re.escape, fill(case.error, d, ws).split("...")))
    for argv in [case.argvs] if isinstance(case.argvs, str) else case.argvs:
        argv = [fill(arg, d, ws) for arg in shlex.split(argv)]
        before = tree_state(d), tree_state(ws)
        code, out, err = run(argv, d, case.before_search)
        *warned, last = err.removesuffix("\n").split("\n")
        context = case.id, argv, err
        assert (code, out, warned) == (
            case.code, "", list(case.warnings)), context
        assert err.endswith("\n") and re.fullmatch(error, last), context
        assert "Traceback" not in err, context
        assert (tree_state(d), tree_state(ws)) == before, context


# --- the cases, by the part of the contract they check -----------------------

WF = "walkforward --config {d}/cfg.json"
CFG = {"data_dir": "{d}/data", "out_dir": "{d}/out"}
GOOD_CSV = "date,open,high,low,close,volume\n2020-01-02,10,11,9,10.5,100\n"
# an asset too short for any split: 30 bars from 2010-01-01
SHORT_CSV = csv_text(CSV_HEADER, ohlcv_rows(generate_synthetic_series(
    SyntheticSpec(30, 100.0, ((30, 0.0, 0.01),), 1), "X")))
NO_SPLIT = "no asset has a split with >= 2 bars in each window: skipped "
LATIN1_CSV = os.fsdecode(b"\xe9t\xe9.csv")
LONG = "{d}/" + "x" * 300  # a path component too long to name a file


def lone_days_csv(asset_id, years):
    """The CSV of an asset of a bar a day from 2010-01-01 to 2015-12-31
    that keeps the bars of `years` and those of three lone days."""
    def make(ws, path):
        header, *lines = csv_text(CSV_HEADER, ohlcv_rows(make_series(
            random_closes(np.random.Generator(np.random.Philox(7)), 2191),
            asset_id, dt.date(2010, 1, 1)))).splitlines(keepends=True)
        path.write_text(header + "".join(
            line for line in lines if int(line[:4]) in years
            or line[:10] in ("2010-01-01", "2013-07-01", "2015-12-31")))
    return make


def skipped_splits(asset_id, bars):
    """The warnings of splits 0, 1, ... of `asset_id`, skipped for `bars`."""
    return tuple(f"WARNING skipping {asset_id} split {k}: {train} training "
                 f"and {val} validation bars, need >= 2 each"
                 for k, (train, val) in enumerate(bars))


def bad_config(doc, error, commands=("montecarlo",)):
    return Case(f"bad_config/{doc[:48]}",
                tuple(f"{c} --config {{d}}/bad.json" for c in commands), 1,
                f"bad run config: {error}", {"bad.json": doc})


def both_protocols(doc, error):
    return bad_config(doc, error, ("montecarlo", "walkforward"))


HUGE = "1" + "0" * 400
STAB = '{"objective": {"stabilization": {%s}}}'
ENTRY = small_manifest()["assets"][0]


def manifest(**changes):
    return json.dumps({"assets": [{**ENTRY, **changes}]})


def config_rules():
    """At each level of a run config and of a manifest (`config_levels`),
    a document with an added unknown key, and one with an empty list in
    each field declared NONEMPTY: a case naming its path."""
    for tp, base, argv, prefix in [
            (RunConfig, {}, "montecarlo --config", "bad run config"),
            (SyntheticManifest, {"assets": [ENTRY]}, "synth --out data --spec",
             "bad synthetic manifest")]:
        for path, level in config_levels(tp):
            rules = [("unknown", 1, "unknown key")]
            rules += [(f.name, [], "must name at least one")
                      for f in fields(level) if f.metadata == NONEMPTY]
            for key, value, message in rules:
                doc = node = json.loads(json.dumps(base))
                for k in path:
                    node = (node[k] if isinstance(k, int)
                            else node.setdefault(k, {}))
                node[key] = value
                where = "".join(f"[{k}]" if isinstance(k, int) else f".{k}"
                                for k in (*path, key)).lstrip(".")
                error = f"{prefix}: {where}: {message}"
                yield Case(f"config_rules/{error}", f"{argv} {{d}}/doc.json",
                           1, error, {"doc.json": doc})


def records_with(change):
    """An edit of a CSV text: its records (lists of cells, header first)
    passed through `change`."""
    def edit(text):
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerows(
            change(list(csv.reader(io.StringIO(text)))))
        return buf.getvalue()
    return edit


def trials_with(change):
    """The workspace study's trials.csv, its records passed through
    `change`."""
    return copied("mc/trials.csv", records_with(change))


def rebuilt_with(study, change):
    """A copy of the workspace's `study` whose trials.csv records pass
    through `change`, each of its derived files rebuilt from them by the
    file's builder alone: as a study would be written if no check
    stood between the builders and the file."""
    def make(ws, path):
        shutil.copytree(ws / study, path,
                        ignore=shutil.ignore_patterns("cost_sensitivity.csv"))
        trials = path / "trials.csv"
        trials.write_text(records_with(change)(trials.read_text()))
        rows = read_trials_csv(trials)
        for out in cli.OUTPUTS:
            if (path / out.name).exists():
                columns = (out.columns(rows) if callable(out.columns)
                           else out.columns)
                (path / out.name).write_text(
                    csv_text(columns, out.build(rows)))
    return make


def live_returns(oos, train):
    """A records change: every trial made non-degenerate, with
    oos_return `oos(objective)` and train_return `train`."""
    def change(rows):
        col = TRIAL_COLUMNS.index
        for row in rows[1:]:
            row[col("oos_return")] = repr(oos(row[col("objective")]))
            row[col("train_return")] = repr(train)
            row[col("degenerate")] = "false"
        return rows
    return change


# huge returns whose means over the study's groups are exact, so that each
# group's std is 0 and only the cell under test overflows: a power of two
# (its multiples by small counts are exact), and 1.5 times one
HUGE_OOS = 2.0 ** 996  # about 6.7e299: over a 1e-10 training mean, inf
WIDE_OOS = 1.5 * 2.0 ** 1016  # about 1.05e306: 200 times it is inf


def bad_cell(line, column, value):
    """A case of the trials.csv whose cell at file line `line`, `column`,
    holds `value`, or `value` of the cell there: the error names both."""
    def change(rows):
        cell = rows[line - 1][TRIAL_COLUMNS.index(column)]
        rows[line - 1][TRIAL_COLUMNS.index(column)] = (
            value(cell) if callable(value) else value)
        return rows
    return (f"line {line} {column}", trials_with(change),
            f"{{d}}/trials.csv line {line}, column {column}: ...")


def edit_line(n, change):
    """A text with its line `n` passed through `change`."""
    def edit(text):
        lines = text.splitlines(keepends=True)
        lines[n - 1] = change(lines[n - 1])
        return "".join(lines)
    return edit


def recomputed(name, study, *args, edit=lambda text: text):
    """The derived file `name` as `verify` recomputes it from the
    trials.csv of the workspace's `study` (and `args`), passed through
    `edit`."""
    def make(ws, path):
        rows = read_trials_csv(ws / study / "trials.csv")
        (out,) = [out for out in cli.OUTPUTS if out.name == name]
        path.write_text(edit(csv_text(*cli.derive(out, rows, *args))))
    return make


def costs(edit=lambda text: text):
    """The cost_sensitivity.csv that `costsweep` writes at its default
    levels for the workspace study, passed through `edit`."""
    return recomputed("cost_sensitivity.csv", "mc", cli.DEFAULT_COST_SWEEP,
                      edit=edit)


LEVELS = "levels must be finite, non-negative, below 5000 and distinct"


def tampered(case_id, code, error, changes=(), study="mc", without=()):
    """`verify` and `report` of {d}/s: a copy of the workspace's `study`
    without the files `without`, with the files `changes` written in."""
    files = {f"s/{name}": text for name, text in dict(changes).items()}
    return Case(f"tampered_study/{case_id}", ("verify --out {d}/s",
                                              "report --out {d}/s"),
                code, error, {"s": copied(study, without=without), **files})


def header_only(text):
    return text.splitlines(keepends=True)[0]


def oversized(name, line, change):
    """The workspace data and study, a cost_sensitivity.csv beside it, and
    a config of that data; with line `line` of the file `name` changed."""
    edit = edit_line(line, change)
    return {"data": copied("data"), "mc": copied("mc"),
            "mc/cost_sensitivity.csv": costs(), "config.json": {
                "data_dir": "{d}/data", "mc": {"seeds": [42]}, "budget": 2},
            name: costs(edit) if name == "mc/cost_sensitivity.csv"
            else copied(name, edit)}


BIG = "1" * 200_000  # past csv.field_size_limit(), 131,072 characters


def oversize(line):
    return line.replace(",", f",{BIG}", 1)


def cut(line):  # to two cells
    return ",".join(line.split(",")[:2]) + "\n"


def extend(line):
    return line.replace("\n", ",0.1\n")


LIMIT = "field larger than field limit (131072)"
TRIO = ("costsweep --trials {d}/trials.csv --out {d}", "report --out {d}",
        "verify --out {d}")
# a trials.csv with no rows, beside the derived files that no rows make
NO_TRIALS = {"trials.csv": csv_text(TRIAL_COLUMNS, []), **{
    out.name: csv_text(*cli.derive(out, [])) for out in cli.OUTPUTS
    if "montecarlo" in out.written_by}}


def weekday_csv(closes):
    """The CSV of an asset of one weekday bar from 2010-01-01 per close,
    each with open = close, high 1% above and low 1% below."""
    closes = np.asarray(closes, dtype=float)
    dates = np.busday_offset(np.datetime64("2010-01-01"),
                             np.arange(len(closes)), roll="forward")
    return csv_text(CSV_HEADER, ohlcv_rows(PriceSeries(
        "X", dates, closes, closes * 1.01, closes * 0.99, closes,
        np.ones(len(closes)))))


def spiked_closes(n, factor, spiked):
    """`n` closes near 100, those at the bars `spiked` selects `factor`
    times higher."""
    closes = 100.0 * (1.0 + 0.01 * np.sin(np.arange(n) / 3.0))
    closes[spiked] *= factor
    return closes


def spiking(n):
    """The CSV of `n` bars whose bars 20-22 of every 40 spike 1e80-fold."""
    return weekday_csv(spiked_closes(
        n, 1e80, np.isin(np.arange(n) % 40, (20, 21, 22))))


# an asset whose closes fall from 1e12 to 1e-12, swinging 10% about the
# trend so that strategies trade: over its training window the buy and
# hold return rounds to -1
FALLING = weekday_csv(1e12 * 1e-24 ** np.linspace(0.0, 1.0, 900)
                      * (1.0 + 0.1 * np.sin(np.arange(900) / 3.0)))


USAGE_ERRORS = [
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
     "unrecognized arguments: --out c.json")]


CASES = [
    # a usage error is a config error
    *(Case(f"usage_error/{shlex.join(argv)}", shlex.join(argv), 1,
           f"{message}...") for argv, message in USAGE_ERRORS),
    # a --jobs below 1 is refused before the config or an asset CSV is
    # read: a config whose data_dir does not exist, and no config at all
    Case("jobs_below_one/0", tuple(
        f"montecarlo --config {{d}}/{name} --out {{d}}/out --jobs 0"
        for name in ("cfg.json", "missing.json")), 1,
        "argument --jobs: must be >= 1, got 0",
        {"cfg.json": {"data_dir": "{d}/none"}}),
    # a cost level that is not a number, not finite, negative or given
    # twice; or a 100% round-trip haircut, or more; or no level at all
    *(Case(f"bad_bps/{bps}", "costsweep --trials {ws}/mc/trials.csv "
           f"--out {{d}}/bad --bps {shlex.quote(bps)}", 1,
           f"bad --bps level: ...{message}...")
      for bps, message in [
          ("", "could not convert string to float: ''"),
          ("0,x", "'x'"), ("nan", "nan: levels must"),
          ("0,inf", "inf: levels"), ("1e400", "inf: levels"),
          ("2,2", "2.0: levels"), ("2,5,2.0", "2.0: levels"),
          ("0,-1", "-1.0: levels"), ("0,-0", "-0.0: levels"),
          ("5000", "5000.0: levels"), ("20000", "20000.0: levels"),
          ("1e308,2", "1e+308: levels")]),
    # a config that cannot be read, or is not JSON this program reads: no
    # file, a directory, and an int too long for int() to read
    Case("bad_config/missing", "montecarlo --config {d}/missing.json", 1,
         "cannot read config {d}/missing.json: No such file or directory"),
    Case("bad_config/a directory", "montecarlo --config {d}", 1,
         "cannot read config {d}..."),
    Case("bad_config/{not json", "montecarlo --config {d}/bad.json", 1,
         "config is not valid JSON: Expecting property name enclosed in "
         "double quotes: line 1 column 2 (char 1)", {"bad.json": "{not json"}),
    Case("bad_config/5000 digits", "montecarlo --config {d}/bad.json", 1,
         "config is not valid JSON: Exceeds the limit...",
         {"bad.json": '{"mc": {"embargo_days": 1%s}}' % ("0" * 5000)}),
    # a value of the wrong JSON type or not in its enum, named by its path
    bad_config('{"wf": 5}', "wf: expected dict, got int"),
    bad_config('{"budget": "3"}', "budget: expected int, got str"),
    bad_config('{"mc": {"seeds": "12"}}', "mc.seeds: expected list, got str"),
    bad_config('{"strategies": ["bogus"]}',
               "strategies[0]: 'bogus' is not a valid StrategyKind"),
    bad_config('{"objectives": ["bogus"]}',
               "objectives[0]: 'bogus' is not a valid ObjectiveKind"),
    bad_config('{"assets": [1]}', "assets[0]: expected str, got int"),
    bad_config('{"budget": true}', "budget: expected int, got bool"),
    bad_config('{"mc": {"seeds": ["x"]}}',
               "mc.seeds[0]: expected int, got str"),
    bad_config("[]", "document: expected dict, got list"),
    bad_config(STAB % '"n_range": [10]',
               "objective.stabilization.n_range: expected 2 items, got 1"),
    bad_config(STAB % '"n_range": [10, "a"]',
               "objective.stabilization.n_range[1]: expected int, got str"),
    bad_config('{"strategies": ["rsi", "bogus"]}',
               "strategies[1]: 'bogus' is not a valid StrategyKind"),
    bad_config('{"objective": {"periodization": "weekly"}}',
               "objective.periodization: 'weekly' is not a valid "
               "Periodization"),
    # a float setting that is not finite, or an int beyond float range
    *(bad_config('{"objective": {"%s": %s}}' % (name, value),
                 f"objective.{name}: must be finite, got {shown}")
      for name in ("eps", "below_min_penalty")
      for value, shown in (("NaN", "nan"), ("Infinity", "inf"))),
    *(bad_config(doc % HUGE, f"{path}: int too large to convert to float")
      for doc, path in [
          ('{"objective": {"eps": %s}}', "objective.eps"),
          ('{"objective": {"below_min_penalty": %s}}',
           "objective.below_min_penalty"),
          (STAB % '"threshold": %s', "objective.stabilization.threshold")]),
    # a value past its field's bound, named by its path: the upper bounds
    # are the spans the calendar holds
    bad_config(STAB % '"window": 0',
               "objective.stabilization.window: must be >= 1, got 0"),
    bad_config(STAB % '"n_range": [0, 5]',
               "objective.stabilization.n_range: must be ints 1 <= lo <= "
               "hi, got (0, 5)"),
    bad_config(STAB % '"n_range": [50, 10]',
               "objective.stabilization.n_range: must be ints 1 <= lo <= "
               "hi, got (50, 10)"),
    bad_config(STAB % '"threshold": -1',
               "objective.stabilization.threshold: must be > 0, got -1.0"),
    bad_config(STAB % '"fallback": 0',
               "objective.stabilization.fallback: must be >= 1, got 0"),
    both_protocols('{"mc": {"embargo_days": %s}}' % HUGE,
                   f"mc.embargo_days: must be <= 3652058, got {HUGE}"),
    both_protocols('{"wf": {"embargo_days": %d}}' % 10 ** 12,
                   "wf.embargo_days: must be <= 3652058, got 1000000000000"),
    both_protocols('{"wf": {"train_years": %d}}' % 10 ** 6,
                   "wf.train_years: must be <= 9998, got 1000000"),
    both_protocols('{"budget": 0}', "budget: must be >= 1, got 0"),
    both_protocols('{"objective": {"benchmark_mode": "median"}}',
                   "objective.benchmark_mode: 'median' is not a valid "
                   "BenchmarkMode"),
    # a key its dataclass lacks, named by its path: the first one in
    # document order, before any value is decoded; escaped if it holds a
    # newline
    *(both_protocols(doc, f"{path}: unknown key") for doc, path in [
        ('{"wf": {"step": 1}}', "wf.step"),
        (STAB % '"windw": 3', "objective.stabilization.windw"),
        ('{"colour": 1}', "colour"),
        ('{"budget": "3", "zz": 1, "aa": 2}', "zz")]),
    bad_config('{"bud\\nget": 1}', "bud\\nget: unknown key"),
    # a key repeated in one object: the last value would otherwise win
    *(both_protocols(doc, f"{path}: repeated key") for doc, path in [
        ('{"budget": 0, "budget": 2}', "budget"),
        ('{"mc": {"seeds": [1], "embargo_days": 3, "seeds": [2]}}',
         "mc.seeds"),
        (STAB % '"window": 3, "window": 3, "window": 4',
         "objective.stabilization.window")]),
    # a string holding a NUL can name no file, nor anything else
    *(both_protocols(doc, f"{path}: holds a NUL character")
      for doc, path in [('{"assets": ["AA", "A\\u0000"]}', "assets[1]"),
                        ('{"out_dir": "out\\u0000"}', "out_dir"),
                        ('{"data_dir": "\\u0000"}', "data_dir"),
                        ('{"strategies": ["rsi\\u0000"]}', "strategies[0]")]),
    # an empty strategy or objective list would run a study of no trial
    *(both_protocols('{"%s": []}' % name, f"{name}: must name at least one")
      for name in ("strategies", "objectives")),
    # a repeated list entry would count its trials twice
    *(bad_config(doc, error) for doc, error in [
        ('{"assets": ["A", "B", "A"]}', "assets[2]: repeats 'A'"),
        ('{"strategies": ["rsi", "rsi"]}', "strategies[1]: repeats 'rsi'"),
        ('{"objectives": ["gt_score", "gt_score", "sharpe"]}',
         "objectives[1]: repeats 'gt_score'"),
        ('{"mc": {"seeds": [42, 43, 42]}}', "mc.seeds[2]: repeats 42")]),
    # embargoes below 0
    *(Case(f"negative_embargo/{command}", f"{command} --config {{d}}/cfg.json",
           1, f"bad run config: {key}.embargo_days: must be >= 0, got -5", {
               "cfg.json": {"data_dir": "{ws}/data", "budget": 1,
                            "out_dir": "{d}/out", key: {"embargo_days": -5}}})
      for command, key in (("montecarlo", "mc"), ("walkforward", "wf"))),
    # one asset, strategy and seed: one pair per comparison, too few for
    # the paired statistics, found before any backtest runs
    Case("too_few_pairs/one pair", MC, 1,
         "need n >= 2 pairs to compare gt_score with a baseline; this study "
         "has 1 (one per asset, strategy and seed)", {"cfg.json": {
             "data_dir": "{ws}/data", "assets": ["AA"],
             "strategies": ["macd"], "mc": {"seeds": [42]}, "budget": 2,
             "out_dir": "{d}/out"}}, before_search=True),
    # a synth manifest that cannot be read, or whose entries are not
    # assets; a value of the wrong JSON type is named by its path, never
    # coerced
    Case("synth_bad_manifest/missing",
         "synth --spec {d}/missing.json --out {d}/data", 1,
         "...cannot read manifest..."),
    *(Case(f"synth_bad_manifest/{error}",
           "synth --spec {d}/m.json --out {d}/data", 1, error,
           {"m.json": text}) for text, error in [
        ("{not json", "bad synthetic manifest: Expecting property name "
         "enclosed in double quotes: line 1 column 2 (char 1)"),
        (manifest(n_days="many"),
         "bad synthetic manifest: assets[0].n_days: expected int, got str"),
        (manifest(regimes=5), "bad synthetic manifest: "
         "assets[0].regimes: expected list, got int")]),
    *(Case(f"synth_bad_manifest/{message}",
           "synth --spec {d}/m.json --out {d}/data", 1, f"...{message}...",
           {"m.json": text}) for text, message in [
        (json.dumps({"assets": [{k: v for k, v in ENTRY.items()
                                 if k != "seed"}]}),
         "bad synthetic manifest: assets[0].seed: missing key"),
        (json.dumps({}), "bad synthetic manifest: assets: missing key"),
        (json.dumps([]),
         "bad synthetic manifest: document: expected dict, got list"),
        (manifest(n_days=600.7), "assets[0].n_days: expected int, got float"),
        (manifest(seed=True), "assets[0].seed: expected int, got bool"),
        (manifest(seed="7"), "assets[0].seed: expected int, got str"),
        (manifest(asset_id=7), "assets[0].asset_id: expected str, got int"),
        (manifest(initial_price=10 ** 400),
         "assets[0].initial_price: int too large to convert to float"),
        (manifest(regimes=[[600, 0, "x"]]),
         "assets[0].regimes[0][2]: expected float, got str"),
        (manifest(start_date=2010),
         "assets[0].start_date: expected str, got int"),
        (manifest(start_date="2010-13-01"),
         "bad synthetic manifest: assets[0].start_date: "),
        (json.dumps({"assets": [ENTRY, ENTRY]}), "assets[1]: repeats"),
        # one CSV per asset_id: a second entry would overwrite the first
        (json.dumps({"assets": [ENTRY, {**ENTRY, "seed": 2}]}),
         "assets[1].asset_id repeats assets[0].asset_id 'AA'"),
        (manifest(colour="red"),
         "bad synthetic manifest: assets[0].colour: unknown key"),
        # a repeated key is named by its path; a later value would win
        (manifest()[:-3] + ', "seed": 2}]}',
         "bad synthetic manifest: assets[0].seed: repeated key"),
        (manifest()[:-1] + ', "assets": []}',
         "bad synthetic manifest: assets: repeated key"),
        # an asset_id names its CSV: one holding a NUL or a "/", or none
        # at all, names no file in the output directory
        (manifest(asset_id="A\0B"), "bad synthetic manifest: "
         "assets[0].asset_id: holds a NUL character"),
        (manifest(asset_id="a/b"), "bad synthetic manifest: "
         "assets[0].asset_id: must name a file, got 'a/b'"),
        (manifest(asset_id=""), "bad synthetic manifest: "
         "assets[0].asset_id: must name a file, got ''"),
        (json.dumps({"assets": [ENTRY], "version": 1}),
         "bad synthetic manifest: version: unknown key"),
        (json.dumps({"assets": [5]}), "assets[0]: expected dict"),
        # lengths that sum to n_days but one is negative
        (manifest(n_days=10, regimes=[[-5, 0.5, 0.0], [15, -0.5, 0.0]]),
         "bad synthetic manifest: assets[0].regimes: need lengths >= 0 "
         "that sum to n_days, finite drifts and finite vols >= 0"),
        # a value out of its field's range is named by its path too
        (manifest(seed=-1), "assets[0].seed: must be >= 0, got -1"),
        (manifest(start_date="9999-12-01"), "assets[0].start_date: its "
         "n_days weekdays must end before 9999-12-31"),
        (manifest(initial_price=math.nan),
         "assets[0].initial_price: must be finite, got nan"),
        (manifest(initial_price=math.inf),
         "assets[0].initial_price: must be finite, got inf"),
        (manifest(regimes=[[600, 0.0, math.nan]]),
         "assets[0].regimes: need lengths >= 0 that sum to n_days, "
         "finite drifts and finite vols >= 0"),
        (json.dumps({"assets": [ENTRY, {k: v for k, v in ENTRY.items()
                                        if k != "n_days"}]}),
         "bad synthetic manifest: assets[1].n_days: missing key")]),
    # an --out that is a file or lies under one, found before any
    # backtest runs
    *(Case(f"study_out_is_a_file/{out}", tuple(
        f"{command} --config {{ws}}/config.json --out {out}"
        for command in ("montecarlo", "walkforward")), 1,
        f"output path {out}: {{d}}/taken is not a directory",
        {"taken": "keep"}, before_search=True)
      for out in ("{d}/taken", "{d}/taken/sub")),
    *(Case(f"costsweep_out_is_a_file/{out}", (
        f"costsweep --trials {{ws}}/mc/trials.csv --out {out}",
        f"synth --spec {{ws}}/manifest.json --out {out}"), 1,
        f"output path {out}: {{d}}/taken is not a directory",
        {"taken": "keep"}) for out in ("{d}/taken", "{d}/taken/sub")),
    # a file a command would write whose path is taken by a directory; the
    # study is refused before any backtest runs, and synth writes not even
    # the manifest's second asset
    Case("costsweep_output_file_is_a_directory/cost_sensitivity.csv",
         "costsweep --trials {ws}/mc/trials.csv --out {d}", 1,
         "output path {d}/cost_sensitivity.csv: not a file",
         {"cost_sensitivity.csv": None}),
    Case("study_output_file_is_a_directory/aggregates.csv",
         "montecarlo --config {ws}/config.json --out {d}", 1,
         "output path {d}/aggregates.csv: not a file",
         {"aggregates.csv": None}, before_search=True),
    Case("synth_output_file_is_a_directory/AA.csv",
         "synth --spec {ws}/manifest.json --out {d}", 1,
         "output path {d}/AA.csv: not a file", {"AA.csv": None}),
    # a path component longer than the file system allows (ENAMETOOLONG)
    *(Case(f"output_path_os_error/{argv.split()[0]}", f"{argv} --out {LONG}",
           1, f"...{LONG}...") for argv in [
        "synth --spec {ws}/manifest.json",
        "montecarlo --config {ws}/config.json",
        "costsweep --trials {ws}/mc/trials.csv", "report"]),
    # `report` and `verify` read a study's trials.csv first: a directory
    # without one, or no directory, is exit 2 naming the file; an --out
    # that is a file, or too long to be a path, is exit 1 naming it, as
    # for the commands that write there
    *(Case(f"report_without_results/{out[:10]}",
           (f"report --out {out}", f"verify --out {out}"), code, error, files)
      for out, code, error, files in [
          ("{d}/empty", 2, "cannot read trials file {d}/empty/trials.csv: ...",
           {"empty": None}),
          ("{d}/none", 2, "cannot read trials file {d}/none/trials.csv: ...",
           {}),
          ("{d}/taken", 1, "output path {d}/taken: {d}/taken is not a "
           "directory", {"taken": "keep"}),
          (LONG, 1, f"[Errno {errno.ENAMETOOLONG}] ...{LONG}...", {})]),
    # an asset CSV that is missing, cannot be read or holds a bad row; the
    # error names the asset
    Case("missing_data/no data directory", MC, 2,
         "no assets configured and no CSVs in {d}/nowhere",
         {"cfg.json": {"data_dir": "{d}/nowhere", "out_dir": "{d}/out"}}),
    *(Case(f"missing_data/{row}", MC, 2, "...2020-01-03...",
           {"cfg.json": CFG, "data/X.csv": f"{GOOD_CSV}{row}\n"})
      for row in ["2020-01-03,11,inf,10,10.8,100",
                  "2020-01-03,11,12,10,10.8,nan",
                  "2020-01-03,11,12,10,10.8,inf"]),
    Case("missing_data/last calendar day", (MC, WF), 2,
         "X: 9999-12-31: date on or after 9999-12-31 (o=11.0 h=12.0 l=10.0 "
         "c=10.8 v=100.0)", {"cfg.json": CFG, "data/X.csv":
                             GOOD_CSV + "9999-12-31,11,12,10,10.8,100\n"}),
    Case("missing_data/short row", MC, 2,
         "X: line 3: expected 6 fields, got 5", {
             "cfg.json": CFG,
             "data/X.csv": f"{GOOD_CSV}2020-01-03,11,12,10,10.8\n"}),
    Case("missing_data/byte order mark", MC, 2,
         "X: line 1: bad header ['\\ufeffdate', 'open', 'high', 'low', "
         "'close', 'volume'], want ['date', 'open', 'high', 'low', 'close', "
         "'volume']", {"cfg.json": CFG, "data/X.csv": "\ufeff" + GOOD_CSV}),
    Case("missing_data/utf-16", MC, 2,
         "cannot read data file {d}/data/X.csv...", {"cfg.json": CFG,
          "data/X.csv": b"\xff\xfe" + GOOD_CSV.encode("utf-16-le")}),
    # an asset too short for any split leaves the study without a cell,
    # after one warning that names it once; a newline in its id is escaped
    # in the warning as in the error
    *(Case(f"missing_data/too short {shown} {command[:10]}", command, 2,
           NO_SPLIT + shown, {"cfg.json": CFG, f"data/{name}.csv": SHORT_CSV},
           warnings=(f"WARNING skipping {shown}: {reason}",))
      for name, shown, command, reason in [
          ("X", "X", MC, "chrono split leaves 21 train / 0 test bars, need "
                         ">= 60 each"),
          ("X", "X", WF, "series ends 2010-02-11, needs to reach 2016-01-31 "
                         "for one split (4y train + 30d embargo + 2y val)"),
          ("X\nY", "X\\nY", MC, "chrono split leaves 21 train / 0 test "
                                "bars, need >= 60 each")]),
    # a configured asset without its file, named escaped; printable
    # non-ASCII is left as it is
    *(Case(f"missing_data/no file {shown}", MC, 2,
           f"cannot read data file {{d}}/data/{shown}.csv: No such file or "
           "directory", {"cfg.json": {**CFG, "assets": [asset]}, "data": None})
      for asset, shown in (("a\nb", "a\\nb"), ("été", "été"))),
    # with no assets configured, each CSV file in the data directory is
    # read as named; a file named only `.csv` names no asset
    Case("missing_data/.csv", MC, 2, "data file {d}/data/.csv names no asset",
         {"cfg.json": CFG, "data/SYN00.csv": GOOD_CSV, "data/.csv": GOOD_CSV}),
    # an asset id that is not UTF-8 text, from a file named in latin-1 or
    # from a JSON escape, is named escaped before any file is read
    *(Case(f"missing_data/latin-1 {assets}", MC, 2,
           "asset id \\udce9t\\udce9 is not UTF-8 text", {
               "cfg.json": {**CFG, "assets": assets},
               "data/SYN00.csv": GOOD_CSV, "data/B.csv": GOOD_CSV,
               f"data/{LATIN1_CSV}": GOOD_CSV})
      for assets in ([], ["\udce9t\udce9", "B"])),
    # a cell longer than csv.field_size_limit() ends each reader in one
    # error line naming the file and line, exit 2: an asset CSV
    # (montecarlo), trials.csv (verify, costsweep) and the cost levels'
    # header line (report, verify). A derived file's body is not parsed but
    # compared with its recomputation, so an oversized cell there, or a
    # row with fewer or more cells than its header, is exit 3
    *(Case(f"oversized_csv_field/{name} line {line} {change.__name__}",
           argvs, code, error, oversized(name, line, change))
      for name, line, change, argvs, code, error in [
          ("data/BB.csv", 3, oversize,
           "montecarlo --config {d}/config.json --out {d}/new", 2,
           f"BB: line 3: {LIMIT}"),
          ("mc/trials.csv", 4, oversize, (
              "verify --out {d}/mc",
              "costsweep --trials {d}/mc/trials.csv --out {d}/new"), 2,
           f"{{d}}/mc/trials.csv line 4: {LIMIT}"),
          ("mc/cost_sensitivity.csv", 1, oversize,
           ("report --out {d}/mc", "verify --out {d}/mc"), 2,
           f"{{d}}/mc/cost_sensitivity.csv line 1: {LIMIT}"),
          ("mc/cost_sensitivity.csv", 2, oversize, "report --out {d}/mc", 3,
           "cost_sensitivity.csv: differs from recomputation"),
          ("mc/aggregates.csv", 2, cut, "report --out {d}/mc", 3,
           "aggregates.csv: differs from recomputation"),
          ("mc/aggregates.csv", 3, extend, "report --out {d}/mc", 3,
           "aggregates.csv: differs from recomputation"),
          ("mc/cost_sensitivity.csv", 3, cut, "verify --out {d}/mc", 3,
           "cost_sensitivity.csv: differs from recomputation"),
          ("mc/cost_sensitivity.csv", 2, extend, "verify --out {d}/mc", 3,
           "cost_sensitivity.csv: differs from recomputation")]),
    # a trials.csv that `costsweep`, `report` and `verify` refuse, naming
    # its line and column; it spells every cell as the writer does: the
    # header in order, integers as `str`, numbers as `repr`, and JSON
    # lists of numbers as strings, spaced as the writer spaces them
    *(Case(f"malformed_trials/{name}", TRIO, 2, error, {"trials.csv": trials})
      for name, trials, error in [
          bad_cell(4, "oos_return", "abc"),
          bad_cell(2, "split_id", "1.5"),
          bad_cell(3, "degenerate", "yes"),
          bad_cell(5, "oos_trade_returns_json", '["0.1", '),
          bad_cell(6, "oos_trade_returns_json", '["0.1", "x"]'),
          bad_cell(7, "oos_trade_returns_json", "[null]"),
          bad_cell(8, "objective", "sharpee"),
          bad_cell(9, "strategy", "bolinger"),
          bad_cell(10, "oos_return", "nan"),
          bad_cell(11, "oos_trade_returns_json", '["inf"]'),
          bad_cell(12, "oos_trade_returns_json", "[true]"),
          bad_cell(13, "oos_trade_returns_json", "[0.1]"),
          bad_cell(14, "oos_trade_returns_json", '"0.1"'),
          bad_cell(15, "oos_trades", "2_7"),
          bad_cell(17, "oos_trade_returns_json", '["0.10"]'),
          bad_cell(18, "oos_trade_returns_json", '["0.1","0.2"]'),
          # JSON that no float holds, or too deep to parse
          bad_cell(19, "oos_trade_returns_json", f"[{'9' * 400}]"),
          bad_cell(20, "oos_trade_returns_json", "[" * 100_000),
          bad_cell(16, "oos_return", lambda cell: f" {cell} "),
          ("truncated", trials_with(
              lambda rows: [*rows[:2], rows[2][:5], *rows[3:]]),
           "{d}/trials.csv line 3, column train_return: ..."),
          ("extended", trials_with(
              lambda rows: [*rows[:13], [*rows[13], "0.1"], *rows[14:]]),
           "{d}/trials.csv line 14: more cells than the header's 14"),
          ("seed as sead", trials_with(lambda rows: [
              ["sead" if c == "seed" else c for c in rows[0]], *rows[1:]]),
           "{d}/trials.csv line 1: header ...seed..."),
          ("widened", trials_with(lambda rows: [
              [*r, "x" if i == 0 else "0"] for i, r in enumerate(rows)]),
           "{d}/trials.csv line 1: header ...oos_trade_returns_json,x is "
           "not..."),
          ("swapped", trials_with(
              lambda rows: [[r[1], r[0], *r[2:]] for r in rows]),
           "{d}/trials.csv line 1: header strategy,asset,objective,..."),
          # each trial once: a repeated row is named with the row it
          # repeats
          ("repeated", trials_with(lambda rows: [*rows, rows[1]]),
           "{d}/trials.csv line 50: repeats the trial of line 2")]),
    # and at least one trial, beside the derived files no trial makes
    Case("malformed_trials/no trials", TRIO, 2, "{d}/trials.csv: no trials",
         NO_TRIALS),
    Case("malformed_trials/a directory", "costsweep --trials {d} --out {d}", 2,
         "cannot read trials file ..."),
    # under a POSIX locale, whose file-system encoding is ASCII, a config
    # naming an asset or an output path that the encoding cannot spell
    # fails in one line, writing nothing; an output path fails before the
    # search runs, as does one a caller passes to costsweep, or a file
    # synth would name by a manifest's asset_id, or a study that `report`
    # or `verify` would read
    Case("ascii_locale/asset", MC, 2, "cannot read data file ...", {
        "cfg.json": {"data_dir": "{d}/data", "assets": ["été"],
                     "out_dir": "{d}/mc"},
        "data/été.csv": copied("data/AA.csv")}, posix=True),
    Case("ascii_locale/montecarlo out_dir", MC, 1,
         "output path repro/\\xe9t\\xe9: the file system encoding (ascii) "
         "cannot name it", {"cfg.json": {
             "data_dir": "{ws}/data", "mc": {"seeds": [42, 43]}, "budget": 2,
             "out_dir": "repro/été"}},
         before_search=True, posix=True),
    Case("ascii_locale/costsweep --out",
         "costsweep --trials {ws}/mc/trials.csv --out {d}/été", 1,
         "output path {d}/\\xe9t\\xe9: the file system encoding (ascii) "
         "cannot name it", posix=True),
    Case("ascii_locale/report --out",
         ("report --out {d}/été", "verify --out {d}/été"), 1,
         "output path {d}/\\xe9t\\xe9: the file system encoding (ascii) "
         "cannot name it", posix=True),
    Case("ascii_locale/synth asset_id",
         "synth --spec {d}/m.json --out {d}/data", 1,
         "output path {d}/data/\\xe9t\\xe9.csv: the file system encoding "
         "(ascii) cannot name it", {"m.json": manifest(asset_id="été")},
         posix=True),
    # `report` prints only what `verify` proves: both pass on each study of
    # `PINNED`, and on each study below both exit with the same code and
    # the same one error line. A derived file that is edited, cut to its
    # header, or not UTF-8 text
    tampered("edited aggregates.csv", 3,
             "aggregates.csv: differs from recomputation",
             {"aggregates.csv": copied("mc/aggregates.csv", lambda text:
                                       text.replace("0.", "1.", 1))}),
    tampered("aggregates.csv cut to its header", 3,
             "aggregates.csv: differs from recomputation",
             {"aggregates.csv": copied("mc/aggregates.csv", header_only)}),
    tampered("aggregates.csv not UTF-8", 2,
             "cannot read file {d}/s/aggregates.csv: 'utf-8' codec can't "
             "decode byte 0xff in position 0: invalid start byte",
             {"aggregates.csv": b"\xff\xfe"}),
    # a cost_sensitivity.csv header whose levels cannot be read back,
    # named with its file
    *(tampered(f"cost header {header}", 2,
               f"{{d}}/s/cost_sensitivity.csv: bad header "
               f"{header.split(',')}: {message}",
               {"cost_sensitivity.csv": header + "\n"})
      for header, message in [
          ("objective,bps_x", "could not convert string to float: 'x'"),
          ("objective,bps_0,bps_nan", f"nan: {LEVELS}"),
          ("objective,bps_-1", f"-1.0: {LEVELS}"),
          ("objective,bps_2,bps_2.0", f"2.0: {LEVELS}"),
          ("objective,bps_0,bps_5000", f"5000.0: {LEVELS}"),
          ("objective,bps_1e308", f"1e+308: {LEVELS}"),
          ("objective,level_5",
           "could not convert string to float: 'level_5'")]),
    # a file the other protocol writes is checked too: a wrong stray
    # trade_counts.csv in a walkforward study
    tampered("stray trade_counts.csv", 3, "trade_counts.csv: differs from "
             "recomputation", {"trade_counts.csv": copied(
                 "mc/trade_counts.csv")}, study=WF_STUDY),
    # a study is complete when one study command's files are all there;
    # when none's are, each command's missing files are named
    tampered("neither protocol's files", 3,
             "splits_genratio.csv, periods.csv (walkforward) or "
             "strategy_means.csv, comparisons.csv, trade_counts.csv "
             "(montecarlo): missing", study=WF_STUDY,
             without=("splits_genratio.csv", "periods.csv")),
    tampered("no comparisons.csv", 3,
             "splits_genratio.csv, periods.csv (walkforward) or "
             "comparisons.csv (montecarlo): missing",
             without=("comparisons.csv",)),
    # a trials.csv that cannot make the paired comparisons is named: the
    # header and one cell's (asset, strategy, split_id, seed) four trials,
    # one pair per comparison, beside a header-only comparisons.csv; and a
    # study missing its first sharpe trial, on line 4
    tampered("one cell", 2, "{d}/s/trials.csv: need n >= 2 pairs to compare "
             "gt_score with sharpe, got 1", {"trials.csv": trials_with(
                 lambda rows: [r for r in rows if r[:2] + r[3:5] in (
                     rows[0][:2] + rows[0][3:5], rows[1][:2] + rows[1][3:5])]),
                 "comparisons.csv": copied("mc/comparisons.csv", header_only)},
             without=("*.csv",)),
    tampered("a sharpe trial dropped", 2,
             "{d}/s/trials.csv: unpaired trials between gt_score and sharpe",
             {"trials.csv": trials_with(lambda rows: rows[:3] + rows[4:])}),
    *config_rules(),
    # a study in which no asset keeps a split, after a warning for each one
    # skipped (their files are read by
    # `test_walkforward_skips_splits_below_two_bars` and
    # `test_zero_day_training_side_skips_the_asset`)
    Case("no_split/walkforward H", WF, 2, NO_SPLIT + "H", {
        "cfg.json": {**CFG, "assets": ["H"], "strategies": ["bollinger"],
                     "budget": 2, "wf": {"train_years": 1, "val_years": 1,
                                         "step_years": 2, "embargo_days": 0}},
        "data/H.csv": lone_days_csv("H", [2011, 2012])},
        warnings=skipped_splits("H", [(1, 365), (366, 1), (0, 1)])),
    Case("no_split/montecarlo S", MC, 2, NO_SPLIT + "S", {
        "cfg.json": {**CFG, "assets": ["S"], "strategies": ["macd"],
                     "budget": 1, "mc": {"seeds": [42, 43], "embargo_days": 0,
                                         "train_fraction": 0.1}},
        "data/S.csv": GOOD_CSV + "2020-01-03,10,11,9,10.4,100\n"
                                 "2020-01-06,10,11,9,10.6,100\n"},
        warnings=("WARNING skipping S: chrono split leaves 0 train / 3 test "
                  "bars, need >= 60 each",)),
    # numbers beyond float range are a data error, named where they are
    # made from outside input: in the search by asset and split, serially
    # and in a pool of two workers (on two copies of the asset), under
    # either periodization and under walkforward (its asset lengthened to
    # one split); in a derived file by the file; in synth by the asset
    *(Case(f"float_fault/spiking {name}", (f"{MC} --jobs 1", f"{MC} --jobs 2"),
           2, "SPK split 0: overflow encountered in square", {
               "cfg.json": {**CFG, "assets": ["SPK", "SPL"], "budget": 5,
                            "mc": {"seeds": [42]}, "objective": objective},
               "data/SPK.csv": spiking(900), "data/SPL.csv": spiking(900)})
      for name, objective in [
          ("n_min 1", {"n_min": 1}),
          ("stabilized", {"periodization": "stabilized"})]),
    Case("float_fault/spiking walkforward", WF, 2,
         "SPK split 0: overflow encountered in accumulate", {
             "cfg.json": {**CFG, "assets": ["SPK"], "budget": 5,
                          "objective": {"n_min": 1}},
             "data/SPK.csv": spiking(1600)}),
    # a loss that Python's float arithmetic takes past float range, as an
    # eps in bounds does for a one-trade window: trials.csv would hold an
    # infinite best_loss, which its reader refuses
    Case("float_fault/loss", MC, 2,
         "AA split 0: overflow encountered in a loss", {
             "cfg.json": {**CFG, "data_dir": "{ws}/data", "assets": ["AA"],
                          "budget": 5, "mc": {"seeds": [42]},
                          "objective": {"n_min": 1, "eps": 5e-324}}}),
    Case("float_fault/falling", MC, 2,
         "FALL split 0: benchmark total return must be > -1", {
             "cfg.json": {**CFG, "assets": ["FALL"], "budget": 2,
                          "mc": {"seeds": [42]}, "objective": {"n_min": 1}},
             "data/FALL.csv": FALLING}),
    Case("float_fault/costsweep", "costsweep --trials {d}/trials.csv --out "
         "{d}/new", 2, "cost_sensitivity.csv: overflow encountered in reduce",
         {"trials.csv": bad_cell(2, "oos_trade_returns_json",
                                 '["1e+200", "1e+200"]')[1]}),
    Case("float_fault/synth", "synth --spec {d}/m.json --out {d}/data", 2,
         "AA: overflow encountered in exp",
         {"m.json": manifest(regimes=[[600, 0.0, 1000.0]])}),
    # a derived cell that Python's float arithmetic takes past float range
    # with no fault, in a study whose derived files hold it as `inf`
    Case("float_fault/gen_ratio", ("verify --out {d}/s", "report --out {d}/s"),
         2, "{d}/s/trials.csv: aggregates.csv: overflow encountered in "
         "gen_ratio", {"s": rebuilt_with("mc", live_returns(
             lambda objective: HUGE_OOS, 1e-10))}),
    Case("float_fault/delta_pp", ("verify --out {d}/s", "report --out {d}/s"),
         2, "{d}/s/trials.csv: periods.csv: overflow encountered in delta_pp",
         {"s": rebuilt_with(WF_STUDY, live_returns(
             lambda objective: WIDE_OOS if objective == "gt_score"
             else -WIDE_OOS, 1.0))}),
]


def run_cases(cases, tmp_path, ws, posix_main):
    """`run_case` on each of `cases`, each in a directory of its own."""
    for i, case in enumerate(cases):
        (tmp_path / str(i)).mkdir()
        run_case(case, tmp_path / str(i), ws, posix_main)


def group_of(case):
    return case.id.split("/")[0]


def in_group(name):
    return [case for case in CASES if group_of(case) == name]


def named(case_id):
    """The one case of `CASES` whose id is `case_id`."""
    (case,) = [case for case in CASES if case.id == case_id]
    return case


# these groups run one row to a test, under the names their tests held
# before the table; every other group runs whole in test_exit_contract
ONE_ROW_GROUPS = ("usage_error", "output_path_os_error")
CONTRACT_GROUPS = [group for group in dict.fromkeys(map(group_of, CASES))
                   if group not in ONE_ROW_GROUPS]


@pytest.mark.parametrize("group", CONTRACT_GROUPS)
def test_exit_contract(group, workspace, tmp_path, posix_main):
    run_cases(in_group(group), tmp_path, workspace[0], posix_main)


@pytest.mark.parametrize("argv, message", USAGE_ERRORS)
def test_usage_error_exit_code(argv, message, workspace, tmp_path,
                               posix_main):
    run_cases([named(f"usage_error/{shlex.join(argv)}")], tmp_path,
              workspace[0], posix_main)


@pytest.mark.parametrize("command", [
    case.id.split("/")[1] for case in in_group("output_path_os_error")])
def test_output_path_os_error_exit_code(command, workspace, tmp_path,
                                        posix_main):
    run_cases([named(f"output_path_os_error/{command}")], tmp_path,
              workspace[0], posix_main)


def test_case_ids_are_unique():
    # so that a failure names its row, and `named` and `pinned` find each one
    for ids in ([case.id for case in CASES], [row.id for row in PINNED]):
        assert len(set(ids)) == len(ids)


@settings(max_examples=50, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(k=st.integers(1, 300), at=st.integers(0, 199),
       length=st.integers(1, 40))
def test_a_spike_is_verified_or_refused_in_one_line(tmp_path, k, at, length):
    # a 10^k-fold spike of `length` bars at bar `at` of a 200-bar asset:
    # the study either passes `verify` or exits 2 in one line, writing
    # nothing. The line names the asset and split when the search faults,
    # or the derived file whose aggregate over every asset leaves float
    # range (a validation trade that rides the spike)
    spiked = np.zeros(200, bool)
    spiked[at:at + length] = True
    (tmp_path / "SPK.csv").write_text(weekday_csv(spiked_closes(
        200, 10.0 ** k, spiked)))
    (tmp_path / "cfg.json").write_text(json.dumps({
        "data_dir": str(tmp_path), "assets": ["SPK"], "budget": 2,
        "objective": {"n_min": 1},
        "mc": {"seeds": [42], "train_fraction": 0.5, "embargo_days": 0}}))
    out = tmp_path / "out"
    shutil.rmtree(out, ignore_errors=True)
    code, stdout, err = in_process(
        ["montecarlo", "--config", str(tmp_path / "cfg.json"), "--out",
         str(out)], tmp_path, False)
    if code == 0:
        assert in_process(["verify", "--out", str(out)], tmp_path,
                          False)[0] == 0
    else:
        assert (code, stdout, out.exists()) == (2, "", False), err
        assert re.fullmatch(r"error: (SPK split 0|%s): [^\n]*\n" % "|".join(
            re.escape(o.name) for o in cli.OUTPUTS), err), err
