"""CLI end-to-end: config, synth, studies, costsweep, report, verify."""

import hashlib
import json

import numpy as np
import pytest

from gtscore.cli import (
    MonteCarloConfig,
    RunConfig,
    load_config,
    main,
    parse_seed_range,
    read_trials_csv,
    trade_returns_from_row,
)
from gtscore.errors import ConfigError

# Byte-level pins on the outputs of the runs below. A change to any of them
# is a change of behaviour and must be deliberate.
SYNTH_AA_SHA256 = (
    "f9b000129f7ab5510e4e1dc2fb892ab2c281ba8009b5af5a0f3fe87a569ad75b")
MONTECARLO_TRIALS_SHA256 = (
    "c39c72fa3bf4f9bd3ae214f3f03707574fddae9dfdbe25946d4b26a4bc0bb878")
WALKFORWARD_TRIALS_SHA256 = (
    "1a6e3e2384733c226f010aa7313fa39b257bde47bedb54793b4a88ba1faec9e1")


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
    cfg_path.write_text(json.dumps(cfg.to_json()))
    assert main(["montecarlo", "--config", str(cfg_path)]) == 0
    return root, cfg_path


def test_config_init_round_trips(tmp_path):
    out = tmp_path / "cfg.json"
    assert main(["config", "init", "--out", str(out)]) == 0
    cfg = load_config(str(out))
    assert cfg == RunConfig()


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


def test_parse_seed_range():
    assert parse_seed_range("42..44") == [42, 43, 44]
    assert parse_seed_range("7..7") == [7]
    with pytest.raises(ConfigError):
        parse_seed_range("44..42")
    with pytest.raises(ConfigError):
        parse_seed_range("42-44")


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
        returns = trade_returns_from_row(r)
        assert returns.size == r["oos_trades"]
        if returns.size:
            total = float(np.prod(1 + returns) - 1)
            assert total == pytest.approx(r["oos_return"], abs=1e-12)


def test_montecarlo_reruns_identically(workspace, tmp_path):
    root, cfg_path = workspace
    out2 = tmp_path / "mc2"
    assert main(["montecarlo", "--config", str(cfg_path),
                 "--out", str(out2)]) == 0
    a = (root / "mc" / "trials.csv").read_bytes()
    b = (out2 / "trials.csv").read_bytes()
    assert a == b


def test_seed_range_overrides_config(workspace, tmp_path):
    root, cfg_path = workspace
    out = tmp_path / "mc_seed"
    assert main(["montecarlo", "--config", str(cfg_path), "--out", str(out),
                 "--seed-range", "50..50"]) == 0
    rows = read_trials_csv(out / "trials.csv")
    assert {r["seed"] for r in rows} == {50}


def test_costsweep_and_report(workspace, capsys):
    root, _ = workspace
    out = root / "mc"
    assert main(["costsweep", "--trials", str(out / "trials.csv"),
                 "--out", str(out), "--bps", "0,5,10"]) == 0
    text = (out / "cost_sensitivity.csv").read_text()
    assert text.splitlines()[0] == "objective,bps_0,bps_5,bps_10"

    assert main(["report", "--out", str(out)]) == 0
    assert (out / "report.txt").exists()
    assert (out / "fig_genratio_bars.csv").read_text() == (
        out / "aggregates.csv").read_text()
    assert (out / "fig_cost_curves.csv").exists()

    capsys.readouterr()
    assert main(["costsweep", "--trials", str(out / "trials.csv"),
                 "--out", str(out / "bad"), "--bps", "0,x"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: bad --bps level: ") and "'x'" in err
    assert err.count("\n") == 1


def test_cost_zero_level_matches_oos_mean(workspace):
    root, _ = workspace
    out = root / "mc"
    rows = read_trials_csv(out / "trials.csv")
    lines = (out / "cost_sensitivity.csv").read_text().splitlines()
    cols = lines[0].split(",")
    for line in lines[1:]:
        cells = dict(zip(cols, line.split(",")))
        sub = [r["oos_return"] for r in rows
               if r["objective"] == cells["objective"]]
        assert float(cells["bps_0"]) == pytest.approx(
            float(np.mean(sub)), abs=1e-12)


def test_verify_passes_then_catches_tampering(workspace, tmp_path, capsys):
    root, _ = workspace
    out = root / "mc"
    assert main(["verify", "--out", str(out)]) == 0

    import shutil
    broken = tmp_path / "broken"
    shutil.copytree(out, broken)
    agg = broken / "aggregates.csv"
    agg.write_text(agg.read_text().replace("0.", "1.", 1))
    assert main(["verify", "--out", str(broken)]) == 3


def test_walkforward_end_to_end(tmp_path):
    # ~9.2 calendar years of weekdays -> 4 rolling splits
    manifest = {"assets": [{
        "asset_id": "WF", "n_days": 2400, "initial_price": 100.0,
        "regimes": [[2400, 0.0005, 0.015]], "seed": 4}]}
    spec_path = tmp_path / "m.json"
    spec_path.write_text(json.dumps(manifest))
    data_dir = tmp_path / "data"
    assert main(["synth", "--spec", str(spec_path),
                 "--out", str(data_dir)]) == 0

    cfg = RunConfig(data_dir=str(data_dir), budget=3,
                    out_dir=str(tmp_path / "wf"))
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg.to_json()))
    assert main(["walkforward", "--config", str(cfg_path),
                 "--jobs", "2"]) == 0
    out = tmp_path / "wf"
    rows = read_trials_csv(out / "trials.csv")
    splits = {r["split_id"] for r in rows}
    assert splits == set(range(4))
    assert len(rows) == 3 * 4 * 4
    assert sha256_of(out / "trials.csv") == WALKFORWARD_TRIALS_SHA256
    for name in ("aggregates.csv", "periods.csv", "splits_genratio.csv"):
        assert (out / name).exists(), name
    assert main(["verify", "--out", str(out)]) == 0


def test_missing_data_exit_code(tmp_path, capsys):
    cfg = RunConfig(data_dir=str(tmp_path / "nowhere"),
                    out_dir=str(tmp_path / "out"))
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg.to_json()))
    assert main(["montecarlo", "--config", str(cfg_path)]) == 2

    # non-finite values are data errors too, reported in one line
    data_dir = tmp_path / "data"
    data_dir.mkdir()
    cfg = RunConfig(data_dir=str(data_dir), out_dir=str(tmp_path / "out"))
    cfg_path.write_text(json.dumps(cfg.to_json()))
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


def test_bad_config_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"wf": 5}')
    assert main(["montecarlo", "--config", str(bad)]) == 1
    stabilization = ['"window": 0', '"n_range": [0, 5]', '"n_range": [50, 10]',
                     '"threshold": -1', '"n_range": [10]', '"fallback": 0']
    for doc in ['{"budget": "3"}', '{"mc": {"seeds": "12"}}',
                '{"strategies": ["bogus"]}', '{"objectives": ["bogus"]}'] + [
            '{"objective": {"stabilization": {%s}}}' % item
            for item in stabilization]:
        bad.write_text(doc)
        capsys.readouterr()
        assert main(["montecarlo", "--config", str(bad)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: bad run config: ")
        assert err.count("\n") == 1


def test_report_without_results_exit_code(tmp_path):
    empty = tmp_path / "empty"
    empty.mkdir()
    assert main(["report", "--out", str(empty)]) == 2
