"""A mutation ledger: each entry breaks the package in one known way, and the
tests it names must catch it.

    python tools/mutants.py [ID ...]            # each mutant fails its tests
    python tools/mutants.py --matrix [ID ...]   # tier-1 once per mutant

An entry is a file, a snippet that occurs once in it, the snippet's
replacement and the test ids expected to fail, applied in a temporary copy
of the tree. The default mode runs each expected test with `-x` and exits
1 if one passes or is not found. `--matrix` runs tier-1 per mutant, prints
the tests each fails and, per test, its mutants, and exits 1 if a mutant
fails no test, or an `EQUIVALENT` one fails some.
Both take minutes, so neither is in tier-1; there,
`test_mutation_ledger_names_what_exists` checks the ledger's names, and
that each function of `PAPER` holds a mutant's snippet.
"""

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
from collections import namedtuple
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
Mutant = namedtuple("Mutant", "id path snippet replacement tests")


def m(mutant_id, path, snippet, replacement, *tests):
    """A mutant of `src/gtscore/<path>`; `tests` are ids under `tests/`."""
    return Mutant(mutant_id, "src/gtscore/" + path, snippet, replacement,
                  tuple("tests/" + test for test in tests))


LEDGER = [
    # --- the traps the oracles were written for ----------------------------
    m("take_as_fancy_index", "objective.py",
      "levels[np.take(at, bounds, axis=1)]", "levels[at[:, bounds]]",
      "test_objective.py::test_stabilized_variance_is_numpys_to_the_last_bit"),
    m("int64_day_index", "objective.py", "days.size), np.int32)",
      "days.size), np.int64)",
      "test_objective.py::test_stabilized_scan_peak_memory"),
    m("std_from_sum_of_squares", "indicators.py",
      "std = np.sqrt(np.add.reduce(np.square(dev, out=dev), axis=1) / window)",
      "std = np.sqrt(np.maximum(np.add.reduce(views * views, axis=1) / window"
      " - mean * mean, 0.0))",
      "test_indicators.py::test_rolling_stats_match_numpy"),
    m("same_bar_flip_dropped", "strategy.py", "if not both.any():", "if True:",
      "test_strategy.py::test_positions_match_oracle",
      "test_strategy.py::test_rsi_jump_through_both_levels_flips_state"),
    m("plateau_at_threshold", "objective.py", "change < stab.threshold",
      "change <= stab.threshold",
      "test_objective.py::test_stabilized_count_threshold_is_strict"),
    m("gate_strict", "search.py", "len(entry_bars(sig)) >= trade_gate(cfg)",
      "len(entry_bars(sig)) > trade_gate(cfg)",
      "test_search.py::test_run_task_backtests_each_candidate_once"),
    m("training_up_to_val_start", "search.py",
      "(split.train_start, split.train_end)",
      "(split.train_start, split.val_start)",
      "test_invariants.py::test_embargo_gap_keeps_every_row"),
    m("validation_from_train_end", "search.py",
      "(split.val_start, split.val_end)", "(split.train_end, split.val_end)",
      "test_invariants.py::test_embargo_gap_keeps_every_row"),
    # --- one per fast path with an oracle ----------------------------------
    m("rsi_pass_begins_late", "indicators.py",
      "begin = min(seeds, default=n)\n    avg",
      "begin = max(seeds, default=n)\n    avg",
      "test_indicators.py::test_rsi_columns_match_loop"),
    m("ema_multipliers_misaligned", "indicators.py", "row *= mult",
      "row *= mult[::-1]", "test_indicators.py::test_ema_columns_match_loop"),
    m("macd_lines_share_a_column", "indicators.py", "out=lines[:, j]",
      "out=lines[:, 0]", "test_indicators.py::test_macd_columns_match_macd"),
    m("rsi_columns_misassigned", "strategy.py",
      "for j, p in enumerate(periods))",
      "for j, p in enumerate(periods[::-1]))",
      "test_strategy.py::test_pool_signals_match_reference"),
    m("rsi_enters_while_oversold", "strategy.py",
      "(prev < params.oversold) & (ind >= params.oversold)",
      "(ind < params.oversold)",
      "test_strategy.py::test_pool_signals_match_reference",
      "test_strategy.py::test_signals_start_flat_even_if_oversold"),
    m("macd_crosses_swapped", "strategy.py", "enter, leave = (prev <= 0)",
      "leave, enter = (prev <= 0)",
      "test_strategy.py::test_pool_signals_match_reference"),
    m("bollinger_exit_at_lower_band", "strategy.py", "closes >= middle",
      "closes >= lower",
      "test_strategy.py::test_pool_signals_match_reference"),
    m("forced_exit_at_open", "engine.py",
      "np.where(forced, closes[-1], opens[exit_at])",
      "np.where(forced, opens[-1], opens[exit_at])",
      "test_engine.py::test_backtest_matches_oracle",
      "test_engine.py::test_always_long_equals_buy_and_hold"),
    m("entry_on_final_bar", "engine.py", "rises[rises < len(sig) - 2]",
      "rises[rises < len(sig) - 1]",
      "test_engine.py::test_entry_bars_count_the_backtest_trades",
      "test_engine.py::test_backtest_matches_oracle"),
    m("equity_summed", "engine.py",
      "equity_points = np.cumprod(1.0 + trade_returns) - 1.0",
      "equity_points = np.cumsum(trade_returns)",
      "test_engine.py::test_backtest_matches_oracle"),
    m("cost_charged_once_a_trade", "engine.py",
      "1.0 + r - 2.0 * extra_bps_per_side * BPS",
      "1.0 + r - extra_bps_per_side * BPS",
      "test_engine.py::test_backtest_matches_oracle",
      "test_engine.py::test_recompound_hand_value"),
    m("contexts_column_major", "objective.py",
      "x = np.stack([obs[i] for i in rows])",
      "x = np.asfortranarray(np.stack([obs[i] for i in rows]))",
      "test_objective.py::test_grouped_contexts_match_scalar_oracle"),
    m("slice_bounds_floored", "objective.py",
      "np.rint(np.arange(n + 1) * total_days / n)",
      "np.floor(np.arange(n + 1) * total_days / n)",
      "test_objective.py::test_stabilized_count_matches_oracle",
      "test_objective.py::test_period_returns_match_loop_oracle"),
    m("wealth_before_the_bound", "objective.py",
      'np.searchsorted(offsets, days, side="right")',
      'np.searchsorted(offsets, days, side="left")',
      "test_objective.py::test_stabilized_count_matches_oracle",
      "test_objective.py::test_period_returns_match_loop_oracle"),
    m("rows_left_unsorted", "data.py",
      'order = np.argsort(days, kind="stable")',
      "order = np.arange(len(days))",
      "test_data.py::test_parse_matches_row_oracle"),
    m("exact_p_strict_upper_tail", "stats.py", "s >= total - w - 1e-9",
      "s > total - w + 1e-9",
      "test_stats.py::test_exact_p_matches_oracle_random"),
    m("ties_take_the_top_rank", "stats.py",
      "(last - (counts - 1) / 2.0)[tie]", "last[tie]",
      "test_stats.py::test_average_ranks_match_scipy_rankdata"),
    m("normal_p_without_tie_correction", "stats.py",
      "var -= float(np.sum(counts ** 3 - counts)) / 48.0", "var -= 0.0",
      "test_stats.py::test_signed_rank_matches_scipy_approx"),
    m("sampler_top_excluded", "strategy.py", "rng.integers(lo, hi + 1)",
      "rng.integers(lo, hi)",
      "test_strategy.py::test_sampler_hits_range_bounds"),
    m("last_lowest_loss_wins", "search.py",
      "best = start + int(row[start:stop].argmin())",
      "best = stop - 1 - int(row[start:stop][::-1].argmin())",
      "test_search.py::test_degenerate_trial_reports_first_candidate_backtest"),
    m("picks_backtested_again", "search.py",
      "picked = {i: fits[i] if i in fits else run_backtest(train, sigs[i])",
      "picked = {i: run_backtest(train, sigs[i])",
      "test_search.py::test_run_task_backtests_each_candidate_once"),
    m("indicators_per_candidate", "strategy.py",
      "_rule(params, closes, found[params.key])",
      "_rule(params, closes, _indicators(closes, [params.key])[params.key])",
      "test_search.py::test_run_task_computes_each_indicator_once"),
    m("contexts_per_objective", "objective.py",
      "for r, ctx in zip(results, contexts)]",
      "for r, ctx in zip(results, metric_contexts(results, cfg, "
      "observations))]",
      "test_search.py::test_run_task_one_metric_context_per_candidate"),
    m("short_window_kept", "search.py", "if min(bars) < 2:",
      "if min(bars) < 1:",
      "test_cli.py::test_walkforward_skips_splits_below_two_bars"),
    m("trials_in_task_order", "search.py",
      "trials.sort(key=itemgetter(*TRIAL_KEY))", "pass",
      "test_search.py::test_run_trials_canonical_order"),
    # --- one per exit-contract rule ----------------------------------------
    m("data_error_exits_1", "cli.py",
      "return (2 if isinstance(exc, DataError)",
      "return (1 if isinstance(exc, DataError)",
      "test_cli.py::test_exit_contract[missing_data]"),
    m("internal_error_exits_2", "cli.py",
      "3 if isinstance(exc, InternalCheckError)",
      "2 if isinstance(exc, InternalCheckError)",
      "test_cli.py::test_exit_contract[tampered_study]"),
    m("error_over_two_lines", "cli.py",
      'print(f"error: {_one_line(str(exc))}"', 'print(f"error: {exc}"',
      "test_cli.py::test_exit_contract[bad_config]"),
    m("usage_error_from_argparse", "cli.py", "raise ConfigError(message)",
      "super().error(message)", "test_cli.py::test_usage_error_exit_code"),
    m("os_error_uncaught", "cli.py", "except (GtscoreError, OSError) as exc:",
      "except GtscoreError as exc:",
      "test_cli.py::test_output_path_os_error_exit_code",
      "test_cli.py::test_write_failure_changes_no_file"),
    m("float_fault_raised_raw", "data.py",
      'raise DataError(f"{name}: {exc}") from None', "raise",
      "test_cli.py::test_exit_contract[float_fault]"),
    m("temporaries_left_behind", "cli.py", "temp.unlink(missing_ok=True)",
      "pass", "test_cli.py::test_write_failure_changes_no_file"),
    m("made_directories_left_behind", "cli.py",
      "shutil.rmtree(made[-1], ignore_errors=True)", "pass",
      "test_cli.py::test_write_failure_removes_the_directories_it_made"),
    m("output_names_unchecked", "cli.py",
      "if target.exists() and not target.is_file():", "if False:",
      "test_cli.py::test_exit_contract[study_output_file_is_a_directory]"),
    m("trials_spelling_unchecked", "cli.py", "if _cell(row[col]) != text:",
      "if False:", "test_cli.py::test_exit_contract[malformed_trials]"),
    m("repeated_trial_accepted", "cli.py", "if first != reader.line_num:",
      "if False:", "test_cli.py::test_exit_contract[malformed_trials]"),
    m("incomplete_study_accepted", "cli.py", "if all(missing.values()):",
      "if False:", "test_cli.py::test_exit_contract[tampered_study]"),
    m("derived_bytes_unchecked", "cli.py", "if csv_text(cols, data) != text:",
      "if False:", "test_cli.py::test_exit_contract[tampered_study]"),
    m("infinite_cell_written", "cli.py", "if inf:", "if False:",
      "test_cli.py::test_exit_contract[float_fault]"),
    m("bad_json_raised_raw", "cli.py",
      'raise ConfigError(f"config is not valid JSON: {exc}") from None',
      "raise", "test_cli.py::test_exit_contract[bad_config]"),
    m("repeated_key_last_wins", "data.py",
      "doc[(key,) if key in doc else key] = value", "doc[key] = value",
      "test_cli.py::test_exit_contract[bad_config]"),
    m("bounds_unchecked", "data.py",
      "if name in SIGNS and not getattr(operator, name)(value, limit):",
      "if False:", "test_cli.py::test_config_bounds_from_field_metadata"),
    m("empty_list_accepted", "data.py",
      'if f.metadata.get("nonempty") and not value:', "if False:",
      "test_cli.py::test_exit_contract[config_rules]"),
    m("non_finite_volume_accepted", "data.py", "& np.isfinite(v))", ")",
      "test_data.py::test_validation_rejects_bad_ohlc"),
    # --- the paper's formulas (PAPER) --------------------------------------
    # each names the tests the matrix shows failing, less the four that
    # check the digests of whole studies, which fail under most of them
    m("z_band_without_100", "objective.py", "return 100.0 + 100.0 *",
      "return 100.0 *",
      "test_acceptance.py::test_criterion_1_composite_branch_suite",
      "test_objective.py::test_loss_at_z_zero",
      "test_objective.py::test_jump_at_zero_is_exactly_100",
      "test_objective.py::test_negative_z_branch_hand_value",
      "test_objective.py::test_penalty_band_bounded"),
    m("z_zero_in_transition_band", "objective.py", "if z <= 0.0:",
      "if z < 0.0:",
      "test_acceptance.py::test_criterion_1_composite_branch_suite",
      "test_objective.py::test_loss_at_z_zero",
      "test_objective.py::test_jump_at_zero_is_exactly_100",
      "test_objective.py::test_penalty_band_bounded"),
    m("transition_band_dropped", "objective.py", "if z <= 1.0:",
      "if False:",
      "test_acceptance.py::test_criterion_1_composite_branch_suite",
      "test_acceptance.py::test_criterion_7_directional_study",
      "test_objective.py::test_jump_at_zero_is_exactly_100",
      "test_objective.py::test_loss_monotone_decreasing_below_one"),
    m("log1p_of_z", "objective.py", "math.log(z)", "math.log1p(z)",
      "test_acceptance.py::test_criterion_1_composite_branch_suite",
      "test_objective.py::test_continuity_at_z_one",
      "test_objective.py::test_product_branch_hand_value"),
    m("r2_left_out_of_loss", "objective.py", "math.log(z) * ctx.r2",
      "math.log(z)",
      "test_acceptance.py::test_criterion_1_composite_branch_suite",
      "test_acceptance.py::test_criterion_7_directional_study",
      "test_objective.py::test_product_branch_hand_value",
      "test_objective.py::test_product_branch_rewards_consistency"),
    m("loss_gate_inclusive", "objective.py", "if ctx.n < trade_gate(cfg):",
      "if ctx.n <= trade_gate(cfg):",
      "test_objective.py::test_n_min_gate_composite",
      "test_objective.py::test_stabilized_losses_gate_at_one_observation"),
    m("baseline_gate_inclusive", "objective.py",
      "ctx.n < trade_gate(cfg) else loss()",
      "ctx.n <= trade_gate(cfg) else loss()",
      "test_objective.py::test_stabilized_losses_gate_at_one_observation"),
    m("sharpe_on_downside_deviation", "objective.py",
      "-sharpe(ctx.mu, ctx.sigma, cfg.eps)",
      "-sharpe(ctx.mu, ctx.sigma_d, cfg.eps)",
      "test_objective.py::test_baseline_losses_oriented",
      "test_search.py::test_gated_pick_keeps_its_training_backtest"),
    m("stabilized_gate_is_n_min", "objective.py",
      "STABILIZED:\n        return 1", "STABILIZED:\n        return cfg.n_min",
      "test_cli.py::test_trial_rows_round_trip_returns",
      "test_cli.py::test_costsweep_wiped_out_trade_loses_its_stake",
      "test_cli.py::test_cost_zero_level_matches_oos_mean",
      "test_cli.py::test_exit_contract[float_fault]",
      "test_objective.py::test_stabilized_losses_gate_at_one_observation",
      "test_objective.py::test_pool_losses_stabilized_match_single_candidate_pools",
      "test_search.py::test_run_task_stabilized_matches_uncached_oracle"),
    m("scan_guard_span_strict", "objective.py", "total_days >= lo",
      "total_days > lo",
      "test_objective.py::test_stabilized_count_matches_oracle"),
    m("scan_guard_need_strict", "objective.py", "need <= hi - lo",
      "need < hi - lo",
      "test_objective.py::test_stabilized_count_matches_oracle",
      "test_objective.py::test_stabilized_variance_is_numpys_to_the_last_bit"),
    m("flat_variance_never_settles", "objective.py",
      "np.where(var == 0.0, 0.0, np.inf)",
      "np.where(var == 0.0, np.inf, np.inf)",
      "test_objective.py::test_stabilized_count_matches_oracle",
      "test_objective.py::test_stabilized_count_plateaus_on_flat_equity"),
    m("fallback_at_top_of_range", "objective.py",
      "r = returns(stab.fallback)", "r = returns(hi)",
      "test_objective.py::test_stabilized_count_matches_oracle",
      "test_objective.py::test_stabilized_count_threshold_is_strict",
      "test_objective.py::test_stabilized_variance_is_numpys_to_the_last_bit",
      "test_objective.py::test_stabilized_pool_rows_choose_their_own_counts",
      "test_objective.py::test_stabilized_count_short_span_falls_back",
      "test_search.py::test_run_task_stabilized_matches_uncached_oracle"),
    m("z_over_sqrt_n_minus_1", "metrics.py", "sigma / math.sqrt(n) + eps",
      "sigma / math.sqrt(n - 1) + eps",
      "test_cli.py::test_exit_contract[float_fault]",
      "test_cli.py::test_a_spike_is_verified_or_refused_in_one_line",
      "test_metrics.py::test_z_score_hand_value",
      "test_metrics.py::test_z_score_sign_property",
      "test_objective.py::test_grouped_contexts_match_scalar_oracle",
      "test_search.py::test_run_task_backtests_each_candidate_once",
      "test_search.py::test_run_task_one_metric_context_per_candidate",
      "test_search.py::test_run_trials_spawn_pool_matches_serial",
      "test_search.py::test_run_task_matches_uncached_oracle"),
    m("r2_floor_dropped", "metrics.py",
      "r2 = np.maximum(1.0 - ss_res / ss_tot, 0.0)",
      "r2 = 1.0 - ss_res / ss_tot",
      "test_metrics.py::test_r_squared_flat_curve_is_zero"),
    m("flat_equity_scores_one", "metrics.py",
      "np.where(ss_tot == 0.0, 0.0, r2)", "np.where(ss_tot == 0.0, 1.0, r2)",
      "test_metrics.py::test_r_squared_flat_curve_is_zero",
      "test_objective.py::test_grouped_contexts_match_scalar_oracle"),
    m("gen_ratio_at_zero_train_mean", "metrics.py", "if train_mean <= 0.0:",
      "if train_mean < 0.0:",
      "test_metrics.py::test_generalization_ratio"),
    m("benchmark_mean_arithmetic", "engine.py",
      "return float((1.0 + benchmark_total_return) ** (1.0 / n) - 1.0)",
      "return float(benchmark_total_return / n)",
      "test_acceptance.py::test_criterion_7_directional_study",
      "test_engine.py::test_geometric_benchmark_identity",
      "test_objective.py::test_metric_context_fields"),
    m("t_test_n_degrees", "stats.py", "stdtr(n - 1, -abs(t))",
      "stdtr(n, -abs(t))",
      "test_stats.py::test_t_test_matches_scipy"),
    m("normal_p_without_continuity", "stats.py", "(w - mean + 0.5)",
      "(w - mean)",
      "test_stats.py::test_signed_rank_matches_scipy_approx",
      "test_stats.py::test_normal_p_reasonable_for_moderate_n"),
    m("normal_p_cap_dropped", "stats.py", "return w, min(p, 1.0)",
      "return w, p",
      "test_stats.py::test_signed_rank_matches_scipy_approx",
      "test_stats.py::test_normal_p_reasonable_for_moderate_n"),
    m("cohens_d_over_na_plus_nb", "stats.py", "(na + nb - 2)", "(na + nb)",
      "test_stats.py::test_cohens_d_hand_value"),
    m("splits_without_embargo", "data.py",
      "val_start = train_end + dt.timedelta(days=embargo_days)",
      "val_start = train_end",
      "test_acceptance.py::test_criterion_8_protocol_shape",
      "test_cli.py::test_exit_contract[missing_data]",
      "test_data.py::test_walkforward_default_split_count",
      "test_data.py::test_walkforward_split_geometry",
      "test_search.py::test_walkforward_spec_count"),
    m("val_std_sample", "cli.py",
      'float(np.std([r["oos_return"] for r in sub]))',
      'float(np.std([r["oos_return"] for r in sub], ddof=1))',
      "test_cli.py::test_walkforward_skips_splits_below_two_bars",
      "test_cli.py::test_study_settings_reach_splits",
      "test_search.py::test_aggregate_all_degenerate_gives_nan_ratio",
      "test_search.py::test_aggregate_by_split_and_period"),
    m("delta_pp_times_1000", "cli.py", "(gt - base) * 100.0",
      "(gt - base) * 1000.0",
      "test_search.py::test_aggregate_by_split_and_period"),
]

# Mutants that no input can tell from the package, each with its reason.
# They expect no test; `--matrix` exits 1 if a test fails one.
EQUIVALENT = [
    (m("t_test_cap_dropped", "stats.py", "min(p, 1.0), mean_diff",
       "p, mean_diff"),
     "2 * stdtr(df, x) never exceeded 1 for x <= 0, over df 1-1,999 and "
     "4,001 values of x; the cap stays, as that bound rests on scipy's "
     "kernel, not on algebra"),
]

# The paper's functions, by file under src/gtscore: tier-1 checks that each
# holds the snippet of at least one mutant above.
PAPER = {
    "objective.py": ("gt_score_loss", "baseline_loss", "trade_gate",
                     "stabilized_period_returns"),
    "metrics.py": ("z_score", "r_squared_consistency",
                   "generalization_ratio"),
    "engine.py": ("benchmark_per_observation_mean",),
    "stats.py": ("paired_t_test", "wilcoxon_normal_p", "cohens_d_pooled"),
    "data.py": ("make_walkforward_splits",),
    "cli.py": ("aggregate_by_period",),
}


def in_copy(mutant, *args):
    """pytest in a temporary copy of the tree with `mutant` (or None)
    applied, without a cache and with Hypothesis's draws fixed, so that a
    rerun fails the same tests. Reporting a failed Hypothesis test warns
    that `mypy_extensions` is deprecated, which tier-1 turns into an
    INTERNALERROR ending the run; that warning is ignored here."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        root = Path(tmp) / "tree"
        shutil.copytree(ROOT, root, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".pytest_cache", ".hypothesis"))
        if mutant:
            path = root / mutant.path
            text = path.read_text()
            if text.count(mutant.snippet) != 1:
                sys.exit(f"{mutant.id}: snippet not once in {mutant.path}")
            path.write_text(text.replace(mutant.snippet, mutant.replacement))
        return subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
             "--hypothesis-seed=0", "-W", "ignore:mypy_extensions.TypedDict "
             "is deprecated:DeprecationWarning", *args],
            cwd=root, env={**os.environ, "PYTHONPATH": str(root / "src")},
            capture_output=True, text=True, timeout=1800)


def failing(run):
    """The ids of the tests a `-rfE` run reports failed or in error."""
    return [line.split(" ", 1)[1].split(" - ", 1)[0]
            for line in run.stdout.splitlines()
            if line.startswith(("FAILED ", "ERROR "))]


def check(mutants):
    """Each expected test must fail (exit 1) under its mutant; pytest exits
    4 on an id it cannot find."""
    missed = 0
    for mutant in mutants:
        for test in mutant.tests:
            code = in_copy(mutant, "-x", test).returncode
            missed += code != 1
            outcome = {0: "PASSES", 1: "fails", 4: "NOT FOUND"}.get(
                code, f"EXITS {code}")
            print(f"{mutant.id}: {test} {outcome}", flush=True)
    print(f"{len(mutants)} mutants, {missed} expected tests not failing")
    return 1 if missed else 0


def matrix(mutants):
    """Tier-1 per mutant; failures already there unmutated are left out.
    The ledger's own guard fails under every mutant and is deselected."""
    tier1 = ("--continue-on-collection-errors", "-rfE", "--deselect",
             "tests/test_cli.py::test_mutation_ledger_names_what_exists")
    known = set(failing(in_copy(None, *tier1)))
    print(f"unmutated: {sorted(known)} fail", flush=True)
    equivalent = {mutant.id for mutant, _ in EQUIVALENT}
    under, empty, caught = {}, [], []
    for mutant in mutants:
        tests = [t for t in failing(in_copy(mutant, *tier1)) if t not in known]
        print(f"{mutant.id}: {len(tests)} fail", *tests, sep="\n    ",
              flush=True)
        for test in tests:
            under.setdefault(test, []).append(mutant.id)
        if not tests and mutant.id not in equivalent:
            empty.append(mutant.id)
        if tests and mutant.id in equivalent:
            caught.append(mutant.id)
    print("\nper test, the mutants it fails under:")
    for test, ids in sorted(under.items()):
        print(f"{test}  {' '.join(ids)}")
    print(f"{len(mutants)} mutants; caught by no test: {empty or 'none'}; "
          f"equivalent but caught: {caught or 'none'}")
    return 1 if empty or caught else 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("ids", nargs="*", help="mutants to run (default all)")
    parser.add_argument("--matrix", action="store_true",
                        help="run all of tier-1 per mutant")
    args = parser.parse_args(argv)
    every = LEDGER + [mutant for mutant, _ in EQUIVALENT]
    known = {mutant.id: mutant for mutant in every}
    if unknown := [i for i in args.ids if i not in known]:
        parser.error(f"unknown mutant ids: {unknown}")
    mutants = [known[i] for i in args.ids] or every
    return (matrix if args.matrix else check)(mutants)


if __name__ == "__main__":
    sys.exit(main())
