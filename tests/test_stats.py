"""Paired statistics against independent oracles."""

import math

import numpy as np
import pytest
import scipy.stats
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gtscore.errors import ConfigError
from gtscore.stats import (
    WILCOXON_EXACT_MAX_N,
    _average_ranks,
    _exact_p,
    _signed_ranks,
    cohens_d_pooled,
    compare_paired,
    paired_t_test,
    wilcoxon_normal_p,
    wilcoxon_signed_rank,
)


# --- independent exact oracle (dynamic program over the rank multiset) -----


def oracle_ranks(d):
    """Average ranks of |d| after dropping zeros, computed by sorting."""
    d = [x for x in d if x != 0.0]
    order = sorted(range(len(d)), key=lambda i: abs(d[i]))
    ranks = [0.0] * len(d)
    i = 0
    while i < len(order):
        j = i
        while (j + 1 < len(order)
               and abs(d[order[j + 1]]) == abs(d[order[i]])):
            j += 1
        avg = (i + j) / 2.0 + 1.0
        for k in range(i, j + 1):
            ranks[order[k]] = avg
        i = j + 1
    return d, ranks


def oracle_exact_p(d):
    """Two-sided exact p via a subset-sum count of the W+ distribution."""
    d, ranks = oracle_ranks(list(d))
    n = len(d)
    if n == 0:
        return 1.0
    ranks2 = [int(round(2 * r)) for r in ranks]  # doubled ranks are integers
    counts = {0: 1}
    for r in ranks2:
        new = {}
        for s, c in counts.items():
            new[s] = new.get(s, 0) + c
            new[s + r] = new.get(s + r, 0) + c
        counts = new
    total2 = sum(ranks2)
    w_plus2 = sum(r for x, r in zip(d, ranks2) if x > 0)
    w2 = min(w_plus2, total2 - w_plus2)
    hits = sum(c for s, c in counts.items()
               if s <= w2 or s >= total2 - w2)
    return min(hits / 2 ** n, 1.0)


# --- t-test ----------------------------------------------------------------


def test_t_test_matches_scipy():
    rng = np.random.Generator(np.random.Philox(41))
    for _ in range(50):
        n = int(rng.integers(3, 80))
        a = rng.standard_normal(n)
        b = rng.standard_normal(n) + 0.1
        t, p, mean_diff = paired_t_test(a, b)
        want = scipy.stats.ttest_rel(a, b)
        assert t == pytest.approx(want.statistic, abs=1e-10)
        assert p == pytest.approx(want.pvalue, abs=1e-12)
        assert mean_diff == pytest.approx(float((a - b).mean()))


def test_t_test_constant_difference():
    a = np.array([1.0, 2.0, 3.0])
    t, p, mean_diff = paired_t_test(a, a - 0.5)
    assert (t, p, mean_diff) == (0.0, 1.0, 0.5)


# --- Wilcoxon --------------------------------------------------------------


def wilcoxon_exact_p(d):
    """The package's exact two-sided p of the differences `d`."""
    return _exact_p(*_signed_ranks(np.asarray(d, dtype=float)))


# tie-heavy floats: a few distinct magnitudes, all repeated, or any float
tied_values = st.one_of(
    st.lists(st.sampled_from([0.0, 0.5, 1.0, 1.5, 2.0, 1e-300, 1e300]),
             max_size=40),
    st.integers(0, 40).flatmap(
        lambda n: st.floats(-1e6, 1e6).map(lambda v: [v] * n)),
    st.lists(st.floats(allow_nan=False), max_size=40))


@settings(max_examples=300, deadline=None)
@given(values=tied_values)
@example(values=[])
@example(values=[2.5] * 7)
def test_average_ranks_match_scipy_rankdata(values):
    x = np.array(values, dtype=float)
    ranks, want = _average_ranks(x), scipy.stats.rankdata(x)
    assert ranks.dtype == want.dtype
    assert np.array_equal(ranks, want)


def test_exact_p_matches_oracle_random():
    rng = np.random.Generator(np.random.Philox(42))
    samples = [rng.standard_normal(int(rng.integers(2, WILCOXON_EXACT_MAX_N + 1)))
               for _ in range(100)]
    # tie-heavy half-integer differences with zeros, every n up to the limit
    samples += [rng.integers(-4, 5, size=n) / 2.0
                for n in range(WILCOXON_EXACT_MAX_N + 1) for _ in range(20)]
    for d in samples:
        assert wilcoxon_exact_p(d) == oracle_exact_p(d)


def test_exact_p_handles_ties_and_zeros():
    d = np.array([0.0, 1.0, 1.0, -1.0, 2.0, -3.0, 3.0])
    assert wilcoxon_exact_p(d) == pytest.approx(oracle_exact_p(d), abs=1e-12)
    assert wilcoxon_exact_p(np.zeros(5)) == 1.0


def test_exact_small_case_by_hand():
    # n = 3 distinct ranks, all positive: W- = 0, most extreme outcome.
    # Two of eight sign patterns are as extreme: p = 0.25.
    assert wilcoxon_exact_p(np.array([1.0, 2.0, 3.0])) == pytest.approx(0.25)


def test_exact_rejects_large_n():
    with pytest.raises(ConfigError, match="exact enumeration limited"):
        wilcoxon_exact_p(np.arange(1.0, 15.0))


def test_signed_rank_matches_scipy_exact():
    # every n up to the limit takes the exact p
    rng = np.random.Generator(np.random.Philox(44))
    for _ in range(50):
        n = int(rng.integers(2, WILCOXON_EXACT_MAX_N + 1))
        a = rng.standard_normal(n)
        b = rng.standard_normal(n)
        w, p = wilcoxon_signed_rank(a, b)
        want = scipy.stats.wilcoxon(a, b, method="exact")
        assert w == pytest.approx(want.statistic)
        assert p == pytest.approx(want.pvalue, abs=1e-12)


def test_signed_rank_matches_scipy_approx():
    # continuous differences, and half-integer ones whose ties shrink the
    # variance (zeros among them are dropped, leaving more than 12)
    rng = np.random.Generator(np.random.Philox(45))
    for ties in [False, True] * 15:
        n = int(rng.integers(WILCOXON_EXACT_MAX_N + 1, 60))
        a = rng.standard_normal(n)
        b = rng.standard_normal(n)
        if ties:
            a, b = rng.integers(-4, 5, size=n + 30) / 2.0, np.zeros(n + 30)
        w, p = wilcoxon_signed_rank(a, b)
        want = scipy.stats.wilcoxon(a, b, method="approx", correction=True)
        assert w == pytest.approx(want.statistic)
        assert p == pytest.approx(want.pvalue, abs=1e-9)


def test_normal_p_reasonable_for_moderate_n():
    # The worst-case gap between the corrected normal approximation and
    # exact enumeration falls below 0.02 only from n = 9 upward (it is
    # 0.0201 at n = 8 and grows as n shrinks), so this checks the regime
    # where that bound provably holds.
    rng = np.random.Generator(np.random.Philox(46))
    for _ in range(50):
        n = int(rng.integers(9, WILCOXON_EXACT_MAX_N + 1))
        d = rng.standard_normal(n)
        _, approx = wilcoxon_normal_p(d)
        assert abs(approx - oracle_exact_p(d)) < 0.02


def test_signed_rank_all_equal():
    a = np.ones(6)
    assert wilcoxon_signed_rank(a, a) == (0.0, 1.0)


# --- effect size -----------------------------------------------------------


def test_cohens_d_hand_value():
    a = np.array([1.0, 2.0, 3.0])
    b = np.array([2.0, 4.0, 6.0])
    # pooled variance (1 + 4) * 2 / 4 = 2.5
    assert cohens_d_pooled(a, b) == pytest.approx(-2.0 / math.sqrt(2.5))


def test_cohens_d_degenerate():
    assert cohens_d_pooled(np.ones(4), np.ones(4)) == 0.0
    assert math.isnan(cohens_d_pooled(np.ones(4), np.zeros(4)))


def test_compare_paired_bundles_everything():
    rng = np.random.Generator(np.random.Philox(47))
    a = rng.standard_normal(20)
    b = rng.standard_normal(20) + 0.3
    cmp = compare_paired(a, b)
    # the comparisons.csv columns after `comparison`, in file order
    assert list(cmp) == ["mean_diff", "t_stat", "p_value_t", "wilcoxon_stat",
                         "wilcoxon_p", "cohens_d", "n"]
    assert cmp["n"] == 20
    t, p, mean_diff = paired_t_test(a, b)
    assert (cmp["t_stat"], cmp["p_value_t"], cmp["mean_diff"]) == (
        t, p, mean_diff)
    w, pw = wilcoxon_signed_rank(a, b)
    assert (cmp["wilcoxon_stat"], cmp["wilcoxon_p"]) == (w, pw)
    assert cmp["cohens_d"] == cohens_d_pooled(a, b)
