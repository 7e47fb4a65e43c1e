"""Paired comparisons between objectives: t-test, Wilcoxon, Cohen's d.

It takes the package's own values unchecked: `cli.paired_comparisons`
passes at least 2 aligned pairs, inside `cli.derive`'s float-fault boundary.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import ndtr, stdtr

from .errors import ConfigError

# Exact signed-rank enumeration is used at or below this sample size
# (a 2^n x n matrix of sign patterns).
WILCOXON_EXACT_MAX_N = 12


def paired_t_test(a: np.ndarray, b: np.ndarray) -> tuple[float, float, float]:
    """Two-sided paired t-test; returns (t, p, mean_diff).

    Degenerate case of identical differences everywhere (zero sample std)
    returns t = 0, p = 1.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    n = a.size
    d = a - b
    mean_diff = float(d.mean())
    s_d = float(d.std(ddof=1))
    if s_d == 0.0:
        return 0.0, 1.0, mean_diff
    t = mean_diff / (s_d / math.sqrt(n))
    p = 2.0 * float(stdtr(n - 1, -abs(t)))
    return float(t), min(p, 1.0), mean_diff


def _average_ranks(x: np.ndarray) -> np.ndarray:
    """1-based ranks; tied values share the mean of the ranks they span."""
    _, tie, counts = np.unique(x, return_inverse=True, return_counts=True)
    last = np.cumsum(counts)  # rank of each tie group's last value
    return (last - (counts - 1) / 2.0)[tie]


def _signed_ranks(d: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
    """Drop zero differences; average ranks of |d| for ties; W = min(W+, W-)."""
    d = d[d != 0.0]
    ranks = _average_ranks(np.abs(d))
    w_plus = float(ranks[d > 0].sum())
    return d, ranks, min(w_plus, float(ranks.sum()) - w_plus)


def _exact_p(d: np.ndarray, ranks: np.ndarray, w: float) -> float:
    """Two-sided exact p, P(W+ <= w) + P(W+ >= T - w) by symmetry: the
    tails' share of the 2^n sign patterns, so at most 1 by construction."""
    n = d.size
    if n > WILCOXON_EXACT_MAX_N:  # keeps the matrix at 2^12 rows at most
        raise ConfigError(f"exact enumeration limited to n <= {WILCOXON_EXACT_MAX_N}")
    total = float(ranks.sum())
    # W+ of every sign pattern; half-integer rank sums are exact in float64
    signs = (np.arange(1 << n)[:, None] >> np.arange(n)) & 1
    s = signs @ ranks
    count = int(np.count_nonzero((s <= w + 1e-9) | (s >= total - w - 1e-9)))
    return count / (1 << n)


def wilcoxon_normal_p(d: np.ndarray) -> tuple[float, float]:
    """Two-sided normal-approximation p with tie-corrected variance and a
    0.5 continuity correction; returns (W, p) with W = min(W+, W-)."""
    d, _, w = _signed_ranks(np.asarray(d, dtype=float))
    n = d.size
    if n == 0:
        return 0.0, 1.0
    mean = n * (n + 1) / 4.0
    var = n * (n + 1) * (2 * n + 1) / 24.0
    _, counts = np.unique(np.abs(d), return_counts=True)
    var -= float(np.sum(counts ** 3 - counts)) / 48.0
    if var <= 0.0:
        return w, 1.0
    z = (w - mean + 0.5) / math.sqrt(var)
    p = 2.0 * float(ndtr(z))
    return w, min(p, 1.0)


def wilcoxon_signed_rank(a: np.ndarray, b: np.ndarray) -> tuple[float, float]:
    """Paired signed-rank test; exact enumeration for small samples, else
    the tie-corrected normal approximation. Returns (W, two-sided p)."""
    d = np.asarray(a, dtype=float) - np.asarray(b, dtype=float)
    if np.count_nonzero(d) > WILCOXON_EXACT_MAX_N:
        return wilcoxon_normal_p(d)
    d, ranks, w = _signed_ranks(d)
    return w, _exact_p(d, ranks, w)


def cohens_d_pooled(a: np.ndarray, b: np.ndarray) -> float:
    """Pooled-variance effect size between two groups (sample variances).

    Returns 0 when both groups are constant with equal means; NaN when
    constant with different means.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    na, nb = a.size, b.size
    pooled_var = ((na - 1) * a.var(ddof=1) + (nb - 1) * b.var(ddof=1)) / (na + nb - 2)
    diff = float(a.mean() - b.mean())
    if pooled_var == 0.0:
        return 0.0 if diff == 0.0 else math.nan
    return diff / math.sqrt(float(pooled_var))


def compare_paired(a: np.ndarray, b: np.ndarray) -> dict:
    """The statistics of a minus b by `comparisons.csv` column, in order."""
    t, p_t, mean_diff = paired_t_test(a, b)
    w, p_w = wilcoxon_signed_rank(a, b)
    return {"mean_diff": mean_diff, "t_stat": t, "p_value_t": p_t,
            "wilcoxon_stat": w, "wilcoxon_p": p_w,
            "cohens_d": cohens_d_pooled(a, b), "n": int(np.asarray(a).size)}
