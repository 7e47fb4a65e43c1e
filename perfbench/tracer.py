"""In-memory span tracer that wraps the package's functions from outside.

Modules import names directly (`from .engine import run_backtest`), so each
function is wrapped where its caller looks it up, not where it is defined.
A target that no longer exists is recorded as absent and the metrics that
depend on it are reported as absent; nothing under `src/` is touched.

Spans are (name, start_ns, end_ns, parent index) tuples kept in a list.
A span's self time is its duration minus the durations of its children.
"""

from __future__ import annotations

import importlib
import os
import time
from collections import Counter, defaultdict

# (span name, module, attribute path at the lookup site, hook name or None)
TARGETS = [
    ("data.parse", "gtscore.cli", "parse_ohlcv_csv", None),
    ("data.slice", "gtscore.data", "PriceSeries.slice", None),
    ("indicators.rsi", "gtscore.strategy", "rsi", "indicator"),
    ("indicators.macd", "gtscore.strategy", "macd", None),
    ("indicators.bollinger", "gtscore.strategy", "bollinger", "indicator"),
    ("indicators.ema", "gtscore.indicators", "ema", "indicator"),
    ("strategy.signals", "gtscore.search", "signals", "signals"),
    ("strategy.sample", "gtscore.search", "sample_params", None),
    ("engine.backtest", "gtscore.search", "run_backtest", "backtest"),
    ("metrics.context", "gtscore.objective", "metric_context", None),
    ("objective.loss", "gtscore.search", "trial_loss", "loss"),
    ("objective.stabilize", "gtscore.objective", "stabilized_period_count",
     None),
    ("search.run_montecarlo", "gtscore.search", "run_montecarlo", None),
    ("search.run_trials", "gtscore.search", "run_trials", None),
    ("search.run_trial", "gtscore.search", "run_trial", None),
    ("search.draw_candidates", "gtscore.search", "draw_candidates", None),
    ("search.oos", "gtscore.search", "backtest_window", None),
    ("stats.compare", "gtscore.cli", "compare_paired", None),
    ("cli.rows", "gtscore.cli", "trial_row", None),
    ("cli.write", "gtscore.cli", "write_csv", "write"),
]

INDICATOR_LEAVES = ("indicators.rsi", "indicators.ema", "indicators.bollinger")

# per-layer metric -> (unit, spans whose targets must all exist for it)
METRICS = {
    "data.parse_s": ("s", ["data.parse"]),
    "data.slice_s": ("s", ["data.slice"]),
    "data.slice_calls": ("count", ["data.slice"]),
    "indicators.rsi_s": ("s", ["indicators.rsi"]),
    "indicators.ema_s": ("s", ["indicators.ema"]),
    "indicators.bollinger_s": ("s", ["indicators.bollinger"]),
    "indicators.calls": ("count", list(INDICATOR_LEAVES)),
    "indicators.bars": ("count", list(INDICATOR_LEAVES)),
    "indicators.distinct_frac": ("fraction", list(INDICATOR_LEAVES)),
    "strategy.signals_self_s": ("s", ["strategy.signals"]),
    "strategy.signals_calls": ("count", ["strategy.signals"]),
    "strategy.sample_s": ("s", ["strategy.sample"]),
    "engine.backtest_s": ("s", ["engine.backtest"]),
    "engine.backtest_calls": ("count", ["engine.backtest"]),
    "engine.bars": ("count", ["engine.backtest"]),
    "engine.trades": ("count", ["engine.backtest"]),
    "metrics.context_s": ("s", ["metrics.context"]),
    "metrics.context_calls": ("count", ["metrics.context"]),
    "objective.loss_self_s": ("s", ["objective.loss"]),
    "objective.loss_calls": ("count", ["objective.loss"]),
    "objective.stabilize_s": ("s", ["objective.stabilize"]),
    "objective.gated_frac": ("fraction", ["objective.loss"]),
    "search.self_s": ("s", ["search.run_montecarlo"]),
    "search.distinct_backtest_frac": ("fraction",
                                      ["engine.backtest", "strategy.signals"]),
    "search.oos_s": ("s", ["search.oos"]),
    "search.oos_calls": ("count", ["search.oos"]),
    "stats.compare_s": ("s", ["stats.compare"]),
    "cli.rows_s": ("s", ["cli.rows"]),
    "cli.write_s": ("s", ["cli.write"]),
    "cli.csv_bytes": ("bytes", ["cli.write"]),
}


def _resolve(module_name: str, path: str):
    """(owner object, attribute name, current value) or None if missing."""
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name, None)
        if owner is None:
            return None
    value = getattr(owner, attr, None)
    if not callable(value):
        return None
    return owner, attr, value


def _array_key(values) -> tuple:
    """Cheap content key for an indicator input (length and three values)."""
    n = len(values)
    if n == 0:
        return (0,)
    return (n, float(values[0]), float(values[n // 2]), float(values[-1]))


class Tracer:
    """Spans and counters for one traced process; install, run, uninstall."""

    def __init__(self):
        self.spans: list = []
        self._stack: list[int] = []
        self.absent: list[str] = []
        self.present: set[str] = set()
        self.counts: Counter = Counter()
        self.indicator_keys: set = set()
        self.backtest_keys: set = set()
        self._last_params = None
        self._restore: list = []

    # --- wrapping -------------------------------------------------------

    def _wrap(self, name: str, fn, hook):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[idx] = (name, t0, t1, parent)
            if hook is not None:
                hook(name, args, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    def install(self) -> None:
        hooks = {"indicator": self._on_indicator, "signals": self._on_signals,
                 "backtest": self._on_backtest, "loss": self._on_loss,
                 "write": self._on_write}
        for name, module, path, hook in TARGETS:
            found = _resolve(module, path)
            if found is None:
                self.absent.append(f"{name} ({module}.{path})")
                continue
            owner, attr, fn = found
            setattr(owner, attr, self._wrap(name, fn, hooks.get(hook)))
            self._restore.append((owner, attr, fn))
            self.present.add(name)

    def uninstall(self) -> None:
        for owner, attr, fn in reversed(self._restore):
            setattr(owner, attr, fn)
        self._restore.clear()

    def root(self, name: str, fn, *args):
        """Run fn(*args) as a top-level span (one per CLI command)."""
        return self._wrap(name, fn, None)(*args)

    # --- counting hooks (run after the span closes) ---------------------

    def _on_indicator(self, name, args, result):
        values = args[0]
        period = args[1] if len(args) > 1 else None
        self.counts["indicators.bars"] += len(values)
        self.indicator_keys.add((name, period, _array_key(values)))

    def _on_signals(self, name, args, result):
        self._last_params = args[0] if args else None

    def _on_backtest(self, name, args, result):
        series = args[0]
        window = tuple(args[2:4]) if len(args) >= 4 else ()
        self.counts["engine.bars"] += _window_bars(series, window)
        n_trades = getattr(result, "n_trades", None)
        if n_trades is None:
            n_trades = len(getattr(result, "trade_returns", ()))
        self.counts["engine.trades"] += int(n_trades)
        self.backtest_keys.add((getattr(series, "asset_id", None), window,
                                self._last_params))

    def _on_loss(self, name, args, result):
        cfg = args[2] if len(args) > 2 else None
        penalty = getattr(cfg, "below_min_penalty", None)
        if penalty is not None and result == penalty:
            self.counts["objective.gated"] += 1

    def _on_write(self, name, args, result):
        try:
            self.counts["cli.csv_bytes"] += os.path.getsize(args[0])
        except OSError:
            pass

    # --- reduction --------------------------------------------------------

    def summary(self) -> dict:
        """Totals, self times and counts per span name, in seconds."""
        child_ns = defaultdict(int)
        for span in self.spans:
            if span is not None and span[3] >= 0:
                child_ns[span[3]] += span[2] - span[1]
        total = defaultdict(int)
        self_ns = defaultdict(int)
        calls = Counter()
        for i, span in enumerate(self.spans):
            if span is None:
                continue
            name, t0, t1, _ = span
            total[name] += t1 - t0
            self_ns[name] += t1 - t0 - child_ns[i]
            calls[name] += 1
        return {name: {"total_s": total[name] / 1e9,
                       "self_s": self_ns[name] / 1e9,
                       "calls": calls[name]} for name in total}

    def layer_metrics(self) -> dict:
        """Per-layer metric -> value, or None when a needed span is absent."""
        s = self.summary()

        def tot(name):
            return s.get(name, {}).get("total_s", 0.0)

        def own(name):
            return s.get(name, {}).get("self_s", 0.0)

        def calls(name):
            return s.get(name, {}).get("calls", 0)

        def frac(num, den):
            return num / den if den else 0.0

        leaf_calls = sum(calls(n) for n in INDICATOR_LEAVES)
        backtests = calls("engine.backtest")
        values = {
            "data.parse_s": tot("data.parse"),
            "data.slice_s": tot("data.slice"),
            "data.slice_calls": calls("data.slice"),
            "indicators.rsi_s": tot("indicators.rsi"),
            "indicators.ema_s": tot("indicators.ema"),
            "indicators.bollinger_s": tot("indicators.bollinger"),
            "indicators.calls": leaf_calls,
            "indicators.bars": self.counts["indicators.bars"],
            "indicators.distinct_frac": frac(len(self.indicator_keys),
                                             leaf_calls),
            "strategy.signals_self_s": own("strategy.signals"),
            "strategy.signals_calls": calls("strategy.signals"),
            "strategy.sample_s": tot("strategy.sample"),
            "engine.backtest_s": tot("engine.backtest"),
            "engine.backtest_calls": backtests,
            "engine.bars": self.counts["engine.bars"],
            "engine.trades": self.counts["engine.trades"],
            "metrics.context_s": tot("metrics.context"),
            "metrics.context_calls": calls("metrics.context"),
            "objective.loss_self_s": own("objective.loss"),
            "objective.loss_calls": calls("objective.loss"),
            "objective.stabilize_s": tot("objective.stabilize"),
            "objective.gated_frac": frac(self.counts["objective.gated"],
                                         calls("objective.loss")),
            "search.self_s": sum(v["self_s"] for k, v in s.items()
                                 if k.startswith("search.")),
            "search.distinct_backtest_frac": frac(len(self.backtest_keys),
                                                  backtests),
            "search.oos_s": tot("search.oos"),
            "search.oos_calls": calls("search.oos"),
            "stats.compare_s": tot("stats.compare"),
            "cli.rows_s": tot("cli.rows"),
            "cli.write_s": tot("cli.write"),
            "cli.csv_bytes": self.counts["cli.csv_bytes"],
        }
        for metric, (_, needs) in METRICS.items():
            if not all(n in self.present for n in needs):
                values[metric] = None
        return values

    def write_spans(self, path) -> None:
        """One `index,name,start_ns,end_ns,parent` line per span."""
        with open(path, "w") as fh:
            fh.write("index,name,start_ns,end_ns,parent\n")
            for i, span in enumerate(self.spans):
                if span is not None:
                    fh.write(f"{i},{span[0]},{span[1]},{span[2]},{span[3]}\n")


def _window_bars(series, window) -> int:
    """Bars of `series` inside [start, end), or its length if unknown."""
    index_window = getattr(series, "index_window", None)
    if index_window is not None and len(window) == 2:
        i0, i1 = index_window(*window)
        return i1 - i0
    return len(series)


class PoolTraffic:
    """Bytes pickled to and unpickled from worker processes, counted in the
    parent by wrapping multiprocessing's pickler."""

    def __init__(self):
        self.sent = 0
        self.recv = 0
        self._orig = None

    def install(self) -> None:
        from multiprocessing.reduction import ForkingPickler
        dumps, loads = ForkingPickler.dumps, ForkingPickler.loads
        self._orig = (ForkingPickler.__dict__["dumps"],
                      ForkingPickler.__dict__["loads"])
        traffic = self

        def counted_dumps(cls, obj, protocol=None):
            buf = dumps(obj, protocol)
            traffic.sent += memoryview(buf).nbytes
            return buf

        def counted_loads(data, *args, **kwargs):
            traffic.recv += memoryview(data).nbytes
            return loads(data, *args, **kwargs)

        ForkingPickler.dumps = classmethod(counted_dumps)
        ForkingPickler.loads = staticmethod(counted_loads)

    def uninstall(self) -> None:
        from multiprocessing.reduction import ForkingPickler
        if self._orig is not None:
            ForkingPickler.dumps, ForkingPickler.loads = self._orig
            self._orig = None
