"""Spans around the calls into each layer, recorded from outside the package.

The tracer replaces public names with timing wrappers where their callers look
them up: module attributes (the CLI calls `staking.load_validators`, so the
wrapper on the `staking` module sees it), names the CLI imported by value
(`cli.run_pool_scenario`), and methods on classes (`Pool`, `SwapAgreement`,
`Report`). Coarse calls become spans (name, start, end, parent). Per-row
methods are only counted and timed in aggregate; a call into a layer that is
already open for the same aggregate (an arbitrage calling a swap) is not
counted again. Self time is a span's duration minus the time its children
cover, spans and aggregates alike.
"""

from __future__ import annotations

import json
import os
import time
from collections import defaultdict

from cryptoyield import amm, cli, core, mc, optrates, perps, reporting, staking, xccy


class Tracer:
    def __init__(self):
        self.reset()

    def reset(self):
        self.spans = []  # [name, start, end, parent index, covered seconds]
        self.totals = defaultdict(lambda: [0, 0.0])  # aggregate -> [calls, busy seconds]
        self.counters = defaultdict(float)
        self._open = []  # indices of the open spans, innermost last
        self._inside = set()

    def _charge_parent(self, seconds):
        if self._open:
            self.spans[self._open[-1]][4] += seconds

    def span(self, name, fn, after=None):
        def wrapper(*args, **kwargs):
            record = [name, 0.0, 0.0, self._open[-1] if self._open else None, 0.0]
            self._open.append(len(self.spans))
            self.spans.append(record)
            record[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = time.perf_counter()
                self._open.pop()
                self._charge_parent(record[2] - record[1])
            if after is not None:
                after(self, args, result)
            return result

        return wrapper

    def aggregate(self, name, fn, after=None):
        def wrapper(*args, **kwargs):
            if name in self._inside:
                return fn(*args, **kwargs)
            self._inside.add(name)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                self._inside.discard(name)
                total = self.totals[name]
                total[0] += 1
                total[1] += elapsed
                self._charge_parent(elapsed)
            if after is not None:
                after(self, args, result)
            return result

        return wrapper

    def summary(self) -> dict:
        """Busy and self time per span name, busy time and calls per aggregate, plus counters."""
        out = defaultdict(float)
        for name, start, end, _, covered in self.spans:
            out[f"{name}.s"] += end - start
            out[f"{name}.self_s"] += end - start - covered
        for name, (calls, busy) in self.totals.items():
            out[f"{name}.s"] += busy
            out[f"{name}.calls"] += calls
        out.update(self.counters)
        return dict(out)

    def dump(self, path):
        """Write the recorded spans as JSON, times relative to the first span."""
        t0 = self.spans[0][1] if self.spans else 0.0
        rows = [
            {"id": i, "name": n, "start": s - t0, "end": e - t0, "parent": p, "covered": c}
            for i, (n, s, e, p, c) in enumerate(self.spans)
        ]
        with open(path, "w") as fh:
            json.dump({"spans": rows, "aggregates": {k: list(v) for k, v in self.totals.items()}}, fh, indent=1)


# -- what each wrapper counts besides time ------------------------------------


def _cli_exit(tracer, args, code):
    tracer.counters["cli.ops"] += 1
    tracer.counters["cli.failed"] += code != 0


def _csv_read(tracer, args, rows):
    tracer.counters["core.read_csv_rows.rows"] += len(rows)
    tracer.counters["core.input_bytes"] += os.path.getsize(args[0])


def _report_written(tracer, args, paths):
    report = args[0]
    tracer.counters["reporting.rows_out"] += sum(len(s.rows) for s in report.series)
    tracer.counters["reporting.bytes_out"] += sum(os.path.getsize(p) for p in paths)


def _arbitrage(tracer, args, receipt):
    tracer.counters["amm.arbitrage_calls"] += 1
    tracer.counters["amm.arbitrage_trades"] += receipt is not None


def _swap_replayed(tracer, args, result):
    tracer.counters["xccy.ledger_entries"] += len(result["audit_rows"])


def _mc_estimate(tracer, args, estimate):
    spec = args[0]
    tracer.counters["mc.path_steps"] += spec.paths * spec.steps


def _one_touch(tracer, args, estimate):
    _mc_estimate(tracer, args, estimate)
    tracer.counters["mc.std_error"] = estimate.std_error


def _targets():
    """(owner, attribute, span name, kind, after) for every wrapped public name."""
    span, agg = "span", "aggregate"
    targets = [
        (cli, "main", "cli.main", span, _cli_exit),
        (core, "read_csv_rows", "core.read_csv_rows", span, _csv_read),
        (staking, "load_validators", "staking.load_validators", span, None),
        (staking, "available_days", "staking.available_days", span, None),
        (staking, "percentile_bands", "staking.percentile_bands", agg, None),
        (optrates, "load_chain_csv", "optrates.load_chain_csv", span, None),
        (optrates, "chain_points", "optrates.chain_points", span, None),
        (optrates, "daily_series", "optrates.daily_series", span, None),
        (optrates, "rolling_average", "optrates.rolling_average", span, None),
        (perps, "load_mark_index_csv", "perps.load_mark_index_csv", span, None),
        (perps, "load_basis_csv", "perps.load_basis_csv", span, None),
        (perps, "events_from_quotes", "perps.events_from_quotes", span, None),
        (perps, "basis_rows", "perps.basis_rows", span, None),
        (reporting.Report, "write", "reporting.write", span, _report_written),
        (reporting.Report, "finalize_provenance", "reporting.finalize_provenance", span, None),
        (cli, "run_pool_scenario", "scenarios.run_pool_scenario", span, None),
        (cli, "run_swap_scenario", "scenarios.run_swap_scenario", span, _swap_replayed),
        (xccy.SwapAgreement, "check_and_terminate", "xccy.check_and_terminate", agg, None),
        (xccy.SwapAgreement, "accrue_legs", "xccy.accrue_legs", agg, None),
        (mc, "first_passage_value", "mc.first_passage_value", span, _one_touch),
        (mc, "price_payoff", "mc.price_payoff", span, _mc_estimate),
    ]
    for method in ("add_liquidity", "remove_liquidity", "swap_x_for_y", "swap_y_for_x", "arbitrage_to_price"):
        after = _arbitrage if method == "arbitrage_to_price" else None
        targets.append((amm.Pool, method, "amm.Pool", agg, after))
    return targets


def install(tracer: Tracer):
    """Wrap every target; returns a function that puts the originals back."""
    saved = []
    for owner, attr, name, kind, after in _targets():
        original = owner.__dict__[attr]
        wrap = tracer.span if kind == "span" else tracer.aggregate
        setattr(owner, attr, wrap(name, original, after))
        saved.append((owner, attr, original))

    def uninstall():
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)

    return uninstall
