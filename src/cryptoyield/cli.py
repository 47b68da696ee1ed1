"""Command-line entry point: scenario execution, ingestion, report emission.

Subcommands: stake, amm, loan price, perp funding, perp basis, implied-rate,
xccy simulate, oracle price, kelly, plus `run` (config-file driven) and
`validate` (dry-run diagnostics without execution).

`COMMANDS` is the one place a command is described: argv path, config keys
(type, default, required, flag), input files with their loaders, handler.
The parser, the flag-to-config translation, `validate_config`, the input
paths `resolve_config_paths` resolves and the check `run` makes before any
work all derive from it, so `run` applies exactly the checks `validate`
reports. Model ranges are left to the models.

Every invocation writes a report directory: one CSV per output series plus
report.json carrying the summary and provenance (tool version, config hash,
seed, input digests). File bytes are deterministic for identical inputs.

Rates in CSV/summary columns suffixed `_pct` are annualized percent on the
365-day convention; unsuffixed rates are plain fractions.

Exit codes: 0 success, 2 malformed input or failed validation, 3 numeric or
model failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from collections import namedtuple

import numpy as np

from . import core, lending, mc, optrates, perps, staking
from .core import Key, _boolean, _check_keys, _day, _integer, _number, _numbers, _one_of, _text, _text_or_object
from .errors import CryptoYieldError, EmptyCohortError, InputError
from .reporting import Report, Series
from .scenarios import (
    run_pool_scenario,
    run_swap_scenario,
    validate_pool_scenario,
    validate_swap_scenario,
)

FIGURE_PERCENTILES = (1, 5, 25, 50, 75, 95, 99)


def _load_json(path):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise InputError(f"{path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise InputError(f"{path}: not UTF-8 text: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"{path}:{exc.lineno}: invalid JSON: {exc.msg}") from exc


def _scenario_json(value):
    """Scenario configs may be inline objects or paths to JSON files."""
    return value if isinstance(value, dict) else _load_json(value)


# ---------------------------------------------------------------------------
# command handlers: (config as given, checked values) -> (summary, series, seed)
# ---------------------------------------------------------------------------


def _run_stake(config, balances, day, percentiles):
    days = [day] if day else staking.available_days(balances)
    sizes, bands = staking.daily_bands(balances, days, percentiles)
    if day and not sizes[0]:
        raise EmptyCohortError(f"no eligible validators on {day}")
    kept = np.flatnonzero(sizes)
    names = [days[k].isoformat() for k in kept.tolist()]
    rows = core.Columns({
        "day": core.Coded(names, np.repeat(np.arange(len(names)), len(percentiles))),
        "percentile": list(percentiles) * len(names),
        "return_pct": 100.0 * bands[kept].ravel(),
    })
    summary = {
        "validators": len(balances.ids),
        "days": len(names),
        "days_without_cohort": len(days) - len(names),
        "percentiles": list(percentiles),
    }
    return summary, {"bands": rows}, None


def _run_amm(config, scenario):
    result = run_pool_scenario(scenario)
    return result["summary"], {"pool": result["pool_rows"], "positions": result["position_rows"]}, None


def _run_loan(config, terms, liquidation):
    terms = lending.LoanTerms(*terms.values())
    details = lending.margrabe_details(terms)
    valuation = lending.loan_values(terms)
    summary = {
        "terms": dict(config["terms"]),
        **details,
        # d1 and d2 are +-inf at zero combined volatility, which strict JSON cannot hold.
        "d1": details["d1"] if math.isfinite(details["d1"]) else None,
        "d2": details["d2"] if math.isfinite(details["d2"]) else None,
        "borrower_value": valuation.borrower_value,
        "lender_value": valuation.lender_value,
        "collateralization_ratio": terms.collateralization_ratio,
    }
    if liquidation:
        liq = lending.LiquidationSpec(**liquidation)
        with_liq = lending.loan_value_with_liquidation(terms, liq)
        summary["liquidation"] = {
            "barrier": liq.barrier,
            "penalty": liq.penalty,
            "penalty_leg_value": with_liq.lender_value - valuation.lender_value,
            "borrower_value": with_liq.borrower_value,
            "lender_value": with_liq.lender_value,
        }
    return summary, {}, None


def _funding_summary(rates_pct):
    values = sorted(rates_pct.tolist())
    return {
        "events": len(values),
        "mean_rate_pct": math.fsum(values) / len(values) if values else 0.0,
        "percentiles_pct": {
            str(p): core.percentile(values, p) for p in FIGURE_PERCENTILES
        }
        if values
        else {},
    }


_FUNDING_VARIANTS = {"deribit": "deribit_deadband", "bitmex": "bitmex_clamp"}


def _run_perp_funding(config, quotes, variant, band, interval_hours, interest_rate):
    spec = perps.FundingSpec(
        _FUNDING_VARIANTS[variant], interval_hours=interval_hours, band=band, interest_rate=interest_rate
    )
    events = perps.events_from_quotes(quotes, spec)
    rates = events["funding_rate"]
    rows = core.Columns({
        "time": quotes["timestamp"],
        "mark": quotes["mark"],
        "index": quotes["index"],
        "premium": events["premium"],
        "funding_rate": rates,
        "funding_rate_pct": 100.0 * rates,
        "time_fraction": events["time_fraction"],
        "payer": perps.payer(rates),
        "cash_flow_per_notional": perps.cash_flow_per_notional(events),
    })
    summary = _funding_summary(rows["funding_rate_pct"])
    summary["variant"] = variant
    return summary, {"funding": rows}, None


def _run_perp_basis(config, quotes, window):
    rows = perps.basis_rows(quotes)
    rates = rows["implied_rate"]
    out = core.Columns({
        "time": quotes["timestamp"],
        "perp": quotes["perp"],
        "future": quotes["future"],
        "basis": rows["basis"],
        "tenor_years": rows["tenor_years"],
        "implied_rate_pct": 100.0 * rates,
        "rolling_rate_pct": 100.0 * optrates.rolling_average(rates, window),
    })
    summary = {
        "rows": len(out),
        "window": window,
        "mean_basis": math.fsum(out["basis"].tolist()) / len(out),
        "mean_rate_pct": math.fsum(out["implied_rate_pct"].tolist()) / len(out),
    }
    return summary, {"basis": out}, None


def _run_implied_rate(config, chain, window):
    points, excluded = optrates.chain_points(chain)
    if not len(points):
        raise EmptyCohortError("no valid implied-rate points in the chain")
    daily = optrates.daily_series(points)
    means = daily["mean_rate"]
    days = [d.isoformat() for d in daily["day"]]
    daily_rows = core.Columns({
        "day": days,
        "mean_rate": means,
        "mean_rate_pct": 100.0 * means,
        "points": daily["points"],
    })
    rolling_rows = core.Columns({"day": days, "rolling_rate_pct": 100.0 * optrates.rolling_average(means, window)})
    summary = {
        "quotes": len(chain),
        "valid_points": len(points),
        "excluded_points": excluded,
        "days": len(daily),
        "window": window,
        "mean_rate_pct": math.fsum(daily_rows["mean_rate_pct"].tolist()) / len(daily_rows),
    }
    return summary, {"daily": daily_rows, "rolling": rolling_rows}, None


def _run_xccy(config, scenario):
    result = run_swap_scenario(scenario)
    return result["final_state"], {"audit": result["audit_rows"]}, None


_PAYOFFS = {
    "exchange": lambda a, b: np.maximum(a - b, 0.0),
    "max": np.maximum,
    "min": np.minimum,
    "asset_a": lambda a, b: a,
}


def _run_oracle(config, spec, payoff, discount_rate, barrier, payout, bridge):
    spec = mc.GbmSpec(*spec.values())
    if payoff == "one_touch":
        estimate = mc.first_passage_value(
            spec, barrier=barrier, payout=payout, discount_rate=discount_rate, bridge=bridge
        )
    else:
        estimate = mc.price_payoff(spec, _PAYOFFS[payoff], discount_rate)
    summary = {
        "payoff": payoff,
        "estimate": estimate.mean,
        "std_error": estimate.std_error,
        "paths": estimate.paths,
        "discount_rate": discount_rate,
        "spec": dict(config["spec"]),
    }
    return summary, {}, spec.seed


def _run_kelly(config, means, riskless_rate, covariance):
    weights = core.kelly_weights(means, riskless_rate, covariance)
    rows = core.Columns({"asset": list(range(len(means))), "mean": list(means), "weight": weights.tolist()})
    summary = {
        "assets": len(means),
        "riskless_rate": riskless_rate,
        "weights": [float(w) for w in weights],
        "gross_leverage": float(np.sum(np.abs(weights))),
    }
    return summary, {"weights": rows}, None


# ---------------------------------------------------------------------------
# the command table
# ---------------------------------------------------------------------------


# One command: argv path, handler(config, **values), help, keys, and the
# flag (if any) that reads the whole config from a JSON file.
Command = namedtuple("Command", "argv handler help keys config_flag", defaults=(None,))

# Loaders are looked up when called, so a wrapper installed on the module
# attribute (a tracer, a test double) sees every call.
COMMANDS = {
    "stake": Command(("stake",), _run_stake, "validator return percentile bands from a balances CSV", (
        Key("balances", _text, required=True, load=lambda path: staking.load_validators(path)),
        Key("day", _day, help="ISO date; default: every day available in the data"),
        Key("percentiles", _numbers, FIGURE_PERCENTILES),
    )),
    "amm": Command(("amm",), _run_amm, "replay a pool scenario file", (
        Key("scenario", _text_or_object, required=True, load=_scenario_json, check=validate_pool_scenario),
    )),
    "loan": Command(("loan", "price"), _run_loan, "price a collateralised loan", (
        Key("terms", required=True, keys=(  # in LoanTerms field order
            Key("collateral", _number, required=True),
            Key("repay", _number, required=True),
            *(Key(name, _number, 0.0) for name in ("sigma_alpha", "sigma_beta", "rho", "r_alpha", "r_beta")),
            Key("tenor", _number, 1.0),
        )),
        Key("liquidation", keys=(
            Key("barrier", _number, required=True),
            Key("penalty", _number, required=True),
        )),
    ), config_flag="--scenario"),
    "perp-funding": Command(("perp", "funding"), _run_perp_funding, "funding engines and futures basis", (
        Key("quotes", _text, required=True, load=lambda path: perps.load_mark_index_csv(path)),
        Key("variant", _one_of(*_FUNDING_VARIANTS), "deribit"),
        Key("band", _number, perps.DEFAULT_BAND),
        Key("interval_hours", _number, perps.DEFAULT_INTERVAL_HOURS),
        Key("interest_rate", _number, 0.0),
    )),
    "perp-basis": Command(("perp", "basis"), _run_perp_basis, "futures basis and implied rates", (
        Key("quotes", _text, required=True, load=lambda path: perps.load_basis_csv(path)),
        Key("window", _integer, 7),
    )),
    "implied-rate": Command(("implied-rate",), _run_implied_rate, "put-call-parity implied rates from a chain", (
        Key("chain", _text, required=True, load=lambda path: optrates.load_chain_csv(path)),
        Key("window", _integer, 7),
    )),
    "xccy": Command(("xccy", "simulate"), _run_xccy, "cross-currency swap simulation", (
        Key("scenario", _text_or_object, required=True, load=_scenario_json, check=validate_swap_scenario),
    )),
    "oracle": Command(("oracle", "price"), _run_oracle, "Monte Carlo pricing oracle", (
        Key("spec", required=True, keys=(  # in GbmSpec field order
            *(Key(name, _number, 1.0) for name in ("s0_a", "s0_b")),
            *(Key(name, _number, 0.0) for name in ("sigma_a", "sigma_b", "rho", "drift_a", "drift_b")),
            Key("tenor", _number, 1.0),
            Key("steps", _integer, 1),
            Key("paths", _integer, 100_000),
            Key("seed", _integer, 0),
            Key("antithetic", _boolean, True, flag=False),
        )),
        Key("payoff", _one_of(*_PAYOFFS, "one_touch"), "exchange"),
        Key("discount_rate", _number, 0.0),
        Key("barrier", _number, required=("payoff", "one_touch")),
        Key("payout", _number, 1.0),
        Key("bridge", _boolean, True, flag="--naive", help="disable the Brownian-bridge correction"),
    ), config_flag="--spec"),
    "kelly": Command(("kelly",), _run_kelly, "Kelly allocation from means and covariance", (
        Key("means", _numbers, required=True, help="comma-separated annualized means"),
        Key("riskless_rate", _number, 0.0, flag="--riskless"),
        Key("covariance", lambda value: _numbers(value, ";"), required=True, flag="--cov",
            help="rows separated by ';', entries by ','"),
    )),
}


def _leaves(keys, prefix=""):
    """(dotted path, key) for every key that holds a value, nested ones included."""
    for key in keys:
        if key.keys:
            yield from _leaves(key.keys, prefix + key.name + ".")
        else:
            yield prefix + key.name, key


def _command(config):
    """The table entry a config names, or None."""
    name = config.get("command") if isinstance(config, dict) else None
    return COMMANDS.get(name) if isinstance(name, str) else None


# A config file may name its report directory; `run --out` overrides it.
OUT_DIR = Key("out_dir", _text)


def _check_config(config):
    """(command, values, problems) from the table alone; reads no file."""
    command = _command(config)
    if command is None:
        return None, {}, [f"config must be a JSON object with a command in {sorted(COMMANDS)}"]
    problems = []
    values = _check_keys((*command.keys, OUT_DIR), config, "", problems, known=("command",))
    del values[OUT_DIR.name]  # for run_command, not the handler
    return command, values, problems


def validate_config(config) -> list:
    """The table's problems plus each input file's loader and check; executes nothing."""
    command, values, problems = _check_config(config)
    for key in command.keys if command else ():
        if key.load and values[key.name] is not None:
            try:
                loaded = key.load(values[key.name])
            except InputError as exc:
                problems.append(f"{key.name}: {exc}")
                continue
            problems.extend(f"{key.name}: {p}" for p in (key.check(loaded) if key.check else ()))
    return problems


def resolve_config_paths(config: dict, base_dir) -> dict:
    """Resolve input-file paths relative to the config file's directory."""
    command = _command(config)
    if command is None:
        return config
    resolved = dict(config)
    for key in command.keys:
        value = resolved.get(key.name)
        if key.load and isinstance(value, str) and not os.path.isabs(value):
            resolved[key.name] = os.path.join(base_dir, value)
    return resolved


def run_command(config: dict, out_dir, provenance_config=None) -> Report:
    """Execute one command config and write its report directory.

    The table check runs first: a config problem raises InputError before
    any input is read or any file written. provenance_config, when given, is
    hashed instead of the executed config (so path resolution does not leak
    machine-specific prefixes into the report).
    """
    command, values, problems = _check_config(config)
    if problems:
        raise InputError("; ".join(problems))
    if not out_dir:
        raise InputError("run: --out or a config out_dir path is required")
    inputs = [key for key in command.keys if key.load]
    paths = [values[key.name] for key in inputs if isinstance(values[key.name], str)]
    values.update({key.name: key.load(values[key.name]) for key in inputs})
    summary, series, seed = command.handler(config, **values)
    report = Report(config["command"], summary, [Series(name, table) for name, table in series.items()])
    report.finalize_provenance(provenance_config or config, paths, seed)
    try:
        report.write(out_dir)
    except OSError as exc:  # a file in the way, no permission, a full disk
        raise InputError(f"--out {out_dir}: cannot write the report: {exc}") from exc
    return report


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cryptoyield",
        description="Crypto yield mechanisms: staking, AMM pools, collateralised "
        "loans, perpetual funding, implied rates and margined swaps.",
        epilog="Exit codes: 0 success, 2 malformed input or failed validation, "
        "3 numeric or model failure. Columns suffixed _pct are annualized "
        "percent on the 365-day convention.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    groups = {}
    for name, command in COMMANDS.items():
        *group, leaf = command.argv
        if group and group[0] not in groups:
            groups[group[0]] = sub.add_parser(group[0], help=command.help).add_subparsers(
                dest="subcommand", required=True
            )
        p = (groups[group[0]] if group else sub).add_parser(leaf, help=command.help)
        p.set_defaults(cmd=name)
        if command.config_flag:
            p.add_argument(command.config_flag, dest="config_file", help="JSON config file instead of flags")
        for path, key in _leaves(command.keys):
            if key.flag is not False:
                flag = key.flag or "--" + path.rsplit(".", 1)[-1].replace("_", "-")
                action = ("store_false" if key.default else "store_true") if key.kind is _boolean else "store"
                p.add_argument(flag, dest=path, action=action, default=key.default, help=key.help)
        p.add_argument("--out", required=True)

    p = sub.add_parser("run", help="execute a JSON command config")
    p.add_argument("--config", required=True)
    p.add_argument("--out", help="output directory (overrides config out_dir)")

    p = sub.add_parser("validate", help="dry-run diagnostics for a JSON command config")
    p.add_argument("--config", required=True)

    return parser


def _given(values, config):
    """Checked values for just the keys that `config` gives."""
    return {k: _given(values[k], v) if isinstance(v, dict) else values.get(k, v) for k, v in config.items()}


def _config_from_args(args) -> tuple:
    """Translate parsed flags into the canonical config dict + out_dir."""
    if getattr(args, "config_file", None):
        config = _load_json(args.config_file)
        if not isinstance(config, dict):
            raise InputError(f"{args.config_file}: config must be a JSON object")
        return {**config, "command": args.cmd}, args.out
    config = {"command": args.cmd}
    for path, _ in _leaves(COMMANDS[args.cmd].keys):
        *parents, leaf = path.split(".")
        if getattr(args, path, None) is not None:
            target = config
            for parent in parents:
                target = target.setdefault(parent, {})
            target[leaf] = getattr(args, path)
    _, values, problems = _check_config(config)
    if problems:
        raise InputError("; ".join(problems))
    return _given(values, config), args.out


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser `main` uses, built on first use: parsing leaves it as it was, so every call can share it."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        if args.command in ("run", "validate"):
            raw = _load_json(args.config)
            config = resolve_config_paths(raw, os.path.dirname(os.path.abspath(args.config)))
            if args.command == "validate":
                problems = validate_config(config)
                print(json.dumps({"valid": not problems, "problems": problems}, indent=2))
                return 0 if not problems else 2
            # The report directory is not part of the run, so it stays out of the config hash.
            given = {k: v for k, v in raw.items() if k != OUT_DIR.name} if isinstance(raw, dict) else raw
            out_dir = args.out or (raw.get(OUT_DIR.name) if isinstance(raw, dict) else None)
            report = run_command(config, out_dir, provenance_config=given)
        else:
            config, out_dir = _config_from_args(args)
            report = run_command(config, out_dir)
        print(
            json.dumps(
                {"out_dir": str(out_dir), "command": report.command, "summary": report.summary},
                indent=2,
                sort_keys=True,
                default=str,
            )
        )
        return 0
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except CryptoYieldError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except MemoryError as exc:  # an input too large for this machine, such as --paths 2000000000
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
