import contextlib
import copy
import io
import json
import os
import pathlib
import random
import subprocess
import sys
import tempfile
import time

import pytest
from hypothesis import given, settings
from numpy.testing import assert_allclose

from cryptoyield import cli
from cryptoyield.cli import main as cli_main

from tests import cli_fuzz

REPO = pathlib.Path(__file__).resolve().parent.parent
DEMO = REPO / "scenarios" / "demo"


def read_report(out_dir):
    return json.loads((pathlib.Path(out_dir) / "report.json").read_text())


class TestLoanCommand:
    def test_degenerate_terms_match_deterministic_split(self, tmp_path):
        code = cli_main(
            [
                "loan", "price",
                "--collateral", "2.0", "--repay", "1.0",
                "--sigma-alpha", "0.0", "--sigma-beta", "0.0",
                "--out", str(tmp_path / "r"),
            ]
        )
        assert code == 0
        summary = read_report(tmp_path / "r")["summary"]
        assert summary["exchange_option_value"] == 1.0
        assert summary["borrower_value"] == 2.0
        assert summary["lender_value"] == 1.0

    def test_intermediates_exposed(self, tmp_path):
        cli_main(
            [
                "loan", "price",
                "--collateral", "1.0", "--repay", "1.0",
                "--sigma-alpha", "0.2",
                "--out", str(tmp_path / "r"),
            ]
        )
        summary = read_report(tmp_path / "r")["summary"]
        assert_allclose(summary["d1"], 0.1, atol=1e-15)
        assert_allclose(summary["d2"], -0.1, atol=1e-15)
        assert_allclose(summary["exchange_option_value"], 0.07965567455405796, atol=1e-12)

    def test_invalid_terms_exit_numeric_failure(self, tmp_path):
        code = cli_main(
            [
                "loan", "price",
                "--collateral", "1.0", "--repay", "1.0", "--rho", "2.0",
                "--out", str(tmp_path / "r"),
            ]
        )
        assert code == 3

    def test_missing_required_flags(self, tmp_path):
        code = cli_main(["loan", "price", "--out", str(tmp_path / "r")])
        assert code == 2

    def test_scenario_file_route(self, tmp_path):
        scenario = tmp_path / "loan.json"
        scenario.write_text(
            json.dumps(
                {
                    "terms": {"collateral": 1.5, "repay": 1.0, "sigma_alpha": 0.8, "tenor": 1.0},
                    "liquidation": {"barrier": 1.2, "penalty": 0.08},
                }
            )
        )
        out = tmp_path / "r"
        assert cli_main(["loan", "price", "--scenario", str(scenario), "--out", str(out)]) == 0
        summary = read_report(out)["summary"]
        assert_allclose(summary["liquidation"]["penalty_leg_value"], 0.06871372271014692, rtol=1e-9)


class TestPerpCommands:
    def test_deribit_funding_rows(self, tmp_path):
        quotes = tmp_path / "quotes.csv"
        quotes.write_text(
            "timestamp,mark,index\n0,40080,40000\n28800,40008,40000\n57600,39880,40000\n"
        )
        out = tmp_path / "r"
        assert cli_main(["perp", "funding", "--quotes", str(quotes), "--out", str(out)]) == 0
        rows = (out / "funding.csv").read_text().splitlines()
        header = rows[0].split(",")
        rate_col = header.index("funding_rate")
        rates = [float(r.split(",")[rate_col]) for r in rows[1:]]
        assert_allclose(rates, [0.0015, 0.0, -0.0025], atol=1e-15)

    def test_basis_report(self, tmp_path):
        quotes = tmp_path / "basis.csv"
        expiry = int(91.25 * 86400)
        quotes.write_text(f"timestamp,perp,future,expiry\n0,50000,51000,{expiry}\n")
        out = tmp_path / "r"
        assert cli_main(["perp", "basis", "--quotes", str(quotes), "--out", str(out)]) == 0
        summary = read_report(out)["summary"]
        assert_allclose(summary["mean_basis"], 0.02, rtol=1e-12)
        assert_allclose(summary["mean_rate_pct"], 7.921050918471885, rtol=1e-12)

    def test_bitmex_variant(self, tmp_path):
        quotes = tmp_path / "quotes.csv"
        quotes.write_text("timestamp,mark,index\n0,40120,40000\n28800,40012,40000\n")
        out = tmp_path / "r"
        code = cli_main(
            [
                "perp", "funding", "--quotes", str(quotes),
                "--variant", "bitmex", "--interest-rate", "0.0001",
                "--out", str(out),
            ]
        )
        assert code == 0
        rows = (out / "funding.csv").read_text().splitlines()
        rate_col = rows[0].split(",").index("funding_rate")
        rates = [float(r.split(",")[rate_col]) for r in rows[1:]]
        assert_allclose(rates, [0.0025, 0.0001], atol=1e-15)

    def test_malformed_csv_exits_2_and_names_line(self, tmp_path, capsys):
        quotes = tmp_path / "quotes.csv"
        quotes.write_text("timestamp,mark,index\n0,x,40000\n")
        code = cli_main(["perp", "funding", "--quotes", str(quotes), "--out", str(tmp_path / "r")])
        assert code == 2
        assert "quotes.csv:2" in capsys.readouterr().err


class TestImpliedRateCommand:
    def test_demo_chain_recovers_rate(self, tmp_path):
        out = tmp_path / "r"
        code = cli_main(
            ["implied-rate", "--chain", str(DEMO / "option_chain.csv"), "--out", str(out)]
        )
        assert code == 0
        summary = read_report(out)["summary"]
        assert summary["excluded_points"] == 0
        assert abs(summary["mean_rate_pct"] - 5.0) < 1e-7


class TestStakeCommand:
    def test_demo_validators(self, tmp_path):
        out = tmp_path / "r"
        code = cli_main(["stake", "--balances", str(DEMO / "validators.csv"), "--out", str(out)])
        assert code == 0
        summary = read_report(out)["summary"]
        assert summary["validators"] == 4
        assert summary["days"] == 5
        bands = (out / "bands.csv").read_text().splitlines()
        assert bands[0] == "day,percentile,return_pct"
        assert len(bands) == 1 + 5 * 7

    def test_single_day(self, tmp_path):
        out = tmp_path / "r"
        code = cli_main(
            [
                "stake", "--balances", str(DEMO / "validators.csv"),
                "--day", "2021-06-02", "--percentiles", "50",
                "--out", str(out),
            ]
        )
        assert code == 0
        row = (out / "bands.csv").read_text().splitlines()[1].split(",")
        assert row[0] == "2021-06-02"
        # Four validators are eligible that day (v4 is flat at 32.2, return 0);
        # the median interpolates between 365 * 0.00009 and 365 * 0.00011.
        assert_allclose(float(row[2]), 100 * 365 * (0.00009 + 0.00011) / 2, rtol=1e-6)


class TestAmmAndXccyCommands:
    def test_amm_scenario(self, tmp_path):
        out = tmp_path / "r"
        code = cli_main(
            ["amm", "--scenario", str(DEMO / "pool_scenario.json"), "--out", str(out)]
        )
        assert code == 0
        pool_rows = (out / "pool.csv").read_text().splitlines()
        assert len(pool_rows) == 1 + 7  # create + six events
        assert (out / "positions.csv").exists()

    def test_xccy_scenario(self, tmp_path):
        out = tmp_path / "r"
        code = cli_main(
            ["xccy", "simulate", "--scenario", str(DEMO / "swap_scenario.json"), "--out", str(out)]
        )
        assert code == 0
        summary = read_report(out)["summary"]
        assert summary["state"] == "matured"
        assert summary["token_totals"] == {"alpha": "106", "beta": "106"}


class TestOracleAndKelly:
    def test_oracle_exchange(self, tmp_path):
        out = tmp_path / "r"
        code = cli_main(
            [
                "oracle", "price",
                "--sigma-a", "0.2", "--paths", "50000", "--seed", "9",
                "--payoff", "exchange", "--out", str(out),
            ]
        )
        assert code == 0
        summary = read_report(out)["summary"]
        assert abs(summary["estimate"] - 0.0796556745540580) < 4 * summary["std_error"]

    def test_kelly_command(self, tmp_path):
        out = tmp_path / "r"
        code = cli_main(
            [
                "kelly", "--means", "0.1", "--riskless", "0.0", "--cov", "0.04",
                "--out", str(out),
            ]
        )
        assert code == 0
        assert read_report(out)["summary"]["weights"] == [2.5]

    def test_oracle_one_touch(self, tmp_path):
        out = tmp_path / "r"
        code = cli_main(
            [
                "oracle", "price",
                "--s0-a", "1.5", "--sigma-a", "0.8", "--steps", "256",
                "--paths", "50000", "--seed", "13",
                "--payoff", "one_touch", "--barrier", "1.2", "--payout", "0.08",
                "--out", str(out),
            ]
        )
        assert code == 0
        summary = read_report(out)["summary"]
        assert abs(summary["estimate"] - 0.06871372271014692) < 4 * summary["std_error"]

    def test_oracle_too_many_steps_exit_3(self, tmp_path, capsys):
        out = tmp_path / "r"
        argv = ["oracle", "price", "--payoff", "one_touch", "--barrier", "1.2", "--s0-a", "1.5",
                "--steps", str(2**20 + 1), "--paths", "2", "--out", str(out)]
        assert cli_main(argv) == 3
        err = capsys.readouterr().err
        assert "steps must be <= 1048576" in err and "Traceback" not in err
        assert not out.exists()

    def test_kelly_singular_exit_3(self, tmp_path):
        code = cli_main(
            [
                "kelly", "--means", "0.1,0.2", "--riskless", "0.0",
                "--cov", "0.04,0.04;0.04,0.04",
                "--out", str(tmp_path / "r"),
            ]
        )
        assert code == 3

    @pytest.mark.parametrize("argv", [
        ["kelly", "--means", "0.1,0.2", "--cov", "0.04,0.01;0.01"],
        ["run", "--config", "{cfg}"],
    ], ids=["flags", "run"])
    def test_kelly_ragged_covariance_exit_3(self, argv, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"command": "kelly", "means": [0.1, 0.2], "covariance": [[0.04, 0.01], [0.01]]}))
        out = tmp_path / "r"
        assert cli_main([a.format(cfg=cfg) for a in argv] + ["--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert "Traceback" not in err and "covariance row lengths [2, 1]" in err
        assert not out.exists()


class TestRunAndValidate:
    def test_run_resolves_paths_relative_to_config(self, tmp_path):
        out = tmp_path / "r"
        code = cli_main(["run", "--config", str(DEMO / "stake.json"), "--out", str(out)])
        assert code == 0
        report = read_report(out)
        assert report["provenance"]["config_hash"]
        assert report["provenance"]["version"]

    def test_config_out_dir(self, tmp_path, capsys):
        config = json.loads((DEMO / "stake.json").read_text())
        config["balances"] = str(DEMO / "validators.csv")
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({**config, "out_dir": str(tmp_path / "named")}))
        assert cli_main(["run", "--config", str(cfg)]) == 0
        cfg.write_text(json.dumps(config))
        assert cli_main(["run", "--config", str(cfg), "--out", str(tmp_path / "flag")]) == 0
        # The report directory is left out of the config hash.
        assert read_report(tmp_path / "named") == read_report(tmp_path / "flag")
        cfg.write_text(json.dumps({**config, "out_dir": 5}))
        capsys.readouterr()
        assert cli_main(["run", "--config", str(cfg)]) == 2
        assert "out_dir: expected a non-empty string, got 5" in capsys.readouterr().err

    def test_validate_valid_config(self, capsys):
        assert cli_main(["validate", "--config", str(DEMO / "stake.json")]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload == {"valid": True, "problems": []}

    def test_validate_empty_config(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("{}")
        assert cli_main(["validate", "--config", str(cfg)]) == 2
        payload = json.loads(capsys.readouterr().out)
        assert payload["valid"] is False
        assert payload["problems"]

    def test_validate_names_missing_column(self, tmp_path, capsys):
        bad = tmp_path / "balances.csv"
        bad.write_text("id,timestamp,balance,state\nv,0,32,Active\n")
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"command": "stake", "balances": str(bad)}))
        assert cli_main(["validate", "--config", str(cfg)]) == 2
        payload = json.loads(capsys.readouterr().out)
        assert any("validator_id" in p for p in payload["problems"])

    def test_validate_collects_multiple_problems(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"command": "kelly"}))
        cli_main(["validate", "--config", str(cfg)])
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["problems"]) >= 2

    def test_missing_input_file_exit_2(self, tmp_path):
        code = cli_main(
            ["stake", "--balances", str(tmp_path / "absent.csv"), "--out", str(tmp_path / "r")]
        )
        assert code == 2

    def test_validate_pool_scenario_diagnostics(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps({"pool": {"reserve_x": 1}, "events": [{"action": "warp"}]}))
        cfg.write_text(json.dumps({"command": "amm", "scenario": str(scenario)}))
        assert cli_main(["validate", "--config", str(cfg)]) == 2
        payload = json.loads(capsys.readouterr().out)
        assert any("reserve_y" in p for p in payload["problems"])
        assert any("action" in p for p in payload["problems"])

    def test_run_unknown_command(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"command": "teleport"}))
        assert cli_main(["run", "--config", str(cfg), "--out", str(tmp_path / "r")]) == 2


KELLY_COV = [[0.04, 0.0], [0.0, 0.04]]

POOL = {
    "pool": {"reserve_x": 1000, "reserve_y": 1000, "fee": 0.003},
    "events": [
        {"action": "add", "dx": 100, "dy": 100, "position": "alice"},
        {"action": "swap_x_for_y", "amount": 10},
        {"action": "remove", "position": "alice", "shares": "all"},
    ],
}
SWAP = {
    "agreement": {
        "notional_a": 100, "notional_b": 100, "margin_a": 5, "margin_b": 5, "threshold": 0.2,
        "maturity_time": 365,
        "legs": [{"payer": "A", "token": "beta", "notional": 100, "rate": 0.04, "frequency_days": 73}],
    },
    "events": [
        {"time": 10, "type": "tick", "rate": 1.01},
        {"time": 20, "type": "replenish", "party": "B", "amount": 2},
    ],
}


def scenario_config(command, base, value, *path):
    """A command config holding `base` inline, with the key at `path` set to `value`."""
    scenario = json.loads(json.dumps(base))
    target = scenario
    for step in path[:-1]:
        target = target[step]
    target[path[-1]] = value
    return {"command": command, "scenario": scenario}

# Config problems that `run` must refuse with exit 2 before any work, and that
# `validate` must report. Each entry: config, the flags that give the same
# config (or None), the key or file:line the problem must name.
DRIFT_CASES = {
    "loan-without-repay": ({"command": "loan", "terms": {"collateral": 1.5}}, None, "terms.repay"),
    "loan-terms-not-object": ({"command": "loan", "terms": "x"}, None, "terms"),
    "kelly-without-covariance": ({"command": "kelly", "means": [0.1, 0.2]}, None, "covariance"),
    "kelly-text-mean": (
        {"command": "kelly", "means": ["x", 0.1], "covariance": KELLY_COV}, None, "means"
    ),
    "one-touch-without-barrier": (
        {"command": "oracle", "spec": {"steps": 4, "paths": 1000}, "payoff": "one_touch"},
        None,
        "barrier",
    ),
    "oracle-text-paths": ({"command": "oracle", "spec": {"paths": "abc"}}, None, "spec.paths"),
    # Bool keys take only JSON true and false; bool("false") would read as true.
    "oracle-text-bridge": ({"command": "oracle", "spec": {"paths": 1000}, "bridge": "false"}, None, "bridge"),
    "oracle-text-antithetic": (
        {"command": "oracle", "spec": {"paths": 1000, "antithetic": "no"}}, None, "spec.antithetic"
    ),
    "pool-text-exact": (scenario_config("amm", POOL, "false", "pool", "exact"), None, "pool.exact"),
    # Integer keys refuse a fractional number rather than truncate it.
    "oracle-fractional-paths": ({"command": "oracle", "spec": {"paths": 2000.7, "seed": 3}}, None, "spec.paths"),
    "oracle-fractional-seed": ({"command": "oracle", "spec": {"paths": 2000, "seed": 3.9}}, None, "spec.seed"),
    # A misspelt key would otherwise be dropped and its default used.
    "oracle-unknown-key": (
        {"command": "oracle", "spec": {"paths": 1000}, "discount": 0.05}, None, "discount: unknown key"
    ),
    "oracle-unknown-spec-key": (
        {"command": "oracle", "spec": {"paths": 1000, "antithetc": False}}, None, "spec.antithetc: unknown key"
    ),
    "pool-unknown-key": (scenario_config("amm", POOL, 5, "pool", "gas"), None, "pool.gas: unknown key"),
    "pool-unknown-event-key": (
        scenario_config("amm", POOL, 10, "events", 1, "amout"), None, "events[1].amout: unknown key"
    ),
    "stake-bad-day": (
        {"command": "stake", "balances": str(DEMO / "validators.csv"), "day": "nope"}, None, "day"
    ),
    "stake-out-dir-not-text": (
        {"command": "stake", "balances": str(DEMO / "validators.csv"), "out_dir": 5}, None, "out_dir"
    ),
    "list-config": ([{"command": "kelly"}], None, "config"),
    "command-not-text": ({"command": ["kelly"]}, None, "command"),
    "kelly-text-mean-flag": (
        {"command": "kelly", "means": "0.1,x", "covariance": "0.04,0;0,0.04"},
        ["kelly", "--means", "0.1,x", "--cov", "0.04,0;0,0.04"],
        "means",
    ),
    "funding-csv-text-mark": ({"command": "perp-funding", "quotes": "quotes.csv"}, None, "quotes.csv:2"),
    "pool-text-amount": (scenario_config("amm", POOL, "abc", "events", 1, "amount"), None, "events[1].amount"),
    "pool-null-amount": (scenario_config("amm", POOL, None, "events", 1, "amount"), None, "events[1].amount"),
    "pool-text-dx": (scenario_config("amm", POOL, "x", "events", 0, "dx"), None, "events[0].dx"),
    "pool-text-gas-cost": (scenario_config("amm", POOL, "x", "pool", "gas_cost"), None, "pool.gas_cost"),
    "pool-text-shares": (scenario_config("amm", POOL, "most", "events", 2, "shares"), None, "events[2].shares"),
    "pool-nan-reserve": (scenario_config("amm", POOL, float("nan"), "pool", "reserve_x"), None, "pool.reserve_x"),
    "swap-text-notional": (
        scenario_config("xccy", SWAP, "abc", "agreement", "notional_a"), None, "agreement.notional_a"
    ),
    "swap-null-margin": (scenario_config("xccy", SWAP, None, "agreement", "margin_a"), None, "agreement.margin_a"),
    "swap-text-tick-time": (scenario_config("xccy", SWAP, "x", "events", 0, "time"), None, "events[0].time"),
    "swap-text-tick-rate": (scenario_config("xccy", SWAP, "x", "events", 0, "rate"), None, "events[0].rate"),
    "swap-nan-tick-rate": (scenario_config("xccy", SWAP, float("nan"), "events", 0, "rate"), None, "events[0].rate"),
    "swap-1e400-tick-rate": (scenario_config("xccy", SWAP, 1e400, "events", 0, "rate"), None, "events[0].rate"),
    "swap-text-frequency": (
        scenario_config("xccy", SWAP, "x", "agreement", "legs", 0, "frequency_days"),
        None,
        "agreement.legs[0].frequency_days",
    ),
    "swap-text-maturity": (
        scenario_config("xccy", SWAP, "x", "agreement", "maturity_time"), None, "agreement.maturity_time"
    ),
    "swap-text-replenish-amount": (
        scenario_config("xccy", SWAP, "x", "events", 1, "amount"), None, "events[1].amount"
    ),
    "swap-text-fixing-index": (scenario_config("xccy", SWAP, {"a": 0.03}, "fixings"), None, "fixings"),
    "swap-fixings-list": (scenario_config("xccy", SWAP, [0.03], "fixings"), None, "fixings"),
    "swap-legs-text": (
        scenario_config("xccy", SWAP, "x", "agreement", "legs"), None, "agreement.legs: expected a list"
    ),
    "swap-unknown-party": (scenario_config("xccy", SWAP, "C", "events", 1, "party"), None, "events[1].party"),
    # Fraction("1e999999999") would build a billion-digit integer before any range check.
    "pool-huge-exponent-amount": (
        scenario_config("amm", POOL, "1e999999999", "events", 1, "amount"), None, "events[1].amount"
    ),
    "swap-huge-exponent-rate": (
        scenario_config("xccy", SWAP, "1e-999999999", "events", 0, "rate"), None, "events[0].rate"
    ),
}


@pytest.mark.parametrize("case", sorted(DRIFT_CASES))
def test_run_and_validate_agree_on_config_problems(case, tmp_path, capsys):
    config, flags, name = DRIFT_CASES[case]
    (tmp_path / "quotes.csv").write_text("timestamp,mark,index\n0,x,40000\n")
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    out = tmp_path / "r"

    run_argv = (flags or ["run", "--config", str(cfg)]) + ["--out", str(out)]
    assert cli_main(run_argv) == 2
    run_err = capsys.readouterr().err
    assert "Traceback" not in run_err and name in run_err
    assert not out.exists()

    assert cli_main(["validate", "--config", str(cfg)]) == 2
    payload = json.loads(capsys.readouterr().out)
    assert payload["valid"] is False
    assert any(name in p for p in payload["problems"])


@pytest.mark.parametrize("event", [0, 2], ids=["add", "remove"])
@pytest.mark.parametrize("value", [7, [1], {"a": 1}, True, ""], ids=repr)
def test_pool_position_must_be_non_empty_text(value, event, tmp_path, capsys):
    # Each of these once replayed as a holder named by its Python text ("7", "[1]", ...).
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(scenario_config("amm", POOL, value, "events", event, "position")))
    problem = f"events[{event}].position: expected a non-empty string, got {value!r}"
    out = tmp_path / "r"
    assert cli_main(["run", "--config", str(cfg), "--out", str(out)]) == 2
    run_err = capsys.readouterr().err
    assert problem in run_err and "Traceback" not in run_err
    assert not out.exists()
    assert cli_main(["validate", "--config", str(cfg)]) == 2
    assert json.loads(capsys.readouterr().out)["problems"] == [f"scenario: {problem}"]


@pytest.mark.parametrize("flag", [["--barrier", "1.2"], ["--penalty", "0.08"]])
def test_loan_half_given_liquidation_exit_2(flag, tmp_path, capsys):
    out = tmp_path / "r"
    argv = ["loan", "price", "--collateral", "1.5", "--repay", "1", *flag, "--out", str(out)]
    assert cli_main(argv) == 2
    assert "liquidation." in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "argv, name",
    [
        (["loan", "price", "--collateral", "1.5", "--repay", "1", "--sigma-alpha", "nan"], "terms.sigma_alpha"),
        (["oracle", "price", "--sigma-a", "inf", "--paths", "1000"], "spec.sigma_a"),
        (["run", "--config", "{cfg}"], "terms.repay"),
    ],
)
def test_non_finite_numbers_exit_2(argv, name, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"command": "loan", "terms": {"collateral": 1.5, "repay": NaN}}')
    out = tmp_path / "r"
    assert cli_main([a.format(cfg=cfg) for a in argv] + ["--out", str(out)]) == 2
    assert name in capsys.readouterr().err
    assert not out.exists()


def test_report_json_is_strict_json(tmp_path):
    # Zero volatility makes d1 and d2 infinite; the report must still parse strictly.
    out = tmp_path / "r"
    assert cli_main(["loan", "price", "--collateral", "2", "--repay", "1", "--out", str(out)]) == 0

    def reject(constant):
        raise ValueError(f"non-finite constant {constant}")

    summary = json.loads((out / "report.json").read_text(), parse_constant=reject)["summary"]
    assert summary["d1"] is None and summary["d2"] is None


ACCRUAL_LEG = SWAP["agreement"]["legs"][0]


@pytest.mark.parametrize("verb", ["run", "validate"])
@pytest.mark.parametrize(
    "legs, name",
    [
        # 365 days at 0.0001 would be 3.65 million accrual periods, minutes of replay.
        ([{**ACCRUAL_LEG, "frequency_days": 0.0001}], "agreement.legs[0].frequency_days"),
        # 36,500 periods a leg is within the limit; the third leg takes the total past it.
        ([{**ACCRUAL_LEG, "frequency_days": 0.01}] * 3, "agreement.legs[2].frequency_days"),
    ],
    ids=["one-leg", "three-legs"],
)
def test_accrual_schedule_bound_exit_2(verb, legs, name, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(scenario_config("xccy", SWAP, legs, "agreement", "legs")))
    out = tmp_path / "r"
    start = time.perf_counter()
    assert cli_main([verb, "--config", str(cfg)] + (["--out", str(out)] if verb == "run" else [])) == 2
    assert time.perf_counter() - start < 1.0
    captured = capsys.readouterr()
    assert name in captured.out + captured.err
    assert not out.exists()


def test_exact_pool_replay_bound_exit_3(tmp_path, capsys):
    # Float amounts, as a market feed gives them: exact reserves pass the bit
    # budget within about 20 events; unbounded, these 40 do not finish in 30 s.
    rng = random.Random(12)
    events = [{"action": rng.choice(["swap_x_for_y", "swap_y_for_x"]), "amount": round(rng.uniform(100, 5000), 6)}
              for _ in range(40)]
    scenario = {"pool": {"reserve_x": 1e6, "reserve_y": 1e6, "fee": 0.003, "exact": True}, "events": events}
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"command": "amm", "scenario": scenario}))
    out = tmp_path / "r"
    start = time.perf_counter()
    assert cli_main(["run", "--config", str(cfg), "--out", str(out)]) == 3
    assert time.perf_counter() - start < 1.0
    err = capsys.readouterr().err
    assert "bit budget" in err and "Traceback" not in err
    assert not out.exists()



@pytest.mark.parametrize("reserve, events", [
    (1e-300, []),
    (1e-300, [{"action": "swap_x_for_y", "amount": 1e-300}]),
    (1e300, []),
], ids=["1e-300", "1e-300-then-swap", "1e300"])
def test_pool_minting_no_finite_supply_exit_3(reserve, events, tmp_path, capsys):
    # sqrt(reserve_x * reserve_y) is 0.0 or inf in floats: a pool withdrawn at birth, or infinite shares.
    scenario = {"pool": {"reserve_x": reserve, "reserve_y": reserve, "fee": 0.003}, "events": events}
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"command": "amm", "scenario": scenario}))
    out = tmp_path / "r"
    assert cli_main(["run", "--config", str(cfg), "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert f"initial reserves {reserve} and {reserve} mint " in err and "Traceback" not in err
    assert not out.exists()

def test_stake_percentile_out_of_range_without_cohort_exit_3(tmp_path, capsys):
    # Every balance is below the 32 minimum, so no day has a cohort: the level is refused all the same.
    balances = tmp_path / "validators.csv"
    balances.write_text("validator_id,timestamp,balance,state\n"
                        "v1,2021-06-01T00:00:00Z,31.0,Active\nv1,2021-06-02T00:00:00Z,31.5,Active\n")
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"command": "stake", "balances": str(balances), "percentiles": [50, 150]}))
    out = tmp_path / "r"
    assert cli_main(["run", "--config", str(cfg), "--out", str(out)]) == 3
    assert "percentile level must be in [0, 100], got 150" in capsys.readouterr().err
    assert not out.exists()


def test_non_finite_input_cell_exit_2(tmp_path, capsys):
    # The demo funding quotes with a nan mark on line 3.
    lines = (DEMO / "funding_quotes.csv").read_text().splitlines()
    lines[2] = "28800,nan,40000"
    quotes = tmp_path / "funding_quotes.csv"
    quotes.write_text("\n".join(lines) + "\n")
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"command": "perp-funding", "quotes": str(quotes)}))
    out = tmp_path / "r"
    assert cli_main(["run", "--config", str(cfg), "--out", str(out)]) == 2
    assert "funding_quotes.csv:3: column 'mark' holds a non-finite number 'nan'" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("verb", ["run", "validate"])
def test_out_of_order_funding_quotes_exit_2(verb, tmp_path, capsys):
    # The demo funding quotes in reverse order: the second data row (line 3) is the first out of order.
    header, *rows = (DEMO / "funding_quotes.csv").read_text().splitlines()
    quotes = tmp_path / "funding_quotes.csv"
    quotes.write_text("\n".join([header, *reversed(rows)]) + "\n")
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"command": "perp-funding", "quotes": str(quotes)}))
    out = tmp_path / "r"
    assert cli_main([verb, "--config", str(cfg)] + (["--out", str(out)] if verb == "run" else [])) == 2
    captured = capsys.readouterr()
    assert "funding_quotes.csv:3: quote time" in captured.out + captured.err
    assert not out.exists()


# One-row CSVs with a price that is zero or negative: a loader rule, so run and
# validate both exit 2 naming the row, where the run used to fail at the model.
NON_POSITIVE_PRICES = {
    "basis-perp-zero": ("perp-basis", "timestamp,perp,future,expiry\n0,0,51000,7884000\n",
                        "perp and future prices must be > 0"),
    "basis-future-negative": ("perp-basis", "timestamp,perp,future,expiry\n0,50000,-5,7884000\n",
                              "perp and future prices must be > 0"),
    "funding-mark-zero": ("perp-funding", "timestamp,mark,index\n0,0,40000\n", "mark and index prices must be > 0"),
    "funding-index-negative": ("perp-funding", "timestamp,mark,index\n0,40000,-1\n",
                               "mark and index prices must be > 0"),
}


@pytest.mark.parametrize("verb", ["run", "validate"])
@pytest.mark.parametrize("case", sorted(NON_POSITIVE_PRICES))
def test_non_positive_price_exit_2_naming_its_line(case, verb, tmp_path, capsys):
    command, text, rule = NON_POSITIVE_PRICES[case]
    quotes = tmp_path / "quotes.csv"
    quotes.write_text(text)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"command": command, "quotes": str(quotes)}))
    out = tmp_path / "r"
    assert cli_main([verb, "--config", str(cfg)] + (["--out", str(out)] if verb == "run" else [])) == 2
    captured = capsys.readouterr()
    assert f"quotes.csv:2: {rule}" in captured.out + captured.err
    assert not out.exists()


# Calls that parse, that fail in argparse, and that print help, in an order where
# each follows a different command.
PARSER_CALLS = [
    ["stake", "--balances", "b.csv", "--day", "2021-06-02", "--out", "r"],
    ["perp", "funding", "--quotes", "q.csv", "--variant", "bitmex", "--band", "0.001", "--out", "r"],
    ["perp", "funding", "--quotes", "q.csv", "--out", "r"],
    ["oracle", "price", "--naive", "--paths", "10", "--out", "r"],
    ["oracle", "price", "--out", "r"],
    ["stake", "--out", "r"],
    ["perp", "basis", "--quotes", "q.csv", "--window", "3", "--bogus", "--out", "r"],
    ["perp"],
    ["run", "--config", "c.json"],
    ["validate"],
    ["kelly", "--means", "0.1", "--cov", "0.04", "--out", "r"],
    ["perp", "funding", "--help"],
    ["stake", "--balances", "b.csv", "--out", "r"],
]


def parse(parser, argv):
    """(namespace or exit code, stdout, stderr) of one parse."""
    with contextlib.redirect_stdout(io.StringIO()) as out, contextlib.redirect_stderr(io.StringIO()) as err:
        try:
            result = vars(parser.parse_args(argv))
        except SystemExit as exc:
            result = exc.code
    return result, out.getvalue(), err.getvalue()


def test_shared_parser_parses_like_a_fresh_one():
    shared = cli._parser()
    assert cli._parser() is shared
    for _ in range(2):
        for argv in PARSER_CALLS:
            assert parse(shared, argv) == parse(cli.build_parser(), argv), argv


def test_main_builds_the_parser_once(monkeypatch, capsys):
    built = []
    build = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or build())
    cli._parser.cache_clear()
    try:
        for argv in (["validate", "--config", str(DEMO / "kelly.json")], ["kelly", "--means", "x", "--out", "r"]):
            cli_main(argv)
    finally:
        cli._parser.cache_clear()
    assert len(built) == 1


def test_successive_main_calls_behave_like_fresh_processes(tmp_path, capsys):
    # The same calls in one process, each after a different command, exit and print as in a new process.
    calls = [
        ["perp", "funding", "--quotes", str(DEMO / "funding_quotes.csv"), "--variant", "bitmex",
         "--out", str(tmp_path / "a")],
        ["stake", "--balances", str(DEMO / "validators.csv"), "--percentiles", "5,50", "--out", str(tmp_path / "b")],
        ["perp", "funding", "--quotes", str(DEMO / "funding_quotes.csv"), "--out", str(tmp_path / "c")],
        ["stake", "--bogus"],
        ["validate", "--config", str(DEMO / "stake.json")],
    ]
    env = {**os.environ, "PYTHONPATH": str(REPO / "src")}
    for argv in calls:
        try:
            code = cli_main(argv)
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        fresh = subprocess.run([sys.executable, "-m", "cryptoyield.cli", *argv], env=env, cwd=tmp_path,
                               capture_output=True, text=True)
        assert (code, captured.out, captured.err) == (fresh.returncode, fresh.stdout, fresh.stderr), argv


@pytest.mark.parametrize("out", ["taken", "taken/report"], ids=["a-file", "under-a-file"])
def test_unwritable_out_exits_2_naming_it(out, tmp_path, capsys):
    (tmp_path / "taken").write_text("keep")
    code = cli_main(["run", "--config", str(DEMO / "kelly.json"), "--out", str(tmp_path / out)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith(f"input error: --out {tmp_path / out}: cannot write the report: ")
    assert "Traceback" not in err
    assert [p.name for p in tmp_path.iterdir()] == ["taken"]
    assert (tmp_path / "taken").read_text() == "keep"


@pytest.mark.parametrize("verb", ["run", "validate"])
def test_config_that_is_not_utf8_exit_2(verb, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_bytes(b'{"command": "kelly", "means": "\xff"}')
    out = tmp_path / "r"
    assert cli_main([verb, "--config", str(cfg)] + (["--out", str(out)] if verb == "run" else [])) == 2
    assert capsys.readouterr().err.startswith(f"input error: {cfg}: not UTF-8 text: ")
    assert not out.exists()


def test_reports_are_utf8_whatever_the_locale(tmp_path):
    scenario = json.loads((DEMO / "pool_scenario.json").read_text())
    for event in scenario["events"]:
        if event.get("position") == "alice":
            event["position"] = "Jos\u00e9"
    (tmp_path / "pool.json").write_text(json.dumps(scenario, ensure_ascii=False), encoding="utf-8")
    (tmp_path / "cfg.json").write_text(json.dumps({"command": "amm", "scenario": "pool.json"}))
    env = {k: v for k, v in os.environ.items() if not k.startswith(("LC_", "PYTHONIOENCODING"))}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(REPO / "src"), env.get("PYTHONPATH")]))
    locales = {"ascii": {"LC_ALL": "C", "LANG": "C", "PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0"},
               "utf8": {"PYTHONUTF8": "1"}}
    reports = {}
    for name, overrides in locales.items():
        argv = [sys.executable, "-m", "cryptoyield.cli", "run", "--config", str(tmp_path / "cfg.json"),
                "--out", str(tmp_path / name)]
        done = subprocess.run(argv, env={**env, **overrides}, capture_output=True, timeout=60)
        assert done.returncode == 0, done.stderr.decode(errors="replace")
        reports[name] = {p.name: p.read_bytes() for p in (tmp_path / name).iterdir()}
    assert reports["ascii"] == reports["utf8"]
    assert "Jos\u00e9,".encode() in reports["ascii"]["positions.csv"]


def test_cli_import_leaves_out_the_thread_pool():
    # Only the Monte Carlo oracles draw on a helper thread; every other command starts without it.
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(REPO / "src"), os.environ.get("PYTHONPATH")]))}
    code = "import sys, cryptoyield.cli; print('concurrent.futures' in sys.modules)"
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert (done.returncode, done.stdout) == (0, "False\n"), done.stderr


def test_non_finite_csv_cell_exit_3(tmp_path, capsys):
    # A 1e308 swap drives the pool's reserves past float range: pnl would be written as inf.
    scenario = {"pool": {"reserve_x": 1000, "reserve_y": 1000, "fee": 0.003},
                "events": [{"action": "swap_x_for_y", "amount": 1e308}]}
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"command": "amm", "scenario": scenario}))
    out = tmp_path / "r"
    assert cli_main(["run", "--config", str(cfg), "--out", str(out)]) == 3
    assert "positions.csv" in capsys.readouterr().err
    assert not out.exists()


@settings(max_examples=150, derandomize=True, deadline=None, database=None)
@given(cli_fuzz.scenarios())
def test_scenario_fuzz_keeps_the_cli_contract(case):
    command, scenario = case
    with tempfile.TemporaryDirectory() as workdir:
        cli_fuzz.check_scenario(command, scenario, workdir)


@settings(max_examples=150, derandomize=True, deadline=None, database=None)
@given(cli_fuzz.configs())
def test_config_fuzz_keeps_the_cli_contract(case):
    config, named = case
    with tempfile.TemporaryDirectory() as workdir:
        cli_fuzz.check_config(config, workdir, named)


OBJECT_PATHS = cli_fuzz.object_paths()
OBJECT_IDS = [f"{name}-{'.'.join(map(str, path)) or 'top'}" for name, path in OBJECT_PATHS]


@pytest.mark.parametrize("name, path", OBJECT_PATHS, ids=OBJECT_IDS)
def test_unknown_key_at_every_level_exits_2(name, path, tmp_path):
    config, named = cli_fuzz.with_unknown_key(name, path)
    assert cli_fuzz.check_config(config, tmp_path, named) == 2


def test_renamed_variant_tag_is_named_unknown(tmp_path):
    config = copy.deepcopy(cli_fuzz.CONFIGS["amm"])
    event = config["scenario"]["events"][1]
    event["Action"] = event.pop("action")
    path = ("scenario", "events", 1)
    assert cli_fuzz.check_config(config, tmp_path, (path + ("Action",), path + ("action",))) == 2


@settings(max_examples=150, derandomize=True, deadline=None, database=None)
@given(cli_fuzz.csv_files())
def test_csv_fuzz_keeps_the_cli_contract(case):
    command, text = case
    with tempfile.TemporaryDirectory() as workdir:
        cli_fuzz.check_csv(command, text, workdir)


@pytest.mark.parametrize("payoff, oracle", [("exchange", "price_payoff"), ("one_touch", "first_passage_value")])
def test_out_of_memory_exit_3(payoff, oracle, tmp_path, capsys, monkeypatch):
    # As a path count too large for the machine fails, without allocating it here.
    def allocate(*args, **kwargs):
        raise MemoryError("Unable to allocate 7.45 GiB for an array with shape (1000000000,) and data type float64")

    monkeypatch.setattr(cli.mc, oracle, allocate)
    out = tmp_path / "r"
    argv = ["oracle", "price", "--payoff", payoff, "--barrier", "1.2", "--s0-a", "1.5",
            "--paths", "2000000000", "--out", str(out)]
    assert cli_main(argv) == 3
    err = capsys.readouterr().err
    assert err == "error: out of memory: Unable to allocate 7.45 GiB for an array with shape (1000000000,) and data type float64\n"
    assert not out.exists()


@pytest.mark.parametrize("payoff", ["exchange", "one_touch"])
@pytest.mark.parametrize("paths", ["flag", "config"])
def test_path_count_beyond_any_machine_exit_3(payoff, paths, tmp_path, capsys):
    # numpy refuses these counts with a bare ValueError rather than a MemoryError.
    out = tmp_path / "r"
    if paths == "flag":
        argv = ["oracle", "price", "--payoff", payoff, "--barrier", "1.2", "--s0-a", "1.5",
                "--paths", str(1 << 62), "--out", str(out)]
    else:
        config = {"command": "oracle", "payoff": payoff, "barrier": 1.2, "spec": {"s0_a": 1.5, "paths": 1e20}}
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        argv = ["run", "--config", str(cfg), "--out", str(out)]
    assert cli_main(argv) == 3
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: ") and "paths must be <= 281474976710656" in err
    assert not out.exists()
