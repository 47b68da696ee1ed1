"""CLI fuzz: mutated demo scenarios and demo CSVs through `run` and `validate`.

`scenarios()` draws the demo pool or swap scenario and mutates it one to
three times: it drops a key, retypes one (text, null, bool, list, object),
sets a number to nan, inf, 1e308, a negative value or text with a huge
decimal exponent, or duplicates, reorders or truncates the events. Two
mutations keep the schema valid, so the draw reaches the replay: one scales
a number by a factor in [0.5, 2] (an add's two amounts, and the pool's two
reserves, together, so deposits keep the pool ratio), and one inserts an add
at the opening pool ratio, before the first trade, and a later remove, for
an existing holder or a new one.

`csv_files()` draws one of the demo CSV inputs (validator balances, option
chain, funding quotes, basis quotes) and mutates it one to three times: it
drops, duplicates or reorders rows, gives one row another row's timestamp
(and validator), puts nan, inf, a huge exponent or integer, a date before
the year 1, text or a byte that is not UTF-8 into a numeric cell, truncates
the file mid-line, prepends a byte-order mark, or leaves the header alone or
nothing at all.

`configs()` draws one of the demo command configs, with its input paths
made absolute and its scenario file inline, and mutates it once: it renames
a key by one character, adds an unknown key to an object at any nesting
level (`object_paths()` lists them all), retypes a value, or puts nan or inf
into a number.

`check_scenario`, `check_csv` and `check_config` run the result in-process
through `cli.main` and assert the contract:

  exit codes     `run` exits 0, 2 or 3 and no exception escapes `main`;
  no debris      a failed run leaves no report directory;
  finite output  every number in report.json and in each CSV is finite;
  agreement      when `validate` exits 2, `run` exits 2 as well (not the
                 converse: replay-time errors such as an unknown position
                 exit 2 without `validate` seeing them);
  named keys     a renamed or added key makes both exit 2 and both name
                 its path as `path: unknown key`, a renamed variant tag
                 included.
"""

import contextlib
import copy
import csv
import io
import json
import math
import pathlib
import string

from hypothesis import strategies as st

from cryptoyield.cli import main as cli_main

DEMO = pathlib.Path(__file__).resolve().parent.parent / "scenarios" / "demo"
BASES = {
    "amm": json.loads((DEMO / "pool_scenario.json").read_text()),
    "xccy": json.loads((DEMO / "swap_scenario.json").read_text()),
}
# command -> (config key of its CSV input, demo file)
CSV_INPUTS = {
    "stake": ("balances", "validators.csv"),
    "implied-rate": ("chain", "option_chain.csv"),
    "perp-funding": ("quotes", "funding_quotes.csv"),
    "perp-basis": ("quotes", "basis_quotes.csv"),
}
CSV_TEXT = {command: (DEMO / name).read_text() for command, (_, name) in CSV_INPUTS.items()}
# Columns that identify a row rather than measure something.
CSV_KEY_COLUMNS = {"validator_id", "timestamp", "quote_time"}
CSV_CELLS = (
    "nan", "inf", "-inf", "NaN", "1e308", "-1e308", "1e400", "1e999999999", "1e-999999999", "1" + "0" * 400,
    "0001-01-01T00:00:00Z", "x", "1,5", "4\udcff0",  # the lone surrogate writes byte 0xff: not UTF-8
)
RETYPED = ("text", None, True, [], {})
# No key name holds an upper-case letter, so a typo made with one is never
# another valid name.
TYPOS = string.ascii_uppercase
UNKNOWN_KEY = "unlisted"
NON_FINITE = (math.nan, math.inf, -math.inf)
# Keys scaled together by the perturb mutation, so a deposit keeps the pool ratio.
SCALED_TOGETHER = ({"dx", "dy"}, {"reserve_x", "reserve_y"})
# Listed first and three times over, the two mutations that keep the schema
# valid (perturb, pair) take most draws, so most pool draws reach the replay.
MUTATIONS = (*("perturb", "pair") * 3, "drop", "retype", "number", "duplicate", "reorder", "truncate")
NUMBERS = (math.nan, math.inf, 1e308, "negative", "1e999999999", "-1e-999999999")


def _demo_config(path):
    """A demo command config with absolute input paths and its scenario inline."""
    config = json.loads(path.read_text())
    for key, value in config.items():
        if key == "scenario":
            config[key] = json.loads((DEMO / value).read_text())
        elif isinstance(value, str) and (DEMO / value).is_file():
            config[key] = str(DEMO / value)
    return config


CONFIGS = {
    path.stem: _demo_config(path)
    for path in sorted(DEMO.glob("*.json"))
    if "command" in json.loads(path.read_text())
}


def _paths(node, prefix=()):
    """Every key path (dict keys and list indices) inside a JSON value."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, value in items:
        yield prefix + (key,)
        yield from _paths(value, prefix + (key,))


def _value(node, path):
    for step in path:
        node = node[step]
    return node


def _parent(node, path):
    return _value(node, path[:-1])


def _is_number(value):
    return isinstance(value, (int, float)) and not isinstance(value, bool)


@st.composite
def scenarios(draw):
    """(command, mutated scenario)."""
    command = draw(st.sampled_from(sorted(BASES)))
    scenario = copy.deepcopy(BASES[command])
    for _ in range(draw(st.integers(1, 3))):
        paths = list(_paths(scenario))
        events = scenario.get("events")
        mutation = draw(st.sampled_from(MUTATIONS))
        if mutation in ("number", "perturb"):
            paths = [p for p in paths if _is_number(_parent(scenario, p)[p[-1]])]
        if mutation in ("drop", "retype", "number", "perturb") and paths:
            path = draw(st.sampled_from(paths))
            parent = _parent(scenario, path)
            if mutation == "drop":
                del parent[path[-1]]
            elif mutation == "retype":
                parent[path[-1]] = copy.copy(draw(st.sampled_from(RETYPED)))
            elif mutation == "perturb":
                factor = draw(st.floats(0.5, 2.0))
                keys = next((k for k in SCALED_TOGETHER if path[-1] in k and k <= parent.keys()), {path[-1]})
                for key in keys:
                    if _is_number(parent[key]):
                        parent[key] *= factor
            else:
                number = draw(st.sampled_from(NUMBERS))
                old = parent[path[-1]]
                parent[path[-1]] = (-abs(old) if old else -1) if number == "negative" else number
        elif mutation == "pair" and command == "amm" and isinstance(events, list):
            _insert_pair(draw, scenario, events)
        elif isinstance(events, list) and events:
            if mutation == "duplicate":
                i = draw(st.integers(0, len(events) - 1))
                events.insert(i, copy.deepcopy(events[i]))
            elif mutation == "reorder":
                events[:] = draw(st.permutations(events))
            elif mutation == "truncate":
                del events[draw(st.integers(0, len(events))):]
    return command, scenario


def _insert_pair(draw, scenario, events):
    """Insert an add at the opening pool ratio, before the first trade, and a later remove by the same holder."""
    named = (e.get("position") for e in events if isinstance(e, dict))
    holders = {"genesis"} | {name for name in named if isinstance(name, str)}
    name = draw(st.sampled_from(sorted(holders | {"carol"})))
    spec = scenario["pool"] if isinstance(scenario.get("pool"), dict) else {}
    rx, ry = spec.get("reserve_x"), spec.get("reserve_y")
    ratio = ry / rx if _is_number(rx) and _is_number(ry) and rx else 1.0
    trades = [i for i, e in enumerate(events) if not (isinstance(e, dict) and e.get("action") in ("add", "remove"))]
    add = draw(st.integers(0, trades[0] if trades else len(events)))
    remove = draw(st.integers(add, len(events)))
    dx = draw(st.floats(1.0, 200.0))
    # A holder that may have later events keeps a position; a new one withdraws it all.
    shares = 1.0 if name in holders else "all"
    events.insert(remove, {"action": "remove", "position": name, "shares": shares})
    events.insert(add, {"action": "add", "dx": dx, "dy": dx * ratio, "position": name})


def object_paths():
    """(demo config name, path) of every object in every demo config, the top level included."""
    return [
        (name, path)
        for name, config in CONFIGS.items()
        for path in [(), *_paths(config)]
        if isinstance(_value(config, path), dict)
    ]


def with_unknown_key(name, path):
    """(demo config `name` with an unknown key added to the object at `path`, (the new key's path,))."""
    config = copy.deepcopy(CONFIGS[name])
    _value(config, path)[UNKNOWN_KEY] = 1
    return config, (path + (UNKNOWN_KEY,),)


@st.composite
def configs(draw):
    """(mutated demo command config, (new path, old path) of a renamed key,
    (path,) of an added one, or None)."""
    name = draw(st.sampled_from(sorted(CONFIGS)))
    config = copy.deepcopy(CONFIGS[name])
    paths = [p for p in _paths(config) if p != ("command",)]  # without a command no key table applies
    mutation = draw(st.sampled_from(("rename", "unknown", "retype", "number")))
    if mutation == "unknown":
        return with_unknown_key(name, draw(st.sampled_from([p for n, p in object_paths() if n == name])))
    if mutation == "rename":
        path = draw(st.sampled_from([p for p in paths if isinstance(p[-1], str)]))
        parent, key = _parent(config, path), path[-1]
        i = draw(st.integers(0, len(key) - 1))
        typo = key[:i] + draw(st.sampled_from(TYPOS)) + key[i + 1:]
        parent[typo] = parent.pop(key)
        return config, (path[:-1] + (typo,), path)
    numbers = [p for p in paths if _is_number(_value(config, p))]
    if mutation == "number" and numbers:
        path = draw(st.sampled_from(numbers))
        _parent(config, path)[path[-1]] = draw(st.sampled_from(NON_FINITE))
    else:  # retype, or a config without numbers
        path = draw(st.sampled_from(paths))
        _parent(config, path)[path[-1]] = copy.copy(draw(st.sampled_from(RETYPED)))
    return config, None


@st.composite
def csv_files(draw):
    """(command, mutated CSV text)."""
    command = draw(st.sampled_from(sorted(CSV_INPUTS)))
    header, *rows = CSV_TEXT[command].splitlines()
    columns = header.split(",")
    rows = [row.split(",") for row in rows]
    prefix, cut = "", None
    for _ in range(draw(st.integers(1, 3))):
        mutation = draw(st.sampled_from(
            ("drop", "duplicate", "reorder", "retime", "cell", "cell", "truncate", "bom", "empty", "header")
        ))
        if mutation == "bom":
            prefix = "\ufeff"
        elif mutation == "empty":
            return command, ""
        elif mutation == "header":
            rows = []
        elif mutation == "truncate":
            cut = draw(st.integers(len(header) + 1, len(CSV_TEXT[command]) - 1))
        elif not rows:
            continue
        elif mutation == "drop":
            del rows[draw(st.integers(0, len(rows) - 1))]
        elif mutation == "duplicate":
            i = draw(st.integers(0, len(rows) - 1))
            rows.insert(i, list(rows[i]))
        elif mutation == "reorder":
            rows[:] = draw(st.permutations(rows))
        elif mutation == "retime":
            source, target = draw(st.integers(0, len(rows) - 1)), draw(st.integers(0, len(rows) - 1))
            for c, name in enumerate(columns):
                if name in CSV_KEY_COLUMNS:
                    rows[target][c] = rows[source][c]
        else:  # cell
            numeric = [c for c, name in enumerate(columns) if name not in ("validator_id", "state")]
            row, c = draw(st.integers(0, len(rows) - 1)), draw(st.sampled_from(numeric))
            rows[row][c] = draw(st.sampled_from(CSV_CELLS))
    text = prefix + "\n".join([header, *(",".join(row) for row in rows)]) + "\n"
    return command, text if cut is None else text[:cut]


def _assert_finite_report(out):
    def reject(constant):
        raise AssertionError(f"report.json holds {constant}")

    json.loads((out / "report.json").read_text(), parse_constant=reject)
    for path in out.glob("*.csv"):
        with open(path, newline="") as fh:
            for row in csv.reader(fh):
                for cell in row:
                    try:
                        number = float(cell)
                    except ValueError:
                        continue
                    assert math.isfinite(number), f"{path.name} holds {cell}"


def check_scenario(command, scenario, workdir) -> int:
    """Run and validate one scenario under `workdir`; returns `run`'s exit code."""
    return check_config({"command": command, "scenario": scenario}, workdir)


def check_csv(command, text, workdir) -> int:
    """Run and validate one command on CSV `text` under `workdir`; returns `run`'s exit code."""
    key, name = CSV_INPUTS[command]
    path = pathlib.Path(workdir) / name
    path.write_bytes(text.encode("utf-8", "surrogateescape"))
    return check_config({"command": command, key: str(path)}, workdir)


def _key_path(path):
    """`events[3].amount` for ("events", 3, "amount"); an inline scenario's
    paths start inside it, as its checker names them."""
    if path[0] == "scenario":
        path = path[1:]
    return "".join(f"[{step}]" if isinstance(step, int) else f".{step}" for step in path).lstrip(".")


def _cli(argv):
    """(exit code, stdout and stderr) of one in-process `cli.main` call."""
    with contextlib.redirect_stdout(io.StringIO()) as out, contextlib.redirect_stderr(io.StringIO()) as err:
        code = cli_main(argv)
    return code, out.getvalue() + err.getvalue()


def check_config(command_config, workdir, named=None) -> int:
    """Run and validate one command config under `workdir`; returns `run`'s exit code.

    `named` holds the new (and old) path of a renamed or added key, as
    `configs()` draws it. Both must name the new path as an unknown key.
    """
    workdir = pathlib.Path(workdir)
    config, out = workdir / "cfg.json", workdir / "report"
    config.write_text(json.dumps(command_config))
    run, run_said = _cli(["run", "--config", str(config), "--out", str(out)])
    valid, valid_said = _cli(["validate", "--config", str(config)])
    if named:
        unknown = f"{_key_path(named[0])}: unknown key"
        assert (run, valid) == (2, 2), f"{unknown}: run exited {run}, validate {valid}"
        for said in (run_said, valid_said):
            assert unknown in said, f"no {unknown!r} in:\n{said}"
    assert run in (0, 2, 3), f"run exited {run}"
    if run:
        assert not out.exists(), "a failed run left a report directory"
    else:
        _assert_finite_report(out)
    assert valid == 0 or run == 2, f"validate exited {valid} but run exited {run}"
    return run
