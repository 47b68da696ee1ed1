"""Scenario fuzz for the CLI: mutated demo scenarios through `run` and `validate`.

`scenarios()` draws the demo pool or swap scenario and mutates it one to
three times: it drops a key, retypes one (text, null, bool, list, object),
sets a number to nan, inf, 1e308, a negative value or text with a huge
decimal exponent, or duplicates, reorders or truncates the events. `check_scenario` runs the result in-process
through `cli.main`, inline in a command config, and asserts the contract:

  exit codes     `run` exits 0, 2 or 3 and no exception escapes `main`;
  no debris      a failed run leaves no report directory;
  finite output  every number in report.json and in each CSV is finite;
  agreement      when `validate` exits 2, `run` exits 2 as well (not the
                 converse: replay-time errors such as an unknown position
                 exit 2 without `validate` seeing them).
"""

import contextlib
import copy
import csv
import io
import json
import math
import pathlib

from hypothesis import strategies as st

from cryptoyield.cli import main as cli_main

DEMO = pathlib.Path(__file__).resolve().parent.parent / "scenarios" / "demo"
BASES = {
    "amm": json.loads((DEMO / "pool_scenario.json").read_text()),
    "xccy": json.loads((DEMO / "swap_scenario.json").read_text()),
}
RETYPED = ("text", None, True, [], {})
NUMBERS = (math.nan, math.inf, 1e308, "negative", "1e999999999", "-1e-999999999")


def _paths(node, prefix=()):
    """Every key path (dict keys and list indices) inside a JSON value."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, value in items:
        yield prefix + (key,)
        yield from _paths(value, prefix + (key,))


def _parent(scenario, path):
    for step in path[:-1]:
        scenario = scenario[step]
    return scenario


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
        mutation = draw(st.sampled_from(("drop", "retype", "number", "duplicate", "reorder", "truncate")))
        if mutation == "number":
            paths = [p for p in paths if _is_number(_parent(scenario, p)[p[-1]])]
        if mutation in ("drop", "retype", "number") and paths:
            path = draw(st.sampled_from(paths))
            parent = _parent(scenario, path)
            if mutation == "drop":
                del parent[path[-1]]
            elif mutation == "retype":
                parent[path[-1]] = copy.copy(draw(st.sampled_from(RETYPED)))
            else:
                number = draw(st.sampled_from(NUMBERS))
                old = parent[path[-1]]
                parent[path[-1]] = (-abs(old) if old else -1) if number == "negative" else number
        elif isinstance(events, list) and events:
            if mutation == "duplicate":
                i = draw(st.integers(0, len(events) - 1))
                events.insert(i, copy.deepcopy(events[i]))
            elif mutation == "reorder":
                events[:] = draw(st.permutations(events))
            elif mutation == "truncate":
                del events[draw(st.integers(0, len(events))):]
    return command, scenario


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
    workdir = pathlib.Path(workdir)
    config, out = workdir / "cfg.json", workdir / "report"
    config.write_text(json.dumps({"command": command, "scenario": scenario}))
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        run = cli_main(["run", "--config", str(config), "--out", str(out)])
        valid = cli_main(["validate", "--config", str(config)])
    assert run in (0, 2, 3), f"run exited {run}"
    if run:
        assert not out.exists(), "a failed run left a report directory"
    else:
        _assert_finite_report(out)
    assert valid == 0 or run == 2, f"validate exited {valid} but run exited {run}"
    return run
