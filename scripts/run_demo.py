#!/usr/bin/env python3
"""Run every demo config through the CLI into out/demo/<name>/.

A demo config is a JSON file in scenarios/demo/ with a top-level "command";
the other JSON files there are scenarios the configs point at.

Usage: python3 scripts/run_demo.py [output-root]
"""

import json
import pathlib
import sys

from cryptoyield.cli import main as cli_main


def run_pack(out_root: pathlib.Path, demo_dir: pathlib.Path) -> int:
    worst = 0
    for name in sorted(p.stem for p in demo_dir.glob("*.json") if "command" in json.loads(p.read_text())):
        config = demo_dir / f"{name}.json"
        out_dir = out_root / name
        code = cli_main(["run", "--config", str(config), "--out", str(out_dir)])
        status = "ok" if code == 0 else f"exit {code}"
        print(f"[{status}] {name} -> {out_dir}")
        worst = max(worst, code)
    return worst


if __name__ == "__main__":
    repo = pathlib.Path(__file__).resolve().parent.parent
    out_root = pathlib.Path(sys.argv[1]) if len(sys.argv) > 1 else repo / "out" / "demo"
    sys.exit(run_pack(out_root, repo / "scenarios" / "demo"))
