#!/usr/bin/env python3
"""Count the physical and code lines of Python files.

Usage:

    python3 scripts/code_lines.py src/cryptoyield/*.py

Prints one line per file, then a total: its physical lines (as `wc -l`
counts them) and its code lines. A code line holds a token of some
statement other than a docstring; comments, blank lines and docstrings
(a statement that is only a string) are not code. A string or bracket that
spans lines counts every line it spans.
"""

from __future__ import annotations

import argparse
import tokenize

_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.INDENT, tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def count(path) -> tuple[int, int]:
    """(physical lines, code lines) of the Python file at `path`."""
    with open(path, "rb") as fh:
        physical = fh.read().count(b"\n")
        fh.seek(0)
        tokens = [t for t in tokenize.tokenize(fh.readline) if t.type not in _LAYOUT]
    code, statement = set(), []
    for token in tokens:
        if token.type != tokenize.NEWLINE:
            statement.append(token)
            continue
        if any(t.type != tokenize.STRING for t in statement):  # not a docstring
            for t in statement:
                code.update(range(t.start[0], t.end[0] + 1))
        statement = []
    return physical, len(code)


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("files", nargs="+", help="Python files to count")
    args = parser.parse_args(argv)
    total = [0, 0]
    for path in args.files:
        physical, code = count(path)
        total[0] += physical
        total[1] += code
        print(f"{physical:7d} {code:7d}  {path}")
    print(f"{total[0]:7d} {total[1]:7d}  total")


if __name__ == "__main__":
    main()
