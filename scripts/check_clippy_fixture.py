#!/usr/bin/env python3
"""Proves the workspace clippy configuration still fires.

Runs clippy on the seeded fixture package
(crates/lint/tests/fixtures/clippy), which inherits the root
`clippy.toml` and `[workspace.lints.clippy]`, and requires it to fail
with exactly the findings the fixture declares: every line ending in a
`// fires: <lint>[, <lint>..]` marker must be reported with those lint
names, and nothing else may be reported.

Usage (from the repository root): python3 scripts/check_clippy_fixture.py
Exit codes: 0 as declared, 1 clippy passed or the findings differ.
"""

import json
import re
import subprocess
import sys

PACKAGE = "uvm-lint-clippy-fixture"
SOURCE = "crates/lint/tests/fixtures/clippy/src/lib.rs"


def declared():
    """(line, lint) pairs from the `// fires:` markers trailing code lines."""
    want = set()
    with open(SOURCE, encoding="utf-8") as f:
        for n, line in enumerate(f, 1):
            m = re.match(r"\s*[^/\s].*// fires: (.*)$", line)
            if m:
                want.update((n, lint.strip()) for lint in m.group(1).split(","))
    return want


def reported():
    """Clippy's exit code and its (line, lint) findings on the fixture."""
    proc = subprocess.run(
        ["cargo", "clippy", "-q", "--offline", "-p", PACKAGE,
         "--message-format=json", "--", "-D", "warnings"],
        capture_output=True, text=True, check=False,
    )
    got = set()
    for raw in proc.stdout.splitlines():
        msg = json.loads(raw)
        if msg.get("reason") != "compiler-message":
            continue
        diag = msg["message"]
        if not diag.get("code"):
            continue  # the "could not compile" summary
        for span in diag["spans"]:
            if span["is_primary"]:
                where = span["line_start"]
                if not span["file_name"].endswith(SOURCE):
                    where = f'{span["file_name"]}:{where}'
                got.add((where, diag["code"]["code"]))
    return proc.returncode, got


def main():
    want = declared()
    code, got = reported()
    if code == 0:
        print(f"clippy passed on {PACKAGE}; its seeded violations must fail", file=sys.stderr)
        return 1
    ok = True
    for line, lint in sorted(want - got, key=str):
        print(f"{SOURCE}:{line}: expected `{lint}`, clippy did not report it", file=sys.stderr)
        ok = False
    for line, lint in sorted(got - want, key=str):
        print(f"{SOURCE}:{line}: clippy reported undeclared `{lint}`", file=sys.stderr)
        ok = False
    if ok:
        print(f"clippy fixture: {len(want)} declared finding(s), all reported, no others")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
