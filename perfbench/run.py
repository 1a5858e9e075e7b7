#!/usr/bin/env python3
"""Builds the benchmark from source, then runs it.

    python3 perfbench/run.py --workload <grid|hpe-thrash|synth-large> \
        --seed N --seconds S --trace <0|1>

Cargo builds into $CARGO_TARGET_DIR (default: .bench_build at the
repository root); its output goes to stderr so that the benchmark's last
stdout line is its JSON result. Exits with the build's status if the build
fails, else with the benchmark's.
"""

import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main() -> int:
    env = dict(os.environ)
    target = Path(env.setdefault("CARGO_TARGET_DIR", ".bench_build"))
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", str(HERE / "Cargo.toml")],
        cwd=ROOT, env=env, stdout=sys.stderr, check=False,
    )
    if build.returncode != 0:
        print(f"perfbench: build failed ({build.returncode})", file=sys.stderr)
        return build.returncode
    exe = target if target.is_absolute() else ROOT / target
    bench = subprocess.run([str(exe / "release" / "perfbench"), *sys.argv[1:]],
                           cwd=ROOT, env=env, check=False)
    return bench.returncode


if __name__ == "__main__":
    sys.exit(main())
