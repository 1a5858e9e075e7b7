#!/usr/bin/env sh
# Full repo verification: formatting, hermetic offline build, and the
# complete workspace test suite (tier-1 is the build + root-package
# tests; this script is a superset).
#
# The workspace has zero external dependencies — `--offline` must
# succeed with an empty registry cache. If it ever starts failing with
# a missing-crate error, a dependency leaked in; see DESIGN.md §7.
set -eu

cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --all --check

echo "==> cargo build --release --offline (tier-1 build)"
cargo build --release --offline

echo "==> cargo test -q --offline (tier-1 tests, root package)"
cargo test -q --offline

echo "==> cargo test -q --offline --workspace (all crates)"
cargo test -q --offline --workspace

echo "==> perfbench tests (the benchmark builds against the public bench API)"
# perfbench/ is a Cargo workspace of its own that drives the simulator
# crates through their public functions; this stage fails as soon as an
# API change stops it from compiling.
CARGO_TARGET_DIR=.bench_build cargo test --offline --manifest-path perfbench/Cargo.toml

echo "==> chaos smoke campaign (seeded fault injection, must be panic-free)"
cargo run -q --release --offline -p hpe-bench --bin hpe-chaos -- smoke
cargo run -q --release --offline -p hpe-bench --bin hpe-chaos -- livelock > /dev/null
cargo run -q --release --offline -p hpe-bench --bin hpe-chaos -- livelock --retry > /dev/null

echo "==> parallel campaign smoke (8 workers, deterministic merge)"
# The chaos campaign fanned over 8 workers must exit 0; the
# parallel-equivalence test suite proves the merged report is
# byte-identical to a serial run, this smoke proves the CLI path works.
cargo run -q --release --offline -p hpe-bench --bin hpe-chaos -- campaign --workers 8 > /dev/null

echo "==> campaign kill/resume smoke (STN, limit-stopped then resumed)"
# The campaign snapshot is the repo's one resume format. A campaign
# stopped at --limit and resumed from its snapshot must save a report
# byte-identical to an uninterrupted run's. See DESIGN.md §11.
resume_dir=$(mktemp -d)
report=target/paper-results/campaign.json
cargo run -q --release --offline -p hpe-bench --bin hpe-lab -- campaign STN --workers 2 > /dev/null
mv "$report" "$resume_dir/straight.json"
cargo run -q --release --offline -p hpe-bench --bin hpe-lab -- campaign STN --workers 2 \
    --snapshot "$resume_dir/snap.json" --limit 5 > /dev/null
cargo run -q --release --offline -p hpe-bench --bin hpe-lab -- campaign STN --workers 2 \
    --snapshot "$resume_dir/snap.json" --resume > /dev/null
if ! cmp -s "$report" "$resume_dir/straight.json"; then
    rm -rf "$resume_dir"
    echo "resumed campaign report differs from the uninterrupted run" >&2
    exit 1
fi
rm -rf "$resume_dir"

echo "==> checkpoint/resume determinism smoke (STN, checkpoint mid-run)"
# `resume` runs STN straight through, checkpoints a second run mid-flight,
# resumes it in a fresh simulation, and exits nonzero unless the resumed
# SimStats are byte-identical to the uninterrupted run's.
cargo run -q --release --offline -p hpe-bench --bin hpe-chaos -- resume > /dev/null
cargo run -q --release --offline -p hpe-bench --bin hpe-chaos -- resume --plan victim-drop \
    --fallback lru-shadow --retry > /dev/null

echo "==> hpe-lint: full static analysis (all families incl. call-graph rules)"
# Exit codes: 0 clean, 1 violations (file:line listed above the summary),
# 2 internal error — same convention as hpe-chaos. The sweep includes
# the symbol-aware v2 families (panic-reachability, determinism-taint,
# stale-allow) and must stay interactive: budget 5 s wall clock, timed
# after the binary is built. Unwrap/expect/panic discipline is clippy's
# (the gate below); see DESIGN.md §10.
cargo build -q --release --offline -p hpe-bench --bin hpe-lint
lint_start=$(date +%s)
cargo run -q --release --offline -p hpe-bench --bin hpe-lint -- check
lint_elapsed=$(( $(date +%s) - lint_start ))
if [ "$lint_elapsed" -gt 5 ]; then
    echo "hpe-lint check took ${lint_elapsed}s, over the 5s budget" >&2
    exit 1
fi

echo "==> hpe-lint: golden/fixture self-check (regen must be a no-op)"
# Regenerating the golden diagnostic report must be byte-identical to
# the checked-in file — otherwise the goldens drifted from the fixtures
# (or an intentional diagnostic change forgot to run the regen).
golden=crates/lint/tests/golden/diagnostics.json
cp "$golden" "$golden.pre"
UPDATE_GOLDEN=1 cargo test -q --offline -p uvm-lint --test lint_tests \
    fixture_diagnostics_match_golden_json > /dev/null
if ! cmp -s "$golden" "$golden.pre"; then
    rm -f "$golden.pre"
    echo "golden diagnostics drifted from the fixtures; commit the regen" >&2
    exit 1
fi
rm -f "$golden.pre"

echo "==> invariant sanitizer zero-perturbation proof (STN + SGM, on vs off)"
# Runs HPE with the runtime invariant sanitizer enabled and disabled and
# exits nonzero unless SimStats are byte-identical.
cargo run -q --release --offline -p hpe-bench --bin hpe-chaos -- sanitize > /dev/null

echo "==> profiler smoke (one traced+profiled run, conservation checked)"
# `hpe-trace profile` attaches the cycle-attribution profiler to one
# run and exits 1 if the driver-timeline accounts fail to sum exactly
# to the run's total cycles. See DESIGN.md §12.
cargo run -q --release --offline -p hpe-bench --bin hpe-trace -- profile STN > /dev/null

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
# Enforces the root clippy.toml (wall clock, unseeded hashing) and the
# workspace panic lints. The seeded fixture package is excluded here and
# checked on its own below.
cargo clippy -q --offline --workspace --all-targets --exclude uvm-lint-clippy-fixture -- -D warnings

echo "==> clippy seeded fixture (must fail with exactly its declared findings)"
# Proves the clippy configuration still fires: every retired bespoke rule
# (wall-clock, randomness, unwrap) has a seeded violation, plus one
# fulfilled and one stale #[expect]. Exit 1 if clippy passes or reports
# anything other than the `// fires:` markers in the fixture.
python3 scripts/check_clippy_fixture.py

if [ "${CHECK_FIGURES:-0}" = "1" ]; then
    echo "==> figure shape check (CHECK_FIGURES=1)"
    sh scripts/check_figures.sh
fi

if [ "${CHECK_BENCH:-0}" = "1" ]; then
    echo "==> bench regression gate (CHECK_BENCH=1)"
    # Collects a fresh perf snapshot and compares it against the
    # highest-numbered benchmarks/BENCH_*.json under tolerance: the
    # simulation metrics are deterministic (tight tolerance), the
    # wall-clocks are noisy (loose tolerance, hence the env gate).
    # Exit codes: 0 pass/warn, 1 regression, 2 usage.
    cargo run -q --release --offline -p hpe-bench --bin hpe-lab -- bench-check --workers 8
fi

if [ "${CHECK_EXPLORE:-0}" = "1" ]; then
    echo "==> fault-space exploration smoke (CHECK_EXPLORE=1)"
    # The clean smoke spec must come back counterexample-free (exit 0);
    # the seeded-bad fixture must be found and shrunk (exit 1) and its
    # emitted repro must replay byte-identically (exit 0). See
    # DESIGN.md §13.
    cargo run -q --release --offline -p hpe-bench --bin hpe-chaos -- \
        explore fixtures/explore/smoke.json --workers 4 2> /dev/null > /dev/null
    if cargo run -q --release --offline -p hpe-bench --bin hpe-chaos -- \
        explore fixtures/explore/seeded-bad.json 2> /dev/null > /dev/null; then
        echo "CHECK_EXPLORE: seeded-bad spec unexpectedly came back clean" >&2
        exit 1
    fi
    cargo run -q --release --offline -p hpe-bench --bin hpe-chaos -- \
        replay target/paper-results/explore-repro-0.json > /dev/null
fi

if [ "${CHECK_TENANTS:-0}" = "1" ]; then
    echo "==> multi-tenant isolation smoke (CHECK_TENANTS=1)"
    # A 4-tenant mix on 2 workers must run panic-free (exit 0), and a
    # fault plan scoped to tenant 1 must leave every other tenant's
    # SimStats byte-identical to the fault-free mix — `tenants` exits 1
    # if containment is broken. See DESIGN.md §14.
    cargo run -q --release --offline -p hpe-bench --bin hpe-chaos -- \
        tenants --tenants 4 --workers 2 > /dev/null
    cargo run -q --release --offline -p hpe-bench --bin hpe-chaos -- \
        tenants --tenants 4 --workers 2 --plan signal-chaos --target 1 > /dev/null
    # The saved report must round-trip through the strict parser and
    # render with every tenant ok (exit 0).
    cargo run -q --release --offline -p hpe-bench --bin hpe-trace -- \
        tenants target/paper-results/tenant-mix-faulted.json > /dev/null
fi

if [ "${CHECK_PROFILE:-0}" = "1" ]; then
    echo "==> profiler byte-identity gate (CHECK_PROFILE=1)"
    # Runs STN and SGM with the profiler attached and detached and
    # exits nonzero unless SimStats are byte-identical and the
    # timeline accounts conserve — the observation-only contract.
    cargo run -q --release --offline -p hpe-bench --bin hpe-chaos -- profile
fi

echo "verify: OK"
