# Developer entry points. `just --list` shows these; everything here is
# also runnable as plain cargo/bash commands (CI does not depend on just).

# Build and test the whole workspace, release profile.
test:
    cargo build --release --workspace
    cargo test -q --workspace

# Format + clippy, matching the CI `check` job.
check:
    cargo fmt --all -- --check
    cargo clippy --workspace --all-targets -- -D warnings

# All ten lint passes, the three ratchets and the `--json` report — the CI
# `lint` job, step for step.
lint:
    cargo test --release -p lob-lint
    git diff --exit-code crates/lint/panic_ratchet.tsv crates/lint/race_ratchet.tsv crates/lint/durability_ratchet.tsv
    cargo run --release -p lob-lint --bin lob-lint -- --json

# Re-baseline both ratchets after burning down violations.
ratchet:
    LOB_LINT_UPDATE_RATCHET=1 cargo test --release -p lob-lint --test workspace

# Rerun the 11 deterministic experiment binaries and diff each output
# against results/ (the CI `test` job's results step). `just results --bless`
# rewrites the pinned files instead.
results *args:
    bash scripts/check_results.sh {{args}}

# The runtime ordering witness over the drill runners.
witness:
    cargo test --release -q -p lob-harness --test order_witness

# The repo benchmark's self-check: 1/50-size smoke of all four workloads,
# BENCHMARK.json == manifest, same-seed determinism (see benchmark/README.md).
bench-check:
    bash benchmark/run.sh --check

# Alternating parent/change benchmark pairs against a revision: medians,
# quartiles and wins/pairs per end-to-end metric (scripts/bench_pairs.sh).
bench-pairs rev *workloads:
    bash scripts/bench_pairs.sh {{rev}} {{workloads}}

# ThreadSanitizer sweep (needs nightly + rust-src; skips gracefully).
tsan:
    bash scripts/tsan.sh
