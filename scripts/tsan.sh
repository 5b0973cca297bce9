#!/usr/bin/env bash
# ThreadSanitizer sweep over the threaded drills (DESIGN.md §5.11).
#
# TSan is the dynamic half of lob-lint's guarded-by pass (pass 3): the pass
# checks the *locking discipline* lexically, TSan checks the actual
# happens-before races the discipline is meant to prevent, over the
# parallel sweep, the parallel restore/redo paths and the group-commit
# scheduler's gather under concurrent sessions. It requires a
# nightly toolchain with the rust-src component (for -Zbuild-std); when
# that is unavailable (offline runners, stable-only images) the script
# skips with exit 0 so CI treats it as best-effort, not a failure.
set -u

cd "$(dirname "$0")/.."

if ! rustup toolchain list 2>/dev/null | grep -q nightly; then
    echo "tsan: no nightly toolchain installed — skipping"
    exit 0
fi
if ! rustup component list --toolchain nightly 2>/dev/null \
    | grep -q "rust-src.*(installed)"; then
    echo "tsan: nightly rust-src component missing — skipping"
    exit 0
fi

host=$(rustc -vV | sed -n 's/^host: //p')
echo "tsan: running the parallel and concurrent-session drills under ThreadSanitizer ($host)"
RUSTFLAGS="-Zsanitizer=thread" \
    cargo +nightly test -Zbuild-std --target "$host" \
    -p lob-harness --test parallel_backup --test parallel_recovery --test concurrent_sessions
status=$?
if [ $status -ne 0 ]; then
    echo "tsan: FAILED (exit $status)"
    exit $status
fi
echo "tsan: clean"
