#!/usr/bin/env bash
# BENCHMARK.json's command: build what this run needs, then hand over to
# the driver binary with the arguments unchanged.
#
# End-to-end metrics (--trace 0) come from the default build, the one users
# run. The traced run (--trace 1) needs the program's per-core event rings
# compiled in, which is the `trace` feature. That build gets a target
# directory of its own so the two do not evict each other, and is told
# where the default build is: everything in a traced run that prices host
# time still runs there.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
target="${CARGO_TARGET_DIR:-$here/target}"

build() { # <target dir> [cargo flags...]
    cargo build --release --offline --quiet \
        --manifest-path "$here/Cargo.toml" --target-dir "$@" >&2
}

prev=""
for arg in "$@"; do
    if [[ $prev == --trace && $arg == 1 ]]; then
        build "$target"
        build "$target/trace" --features trace
        exec "$target/trace/release/svmbench" --plain "$target/release/svmbench" "$@"
    fi
    prev=$arg
done
build "$target"
exec "$target/release/svmbench" "$@"
