#!/usr/bin/env bash
# Repeatability check: two untraced passes over every workload, same code,
# same seed, held against the benchmark's own bounds by `--compare`. Every
# simulated metric must repeat exactly, every host metric must stay within
# its bound, and no row may come out "unresolved".
#
#   svmbench/selfcheck.sh [seed] [reps]
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
target="${CARGO_TARGET_DIR:-$here/target}"
seed="${1:-379979}" # 0x5CC4B, the seed of every kv harness in the repository
reps="${2:-5}"

cargo build --release --offline --quiet \
    --manifest-path "$here/Cargo.toml" --target-dir "$target" >&2
bin="$target/release/svmbench"
mkdir -p "$here/out"
for side in A B; do
    "$bin" --seed "$seed" --reps "$reps" --out "$here/out/selfcheck_$side.json" 2>/dev/null
done
"$bin" --compare "$here/out/selfcheck_A.json" "$here/out/selfcheck_B.json"
