#!/usr/bin/env bash
# Build the benchmark (a no-op when it is up to date) and run it with the
# given arguments; BENCHMARK.json's command.  Run from the repository root:
# the root's .cargo/config.toml (cmpxchg16b) applies from there.
#
#   bash benchmark/run.sh --workload lookup_resident --seed 1 --seconds 20 --trace 0
set -euo pipefail

manifest=benchmark/Cargo.toml
target=${CARGO_TARGET_DIR:-benchmark/target}

# The gate must build even if a deletion elsewhere has broken a probe, so
# the probe binary is built only for the traced run that needs it.
bins=(--bin growt-benchmark)
previous=""
for arg in "$@"; do
    if [[ $previous == --trace && $arg == 1 ]]; then
        bins+=(--bin growt-benchmark-layers)
    fi
    previous=$arg
done

cargo build --release --offline --quiet --manifest-path "$manifest" "${bins[@]}" >&2
exec "$target/release/growt-benchmark" "$@"
