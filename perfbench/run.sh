#!/usr/bin/env bash
# Builds the program under test (`fannet`) and the benchmark driver from
# source, then makes one benchmark run:
#
#   bash perfbench/run.sh --workload <noise-cold|sweep-warm|paper-pipeline> \
#       --seed <n> --seconds <s> --trace <0|1>
#
# Run it from the repository root. Build output goes to stderr; the last
# line on stdout is the JSON result.
set -euo pipefail
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}"
cargo build --release --offline --quiet --bin fannet >&2
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/fannet-perfbench" \
    --fannet "$CARGO_TARGET_DIR/release/fannet" \
    --work-dir "$CARGO_TARGET_DIR/perfbench" "$@"
