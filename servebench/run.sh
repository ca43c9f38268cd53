#!/usr/bin/env bash
# Builds the serve-path benchmark and the xai-shard-worker daemon it
# spawns in one release profile, then runs the benchmark:
#
#   bash servebench/run.sh --workload <local-cold|local-hot|remote-sharded> \
#       --seed <n> --seconds <s> --trace <0|1>
#
# Build output goes to stderr; the last line on stdout is the result.
# The build fails, and so does this script, outside a full checkout of
# the repository.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" \
    -p xai-servebench -p xai --bins >&2
exec "${CARGO_TARGET_DIR:-$here/target}/release/xai-servebench" "$@"
