#!/usr/bin/env bash
# Repo gate: formatting, lints, and the tier-1 build+test cycle.
# Run from anywhere; operates on the workspace root.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo clippy (default members, deny warnings)"
cargo clippy -- -D warnings

echo "==> mfv-lint (determinism & panic-safety rules + suppression inventory)"
cargo run -q -p mfv-lint

echo "==> mfv-conflint (cross-device config analysis on tracked topologies)"
cargo run -q -p mfv-conflint -- --deny-warnings examples/topologies/*.json

echo "==> tier-1: cargo build --release && cargo test -q"
cargo build --release
cargo test -q

echo "==> obs-smoke: same-seed double run must dump byte-identical obs JSON"
cargo build --release -q -p mfv-bench
obs_tmp="$(mktemp -d)"
trap 'rm -rf "$obs_tmp"' EXIT
for run in a b; do
  target/release/engine_bench --smoke \
    --out "$obs_tmp/bench_$run.json" \
    --obs-json "$obs_tmp/obs_$run.json" --obs-exclude-wall 2>/dev/null
done
cmp "$obs_tmp/obs_a.json" "$obs_tmp/obs_b.json" || {
  echo "obs-smoke FAILED: deterministic obs dumps differ between same-seed runs" >&2
  diff "$obs_tmp/obs_a.json" "$obs_tmp/obs_b.json" >&2 || true
  exit 1
}

echo "==> watch-smoke: same-seed chaos watch must replay byte-identically"
cargo build --release -q --example watch_run
for run in a b; do
  target/release/examples/watch_run \
    --seed 7 --grid 4x3 --duration-secs 45 --drop-pct 20 \
    --journal "$obs_tmp/verdicts_$run.txt" \
    --obs-json "$obs_tmp/watch_obs_$run.json" --obs-exclude-wall >/dev/null
done
cmp "$obs_tmp/verdicts_a.txt" "$obs_tmp/verdicts_b.txt" || {
  echo "watch-smoke FAILED: verdict journals differ between same-seed runs" >&2
  diff "$obs_tmp/verdicts_a.txt" "$obs_tmp/verdicts_b.txt" >&2 || true
  exit 1
}
cmp "$obs_tmp/watch_obs_a.json" "$obs_tmp/watch_obs_b.json" || {
  echo "watch-smoke FAILED: watch obs dumps differ between same-seed runs" >&2
  diff "$obs_tmp/watch_obs_a.json" "$obs_tmp/watch_obs_b.json" >&2 || true
  exit 1
}

echo "==> serve-smoke: scripted query batch against mfvctl serve must match golden answers"
# Start the query server on an ephemeral port, replay the scripted batch
# over one connection, and diff against the recorded answers. The batch
# ends with QUIT, so the client exits cleanly; the server is killed after.
target/release/mfvctl serve examples/topologies/six-node.json --port 0 \
  >"$obs_tmp/serve.log" 2>&1 &
serve_pid=$!
serve_addr=""
for _ in $(seq 1 100); do
  serve_addr="$(sed -n 's/^listening on //p' "$obs_tmp/serve.log")"
  [ -n "$serve_addr" ] && break
  sleep 0.1
done
[ -n "$serve_addr" ] || {
  echo "serve-smoke FAILED: server never reported its address" >&2
  cat "$obs_tmp/serve.log" >&2
  kill "$serve_pid" 2>/dev/null || true
  exit 1
}
target/release/mfvctl query "$serve_addr" \
  <tests/fixtures/serve_smoke.batch >"$obs_tmp/serve_answers.txt"
kill "$serve_pid" 2>/dev/null || true
wait "$serve_pid" 2>/dev/null || true
cmp tests/fixtures/serve_smoke.golden "$obs_tmp/serve_answers.txt" || {
  echo "serve-smoke FAILED: query answers diverged from the golden batch" >&2
  diff tests/fixtures/serve_smoke.golden "$obs_tmp/serve_answers.txt" >&2 || true
  exit 1
}

echo "==> all checks passed"
