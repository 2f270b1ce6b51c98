#!/bin/sh
# CI sequence: lint, build, test — in that order, failing fast.
set -eu

cd "$(dirname "$0")"

echo "==> linter self-test (lexer, model, call graph, rules, fixtures)"
cargo test -q -p xtask

echo "==> workspace-rule inputs are checked in"
# The RNG-stream manifest and the ratchet baselines are part of the
# linted contract: a missing file would silently read as an empty
# baseline, so their presence is asserted explicitly.
test -s crates/xtask/rng_streams.toml
test -s crates/xtask/lint_baselines/panic_reachability.txt
test -s crates/xtask/lint_baselines/hot_path_alloc.txt

echo "==> xtask lint (all rules; ratchets must not move up)"
cargo run -q -p xtask -- lint

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test -q"
cargo test -q

echo "==> cargo test -q --workspace (every crate's unit and integration tests)"
cargo test -q --workspace

echo "==> simperf smoke (event-loop throughput floor at N=64)"
cargo bench -q -p bench --bench simperf -- --smoke
# The full-mode snapshot (with the N=1024 row) is checked in; the smoke
# mode above guards the floor without rewriting machine-dependent wall
# times on every CI run.
test -s crates/bench/BENCH_simperf.json
grep -q '"bench": "simperf"' crates/bench/BENCH_simperf.json
grep -q '"num_clients": 1024' crates/bench/BENCH_simperf.json

# The repo benchmark (BENCHMARK.json) is a package with its own
# workspace, so nothing above compiles it. Build and run it briefly on
# both declared workloads: a library change that breaks what it uses
# fails to build here, and any failed reproduction/identity/conservation
# check (`CHECK FAILED`, exit 1) fails CI.
for workload in adaptive_8 tier_brownout; do
    echo "==> repo benchmark smoke ($workload, 1 s, traced)"
    cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
        --workload "$workload" --seed 1 --seconds 1 --trace 1 >/dev/null
done

# Each acceptance experiment declares its smoke grid, full grid and
# gates once (e2e_apps::experiments). The example runs the smoke grid
# against the gates; the bench runs the full grid against the same gates
# and regenerates the checked-in BENCH_*.json, which must come out
# byte-identical — a stale artifact fails here.
for exp in fanin knobs adversary shard failover chaos; do
    echo "==> $exp smoke (smoke grid, every gate)"
    cargo run -q --release --example "$exp" -- --smoke

    echo "==> $exp bench regenerates BENCH_$exp.json (full grid, every gate)"
    cargo bench -q -p bench --bench "$exp" >/dev/null
    git diff --exit-code -- "crates/bench/BENCH_$exp.json"
done

echo "==> ci.sh: all green"
