#!/usr/bin/env bash
# Local CI gate: build, test, lint, format.
#
#   ./ci.sh            # everything
#   ./ci.sh --fast     # skip the release build
#   ./ci.sh --miri     # additionally run the Miri lane (needs nightly + miri)
#   ./ci.sh --tsan     # additionally run the ThreadSanitizer lane
#                      # (needs nightly + rust-src; see DESIGN.md §7)
#
# Mirrors what a hosted pipeline would run; keep it green before pushing.
set -euo pipefail
cd "$(dirname "$0")"

fast=0
miri=0
tsan=0
for arg in "$@"; do
  case "$arg" in
    --fast) fast=1 ;;
    --miri) miri=1 ;;
    --tsan) tsan=1 ;;
    *) echo "unknown flag: $arg" >&2; exit 2 ;;
  esac
done

# Does the nightly toolchain have a given component (miri, rust-src)?
nightly_has() {
  rustup component list --toolchain nightly --installed 2>/dev/null | grep -q "^$1"
}

echo "== cargo fmt --check =="
cargo fmt --all --check

echo "== cargo clippy (all targets, warnings are errors) =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== kfds-lint (SAFETY comments, switch registry, hot-path allocs, unsafe preconditions, =="
echo "==            lock discipline, panic-free data plane, forbid-unsafe, switch coverage)  =="
# The machine-checked safety invariants — see DESIGN.md §7. Always on:
# the lint is pure source analysis and takes well under a second. The
# per-rule count line is asserted below so a rule family that silently
# stopped running (refactor regression in xtask) cannot read as green.
lint_out="$(cargo run -q -p xtask -- lint)"
echo "$lint_out"
for rule in unsafe-safety env-registry hot-path-alloc unsafe-preconditions \
            lock-discipline panic-path forbid-unsafe switch-coverage switch-table; do
  if ! grep -q " ${rule}=" <<<"$lint_out"; then
    echo "kfds-lint did not report the ${rule} rule — lint harness regression" >&2
    exit 1
  fi
done

if [[ $fast -eq 0 ]]; then
  echo "== cargo build --release =="
  cargo build --release
fi

echo "== cargo test (workspace, SIMD default) =="
cargo test -q --workspace

echo "== cargo test (workspace, KFDS_SIMD=off — scalar reference paths) =="
KFDS_SIMD=off cargo test -q --workspace

echo "== cargo test (kfds-la, KFDS_WS_POOL=off — global-allocator workspace path) =="
# The pool kill-switch must leave every factorization/solve result
# untouched (the pool only changes where scratch memory comes from).
KFDS_WS_POOL=off cargo test -q -p kfds-la

echo "== perfbench (the benchmark crate: its own workspace and lockfile) =="
# The benchmark builds against the library crates by path with its own
# unchanged lockfile, so a library change that breaks it must fail here.
cargo build --release --offline --locked --manifest-path perfbench/Cargo.toml
cargo test --release --offline --manifest-path perfbench/Cargo.toml

if [[ $miri -eq 1 ]]; then
  echo "== miri lane (kfds-la deterministic suite under the interpreter) =="
  # Checks the raw-pointer/`set_len` unsafe core for UB. SIMD dispatch is
  # hard-wired scalar under Miri (`cpu_supported()` returns false), and the
  # proptest suite is compiled out (`#![cfg(not(miri))]` in props.rs).
  if nightly_has miri; then
    cargo +nightly miri test -p kfds-la --test miri
  else
    echo "WARNING: skipping Miri lane — 'miri' component not installed on the"
    echo "         nightly toolchain (rustup component add --toolchain nightly miri)."
  fi
fi

if [[ $tsan -eq 1 ]]; then
  echo "== tsan lane (kfds-rt + kfds-shard + kfds-serve under ThreadSanitizer) =="
  # Race-checks the channel runtime, the shard router's scatter/gather
  # data plane, and the serve queue/cache/shutdown paths; the loom stress
  # tests give the detector real interleavings to observe. Needs
  # -Zbuild-std, hence nightly + the rust-src component.
  if nightly_has rust-src; then
    RUSTFLAGS="-Zsanitizer=thread" \
      cargo +nightly test -Zbuild-std --target x86_64-unknown-linux-gnu \
      -p kfds-rt -p kfds-shard -p kfds-serve
  else
    echo "WARNING: skipping TSan lane — 'rust-src' component not installed on the"
    echo "         nightly toolchain (rustup component add --toolchain nightly rust-src)."
  fi
fi

echo "== dispatch checks (simd, batch, scaling) =="
# Fails if this host supports AVX2+FMA but the vector kernels silently
# fell back to scalar (dispatch or build regression). The batch gate runs
# separately so a level-batched engine regression is named in the output;
# it also verifies KFDS_BATCH=off routes back to the per-node engine and
# that the default is bitwise vs per-node. The scaling gate arms only on
# hosts with >= 2 physical cores (it reports not-armed and passes
# elsewhere) and then requires multi-thread setup+factorize to beat
# single-thread wall-clock.
if [[ $fast -eq 0 ]]; then
  cargo run -q --release -p kfds-bench --bin perf_trajectory -- --check
  cargo run -q --release -p kfds-bench --bin perf_trajectory -- --check batch
  KFDS_BATCH=off cargo run -q --release -p kfds-bench --bin perf_trajectory -- --check batch
  cargo run -q --release -p kfds-bench --bin perf_trajectory -- --check scaling
else
  cargo run -q -p kfds-bench --bin perf_trajectory -- --check
  cargo run -q -p kfds-bench --bin perf_trajectory -- --check batch
  KFDS_BATCH=off cargo run -q -p kfds-bench --bin perf_trajectory -- --check batch
  cargo run -q -p kfds-bench --bin perf_trajectory -- --check scaling
fi

echo "== kfds-serve smoke (single-node, sharded, then unbatched) =="
# Stands up the batched solve service under closed-loop load and asserts a
# clean run: zero errors, every request answered, cache hit rate > 0, and
# exactly one λ-free setup build across the λ-only key spread (the
# two-level cache contract). The --shards 2 lane routes every batch
# through the shard tier and additionally asserts the routed answer is
# bitwise-identical to the unsharded blocked solve plus per-shard cache
# counters (one local partition fill per shard per key, zero errors, zero
# fallbacks). The --max-batch 1 lane serves every request as a batch of
# one, the unbatched service, and asserts no larger batch ran.
if [[ $fast -eq 0 ]]; then
  cargo run -q --release -p kfds-serve --bin kfds-serve -- --smoke --n 1024 --keys 2 --clients 8 --requests 64
  cargo run -q --release -p kfds-serve --bin kfds-serve -- --smoke --shards 2 --n 1024 --keys 2 --clients 8 --requests 64
  cargo run -q --release -p kfds-serve --bin kfds-serve -- --smoke --max-batch 1 --n 1024 --keys 2 --clients 8 --requests 64
else
  cargo run -q -p kfds-serve --bin kfds-serve -- --smoke --n 512 --keys 2 --clients 4 --requests 32
  cargo run -q -p kfds-serve --bin kfds-serve -- --smoke --shards 2 --n 512 --keys 2 --clients 4 --requests 32
  cargo run -q -p kfds-serve --bin kfds-serve -- --smoke --max-batch 1 --n 512 --keys 2 --clients 4 --requests 32
fi

echo "CI OK"
