#!/usr/bin/env bash
# Offline CI gate for the pinning reproduction workspace.
#
# Everything runs with --offline: the workspace has zero external
# dependencies by design, so a network-less container must pass this
# script end to end. The chaos suite is invoked explicitly (in addition
# to the full test run) so a fault-injection regression fails loudly
# under its own name.
set -euo pipefail
cd "$(dirname "$0")"

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy (warnings are errors)"
cargo clippy --workspace --all-targets --offline -- -D warnings

echo "==> cargo build --release"
cargo build --workspace --release --offline

echo "==> perfbench build (the benchmark package compiles against the library API)"
cargo build --release --offline --manifest-path perfbench/Cargo.toml

echo "==> perfbench unit tests"
cargo test -q --offline --manifest-path perfbench/Cargo.toml

# `--seconds 0` runs the minimum repetitions. "correct": true on the last
# line covers the digests.tsv match, dynamic precision 1.0, offline-
# identical serve verdicts and cold/incremental epoch identity.
echo "==> perfbench correctness (all four workloads at seed 2022 must report \"correct\": true)"
for workload in paper_study stream_scale serve_overload epoch_replay; do
  cargo run -q --release --offline --manifest-path perfbench/Cargo.toml -- \
    --workload "$workload" --seed 2022 --seconds 0 --trace 0 > "/tmp/perfbench_$workload.out"
  last=$(tail -n 1 "/tmp/perfbench_$workload.out")
  if [[ "$last" != *'"correct": true'* ]]; then
    echo "perfbench $workload is not correct: $last"; exit 1
  fi
done

echo "==> cargo test (workspace)"
cargo test -q --workspace --offline

echo "==> chaos suite (fault injection + degradation)"
cargo test -q --offline --test chaos

# Whether the full suite runs these two tests side by side depends on
# scheduling, so it can pass without the lock they share. Run just the
# pair on two threads, where they overlap and a missing lock fails.
echo "==> chaos serve pair (the memo-warming and caching-off serve tests run concurrently)"
cargo test -q --offline --test chaos -- overload_sheds_and_degrades tight_deadlines_time_out --test-threads 2

echo "==> ctlog suite (Merkle proofs, sharding, auditor, resolver)"
cargo test -q -p pinning-ctlog --offline

# The 30 s ceiling is about 5x the measured run on a 2-vCPU host and below
# what the old quadratic listing sort cost, so it catches that coming back
# without flaking on a noisy host.
echo "==> paper-scale golden (full_study paper 2022 stdout must cmp-equal paper_scale_report.txt, within 30 s wall)"
cargo build -q --release --offline --example full_study
start_ns=$(date +%s%N)
cargo run -q --release --offline --example full_study -- paper 2022 > /tmp/paper_scale.out 2> /tmp/paper_scale.err
elapsed_ms=$(( ($(date +%s%N) - start_ns) / 1000000 ))
echo "paper-scale run: ${elapsed_ms} ms"
cmp /tmp/paper_scale.out paper_scale_report.txt || { echo "paper-scale report differs from paper_scale_report.txt"; exit 1; }
if (( elapsed_ms > 30000 )); then
  echo "paper-scale run took ${elapsed_ms} ms, over the 30000 ms ceiling"; exit 1
fi

echo "==> chaos smoke (release-mode kill/resume cycle under faults + storage-fault streamed cycle)"
cargo run -q --release --offline --example chaos_smoke | tee /tmp/chaos_smoke.out
grep -qF "storage-fault smoke OK" /tmp/chaos_smoke.out || { echo "chaos smoke missing the storage-fault phase"; exit 1; }

echo "==> storage-fault matrix (durable-media fault plans x journal writers x kill points)"
cargo test -q --offline --test chaos fault_matrix

echo "==> bench smoke (cached-vs-uncached A/B; fails on report divergence)"
cargo bench -q -p pinning-bench --bench perf --offline -- smoke

echo "==> fuzz smoke (every decoder, mutation fuzz, fixed seed; fails on any panic)"
cargo bench -q -p pinning-bench --bench fuzz --offline -- smoke

echo "==> serve smoke (seeded overload: bounded queue, nonzero shed, same-seed determinism, offline-identical verdicts, verified inclusion proofs)"
cargo bench -q -p pinning-bench --bench serve --offline -- smoke
for key in '"schema": "pinning-bench/serve"' '"same_seed_runs_identical": true' '"proofs_verified"'; do
  grep -qF "$key" BENCH_serve.json || { echo "BENCH_serve.json missing $key"; exit 1; }
done
if grep -qF '"proofs_verified": 0' BENCH_serve.json; then
  echo "BENCH_serve.json: no inclusion proofs verified"; exit 1
fi

echo "==> epoch smoke (seeded 3-epoch evolution: incremental/cold byte-identity, nonzero replayed apps, speedup gate)"
cargo bench -q -p pinning-bench --bench epoch --offline -- smoke
for key in '"schema": "pinning-bench/epoch"' '"byte_identical": true' '"per_epoch"' '"speedup"'; do
  grep -qF "$key" BENCH_epoch.json || { echo "BENCH_epoch.json missing $key"; exit 1; }
done
if grep -qF '"replayed_total": 0' BENCH_epoch.json; then
  echo "BENCH_epoch.json: zero apps replayed"; exit 1
fi

echo "==> stream smoke (chunked streaming study: schedule byte-identity, kill-and-resume identity, scrub-overhead bound, flat-memory ceiling)"
cargo bench -q -p pinning-bench --bench stream --offline -- smoke
for key in '"schema": "pinning-bench/stream"' '"byte_identical": true' '"resume_identical": true' '"scrub_within_bound": true' '"rss_within_ceiling": true' '"apps_per_sec"' '"scrub_overhead_pct"'; do
  grep -qF "$key" BENCH_stream.json || { echo "BENCH_stream.json missing $key"; exit 1; }
done

echo "==> rustdoc (warnings are errors)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline

echo "CI OK"
