#!/usr/bin/env bash
# Pre-PR gate for the Magellan workspace: formatting, clippy with
# warnings denied, the magellan-lint pass (line rules, D4 taint, the
# H2/H3/P2 hot-path cost analysis, and the L1/S1/U1 concurrency
# pass), the test suite, a loom smoke over the worker pool, and the
# end-to-end smokes: CLI strictness, fault schedule, crash recovery, the
# multi-process loopback-ingest drill against magellan-traced, and
# the chaos-ingest drill through the tracetool nemesis proxy — and
# finally the benchmark's own tests, so an API change that breaks the
# perfbench worker fails here. Run from anywhere inside the repo.
#
# The two advisory clippy lints (unwrap_used, indexing_slicing) are
# allowed here on purpose: their enforced counterpart is magellan-lint's
# budgeted C1 rule — see DESIGN.md §9.
#
# Every stage prints a banner; on failure the trap below names the
# stage that died, so CI logs point straight at the culprit.
set -euo pipefail

cd "$(dirname "$0")/.."

STAGE="startup"
trap 'status=$?; if [ "$status" -ne 0 ]; then echo "==> FAILED at stage: ${STAGE} (exit ${status})" >&2; fi' EXIT

stage() {
    STAGE="$1"
    echo
    echo "=================================================================="
    echo "==> stage: ${STAGE}"
    echo "=================================================================="
}

stage "cargo fmt --check"
cargo fmt --all --check

stage "cargo clippy (warnings denied)"
cargo clippy --workspace --all-targets -- \
    -D warnings \
    -A clippy::unwrap_used \
    -A clippy::indexing_slicing

stage "magellan-lint"
# Full pass — line rules plus both call-graph analyses (D4 backward
# taint, H2/H3/P2 forward hot-path cost). Human report on stdout;
# SARIF written for the CI code-scanning artifact (target/ is
# gitignored, so local runs stay clean).
mkdir -p target
cargo run -q -p magellan-lint -- --format sarif --output target/magellan-lint.sarif

stage "kernel equivalence (bit-parallel BFS vs scalar, incremental vs rebuild)"
# Fast fail-early pass over the equivalence tests that pin the
# perf-path kernels to their reference implementations: the 64-wide
# bit-parallel BFS against per-source scalar BFS, and the incremental
# snapshot engine against full recomputation. These are the guarantees
# the study's byte-determinism rests on, so they get their own stage
# before the full suite.
cargo test -q -p magellan-graph --lib multi64
cargo test -q -p magellan-graph --lib incremental

stage "cargo test"
cargo test -q --workspace

stage "loom smoke (pool queue/shutdown protocol)"
# A bounded-iteration pass over the worker-pool model tests: the
# cfg(loom) shim swaps the pool's std primitives for the in-tree
# schedule-perturbing stand-in (vendor/loom), so shutdown draining,
# parked-worker wakeup, and steal races get exercised under many
# interleavings. The nightly workflow runs the full-iteration suite
# plus Miri; this is the fail-early version (DESIGN.md §10).
RUSTFLAGS="--cfg loom" LOOM_MAX_ITER=16 \
    cargo test -q -p magellan-par --test loom

stage "CLI strictness"
# Every binary and example parses its command line through
# magellan::cli. A misspelled flag must exit non-zero, name the flag,
# and start no work: nothing on stdout and no run directory. A silent
# fallback to the defaults would instead run a whole study, which the
# timeout cuts short and the checks below then reject.
cargo build -q --release --workspace --bins --examples
STRICT=$(mktemp -d)
strict() {
    if timeout 60 "$@" --sead 7 > "${STRICT}/out" 2> "${STRICT}/err"; then
        echo "==> accepted a misspelled flag: $*" >&2; exit 1
    fi
    grep -q -- 'unknown flag --sead' "${STRICT}/err" || {
        echo "==> did not name the misspelled flag: $*" >&2; exit 1; }
    [ ! -s "${STRICT}/out" ] || {
        echo "==> started work despite a misspelled flag: $*" >&2; exit 1; }
}
for example in quickstart flash_crowd isp_clustering degree_census \
        reciprocity_probe locality_tracker topology_report faults; do
    strict "./target/release/examples/${example}"
done
strict ./target/release/magellan study --archive "${STRICT}/run"
strict ./target/release/magellan-traced serve --archive "${STRICT}/run"
strict ./target/release/tracetool stats "${STRICT}/run"
strict ./target/release/figures
strict ./target/release/bench_metrics
[ ! -e "${STRICT}/run" ] || {
    echo "==> a misspelled flag created a run directory" >&2; exit 1; }
rm -rf "${STRICT}"

stage "fault-schedule smoke"
# A 0.05x-scale study under the combined stress schedule (tracker +
# server outages, partition, crash wave, report loss): proves the
# fault path stays wired end to end. Warm runtime is ~1 s in release.
cargo run -q --release --example faults -- --scale 0.0005 --days 2 > /dev/null

stage "crash-recovery smoke"
# Kill a durable study with abort() at a deterministic tick, resume it
# from its checkpoint, and require the archive and report to be
# byte-identical to an uninterrupted run (DESIGN.md §12).
cargo build -q --release --bin magellan --bin tracetool
SMOKE=$(mktemp -d)
COMMON=(--seed 9 --scale 0.0005 --days 1 --sample-every-mins 240 \
        --checkpoint-every-ticks 64 --segment-bytes 16384 --threads 2)
./target/release/magellan study --archive "${SMOKE}/clean" "${COMMON[@]}" \
    --report "${SMOKE}/clean.txt" > /dev/null
./target/release/magellan study --archive "${SMOKE}/crashed" "${COMMON[@]}" \
    --kill-at-tick 150 > /dev/null 2>&1 && {
        echo "==> crash drill did not crash" >&2; exit 1; } || true
./target/release/magellan study --archive "${SMOKE}/crashed" --resume \
    --threads 2 --report "${SMOKE}/crashed.txt" > /dev/null
diff -r "${SMOKE}/clean/archive" "${SMOKE}/crashed/archive"
cmp "${SMOKE}/clean.txt" "${SMOKE}/crashed.txt"
./target/release/tracetool fsck "${SMOKE}/crashed" > /dev/null
rm -rf "${SMOKE}"

stage "loopback-ingest smoke"
# The networked service drill (DESIGN.md §13): two drive processes
# stream the same study over real loopback TCP sockets into one serve
# process, and the replayed traced archive must match the replayed
# in-process archive line for line (minus the service-only `Ingest`
# accounting lines). Then an overload drill — tiny queues, few client
# retries — must shed instead of stalling and still close balanced
# books. `wait` propagates each child's exit status, so a panicking
# serve or drive fails the stage.
cargo build -q --release --bin magellan-traced
INGEST=$(mktemp -d)
PARAMS=(--seed 9 --scale 0.0005 --days 1 --sample-every-mins 240)
./target/release/magellan study --archive "${INGEST}/inproc" "${PARAMS[@]}" \
    > /dev/null
./target/release/magellan-traced serve --archive "${INGEST}/traced" \
    --listen 127.0.0.1:0 --port-file "${INGEST}/port" \
    --clients 2 --shards 2 "${PARAMS[@]}" > "${INGEST}/serve.txt" &
SERVE=$!
for _ in $(seq 1 150); do [ -s "${INGEST}/port" ] && break; sleep 0.2; done
ADDR=$(cat "${INGEST}/port")
./target/release/magellan-traced drive --server "${ADDR}" --client-id 0 \
    --clients 2 --transport tcp "${PARAMS[@]}" > /dev/null &
DRIVE0=$!
./target/release/magellan-traced drive --server "${ADDR}" --client-id 1 \
    --clients 2 --transport tcp "${PARAMS[@]}" > /dev/null
wait "${DRIVE0}"
wait "${SERVE}"
grep -q '^balanced yes$' "${INGEST}/serve.txt"
./target/release/magellan replay --archive "${INGEST}/inproc" \
    | grep -v '^Ingest' > "${INGEST}/inproc.txt"
./target/release/magellan replay --archive "${INGEST}/traced" \
    | grep -v '^Ingest' > "${INGEST}/traced.txt"
cmp "${INGEST}/inproc.txt" "${INGEST}/traced.txt"
./target/release/magellan-traced serve --archive "${INGEST}/overload" \
    --listen 127.0.0.1:0 --port-file "${INGEST}/oport" \
    --clients 1 --shards 1 --pending-cap 8 --queue-cap 2 "${PARAMS[@]}" \
    > "${INGEST}/overload.txt" &
OSERVE=$!
for _ in $(seq 1 150); do [ -s "${INGEST}/oport" ] && break; sleep 0.2; done
./target/release/magellan-traced drive --server "$(cat "${INGEST}/oport")" \
    --client-id 0 --clients 1 --transport udp --max-attempts 3 \
    --backoff-cap-ms 8 "${PARAMS[@]}" > /dev/null
wait "${OSERVE}"
grep -q '^balanced yes$' "${INGEST}/overload.txt"
rm -rf "${INGEST}"

stage "chaos-ingest smoke"
# The hostile-network drill (DESIGN.md §14): the same two-drive TCP
# study, but every client byte now crosses `tracetool nemesis` — the
# seeded chaos proxy injecting latency, partial/coalesced writes,
# stalls, resets, and mid-stream kills. The drives carry a reconnect
# budget, the serve process must close balanced books, and the
# replayed archive must still match the in-process study byte for
# byte. The schedule itself must be a pure function of the seed:
# printing it twice must agree exactly.
CHAOS=$(mktemp -d)
./target/release/magellan study --archive "${CHAOS}/inproc" "${PARAMS[@]}" \
    > /dev/null
./target/release/magellan-traced serve --archive "${CHAOS}/traced" \
    --listen 127.0.0.1:0 --port-file "${CHAOS}/port" \
    --clients 2 --shards 2 "${PARAMS[@]}" > "${CHAOS}/serve.txt" &
CSERVE=$!
for _ in $(seq 1 150); do [ -s "${CHAOS}/port" ] && break; sleep 0.2; done
./target/release/tracetool nemesis --upstream "$(cat "${CHAOS}/port")" \
    --listen 127.0.0.1:0 --port-file "${CHAOS}/proxy-port" \
    --profile tcp --seed 9 > /dev/null &
NEMESIS=$!
for _ in $(seq 1 150); do [ -s "${CHAOS}/proxy-port" ] && break; sleep 0.2; done
CADDR=$(cat "${CHAOS}/proxy-port")
./target/release/magellan-traced drive --server "${CADDR}" --client-id 0 \
    --clients 2 --transport tcp --reconnect 64 "${PARAMS[@]}" > /dev/null &
CDRIVE0=$!
./target/release/magellan-traced drive --server "${CADDR}" --client-id 1 \
    --clients 2 --transport tcp --reconnect 64 "${PARAMS[@]}" > /dev/null
wait "${CDRIVE0}"
wait "${CSERVE}"
kill "${NEMESIS}" 2> /dev/null || true
grep -q '^balanced yes$' "${CHAOS}/serve.txt"
./target/release/magellan replay --archive "${CHAOS}/inproc" \
    | grep -v '^Ingest' > "${CHAOS}/inproc.txt"
./target/release/magellan replay --archive "${CHAOS}/traced" \
    | grep -v '^Ingest' > "${CHAOS}/traced.txt"
cmp "${CHAOS}/inproc.txt" "${CHAOS}/traced.txt"
./target/release/tracetool nemesis --print-schedule 64 --flows 4 --seed 9 \
    --profile tcp > "${CHAOS}/sched-a.txt"
./target/release/tracetool nemesis --print-schedule 64 --flows 4 --seed 9 \
    --profile tcp > "${CHAOS}/sched-b.txt"
cmp "${CHAOS}/sched-a.txt" "${CHAOS}/sched-b.txt"
rm -rf "${CHAOS}"

stage "perfbench tests"
# The benchmark worker (perfbench/, its own cargo workspace) builds
# against this tree's public API; its tests run all three workloads
# at a tiny scale through their correctness gates. Building it may
# rewrite perfbench/Cargo.lock, so the committed lockfile is restored
# afterwards.
LOCK=$(mktemp)
cp perfbench/Cargo.lock "${LOCK}"
status=0
python3 -m unittest discover -s perfbench/tests || status=$?
cp "${LOCK}" perfbench/Cargo.lock
rm -f "${LOCK}"
[ "${status}" -eq 0 ]

stage "done"
echo "==> all checks passed"
