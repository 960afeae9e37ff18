#!/usr/bin/env sh
# Offline CI gate for the workspace: everything here runs with zero
# registry access (external dev-dependencies are vendored API-subset shims
# under vendor/).
set -eu

cd "$(dirname "$0")/.."

# Every file a run writes goes into one fresh directory under target/,
# removed on exit, so concurrent runs never share a path.
mkdir -p target
ci_tmp=$(mktemp -d "$PWD/target/ci.XXXXXX")
trap 'rm -rf "$ci_tmp"' EXIT

echo "==> formatting"
cargo fmt --all --check

echo "==> build (release)"
cargo build --release --workspace

echo "==> tier-1 tests (default features)"
cargo test -q
cargo test -q --workspace

echo "==> property suites (vendored proptest shim)"
: "${PROPTEST_CASES:=32}"
export PROPTEST_CASES
cargo test -q --features proptest
cargo test -q -p mbist-mem -p mbist-rtl -p mbist-logic -p mbist-core -p mbist-march \
    --features proptest

echo "==> parallel fault-simulation determinism regression"
cargo test -q -p mbist-march --test parallel_determinism

echo "==> cross-engine equivalence (packed vs full, per-fault path vs full)"
cargo test -q -p mbist-march --test engine_corpus
cargo test -q -p mbist-march --test sliced_equivalence --features proptest

echo "==> clippy (deny warnings)"
cargo clippy --workspace --no-default-features -- -D warnings
cargo clippy --workspace --all-features --all-targets -- -D warnings

echo "==> coverage-engine perf smoke (std-only harness)"
perf_out=$(cargo run --release -p mbist-bench --bin perf -- \
    --quick --out "$ci_tmp/BENCH_coverage_ci.json")
echo "$perf_out"
# every (test, geometry) pair must report cross-mode agreement on the
# detection count across both modes (the full-replay oracle and the packed
# engine)
[ "$(echo "$perf_out" | grep -c "agreement OK (2 modes")" -eq 2 ] || {
    echo "perf smoke missing two-mode agreement lines"; exit 1; }
# the per-class routing breakdown must account for every sampled fault
echo "$perf_out" | grep -q ": routing OK (" || {
    echo "perf smoke missing the routing-breakdown accounting line"; exit 1; }
# whole-run speedup floor: the packed engine must beat the serial
# full-replay oracle by at least 10x on the quick configuration (the ratio
# the summary line reports)
packed_ratio=$(echo "$perf_out" \
    | sed -n 's/.*packed_vs_detect \([0-9.]*\)x.*/\1/p')
[ -n "$packed_ratio" ] || {
    echo "perf smoke missing packed_vs_detect"; exit 1; }
awk -v r="$packed_ratio" 'BEGIN { exit (r >= 10.0) ? 0 : 1 }' || {
    echo "packed whole-run speedup $packed_ratio below 10.0x floor"
    exit 1; }

echo "==> search-synthesis smoke (fixed seed: converges, no longer than march-c)"
synth_out=$(cargo run --release -p mbist-bench --bin synthsearch -- \
    --quick --out "$ci_tmp/BENCH_synth_ci.json")
echo "$synth_out"
# both strategies must converge at 100% with a test no longer than the
# handwritten march-c on the same sampled universe
[ "$(echo "$synth_out" | grep -c "^search OK:")" -eq 2 ] || {
    echo "search smoke missing per-strategy OK lines"; exit 1; }
# the batched oracle must beat the serial legacy path head-to-head on the
# same candidates by at least 4x even on the quick configuration
batched_ratio=$(echo "$synth_out" \
    | sed -n 's/.*batched_vs_serial \([0-9.]*\)x.*/\1/p')
[ -n "$batched_ratio" ] || {
    echo "search smoke missing the batched_vs_serial line"; exit 1; }
awk -v r="$batched_ratio" 'BEGIN { exit (r >= 4.0) ? 0 : 1 }' || {
    echo "batched_vs_serial speedup $batched_ratio below 4.0x floor"; exit 1; }
# determinism: the same fixed seed must reproduce the identical result
# (test, coverage, evaluation count) on a re-run; the nested "timing"
# objects are the only legitimately nondeterministic content, so strip
# them wholesale before comparing
strip_timing='s/"timing": \{[^}]*\}/"timing": null/g'
cargo run -q --release -p mbist-bench --bin synthsearch -- \
    --quick --out "$ci_tmp/BENCH_synth_ci2.json" > /dev/null
sed -E "$strip_timing" "$ci_tmp/BENCH_synth_ci.json" > "$ci_tmp/BENCH_synth_ci.stable"
sed -E "$strip_timing" "$ci_tmp/BENCH_synth_ci2.json" > "$ci_tmp/BENCH_synth_ci2.stable"
diff "$ci_tmp/BENCH_synth_ci.stable" "$ci_tmp/BENCH_synth_ci2.stable" > /dev/null || {
    echo "search re-run with the same seed diverged"; exit 1; }
# ...and the CLI front-end honors the same determinism across --jobs
# (batched speculation joins in candidate order) and across engines
# (packed fast paths and the full-replay oracle count identically)
cli_a=$(cargo run -q --release -p mbist-cli -- synth-search \
    --universe saf,tf,cfid --words 32 --budget 300 --seed 9 --jobs 1)
cli_b=$(cargo run -q --release -p mbist-cli -- synth-search \
    --universe saf,tf,cfid --words 32 --budget 300 --seed 9 --jobs 3)
[ "$cli_a" = "$cli_b" ] || {
    echo "synth-search output differs across --jobs"; exit 1; }
cli_full=$(cargo run -q --release -p mbist-cli -- synth-search \
    --universe saf,tf,cfid --words 32 --budget 300 --seed 9 --engine full)
[ "$cli_a" = "$cli_full" ] || {
    echo "synth-search output differs between packed and full engines"; exit 1; }
echo "$cli_a" | grep -q "converged" || {
    echo "synth-search smoke did not converge"; exit 1; }
# the same determinism for word-oriented two-port candidates, which compile
# one pass per port x data background
mp_a=$(cargo run -q --release -p mbist-cli -- synth-search \
    --universe saf,tf,cfid --words 8 --width 4 --ports 2 --budget 80 --seed 3 --jobs 1)
mp_b=$(cargo run -q --release -p mbist-cli -- synth-search \
    --universe saf,tf,cfid --words 8 --width 4 --ports 2 --budget 80 --seed 3 --jobs 3)
[ "$mp_a" = "$mp_b" ] || {
    echo "multi-pass synth-search output differs across --jobs"; exit 1; }
mp_full=$(cargo run -q --release -p mbist-cli -- synth-search \
    --universe saf,tf,cfid --words 8 --width 4 --ports 2 --budget 80 --seed 3 --engine full)
[ "$mp_a" = "$mp_full" ] || {
    echo "multi-pass synth-search output differs between packed and full engines"
    exit 1; }
# ...and on a nine-class universe whose stuck-open, retention, pull-open
# and decoder faults take the packed plan's stuck-open and pull-open route
# groups, retention rank groups and decoder verdict groups, in a
# bit-oriented and a word-oriented two-port configuration
nine=saf,tf,cfin,cfid,cfst,af,sof,drf,puf
for cfg in "--words 32 --budget 150 --seed 5" \
    "--words 8 --width 4 --ports 2 --budget 80 --seed 3"; do
    # $cfg is left unquoted on purpose: it splits into flags
    nine_a=$(cargo run -q --release -p mbist-cli -- synth-search \
        --universe "$nine" $cfg --jobs 1)
    nine_b=$(cargo run -q --release -p mbist-cli -- synth-search \
        --universe "$nine" $cfg --jobs 3)
    [ "$nine_a" = "$nine_b" ] || {
        echo "nine-class synth-search ($cfg) differs across --jobs"; exit 1; }
    nine_full=$(cargo run -q --release -p mbist-cli -- synth-search \
        --universe "$nine" $cfg --engine full)
    [ "$nine_a" = "$nine_full" ] || {
        echo "nine-class synth-search ($cfg) differs between packed and full engines"
        exit 1; }
done

echo "==> coverage reports: packed vs full where the keyed routes have edges"
# 3 and 5 words put every stuck-open edge word and every decoder word order
# in the universe, 16x4 two-port adds per-port sense latches, and 1024
# words makes retention verdicts change with address rank
for t in march-c march-c+ mats+ march-a++ march-b; do
    for cfg in "--words 3 --max-faults 0" "--words 5 --max-faults 0" \
        "--words 16 --width 4 --ports 2 --max-faults 0" "--words 1024"; do
        # $cfg is left unquoted on purpose: it splits into flags
        cov_packed=$(cargo run -q --release -p mbist-cli -- coverage "$t" $cfg)
        cov_full=$(cargo run -q --release -p mbist-cli -- coverage "$t" $cfg --engine full)
        [ "$cov_packed" = "$cov_full" ] || {
            echo "coverage $t ($cfg) differs between packed and full engines"; exit 1; }
    done
done

echo "==> benchmark output checks (BENCHMARK.json command, 1 s per workload)"
# each workload checks its own outputs — coverage rows against the
# full-engine expectations, recorded search outcomes, service replies
# against the CLI — and reports them on its JSON line
for workload in coverage_campaign search_synth serve_direct; do
    bench_out=$(cargo run --release --quiet --offline --manifest-path perfbench/Cargo.toml \
        -- --workload "$workload" --seed 1 --seconds 1 --trace 0)
    echo "$bench_out"
    echo "$bench_out" | grep -q '"correct": true' || {
        echo "benchmark $workload reports incorrect output"; exit 1; }
    echo "$bench_out" | grep -q '"failed": 0,' || {
        echo "benchmark $workload reports failed operations"; exit 1; }
done

echo "==> fault-injection smoke (one SEU per architecture: detect + recover)"
for arch in microcode progfsm; do
    out=$(cargo run -q --release -p mbist-cli -- \
        inject-upset march-c --words 16 --arch "$arch" --bit 5)
    echo "$out" | grep -q "(detected)" || {
        echo "SEU not detected on $arch"; exit 1; }
    echo "$out" | grep -q "1 reload(s)" || {
        echo "SEU not recovered on $arch"; exit 1; }
    echo "$out" | grep -q "PASS" || {
        echo "post-recovery session failed on $arch"; exit 1; }
done
# the watchdog abort must map to its dedicated exit code
if cargo run -q --release -p mbist-cli -- \
    run march-c --words 16 --cycle-budget 10 2>/dev/null; then
    echo "starved cycle budget did not abort"; exit 1
else
    [ $? -eq 4 ] || { echo "watchdog abort must exit 4"; exit 1; }
fi

echo "==> robustness sweep smoke (std-only harness)"
cargo run --release -p mbist-bench --bin robustness -- --quick --out "$ci_tmp/BENCH_robustness_ci.json"

echo "==> service smoke (daemon on an ephemeral port + loadgen burst)"
svc_log="$ci_tmp/mbist_service_ci.log"
cargo run -q --release -p mbist-cli -- serve --addr 127.0.0.1:0 --workers 2 \
    > "$svc_log" 2>&1 &
svc_pid=$!
i=0
until grep -q "listening on" "$svc_log"; do
    i=$((i + 1))
    [ "$i" -lt 100 ] || { echo "daemon never came up"; cat "$svc_log"; exit 1; }
    sleep 0.1
done
addr=$(sed -n 's/^mbist-service listening on \([0-9.:]*\) .*/\1/p' "$svc_log")
svc_out=$(cargo run -q --release -p mbist-bench --bin loadgen -- \
    --quick --addr "$addr" --shutdown --out "$ci_tmp/BENCH_service_ci.json")
echo "$svc_out"
# the daemon's responses must be byte-identical to the offline CLI
[ "$(echo "$svc_out" | grep -c "agreement OK")" -eq 3 ] || {
    echo "service smoke missing agreement lines"; exit 1; }
wait "$svc_pid" || { echo "daemon exited non-zero"; cat "$svc_log"; exit 1; }
# the protocol shutdown must drain the queue and flush the summary
grep -q "drained" "$svc_log" || {
    echo "daemon did not report a clean drain"; cat "$svc_log"; exit 1; }

echo "==> sharded service smoke (router + 2 shards, both protocols)"
shard_log="$ci_tmp/mbist_sharded_ci.log"
cargo run -q --release -p mbist-cli -- serve --addr 127.0.0.1:0 --shards 2 --workers 1 \
    > "$shard_log" 2>&1 &
shard_pid=$!
i=0
until grep -q "listening on" "$shard_log"; do
    i=$((i + 1))
    [ "$i" -lt 100 ] || { echo "sharded fleet never came up"; cat "$shard_log"; exit 1; }
    sleep 0.1
done
shard_addr=$(sed -n 's/^mbist-service listening on \([0-9.:]*\) .*/\1/p' "$shard_log")
# line-JSON pass first (no shutdown: the binary pass reuses the fleet)...
shard_json_out=$(cargo run -q --release -p mbist-bench --bin loadgen -- \
    --quick --addr "$shard_addr" --out "$ci_tmp/BENCH_sharded_json_ci.json")
echo "$shard_json_out"
[ "$(echo "$shard_json_out" | grep -c "agreement OK")" -eq 3 ] || {
    echo "sharded smoke (json) missing agreement lines"; exit 1; }
# ...then the binary protocol over the same router, which drains the fleet
shard_bin_out=$(cargo run -q --release -p mbist-bench --bin loadgen -- \
    --quick --addr "$shard_addr" --protocol binary --shutdown \
    --out "$ci_tmp/BENCH_sharded_binary_ci.json")
echo "$shard_bin_out"
[ "$(echo "$shard_bin_out" | grep -c "agreement OK")" -eq 3 ] || {
    echo "sharded smoke (binary) missing agreement lines"; exit 1; }
wait "$shard_pid" || { echo "sharded fleet exited non-zero"; cat "$shard_log"; exit 1; }
grep -q "drained" "$shard_log" || {
    echo "sharded fleet did not report a clean drain"; cat "$shard_log"; exit 1; }
grep -q "^router: forwarded" "$shard_log" || {
    echo "sharded fleet missing the router summary"; cat "$shard_log"; exit 1; }

echo "==> chaos smoke (fault-injecting daemon + resilient loadgen)"
chaos_log="$ci_tmp/mbist_chaos_ci.log"
cargo run -q --release -p mbist-cli -- serve --addr 127.0.0.1:0 --workers 2 \
    --chaos seed=7,panic=0.05,delay=0.05,drop=0.02 > "$chaos_log" 2>&1 &
chaos_pid=$!
i=0
until grep -q "listening on" "$chaos_log"; do
    i=$((i + 1))
    [ "$i" -lt 100 ] || { echo "chaos daemon never came up"; cat "$chaos_log"; exit 1; }
    sleep 0.1
done
grep -q "chaos injection armed" "$chaos_log" || {
    echo "chaos daemon did not arm injection"; cat "$chaos_log"; exit 1; }
chaos_addr=$(sed -n 's/^mbist-service listening on \([0-9.:]*\) .*/\1/p' "$chaos_log")
chaos_out=$(cargo run -q --release -p mbist-bench --bin loadgen -- \
    --quick --chaos --addr "$chaos_addr" --shutdown --out "$ci_tmp/BENCH_chaos_ci.json")
echo "$chaos_out"
# under injected faults the retrying client must still see >= 0.99
# availability...
chaos_avail=$(echo "$chaos_out" | sed -n 's/.*availability \([0-9.]*\),.*/\1/p' | head -1)
[ -n "$chaos_avail" ] || { echo "chaos smoke missing availability"; exit 1; }
awk -v a="$chaos_avail" 'BEGIN { exit (a >= 0.99) ? 0 : 1 }' || {
    echo "chaos availability $chaos_avail below the 0.99 floor"; exit 1; }
# ...and zero lost responses: every accepted request got exactly one
# terminal outcome
echo "$chaos_out" | grep -q "lost 0," || {
    echo "chaos smoke lost responses"; exit 1; }
wait "$chaos_pid" || { echo "chaos daemon exited non-zero"; cat "$chaos_log"; exit 1; }
grep -q "drained" "$chaos_log" || {
    echo "chaos daemon did not report a clean drain"; cat "$chaos_log"; exit 1; }

echo "CI OK"
