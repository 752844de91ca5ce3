#!/usr/bin/env sh
# CI gate: tier-1 verify (full build with warnings as errors + full test
# suite), a build of the fsbench benchmark programs, then the
# concurrency/fault-labelled tests rebuilt under
# ThreadSanitizer and the failure/fault-injection, collapse, machine and
# message-layer suites under AddressSanitizer.
#
# Usage: tools/ci.sh            (from the repo root)
#   BUILD_DIR=...    override the tier-1 build dir    (default: build)
#   TSAN_DIR=...     override the TSan build dir      (default: build-tsan)
#   ASAN_DIR=...     override the ASan build dir      (default: build-asan)
#   FSBENCH_DIR=...  override the benchmark build dir (default: build-fsbench)
set -eu

cd "$(dirname "$0")/.."
BUILD_DIR="${BUILD_DIR:-build}"
TSAN_DIR="${TSAN_DIR:-build-tsan}"
ASAN_DIR="${ASAN_DIR:-build-asan}"
FSBENCH_DIR="${FSBENCH_DIR:-build-fsbench}"

echo "== tier-1: build + full test suite =="
cmake -B "$BUILD_DIR" -S . -DFIBERSIM_WERROR=ON
cmake --build "$BUILD_DIR" -j
ctest --test-dir "$BUILD_DIR" --output-on-failure -j

echo "== fsbench: the benchmark programs build (built, not run) =="
# fsbench_traced wraps each layer's entry points by mangled name and forces
# them with --undefined, so deleting a wrapped function or changing its
# signature fails this link here instead of in a benchmark run.
cmake -B "$FSBENCH_DIR" -S fsbench
cmake --build "$FSBENCH_DIR" -j --target fsbench fsbench_traced

echo "== trace store: cold -> warm replay must be byte-identical =="
CACHE_DIR="$(mktemp -d)"
trap 'rm -rf "$CACHE_DIR"' EXIT
FIBERSIM="$BUILD_DIR/tools/fibersim"
RUN_ARGS="run --app ffvc --dataset small --ranks 4 --threads 2 --json"
"$FIBERSIM" $RUN_ARGS --trace-cache "$CACHE_DIR" > "$CACHE_DIR/cold.json"
"$FIBERSIM" $RUN_ARGS --trace-cache "$CACHE_DIR" > "$CACHE_DIR/warm.json"
diff "$CACHE_DIR/cold.json" "$CACHE_DIR/warm.json"
# Every JSON file this script writes goes through the repo's strict parser.
JSON_CHECK="$BUILD_DIR/tools/json_check"
"$JSON_CHECK" "$CACHE_DIR/cold.json" "$CACHE_DIR/warm.json"
# The warm pass must replay from disk: a second cache dir would have forced
# a native run, so assert the store actually holds the published trace.
[ "$(ls "$CACHE_DIR" | grep -c '\.fstrace$')" -eq 1 ]

echo "== dump-trace: full, collapsed and warm dumps are byte-identical =="
# The cache holds one trace form per execution (canonical, or collapsed
# representatives); --dump-trace expands it on demand. The full run, the
# collapsed run and a warm replay of the collapsed run from the store must
# all dump the same per-rank trace.
DUMP_ARGS="run --app ffvc --ranks 64 --threads 2 --nodes 4 --iterations 1"
DUMP_CACHE="$CACHE_DIR/dump-cache"
"$FIBERSIM" $DUMP_ARGS --dump-trace "$CACHE_DIR/dump.full.json" > /dev/null
"$FIBERSIM" $DUMP_ARGS --collapse-ranks --trace-cache "$DUMP_CACHE" \
    --dump-trace "$CACHE_DIR/dump.collapsed.json" > /dev/null
"$FIBERSIM" $DUMP_ARGS --collapse-ranks --trace-cache "$DUMP_CACHE" \
    --dump-trace "$CACHE_DIR/dump.warm.json" > /dev/null
cmp "$CACHE_DIR/dump.full.json" "$CACHE_DIR/dump.collapsed.json"
cmp "$CACHE_DIR/dump.full.json" "$CACHE_DIR/dump.warm.json"
"$JSON_CHECK" "$CACHE_DIR/dump.full.json"

echo "== report registry: --all must be jobs-invariant and documented =="
REPORT_ARGS="report --all --apps ffvc --dataset small --iterations 1"
"$FIBERSIM" $REPORT_ARGS > "$CACHE_DIR/report.cold.txt"
"$FIBERSIM" $REPORT_ARGS --jobs 4 > "$CACHE_DIR/report.j4.txt"
diff "$CACHE_DIR/report.cold.txt" "$CACHE_DIR/report.j4.txt"
# Every registered experiment id must have a section in EXPERIMENTS.md.
"$FIBERSIM" list | awk '/^reports:/{flag=1; next} /^[^ ]/{flag=0} flag && NF {print $1}' \
  | while read -r id; do
      grep -Eq "^## [A-Z0-9 /]*\b$id\b" EXPERIMENTS.md || {
        echo "registered experiment $id missing from EXPERIMENTS.md" >&2
        exit 1
      }
    done

echo "== journal: a resumed sweep replays every point, byte-identically =="
# The first pass records every point; the second must serve all of them
# from the journal (no line appended) and render the same bytes.
JOURNAL="$CACHE_DIR/report.journal.jsonl"
"$FIBERSIM" $REPORT_ARGS --journal "$JOURNAL" > "$CACHE_DIR/report.journal1.txt"
diff "$CACHE_DIR/report.cold.txt" "$CACHE_DIR/report.journal1.txt"
JOURNAL_LINES="$(wc -l < "$JOURNAL")"
"$FIBERSIM" $REPORT_ARGS --journal "$JOURNAL" > "$CACHE_DIR/report.journal2.txt"
diff "$CACHE_DIR/report.cold.txt" "$CACHE_DIR/report.journal2.txt"
[ "$(wc -l < "$JOURNAL")" -eq "$JOURNAL_LINES" ] || {
  echo "journal: the resumed sweep appended lines" >&2
  exit 1
}

echo "== descriptors: checked-in files == constructors == loaded registry =="
# Each committed descriptor must be byte-identical to what the compiled-in
# constructor serialises to (the registry asserts the reverse direction —
# parse(file) == constructor — at load time).
for pair in "a64fx a64fx.json" "skylake skylake8168x2.json" \
    "thunderx2 thunderx2.json" "broadwell broadwell.json"; do
  set -- $pair
  "$FIBERSIM" describe "$1" > "$CACHE_DIR/describe.$1.json"
  diff "$CACHE_DIR/describe.$1.json" "descriptors/$2"
  "$JSON_CHECK" "$CACHE_DIR/describe.$1.json"
done
# Parse -> emit is the identity on every checked-in file, not only on the
# compiled-in machines.
for file in descriptors/*.json; do
  "$FIBERSIM" describe "$file" > "$CACHE_DIR/describe.file.json"
  diff "$CACHE_DIR/describe.file.json" "$file"
done
# Every descriptor passes the deep field-range check.
"$JSON_CHECK" descriptors/*.json
# Swapping the built-ins for the checked-in descriptors must not move a
# single byte of any report, at any job count (report.cold.txt ran with the
# compiled-in registry at jobs 1).
"$FIBERSIM" $REPORT_ARGS --jobs 4 --processor-dir descriptors \
    > "$CACHE_DIR/report.descriptors.txt"
diff "$CACHE_DIR/report.cold.txt" "$CACHE_DIR/report.descriptors.txt"

echo "== calibrate: host micro-kernels -> valid, loadable descriptor =="
# The quick pass must emit a descriptor that survives the strict parser and
# immediately works as a --processor argument (1x1: the CI host may expose
# a single core).
"$FIBERSIM" calibrate --quick --out "$CACHE_DIR/host.json" \
    --measurements "$CACHE_DIR/host-measurements.json" > /dev/null
"$JSON_CHECK" "$CACHE_DIR/host.json" "$CACHE_DIR/host-measurements.json"
"$FIBERSIM" run --app ffvc --dataset small --ranks 1 --threads 1 \
    --processor "$CACHE_DIR/host.json" --json > /dev/null
# Refitting the same measurements must reproduce the descriptor bytes.
"$FIBERSIM" calibrate --from-measurements "$CACHE_DIR/host-measurements.json" \
    > "$CACHE_DIR/host.refit.json"
"$FIBERSIM" calibrate --from-measurements "$CACHE_DIR/host-measurements.json" \
    > "$CACHE_DIR/host.refit2.json"
diff "$CACHE_DIR/host.refit.json" "$CACHE_DIR/host.refit2.json"
"$JSON_CHECK" "$CACHE_DIR/host.refit.json"
# Parse -> emit is the identity on the host-fitted descriptor too.
"$FIBERSIM" describe "$CACHE_DIR/host.json" > "$CACHE_DIR/describe.host.json"
diff "$CACHE_DIR/describe.host.json" "$CACHE_DIR/host.json"

echo "== collapse: every report byte-identical with --collapse-ranks on =="
# report.cold.txt above ran with the default (--collapse-ranks off). The
# rank-symmetry contract says collapsed execution changes wall time only,
# never a trace, prediction, or rendered table — so the same sweep with
# collapse forced on must produce the same bytes for every registered
# experiment (E1X/E2X force collapse internally and are identical trivially).
"$FIBERSIM" $REPORT_ARGS --collapse-ranks on > "$CACHE_DIR/report.collapse.txt"
diff "$CACHE_DIR/report.cold.txt" "$CACHE_DIR/report.collapse.txt"
# The scale bench re-checks the structural invariant (one native rank per
# symmetry class at every point, up to the 102400-rank peak) and the >= 20x
# trend bar, and exits nonzero on any violation.
"$BUILD_DIR/bench/perf_scale" --out "$CACHE_DIR/BENCH_scale.json"
"$JSON_CHECK" "$CACHE_DIR/BENCH_scale.json"
if grep -q '"native_equals_classes": false' "$CACHE_DIR/BENCH_scale.json"; then
  echo "BENCH_scale.json: a collapsed pass ran native ranks != classes" >&2
  exit 1
fi
grep -q '"ok": true' "$CACHE_DIR/BENCH_scale.json" || {
  echo "BENCH_scale.json: bench did not report ok" >&2
  exit 1
}

echo "== scale reports: E1X/E2X jobs-invariant through the phase fan-out =="
# E1X and E2X are the only reports whose predicts (16384 and 102400 ranks x
# 12 threads) stream enough thread slots for the class-replay engine to
# predict their phases concurrently; their JSON must not move between
# --jobs 1 and --jobs 4. The jobs-1 pass fills the store the jobs-4 pass
# replays, so the second pass is all prediction.
SCALE_CACHE="$CACHE_DIR/scale-cache"
for id in E1X E2X; do
  "$FIBERSIM" report "$id" --format json --jobs 1 --trace-cache "$SCALE_CACHE" \
      > "$CACHE_DIR/$id.j1.json"
  "$FIBERSIM" report "$id" --format json --jobs 4 --trace-cache "$SCALE_CACHE" \
      > "$CACHE_DIR/$id.j4.json"
  diff "$CACHE_DIR/$id.j1.json" "$CACHE_DIR/$id.j4.json"
  "$JSON_CHECK" "$CACHE_DIR/$id.j1.json" "$CACHE_DIR/$id.j4.json"
done

echo "== native kernels: large-dataset T2 jobs- and collapse-invariant =="
# The report diffs above run ffvc on the small dataset only. This sweep runs
# the large-dataset kernels of ngsa (k-mer checksum), ccs_qcd, ffb and nicam
# (halo runs, team reductions) and must render the same bytes serially, at
# 4 jobs and with rank-symmetry collapse on.
NATIVE_ARGS="report T2 --dataset large --apps ngsa,ccs_qcd,ffb,nicam \
    --iterations 1 --format json"
"$FIBERSIM" $NATIVE_ARGS --jobs 1 > "$CACHE_DIR/native.j1.json"
"$FIBERSIM" $NATIVE_ARGS --jobs 4 > "$CACHE_DIR/native.j4.json"
"$FIBERSIM" $NATIVE_ARGS --collapse-ranks on > "$CACHE_DIR/native.collapse.json"
diff "$CACHE_DIR/native.j1.json" "$CACHE_DIR/native.j4.json"
diff "$CACHE_DIR/native.j1.json" "$CACHE_DIR/native.collapse.json"
"$JSON_CHECK" "$CACHE_DIR/native.j1.json" "$CACHE_DIR/native.j4.json" \
    "$CACHE_DIR/native.collapse.json"

echo "== serve: daemon smoke (predict parity, chaos, clean shutdown) =="
SERVE_SOCK="$CACHE_DIR/serve.sock"
SERVE_CACHE="$CACHE_DIR/serve-cache"
SERVE_LOG="$CACHE_DIR/serve.log"
PERF_SERVE="$BUILD_DIR/bench/perf_serve"
"$FIBERSIM" serve --socket "$SERVE_SOCK" --workers 2 \
    --trace-cache "$SERVE_CACHE" > "$SERVE_LOG" 2>&1 &
SERVE_PID=$!
# Readiness via the retrying client (connect failures back off and retry —
# no hand-rolled sleep/grep polling).
"$PERF_SERVE" --connect "$SERVE_SOCK" --send '{"verb":"ping"}' \
    --retries 20 --backoff-ms 50 > /dev/null
PREDICT='{"verb":"predict","app":"ffvc","dataset":"small","ranks":4,"threads":2}'
# Cold then warm: the daemon's payload must be byte-identical to the CLI's
# `run --json` for the same config, and the warm repeat must agree.
RESP1="$("$PERF_SERVE" --connect "$SERVE_SOCK" --send "$PREDICT")"
RESP2="$("$PERF_SERVE" --connect "$SERVE_SOCK" --send "$PREDICT")"
case "$RESP1" in '{"ok":true'*) ;; *) echo "bad response: $RESP1" >&2; exit 1;; esac
PAYLOAD1="${RESP1#*\"payload\":}"; PAYLOAD1="${PAYLOAD1%\}}"
PAYLOAD2="${RESP2#*\"payload\":}"; PAYLOAD2="${PAYLOAD2%\}}"
CLI_JSON="$("$FIBERSIM" run --app ffvc --dataset small --ranks 4 --threads 2 --json)"
[ "$PAYLOAD1" = "$CLI_JSON" ] || { echo "serve payload != run --json" >&2; exit 1; }
[ "$PAYLOAD1" = "$PAYLOAD2" ] || { echo "warm payload diverged" >&2; exit 1; }
# One key table feeds config files, run flags and predict fields: a predict
# that sets every key must match `run --config` with the same keys, byte
# for byte.
KEYS_CFG="$CACHE_DIR/all-keys.cfg"
KEYS_REQ='{"verb":"predict"'
for kv in app=ffvc dataset=small ranks=4 threads=2 nodes=1 bind=stride-2 \
    alloc=cyclic compile=simd+ unroll=4 fission=on compiler=gnu \
    processor=a64fx-boost iterations=1 seed=7 weak_scale=2 collapse_ranks=on; do
  echo "${kv%%=*} = ${kv#*=}" >> "$KEYS_CFG"
  KEYS_REQ="$KEYS_REQ,\"${kv%%=*}\":\"${kv#*=}\""
done
KEYS_RESP="$("$PERF_SERVE" --connect "$SERVE_SOCK" --send "$KEYS_REQ}")"
case "$KEYS_RESP" in '{"ok":true'*) ;; *) echo "bad response: $KEYS_RESP" >&2; exit 1;; esac
KEYS_PAYLOAD="${KEYS_RESP#*\"payload\":}"; KEYS_PAYLOAD="${KEYS_PAYLOAD%\}}"
"$FIBERSIM" run --config "$KEYS_CFG" --json > "$CACHE_DIR/all-keys.run.json"
"$JSON_CHECK" "$CACHE_DIR/all-keys.run.json"
printf '%s\n' "$KEYS_PAYLOAD" | cmp - "$CACHE_DIR/all-keys.run.json"
# A typo is a typed BAD_REQUEST, refused while the request is parsed: it
# takes no worker and never reaches the circuit breaker.
BAD_RESP="$("$PERF_SERVE" --connect "$SERVE_SOCK" \
    --send '{"verb":"predict","app":"nope"}')"
printf '%s\n' "$BAD_RESP" | grep -q '"code":"BAD_REQUEST"' || {
  echo "unknown app: expected BAD_REQUEST, got: $BAD_RESP" >&2
  exit 1
}
# A short multi-client load pass must come back with zero not-ok responses.
"$PERF_SERVE" --connect "$SERVE_SOCK" --clients 2 --requests 8
# Fault chaos: a plan-carrying daemon must answer with a typed FAILED
# response tagged with the injected class — never a hang or a crash.
FIBERSIM_FAULT_PLAN="seed=7;run.fail=1000000" "$FIBERSIM" serve \
    --socket "$SERVE_SOCK.chaos" > "$SERVE_LOG.chaos" 2>&1 &
CHAOS_PID=$!
"$PERF_SERVE" --connect "$SERVE_SOCK.chaos" --send '{"verb":"ping"}' \
    --retries 20 --backoff-ms 50 > /dev/null
CHAOS_RESP="$("$PERF_SERVE" --connect "$SERVE_SOCK.chaos" --send "$PREDICT")"
case "$CHAOS_RESP" in
  *'"code":"FAILED"'*'class=injected'*) ;;
  *) echo "expected typed FAILED(class=injected), got: $CHAOS_RESP" >&2; exit 1;;
esac
# Clean shutdown: TERM drains, exits 0, unlinks sockets, leaves no torn
# .tmp entries in the trace store.
kill -TERM "$SERVE_PID" "$CHAOS_PID"
wait "$SERVE_PID"
wait "$CHAOS_PID"
grep -q "server stopped" "$SERVE_LOG"
grep -q "server stopped" "$SERVE_LOG.chaos"
[ ! -e "$SERVE_SOCK" ] && [ ! -e "$SERVE_SOCK.chaos" ]
[ "$(find "$SERVE_CACHE" -name '.tmp-*' | wc -l)" -eq 0 ]

echo "== tune: seeded determinism across jobs + beats the as-is baseline =="
# The autotuner's contract: byte-identical reports for any --jobs N at a
# fixed seed, and a recommendation that beats the paper's as-is baseline.
# Three apps, so the concurrent stage-1 memo is checked byte for byte
# through the CLI on differently shaped traces. The text shows 6 decimals,
# the JSON metrics 17 digits, so both are diffed. The argmin, Pareto and
# full-space cost gates live in test_tuner.
tune_jobs_diff() {  # tune_jobs_diff <name> <tune flags...>
  local name=$1
  shift
  for FORMAT in text json; do
    "$FIBERSIM" "$@" --format "$FORMAT" --jobs 1 \
        > "$CACHE_DIR/tune.$name.j1.$FORMAT"
    "$FIBERSIM" "$@" --format "$FORMAT" --jobs 4 \
        > "$CACHE_DIR/tune.$name.j4.$FORMAT"
    diff "$CACHE_DIR/tune.$name.j1.$FORMAT" "$CACHE_DIR/tune.$name.j4.$FORMAT"
  done
}
for TUNE_APP in ffvc ntchem mvmc; do
  tune_jobs_diff "$TUNE_APP" tune --app "$TUNE_APP" --dataset small \
      --iterations 2 --seed 42 --processors a64fx --combos representative
done
# The default space: all three comparison processors and every MPI x OMP
# split, so execution-group tasks cross processor boundaries.
tune_jobs_diff full tune --app ffvc --dataset small --iterations 2 --seed 42
grep -q 'best beats as-is baseline: yes' "$CACHE_DIR/tune.ffvc.j1.text" || {
  echo "tune: recommended config does not beat the as-is baseline" >&2
  exit 1
}

echo "== bench artifacts: every committed BENCH_*.json must parse =="
# A committed artifact may predate the current writer or be edited by hand;
# gate every repo-root artifact through the repo's own strict parser
# (duplicate keys, grammar, depth all enforced).
"$JSON_CHECK" BENCH_*.json

echo "== resilience: chaos soak (SIGKILL + supervised recovery, zero loss) =="
# The soak harness runs a supervised external server under live load while
# SIGKILLing the serving child, then re-checks every acknowledged config
# after the final recovery. Bounded for CI: 2 kills, 2 clients.
RES_DIR="$CACHE_DIR/resilience"
RES_JSON="$CACHE_DIR/BENCH_resilience.json"
"$BUILD_DIR/bench/perf_resilience" --server "$FIBERSIM" --out "$RES_JSON" \
    --work-dir "$RES_DIR" --kills 2 --clients 2 --requests 24
"$JSON_CHECK" "$RES_JSON"
for invariant in '"zero_loss": true' '"byte_identical": true' \
    '"supervisor_clean_exit": true' '"journal_newline_clean": true' \
    '"typed_timeout": true' '"recovered": true' '"terminal_errors": 0' \
    '"ok": true'; do
  grep -q "$invariant" "$RES_JSON" || {
    echo "BENCH_resilience.json missing invariant: $invariant" >&2
    exit 1
  }
done
# Post-soak cleanliness, re-checked from outside the harness: socket
# unlinked, journal newline-terminated (no torn tail), no half-published
# .tmp entries in the trace store.
[ ! -e "$RES_DIR/resilience.sock" ]
[ -s "$RES_DIR/resilience.journal" ]
[ "$(tail -c 1 "$RES_DIR/resilience.journal" | wc -l)" -eq 1 ]
[ "$(find "$RES_DIR/resilience-cache" -name '.tmp-*' | wc -l)" -eq 0 ]

echo "== sanitize: concurrency + fault suites under TSan =="
cmake -B "$TSAN_DIR" -S . -DFIBERSIM_SANITIZE=thread
cmake --build "$TSAN_DIR" -j
ctest --test-dir "$TSAN_DIR" -L sanitize --output-on-failure

echo "== fault: failure/fault-injection suites under ASan =="
cmake -B "$ASAN_DIR" -S . -DFIBERSIM_SANITIZE=address
cmake --build "$ASAN_DIR" -j
ctest --test-dir "$ASAN_DIR" -L fault --output-on-failure
# The suites that hold indices into the contention flow table and the
# collapsed send templates, and the message layer whose collective block
# helpers memcpy at computed offsets: a stale reference or an overrun there
# is an intermittent segfault under plain ctest, but a deterministic ASan
# report here. The sweep, tune and serve suites run their tasks on 256 KiB
# guard-paged context stacks, which ASan's larger frames press hardest. The
# phase accumulator indexes its per-domain arrays through a raw pointer and
# Binding::core_of indexes its node layouts: test_predict_memo and test_topo
# drive both.
ctest --test-dir "$ASAN_DIR" \
  -R '^test_(collapse|machine|mp|predict_memo|sweep_pool|topo|tuner|serve)$' \
  --output-on-failure

echo "== ci: all green =="
