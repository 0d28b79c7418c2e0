#!/usr/bin/env bash
# End-to-end test of the bixctl CLI: build from CSV, inspect, query in the
# raw value domain (including constants absent from the column), and the
# advise subcommand.  Registered with ctest; $1 is the bixctl binary.
set -euo pipefail

BIXCTL="$1"
WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT

cat > "$WORK/data.csv" <<EOF
price
199
999
499
199
2999
999
499
199
42
EOF

fail() { echo "bixctl_test FAILED: $1" >&2; exit 1; }

"$BIXCTL" build --csv "$WORK/data.csv" --col 0 --dir "$WORK/idx" \
    --codec deflate --scheme cs > "$WORK/build.out"
grep -q "built range index" "$WORK/build.out" || fail "build output"

"$BIXCTL" info --dir "$WORK/idx" > "$WORK/info.out"
grep -q "cardinality:   5" "$WORK/info.out" || fail "info cardinality"
grep -q "scheme/codec:  CS / deflate" "$WORK/info.out" || fail "info scheme"
grep -q "value domain:  \[42, 2999\]" "$WORK/info.out" || fail "info domain"

# <= 500 matches 42, 199 x3, 499 x2 = 6 rows (constant absent from column).
"$BIXCTL" query --dir "$WORK/idx" --pred "<= 500" > "$WORK/q1.out"
grep -q "6 of 9 records" "$WORK/q1.out" || fail "query <= 500"

# = 300 matches nothing; != 199 matches 6 of 9.
"$BIXCTL" query --dir "$WORK/idx" --pred "= 300" | grep -q "0 of 9" \
    || fail "query = 300"
"$BIXCTL" query --dir "$WORK/idx" --pred "!= 199" | grep -q "6 of 9" \
    || fail "query != 199"
"$BIXCTL" query --dir "$WORK/idx" --pred "> 999" | grep -q "1 of 9" \
    || fail "query > 999"

# Observability: --stats prints a metrics snapshot, --trace-out writes a
# Chrome trace, and explain audits measured counts against the cost model.
"$BIXCTL" query --dir "$WORK/idx" --pred "<= 500" --stats \
    --trace-out "$WORK/t.json" > "$WORK/q_obs.out"
grep -q -- "-- metrics --" "$WORK/q_obs.out" || fail "query --stats header"
grep -q "eval.bitmap_scans" "$WORK/q_obs.out" || fail "query --stats scans"
grep -q "eval.latency_ns" "$WORK/q_obs.out" || fail "query --stats latency"
grep -q '"traceEvents"' "$WORK/t.json" || fail "trace file content"
if command -v python3 >/dev/null 2>&1; then
  python3 -c "import json; json.load(open('$WORK/t.json'))" \
      || fail "trace file is not valid JSON"
fi

"$BIXCTL" explain --dir "$WORK/idx" --pred "<= 500" > "$WORK/explain.out" \
    || fail "explain exit code (audit drift?)"
grep -q "algorithm:" "$WORK/explain.out" || fail "explain algorithm"
grep -q "audit:           OK" "$WORK/explain.out" || fail "explain audit OK"

# A column spanning four 64 Kbit replay segments evaluates on one thread,
# crossing segment seams and the tail, with a clean audit (zero scan-count
# drift).  query and explain take no --threads: a stale one is a usage error.
{ echo v; awk 'BEGIN { for (i = 0; i < 196645; ++i) print (i * 7919) % 1000 }'; } \
    > "$WORK/big.csv"
"$BIXCTL" build --csv "$WORK/big.csv" --col 0 --dir "$WORK/idx_big" \
    > /dev/null || fail "build multi-segment index"
"$BIXCTL" query --dir "$WORK/idx_big" --pred "<= 500" > "$WORK/q_big.out" \
    || fail "multi-segment query exit code"
grep -q "98518 of 196645 records" "$WORK/q_big.out" \
    || fail "multi-segment query"
"$BIXCTL" explain --dir "$WORK/idx_big" --pred "<= 500" \
    > "$WORK/explain_big.out" || fail "explain exit code (audit drift?)"
grep -q "audit:           OK" "$WORK/explain_big.out" \
    || fail "multi-segment explain audit OK"
for cmd in query explain; do
  rc=0; "$BIXCTL" "$cmd" --dir "$WORK/idx_big" --pred "<= 500" --threads 4 \
      > /dev/null 2> "$WORK/threads_$cmd.err" || rc=$?
  [ "$rc" -eq 2 ] || fail "$cmd --threads should be a usage error (rc=$rc)"
  grep -q -- "--threads applies only to serve" "$WORK/threads_$cmd.err" \
      || fail "$cmd --threads names why it is refused"
done

# A flag the command does not read is a usage error that names the flag,
# not an option silently ignored: `--limt 1 --engin auto` must not run a
# plain query.
rc=0; "$BIXCTL" query --dir "$WORK/idx" --pred "<= 500" --limt 1 \
    --engin auto > /dev/null 2> "$WORK/typo.err" || rc=$?
[ "$rc" -eq 2 ] || fail "query with misspelt flags should exit 2 (rc=$rc)"
grep -q -- "unknown flag --engin for query" "$WORK/typo.err" \
    || fail "the usage error names the unknown flag"
rc=0; "$BIXCTL" info --dir "$WORK/idx" --pred "<= 500" > /dev/null 2>&1 \
    || rc=$?
[ "$rc" -eq 2 ] || fail "info --pred should exit 2 (rc=$rc)"

# The compressed-domain engine must also match bit for bit, with a clean
# cost-model audit.  plain and auto are the only engines.
"$BIXCTL" query --dir "$WORK/idx" --pred "<= 500" --engine auto \
    | grep -q "6 of 9 records" || fail "auto engine query (<=)"
"$BIXCTL" query --dir "$WORK/idx" --pred "!= 199" --engine auto \
    | grep -q "6 of 9 records" || fail "auto engine query (!=)"
"$BIXCTL" explain --dir "$WORK/idx" --pred "<= 500" --engine auto \
    > "$WORK/explain_auto.out" || fail "auto explain exit code (audit drift?)"
grep -q "audit:           OK" "$WORK/explain_auto.out" \
    || fail "auto explain audit OK"
"$BIXCTL" query --dir "$WORK/idx" --pred "<= 500" --engine bogus \
    > /dev/null 2>&1 && fail "bad engine should fail"
"$BIXCTL" query --dir "$WORK/idx" --pred "<= 500" --engine wah \
    > "$WORK/engine_wah.out" 2>&1 && fail "--engine wah should fail"
grep -q "engine must be plain or auto" "$WORK/engine_wah.out" \
    || fail "--engine wah names the accepted engines"

# Fault tolerance: freshly built indexes are manifest-verified; verify
# checks every file's checksums; scrub proves injected corruption of the
# read path is detected; a byte of on-disk rot fails the query loudly with
# a corruption error instead of a silently wrong row count.
grep -q "integrity:     verified" "$WORK/info.out" || fail "info integrity"
"$BIXCTL" verify --dir "$WORK/idx" > "$WORK/verify.out"
grep -q "verify: OK" "$WORK/verify.out" || fail "verify clean index"
"$BIXCTL" scrub --dir "$WORK/idx" --inject 7 > "$WORK/scrub.out"
grep -q "scrub: OK" "$WORK/scrub.out" || fail "scrub detects injections"
grep -q "injecting:" "$WORK/scrub.out" || fail "scrub lists injections"
"$BIXCTL" verify --dir "$WORK/idx" > /dev/null \
    || fail "scrub must not modify the index on disk"

cp -r "$WORK/idx" "$WORK/rotted"
printf 'CORRUPT!' | dd of="$WORK/rotted/c0.bm" bs=1 seek=40 conv=notrunc \
    2>/dev/null
"$BIXCTL" query --dir "$WORK/rotted" --pred "<= 500" > "$WORK/rot.out" 2>&1 \
    && fail "query over rotted index should fail"
grep -qi "corruption" "$WORK/rot.out" || fail "rot error names corruption"
"$BIXCTL" verify --dir "$WORK/rotted" > "$WORK/verify_rot.out" 2>&1 \
    && fail "verify over rotted index should fail"
grep -q "CORRUPT" "$WORK/verify_rot.out" || fail "verify names rotted file"

# A BS index stored with the wah codec hands its payloads to the
# compressed-domain engine directly (no inflate on the fetch path).
"$BIXCTL" build --csv "$WORK/data.csv" --col 0 --dir "$WORK/idx_wah" \
    --codec wah --scheme bs > /dev/null
"$BIXCTL" query --dir "$WORK/idx_wah" --pred "<= 500" --engine auto --stats \
    > "$WORK/q_wah.out"
grep -q "6 of 9 records" "$WORK/q_wah.out" || fail "wah-codec query rows"
grep -Eq "storage\.wah_direct_fetches [1-9]" "$WORK/q_wah.out" \
    || fail "wah direct fetch counter"

"$BIXCTL" advise --cardinality 1000 --budget 100 > "$WORK/advise.out"
grep -q "knee (Theorem 7.1)" "$WORK/advise.out" || fail "advise knee"
grep -q "<28, 36>" "$WORK/advise.out" || fail "advise knee base"

# Profiling: explain --analyze prints a span tree whose rows carry wall
# times and counters, for every engine and over several segments.  The root
# row is "query" and the per-component fetches appear as children.
for eng in plain auto; do
  "$BIXCTL" explain --dir "$WORK/idx" --pred "<= 500" --analyze \
      --engine "$eng" > "$WORK/analyze_$eng.out" \
      || fail "explain --analyze --engine $eng exit code"
  grep -q -- "-- analyze --" "$WORK/analyze_$eng.out" \
      || fail "analyze header ($eng)"
  grep -q "^query " "$WORK/analyze_$eng.out" || fail "analyze root ($eng)"
  grep -q "stored eval" "$WORK/analyze_$eng.out" \
      || fail "analyze stored-eval node ($eng)"
  grep -q "scans=" "$WORK/analyze_$eng.out" || fail "analyze counters ($eng)"
done
"$BIXCTL" explain --dir "$WORK/idx_big" --pred "<= 500" --analyze \
    > "$WORK/analyze_big.out" || fail "multi-segment explain --analyze exit code"
grep -q "^query " "$WORK/analyze_big.out" || fail "multi-segment analyze root"

# Flamegraph export: collapsed-stack lines are `frame(;frame)* count`.
"$BIXCTL" query --dir "$WORK/idx" --pred "<= 500" \
    --flame-out "$WORK/flame.txt" > /dev/null || fail "query --flame-out"
[ -s "$WORK/flame.txt" ] || fail "flame file empty"
grep -Eqv '^[^ ;]+(;[^ ;]+)* [0-9]+$' "$WORK/flame.txt" \
    && fail "malformed collapsed-stack line" || true
grep -q "^query" "$WORK/flame.txt" || fail "flame root frame"

# Prometheus metrics dump (works on any command, = and space flag syntax).
"$BIXCTL" query --dir "$WORK/idx" --pred "<= 500" \
    --metrics-out="$WORK/metrics.prom" > /dev/null || fail "--metrics-out"
grep -q "# TYPE bix_eval_bitmap_scans counter" "$WORK/metrics.prom" \
    || fail "prometheus TYPE line"
grep -Eq "^bix_eval_bitmap_scans [0-9]+$" "$WORK/metrics.prom" \
    || fail "prometheus counter sample"
grep -q 'le="+Inf"' "$WORK/metrics.prom" || fail "prometheus +Inf bucket"

# benchdiff subcommand: pass within the band, fail on a doctored 2x
# slowdown, schema-mismatch when a baseline key disappears.
cat > "$WORK/bd_base.json" <<'EOF'
[
  {"bench":"m","params":{"k":2},"metric":"t_us","value":10.0,"unit":"us"},
  {"bench":"m","params":{"k":4},"metric":"t_us","value":20.0,"unit":"us"}
]
EOF
cat > "$WORK/bd_ok.json" <<'EOF'
[
  {"bench":"m","params":{"k":2},"metric":"t_us","value":10.5,"unit":"us"},
  {"bench":"m","params":{"k":4},"metric":"t_us","value":19.0,"unit":"us"}
]
EOF
cat > "$WORK/bd_slow.json" <<'EOF'
[
  {"bench":"m","params":{"k":2},"metric":"t_us","value":20.0,"unit":"us"},
  {"bench":"m","params":{"k":4},"metric":"t_us","value":20.0,"unit":"us"}
]
EOF
cat > "$WORK/bd_gone.json" <<'EOF'
[
  {"bench":"m","params":{"k":2},"metric":"t_us","value":10.0,"unit":"us"}
]
EOF
"$BIXCTL" benchdiff "$WORK/bd_base.json" "$WORK/bd_ok.json" \
    > "$WORK/bd1.out" || fail "benchdiff pass case"
grep -q "VERDICT: PASS" "$WORK/bd1.out" || fail "benchdiff pass verdict"
rc=0; "$BIXCTL" benchdiff "$WORK/bd_base.json" "$WORK/bd_slow.json" \
    > "$WORK/bd2.out" || rc=$?
[ "$rc" = 1 ] || fail "benchdiff regression exit ($rc != 1)"
grep -q "REGRESSION" "$WORK/bd2.out" || fail "benchdiff regression line"
rc=0; "$BIXCTL" benchdiff "$WORK/bd_base.json" "$WORK/bd_gone.json" \
    > "$WORK/bd3.out" || rc=$?
[ "$rc" = 2 ] || fail "benchdiff schema exit ($rc != 2)"
grep -q "SCHEMA MISMATCH" "$WORK/bd3.out" || fail "benchdiff schema verdict"
"$BIXCTL" benchdiff --band 1.5 "$WORK/bd_base.json" "$WORK/bd_slow.json" \
    > /dev/null || fail "benchdiff wide band"

# Serving: a raw-domain trace replayed over two columns, with and without
# cross-query operand sharing, must find the same rows; engine-mismatch
# between a baseline's and a fresh run's _meta refuses to gate.
cat > "$WORK/trace.txt" <<'EOF'
# bix-trace v1
q 0 <= 500
q 1 = 199
q 0 != 199
q 1 <= 500
q 0 = 300
EOF
"$BIXCTL" build --csv "$WORK/data.csv" --col 0 --dir "$WORK/idx2" \
    --encoding equality > /dev/null
"$BIXCTL" serve --dirs "$WORK/idx,$WORK/idx2" --trace "$WORK/trace.txt" \
    --threads 4 > "$WORK/serve.out" || fail "serve exit code"
grep -q "served 5 queries over 2 columns" "$WORK/serve.out" \
    || fail "serve summary"
# 6 + 3 + 6 + 6 + 0 rows across the five queries.
grep -q "ok 5, shed 0, deadline-missed 0, failed 0; 21 rows" \
    "$WORK/serve.out" || fail "serve rows"
grep -q "shared fetches:" "$WORK/serve.out" || fail "serve hit-rate line"
"$BIXCTL" serve --dirs "$WORK/idx,$WORK/idx2" --trace "$WORK/trace.txt" \
    --threads 4 --no-share > "$WORK/serve_ns.out" \
    || fail "serve --no-share exit code"
grep -q "failed 0; 21 rows" "$WORK/serve_ns.out" \
    || fail "serve --no-share rows must match shared"
grep -q "sharing off" "$WORK/serve_ns.out" || fail "serve --no-share banner"
# A queue bound of 2 sheds the rest of the batch.
"$BIXCTL" serve --dirs "$WORK/idx,$WORK/idx2" --trace "$WORK/trace.txt" \
    --queue 2 --batch 5 > "$WORK/serve_shed.out" \
    || fail "serve --queue exit code"
grep -q "ok 2, shed 3" "$WORK/serve_shed.out" || fail "serve shed count"
# stdin works too.
"$BIXCTL" serve --dirs "$WORK/idx,$WORK/idx2" < "$WORK/trace.txt" \
    | grep -q "served 5 queries" || fail "serve from stdin"

# Per-query trace deadlines parse and are honored (a 1ns deadline always
# misses).
cat > "$WORK/trace_ddl.txt" <<'EOF'
# bix-trace v1
q 0 <= 500
q 1 = 199 1
EOF
"$BIXCTL" serve --dirs "$WORK/idx,$WORK/idx2" --trace "$WORK/trace_ddl.txt" \
    > "$WORK/serve_ddl.out" || fail "serve deadline trace exit code"
grep -q "ok 1, shed 0, deadline-missed 1" "$WORK/serve_ddl.out" \
    || fail "serve per-query deadline"

# bench-serve: tiny run, sharing must not change results, JSON carries the
# engine in its _meta row plus exactly the no_share, shared and cold arms.
"$BIXCTL" bench-serve --columns 2 --rows 2000 --cardinality 16 \
    --queries 200 --threads 2 --out "$WORK/bs.json" \
    > "$WORK/bs.out" || fail "bench-serve exit code"
grep -q "speedup" "$WORK/bs.out" || fail "bench-serve speedup line"
grep -q '"engine":"plain"' "$WORK/bs.json" || fail "bench-serve engine meta"
grep -q '"metric":"qps"' "$WORK/bs.json" || fail "bench-serve qps rows"
[[ "$(grep -o '"arm":"[a-z_]*"' "$WORK/bs.json" | sort -u | tr '\n' ' ')" \
    == '"arm":"cold" "arm":"no_share" "arm":"shared" ' ]] \
    || fail "bench-serve arms must be exactly no_share, shared, cold"

# Engine mismatch between baseline and fresh meta refuses to gate (exit 0,
# warning) unless forced.
cat > "$WORK/bd_eng_base.json" <<'EOF'
[
  {"bench":"_meta","params":{"hostname":"h","engine":"plain"},"metric":"run","value":0,"unit":""},
  {"bench":"m","params":{"k":2},"metric":"t_us","value":10.0,"unit":"us"}
]
EOF
cat > "$WORK/bd_eng_fresh.json" <<'EOF'
[
  {"bench":"_meta","params":{"hostname":"h","engine":"wah"},"metric":"run","value":0,"unit":""},
  {"bench":"m","params":{"k":2},"metric":"t_us","value":30.0,"unit":"us"}
]
EOF
"$BIXCTL" benchdiff "$WORK/bd_eng_base.json" "$WORK/bd_eng_fresh.json" \
    > "$WORK/bd_eng.out" || fail "engine mismatch must refuse, not fail"
grep -q "engine mismatch" "$WORK/bd_eng.out" || fail "engine mismatch warning"
rc=0; "$BIXCTL" benchdiff "$WORK/bd_eng_base.json" \
    "$WORK/bd_eng_fresh.json" --force > /dev/null || rc=$?
[ "$rc" = 1 ] || fail "--force must gate across engines ($rc != 1)"

# Mutation: append rows (domain-checked), delete by predicate and by row
# id, compact into the next generation.  Query results stay consistent
# with the logical column at every step, and verify covers the sidecars.
"$BIXCTL" build --csv "$WORK/data.csv" --col 0 --dir "$WORK/midx" \
    --scheme cs --codec deflate > /dev/null
"$BIXCTL" append --dir "$WORK/midx" --values "199,null,2999" \
    > "$WORK/ap.out" || fail "append exit code"
grep -q "appended 3 row(s): 12 records total" "$WORK/ap.out" \
    || fail "append output"
"$BIXCTL" query --dir "$WORK/midx" --pred "<= 500" | grep -q "7 of 12" \
    || fail "query after append"
"$BIXCTL" append --dir "$WORK/midx" --values "123" > /dev/null 2>&1 \
    && fail "append outside the value domain must fail"
"$BIXCTL" verify --dir "$WORK/midx" > "$WORK/mv.out" \
    || fail "verify with mutation sidecars"
grep -q "g0.delta" "$WORK/mv.out" || fail "verify lists the append log"
# Serving requires a compacted index: the pending delta must be rejected.
"$BIXCTL" serve --dirs "$WORK/midx" --trace "$WORK/trace.txt" \
    > /dev/null 2>&1 && fail "serve must reject a dir with pending rows"
"$BIXCTL" delete --dir "$WORK/midx" --pred "= 199" > "$WORK/del.out" \
    || fail "delete exit code"
grep -q "deleted 4 row(s)" "$WORK/del.out" || fail "delete output"
"$BIXCTL" query --dir "$WORK/midx" --pred "<= 500" | grep -q "3 of 12" \
    || fail "query after delete"
"$BIXCTL" info --dir "$WORK/midx" | grep -q "pending:" \
    || fail "info pending line"
"$BIXCTL" compact --dir "$WORK/midx" > "$WORK/cp.out" || fail "compact"
grep -q "into generation 1" "$WORK/cp.out" || fail "compact output"
"$BIXCTL" query --dir "$WORK/midx" --pred "<= 500" | grep -q "3 of 12" \
    || fail "query after compact"
"$BIXCTL" info --dir "$WORK/midx" | grep -q "generation:    1" \
    || fail "info generation"
"$BIXCTL" verify --dir "$WORK/midx" > /dev/null || fail "verify after compact"
"$BIXCTL" delete --dir "$WORK/midx" --rows "0,1" > /dev/null \
    || fail "delete --rows"
"$BIXCTL" compact --dir "$WORK/midx" > /dev/null || fail "second compact"
"$BIXCTL" info --dir "$WORK/midx" | grep -q "generation:    2" \
    || fail "info generation 2"
"$BIXCTL" scrub --dir "$WORK/midx" --inject 11 > /dev/null \
    || fail "scrub after compaction"

# Error paths exit non-zero.
"$BIXCTL" query --dir /nonexistent --pred "<= 1" > /dev/null 2>&1 \
    && fail "missing dir should fail"
"$BIXCTL" query --dir "$WORK/idx" --pred "oops" > /dev/null 2>&1 \
    && fail "bad predicate should fail"
"$BIXCTL" build --csv /nonexistent.csv --dir "$WORK/x" > /dev/null 2>&1 \
    && fail "missing csv should fail"

echo "bixctl_test PASSED"
