#!/usr/bin/env bash
# Observability smoke: a traced sharded + pooled + intra-query-parallel
# query must export Chrome trace-event JSON that a real parser loads,
# carrying the full span hierarchy (execute → shard_search → traversal →
# leaf_verify, plus pool_miss_pread from the starved buffer pool); the
# daemon must surface bucketed latency quantiles, the flight recorder
# (request ids round-tripped from the client), and `stats --full`; and
# every bad flag combination must exit 1 with a reason, never a crash.
set -euo pipefail
HYDRA="${1:?usage: obs_smoke.sh <path-to-hydra-binary>}"
TMP="$(mktemp -d)"
SERVE_PID=""
cleanup() {
  [[ -n "$SERVE_PID" ]] && kill -9 "$SERVE_PID" 2> /dev/null || true
  rm -rf "$TMP"
}
trap cleanup EXIT

"$HYDRA" gen synth 4000 64 13 "$TMP/data.bin" > /dev/null

# The acceptance-path query: shards, intra-query workers, and a pool far
# smaller than the dataset, all under --trace.
"$HYDRA" query "$TMP/data.bin" DSTree 5 4 --shards 3 --threads 2 \
  --query-threads 2 --storage mmap --pool-mb 1 \
  --trace "$TMP/trace.json" > "$TMP/query.txt" 2> "$TMP/query.err"
grep -q "trace written to" "$TMP/query.err" \
  || { echo "FAIL: no trace-written confirmation"; cat "$TMP/query.err"; exit 1; }

# Parse back with a real JSON parser and check the span hierarchy: every
# phase the issue names must appear, nesting depths must be recorded, and
# nothing may have been dropped on this small run.
python3 - "$TMP/trace.json" << 'EOF' || exit 1
import json, sys
doc = json.load(open(sys.argv[1]))
events = doc["traceEvents"]
other = doc["otherData"]
names = {}
for e in events:
    assert e["ph"] == "X", f"event phase: want 'X', got {e['ph']!r} in {e}"
    assert e["ts"] >= 0 and e["dur"] >= 0, \
        f"event time: want ts >= 0 and dur >= 0, got {e}"
    assert "depth" in e["args"], f"event depth: no 'depth' arg in {e}"
    names.setdefault(e["name"], []).append(e)
for required in ("execute", "shard_search", "shard_merge", "traversal",
                 "leaf_verify", "pool_miss_pread"):
    assert required in names, f"missing span: {required} (have {sorted(names)})"
assert len(names["execute"]) == 4, \
    f"execute count: want 4, got {len(names['execute'])}: {names['execute']}"
execute_depths = [e["args"]["depth"] for e in names["execute"]]
assert all(d == 0 for d in execute_depths), \
    f"execute depth: want all 0, got {execute_depths}"
assert len(names["shard_search"]) == 12, \
    f"shard_search count: want 12 (4 queries x 3 shards), got " \
    f"{len(names['shard_search'])}"
verify_depths = sorted({e["args"]["depth"] for e in names["leaf_verify"]})
assert any(d > 0 for d in verify_depths), \
    f"leaf_verify depth: want some > 0, got depths {verify_depths} over " \
    f"{len(names['leaf_verify'])} spans"
assert other["dropped_events"] == 0, \
    f"dropped events: want 0, got {other['dropped_events']}: {other}"
assert other["command"] == "query" and other["method"] == "DSTree", \
    f"trace meta: want command 'query' and method 'DSTree', got {other}"
assert "kernels" in other, f"trace meta: no 'kernels' key in {other}"
print("trace OK:", len(events), "events,", len(names), "span names")
EOF

# Answers are invariant under tracing: the traced run above must print
# the same per-query lines as an untraced twin (modulo the shared-bound
# arrival ledger, which is timing-dependent under --query-threads).
"$HYDRA" query "$TMP/data.bin" DSTree 5 4 --shards 3 --threads 2 \
  --query-threads 2 --storage mmap --pool-mb 1 > "$TMP/untraced.txt"
answers() { grep '^query' | sed 's/ \[.*\]$//'; }
if ! diff <(answers < "$TMP/query.txt") <(answers < "$TMP/untraced.txt") \
    > "$TMP/answers.diff"; then
  echo "FAIL: answers diff: the traced run (<) and the untraced twin (>)" \
    "answered differently:"
  cat "$TMP/answers.diff"
  exit 1
fi
echo "OK traced query: valid JSON, full hierarchy, answers unchanged"

# Serve: trace the daemon itself, drive it with queryd (which stamps
# request ids), and read the flight recorder back through STATS.
"$HYDRA" serve "$TMP/data.bin" DSTree --port 0 --serve-threads 2 \
  --trace "$TMP/serve_trace.json" > "$TMP/serve.log" 2>&1 &
SERVE_PID=$!
PORT=""
for _ in $(seq 1 100); do
  PORT="$(sed -n 's/^hydra serve: .* on 127\.0\.0\.1:\([0-9]*\) .*/\1/p' \
    "$TMP/serve.log")"
  [[ -n "$PORT" ]] && break
  kill -0 "$SERVE_PID" 2> /dev/null \
    || { echo "FAIL: daemon died at startup"; cat "$TMP/serve.log"; exit 1; }
  sleep 0.1
done
[[ -n "$PORT" ]] || { echo "FAIL: no port line"; cat "$TMP/serve.log"; exit 1; }

"$HYDRA" queryd "$TMP/data.bin" 5 4 --port "$PORT" > /dev/null \
  || { echo "FAIL: queryd failed"; exit 1; }

"$HYDRA" stats --port "$PORT" > "$TMP/stats.json"
python3 - "$TMP/stats.json" << 'EOF' || exit 1
import json, sys
doc = json.load(open(sys.argv[1]))
lat = doc["latency"]
assert lat["samples"] == 4, f"latency samples: want 4, got {lat}"
assert 0 < lat["p50_ms"] <= lat["p95_ms"] <= lat["p99_ms"], \
    f"latency quantiles: want 0 < p50 <= p95 <= p99, got {lat}"
assert abs(lat["quantile_error_bound"] - 0.189207) < 1e-6, \
    f"quantile error bound: want 0.189207, got {lat}"
assert len(lat["bucket_bounds_seconds"]) == len(lat["bucket_counts"]) > 0, \
    f"latency buckets: want equal non-empty bounds and counts, got {lat}"
assert sum(lat["bucket_counts"]) == 4, \
    f"latency bucket counts: want a sum of 4, got {lat['bucket_counts']}"
slow = doc["slow_queries"]
assert 0 < len(slow) <= 8, f"flight records: want 1..8, got {len(slow)}: {slow}"
# queryd stamps ids 1..N; every record carries the five serve phases.
ids = sorted(r["request_id"] for r in slow)
assert ids == [1, 2, 3, 4], f"flight record ids: want [1, 2, 3, 4], got {ids}"
phases = {"decode", "queue_wait", "cache_lookup", "execute", "encode_write"}
for r in slow:
    assert set(r["phases"]) == phases, \
        f"flight record phases: want {sorted(phases)}, got {r}"
    assert r["total_ms"] > 0, f"flight record total: want > 0, got {r}"
metrics = doc["metrics"]
assert metrics["counters"]["serve.queries"] == 4, \
    f"serve.queries: want 4, got {metrics['counters']}"
for histogram in ("serve.latency_seconds", "serve.cpu_seconds"):
    assert histogram in metrics["histograms"], \
        f"histograms: no {histogram} in {sorted(metrics['histograms'])}"
print("stats OK: quantiles, buckets, flight records, registry")
EOF

# The plain-text registry dump over the wire.
"$HYDRA" stats --port "$PORT" --full > "$TMP/full.txt"
grep -q '^counter serve\.queries 4$' "$TMP/full.txt" \
  || { echo "FAIL: stats --full lacks serve.queries"; cat "$TMP/full.txt"; exit 1; }
grep -q '^histogram serve\.latency_seconds count=4 ' "$TMP/full.txt" \
  || { echo "FAIL: stats --full lacks the latency histogram"; exit 1; }

# SIGTERM drain writes the daemon's own trace with per-request spans.
kill -TERM "$SERVE_PID"
for _ in $(seq 1 100); do
  kill -0 "$SERVE_PID" 2> /dev/null || break
  sleep 0.1
done
wait "$SERVE_PID" || { echo "FAIL: daemon exited non-zero"; exit 1; }
SERVE_PID=""
python3 - "$TMP/serve_trace.json" << 'EOF' || exit 1
import json, sys
doc = json.load(open(sys.argv[1]))
reqs = [e for e in doc["traceEvents"] if e["name"] == "serve_request"]
assert len(reqs) == 4, \
    f"serve_request spans: want 4, got {len(reqs)} among " \
    f"{[e['name'] for e in doc['traceEvents']]}"
ids = sorted(r["args"]["request_id"] for r in reqs)
assert ids == [1, 2, 3, 4], f"serve_request ids: want [1, 2, 3, 4], got {ids}"
print("serve trace OK:", len(doc["traceEvents"]), "events")
EOF
echo "OK serve: flight recorder, stats --full, traced drain"

# Flag validation: clean exit-1 refusals, never a crash.
if "$HYDRA" query "$TMP/data.bin" DSTree 2 2 \
    --trace "$TMP/no/such/dir/t.json" 2> "$TMP/err.txt"; then
  echo "FAIL: unwritable --trace should exit 1"; exit 1
fi
grep -q 'cannot open trace path' "$TMP/err.txt" \
  || { echo "FAIL: unwritable-trace error lacks a reason"; exit 1; }

if "$HYDRA" methods --trace "$TMP/t.json" 2> "$TMP/err.txt"; then
  echo "FAIL: --trace on a non-traced command should exit 1"; exit 1
fi
grep -q 'only supported by' "$TMP/err.txt" \
  || { echo "FAIL: wrong-command --trace refusal lacks a reason"; exit 1; }

if "$HYDRA" methods --full 2> "$TMP/err.txt"; then
  echo "FAIL: --full outside stats should exit 1"; exit 1
fi
grep -q -- "--full is only supported by 'stats'" "$TMP/err.txt" \
  || { echo "FAIL: --full refusal lacks a reason"; exit 1; }

echo "obs smoke OK"
