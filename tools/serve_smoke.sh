#!/usr/bin/env bash
# Serve smoke: the daemon must answer concurrent socket clients exactly the
# lines a direct `hydra query` run prints (same probe workload, same seed),
# repeat queries from the answer cache (merging no work), answer ng queries
# like a direct ng run, report its traffic
# over STATS, answer pings, and drain cleanly on SIGTERM — via the binary.
set -euo pipefail
HYDRA="${1:?usage: serve_smoke.sh <path-to-hydra-binary>}"
TMP="$(mktemp -d)"
SERVE_PID=""
cleanup() {
  [[ -n "$SERVE_PID" ]] && kill -9 "$SERVE_PID" 2> /dev/null || true
  rm -rf "$TMP"
}
trap cleanup EXIT

"$HYDRA" gen synth 2000 64 7 "$TMP/data.bin" > /dev/null

# Direct reference answers: the per-query lines of an in-process run
# (queryd prints the identical format over the identical seed-1 probe
# workload, so the streams must diff empty — ledger fields included).
"$HYDRA" query "$TMP/data.bin" DSTree 5 6 | grep '^query' > "$TMP/ref.txt"

# Start the daemon on an ephemeral port and parse the bound port from its
# startup line ("hydra serve: DSTree on 127.0.0.1:PORT (...)").
"$HYDRA" serve "$TMP/data.bin" DSTree --port 0 --serve-threads 2 \
  > "$TMP/serve.log" 2>&1 &
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

"$HYDRA" ping --port "$PORT" | grep -q "^pong from 127.0.0.1:$PORT" \
  || { echo "FAIL: ping did not pong"; exit 1; }

# Four concurrent clients, each driving the full probe workload through a
# socket: every stream must be identical to the direct run.
CLIENT_PIDS=()
for c in 1 2 3 4; do
  "$HYDRA" queryd "$TMP/data.bin" 5 6 --port "$PORT" \
    > "$TMP/client$c.txt" 2>&1 &
  CLIENT_PIDS+=($!)
done
for pid in "${CLIENT_PIDS[@]}"; do
  wait "$pid" || { echo "FAIL: a concurrent client failed"; exit 1; }
done
for c in 1 2 3 4; do
  grep '^query' "$TMP/client$c.txt" > "$TMP/served$c.txt"
  diff "$TMP/ref.txt" "$TMP/served$c.txt" \
    || { echo "FAIL: client $c answers differ from direct query"; exit 1; }
done

# STATS into file $2 once the daemon counted $1 answers (a worker counts
# its answer just after writing it to the client).
stats_after() {
  for _ in $(seq 1 100); do
    "$HYDRA" stats --port "$PORT" > "$2"
    grep -q "\"completed\":$1," "$2" && return 0
    sleep 0.1
  done
  echo "FAIL: STATS never counted $1 answers"; cat "$2"; exit 1
}
ledger() { sed -n 's/.*\("search_stats":{[^}]*}}\).*/\1/p' "$1"; }
cache_hits() { sed -n 's/.*"cache":{"hits":\([0-9]*\).*/\1/p' "$1"; }
stats_after 24 "$TMP/stats_before.json"

# The workload repeats across clients, so by now every exact answer is
# cached: one more run must be answered entirely from the cache.
"$HYDRA" queryd "$TMP/data.bin" 5 6 --port "$PORT" > "$TMP/cached.txt"
grep -q "(6 from cache)$" "$TMP/cached.txt" \
  || { echo "FAIL: repeat run was not served from the cache"; \
       tail -1 "$TMP/cached.txt"; exit 1; }
grep '^query' "$TMP/cached.txt" > "$TMP/cached_answers.txt"
diff "$TMP/ref.txt" "$TMP/cached_answers.txt" \
  || { echo "FAIL: cached answers differ from direct query"; exit 1; }

# STATS sees the traffic: hits happened, nothing was malformed or rejected.
stats_after 30 "$TMP/stats.json"
grep -q '"rejected":0' "$TMP/stats.json" \
  || { echo "FAIL: unexpected rejections"; cat "$TMP/stats.json"; exit 1; }
grep -q '"malformed":0' "$TMP/stats.json" \
  || { echo "FAIL: unexpected malformed frames"; exit 1; }
grep -q '"hits":' "$TMP/stats.json" && ! grep -q '"hits":0,' "$TMP/stats.json" \
  || { echo "FAIL: STATS shows no cache hits"; cat "$TMP/stats.json"; exit 1; }

# Hits replay answers executed earlier: the cached pass grows the hit count
# but merges no work, so the merged ledger is byte-identical across it.
[[ -n "$(ledger "$TMP/stats.json")" &&
   "$(ledger "$TMP/stats_before.json")" == "$(ledger "$TMP/stats.json")" ]] \
  || { echo "FAIL: no search_stats, or cache hits merged work into it"; \
       ledger "$TMP/stats_before.json"; ledger "$TMP/stats.json"; exit 1; }
(( $(cache_hits "$TMP/stats.json") > $(cache_hits "$TMP/stats_before.json") )) \
  || { echo "FAIL: the cached pass did not grow cache.hits"; exit 1; }

# ng queries are answered on the connection's reader thread, not a pool
# worker: the stream must still diff empty against a direct ng run.
"$HYDRA" query "$TMP/data.bin" DSTree 5 6 --mode ng | grep '^query' \
  > "$TMP/ref_ng.txt"
"$HYDRA" queryd "$TMP/data.bin" 5 6 --mode ng --port "$PORT" \
  > "$TMP/ng.txt" || { echo "FAIL: ng queryd failed"; exit 1; }
grep '^query' "$TMP/ng.txt" > "$TMP/served_ng.txt"
diff "$TMP/ref_ng.txt" "$TMP/served_ng.txt" \
  || { echo "FAIL: served ng answers differ from direct ng query"; exit 1; }

# Graceful shutdown: SIGTERM drains and the daemon reports it stopped.
kill -TERM "$SERVE_PID"
for _ in $(seq 1 100); do
  kill -0 "$SERVE_PID" 2> /dev/null || break
  sleep 0.1
done
if kill -0 "$SERVE_PID" 2> /dev/null; then
  echo "FAIL: daemon did not exit on SIGTERM"; exit 1
fi
wait "$SERVE_PID" || { echo "FAIL: daemon exited non-zero"; exit 1; }
SERVE_PID=""
grep -q "hydra serve: stopped" "$TMP/serve.log" \
  || { echo "FAIL: no clean shutdown line"; cat "$TMP/serve.log"; exit 1; }

# Flag validation exits 1 with a message, never a crash.
if "$HYDRA" serve "$TMP/data.bin" DSTree --port 99999 2> "$TMP/err.txt"; then
  echo "FAIL: --port 99999 should exit 1"; exit 1
fi
grep -q -- "--port" "$TMP/err.txt" \
  || { echo "FAIL: bad port error lacks the flag name"; exit 1; }

echo "serve smoke OK"
