#!/usr/bin/env bash
# Input-validation gate for the hydra CLI's QuerySpec flags: every
# malformed value and every unsupported mode+method combination must exit
# 1 with a clean message (never a CHECK abort / non-1 status), and valid
# specs must run. Usage: validation_test.sh <path-to-hydra-binary>
set -u

bin="${1:?usage: validation_test.sh <hydra binary>}"
fails=0

# expect_err <description> <required stderr substring> <cli args...>
expect_err() {
  local desc="$1" want="$2"
  shift 2
  local out rc
  out=$("$bin" "$@" 2>&1)
  rc=$?
  if [ "$rc" -ne 1 ]; then
    echo "FAIL ($desc): exit $rc, want 1 — output: $out"
    fails=1
  fi
  case "$out" in
    *"$want"*) ;;
    *)
      echo "FAIL ($desc): expected '$want' in output: $out"
      fails=1
      ;;
  esac
}

# expect_ok <description> <cli args...>
expect_ok() {
  local desc="$1"
  shift
  if ! "$bin" "$@" >/dev/null 2>&1; then
    echo "FAIL ($desc): expected success"
    fails=1
  fi
}

# expect_usage <description> <cli args...>: a malformed command line exits
# 2 and prints the usage synopsis.
expect_usage() {
  local desc="$1"
  shift
  local out rc
  out=$("$bin" "$@" 2>&1)
  rc=$?
  if [ "$rc" -ne 2 ]; then
    echo "FAIL ($desc): exit $rc, want 2 — output: $out"
    fails=1
  fi
  case "$out" in
    *"usage:"*) ;;
    *)
      echo "FAIL ($desc): expected the usage synopsis in output: $out"
      fails=1
      ;;
  esac
}

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
d="$tmp/d.bin"
"$bin" gen synth 400 64 3 "$d" >/dev/null || {
  echo "FAIL: could not generate the probe dataset"
  exit 1
}

# --epsilon: strict ParseDouble — reject NaN, inf, negatives, junk.
expect_err "epsilon nan" "--epsilon must be" \
  query "$d" DSTree 3 2 --mode epsilon --epsilon nan
expect_err "epsilon inf" "--epsilon must be" \
  query "$d" DSTree 3 2 --mode epsilon --epsilon inf
expect_err "epsilon overflow" "--epsilon must be" \
  query "$d" DSTree 3 2 --mode epsilon --epsilon 1e999
expect_err "epsilon negative" "--epsilon must be" \
  query "$d" DSTree 3 2 --mode epsilon --epsilon -0.5
expect_err "epsilon trailing junk" "--epsilon must be" \
  query "$d" DSTree 3 2 --mode epsilon --epsilon 0.5x
expect_err "epsilon hex float" "--epsilon must be" \
  query "$d" DSTree 3 2 --mode epsilon --epsilon 0x5
expect_err "epsilon empty-ish" "--epsilon must be" \
  query "$d" DSTree 3 2 --mode epsilon --epsilon +1
expect_err "epsilon missing value" "--epsilon needs a value" \
  query "$d" DSTree 3 2 --mode epsilon --epsilon

# --delta: strict ParseDouble plus the (0, 1] domain.
expect_err "delta zero" "--delta must lie in (0, 1]" \
  query "$d" DSTree 3 2 --mode delta-epsilon --epsilon 1 --delta 0
expect_err "delta above one" "--delta must lie in (0, 1]" \
  query "$d" DSTree 3 2 --mode delta-epsilon --epsilon 1 --delta 1.5
expect_err "delta nan" "--delta must lie in (0, 1]" \
  query "$d" DSTree 3 2 --mode delta-epsilon --epsilon 1 --delta nan
expect_err "delta junk" "--delta must lie in (0, 1]" \
  query "$d" DSTree 3 2 --mode delta-epsilon --epsilon 1 --delta 0.5e

# Flag consistency.
expect_err "unknown mode" "unknown mode" \
  query "$d" DSTree 3 2 --mode fast
expect_err "epsilon without mode" "--epsilon requires --mode" \
  query "$d" DSTree 3 2 --epsilon 0.5
expect_err "epsilon mode without value" "--mode epsilon requires --epsilon" \
  query "$d" DSTree 3 2 --mode epsilon
expect_err "delta-epsilon mode without delta" \
  "--mode delta-epsilon requires --delta" \
  query "$d" DSTree 3 2 --mode delta-epsilon --epsilon 1
expect_err "delta without mode" "--delta requires --mode delta-epsilon" \
  query "$d" DSTree 3 2 --mode epsilon --epsilon 1 --delta 0.5
expect_err "budget under ng" "budgets do not apply to --mode ng" \
  query "$d" DSTree 3 2 --mode ng --max-leaves 2
expect_err "max-leaves zero" "--max-leaves must be a positive integer" \
  query "$d" DSTree 3 2 --max-leaves 0
expect_err "max-raw junk" "--max-raw must be a positive integer" \
  query "$d" DSTree 3 2 --max-raw 10x
expect_err "leaf budget on a scan" "no leaf-visit budget unit" \
  query "$d" UCR-Suite 3 2 --max-leaves 5
expect_err "leaf budget on VA+file" "no leaf-visit budget unit" \
  query "$d" VA+file 3 2 --max-leaves 5
expect_err "leaf budget on ADS+" "no leaf-visit budget unit" \
  query "$d" ADS+ 3 2 --max-leaves 5
expect_err "spec flags on range" "only supported by 'query'" \
  range "$d" DSTree 5 2 --mode epsilon

# Unsupported mode+method combinations exit 1 with the traits-derived
# reason (scans are exact-only; M-tree has no ng descent).
expect_err "scan epsilon" "method supports modes: exact" \
  query "$d" UCR-Suite 3 2 --mode epsilon --epsilon 0.5
expect_err "scan ng" "UCR-Suite does not support --mode ng" \
  query "$d" UCR-Suite 3 2 --mode ng
expect_err "mtree ng" "method supports modes: exact, epsilon" \
  query "$d" M-tree 3 2 --mode ng
expect_err "mtree delta-epsilon" "M-tree does not support --mode delta-epsilon" \
  query "$d" M-tree 3 2 --mode delta-epsilon --epsilon 1 --delta 0.5

# The index lifecycle flags: --index only where a persisted index can be
# opened, `build` only for methods that can persist one, and every bad
# index file exits 1 cleanly (never a CHECK abort).
expect_err "index on compare" "--index is only supported" \
  compare "$d" 2 --index "$tmp/idx"
expect_err "index on gen" "--index is only supported" \
  gen synth 10 8 1 "$tmp/x.bin" --index "$tmp/idx"
expect_err "index without value" "--index needs a value" \
  query "$d" DSTree 3 2 --index
expect_err "build on a scan" "does not support a persisted index" \
  build "$d" MASS "$tmp/idx"
expect_err "query --index on a scan" "does not support --index" \
  query "$d" MASS 3 2 --index "$tmp/idx"
expect_err "missing index dir" "cannot open index file" \
  query "$d" DSTree 3 2 --index "$tmp/no-such-index"
expect_err "build unknown method" "unknown method" \
  build "$d" NotAMethod "$tmp/idx"
expect_ok "build then open" build "$d" DSTree "$tmp/idx"
expect_ok "query via index" query "$d" DSTree 3 2 --index "$tmp/idx"
expect_ok "range via index" range "$d" DSTree 5 2 --index "$tmp/idx"
expect_err "index of another method" "was built by 'DSTree'" \
  query "$d" SFA 3 2 --index "$tmp/idx"
"$bin" gen synth 200 64 4 "$tmp/other.bin" >/dev/null
expect_err "index fingerprint mismatch" "fingerprint mismatch" \
  query "$tmp/other.bin" DSTree 3 2 --index "$tmp/idx"

# The kernel-dispatch flag: unknown/unsupported sets and misplaced flags
# exit 1 listing the supported sets; ambient HYDRA_KERNELS misuse exits 1
# for every command (never the library's abort); valid forcings run.
expect_err "kernels unknown set" "unknown kernel set" \
  query "$d" DSTree 3 2 --kernels fast
expect_err "kernels missing value" "--kernels needs a value" \
  query "$d" DSTree 3 2 --kernels
expect_err "kernels on gen" "--kernels is only supported" \
  gen synth 10 8 1 "$tmp/y.bin" --kernels scalar
expect_err "kernels on methods" "--kernels is only supported" \
  methods --kernels scalar
bad_env_out=$(HYDRA_KERNELS=bogus "$bin" query "$d" DSTree 3 2 2>&1)
bad_env_rc=$?
if [ "$bad_env_rc" -ne 1 ]; then
  echo "FAIL (bad HYDRA_KERNELS): exit $bad_env_rc, want 1 — $bad_env_out"
  fails=1
fi
case "$bad_env_out" in
  *"HYDRA_KERNELS='bogus'"*) ;;
  *)
    echo "FAIL (bad HYDRA_KERNELS): expected clean message: $bad_env_out"
    fails=1
    ;;
esac
expect_ok "kernels scalar forced" query "$d" DSTree 3 2 --kernels scalar
expect_ok "kernels portable forced" query "$d" iSAX2+ 3 2 --kernels portable
expect_ok "kernels listing" kernels
expect_ok "kernels names listing" kernels names
# The flag wins over a valid environment setting.
if ! HYDRA_KERNELS=scalar "$bin" query "$d" DSTree 3 2 --kernels portable \
    >/dev/null 2>&1; then
  echo "FAIL (flag overrides env): expected success"
  fails=1
fi

# The flag acceptance matrix: for every flag, one command that accepts it
# and one that refuses it. The daemon-side flags are shown accepted by
# reaching a later error (an unknown method, or no daemon on port 1)
# instead of starting a server.
refused="only supported by"
no_daemon="connect 127.0.0.1:1"
expect_ok "threads on query" query "$d" DSTree 3 2 --threads 2
expect_err "threads on methods" "$refused" methods --threads 2
expect_ok "shards on query" query "$d" DSTree 3 2 --shards 2
expect_err "shards on compare" "$refused" compare "$d" 2 --shards 2
expect_ok "query-threads on range" range "$d" DSTree 5 2 --query-threads 2
# Every method takes --query-threads, the flat ones included.
for m in VA+file UCR-Suite Stepwise; do
  expect_ok "query-threads on $m query" query "$d" "$m" 3 2 --query-threads 2
  expect_ok "query-threads on $m range" range "$d" "$m" 5 2 --query-threads 2
done
expect_err "query-threads on build" "$refused" \
  build "$d" DSTree "$tmp/qt-idx" --query-threads 2
expect_err "port on serve" "unknown method" serve "$d" NotAMethod --port 0
expect_err "port on query" "$refused" query "$d" DSTree 3 2 --port 7700
expect_err "serve-threads on serve" "unknown method" \
  serve "$d" NotAMethod --serve-threads 2
expect_err "serve-threads on ping" "$refused" ping --serve-threads 2
expect_err "cache-mb on serve" "unknown method" \
  serve "$d" NotAMethod --cache-mb 2
expect_err "cache-mb on query" "$refused" query "$d" DSTree 3 2 --cache-mb 2
expect_err "max-inflight on serve" "unknown method" \
  serve "$d" NotAMethod --max-inflight 2
expect_err "max-inflight on stats" "$refused" stats --max-inflight 2
expect_ok "storage on range" range "$d" DSTree 5 2 --storage mmap
expect_err "storage on compare" "$refused" compare "$d" 2 --storage mmap
expect_ok "pool-mb on build" \
  build "$d" DSTree "$tmp/pool-idx" --storage mmap --pool-mb 4
expect_err "pool-mb on queryd" "$refused" \
  queryd "$d" 3 2 --storage mmap --pool-mb 4
expect_ok "mode on query" query "$d" DSTree 3 2 --mode ng
expect_err "mode on build" "$refused" build "$d" DSTree "$tmp/m-idx" --mode ng
expect_ok "epsilon on query" query "$d" DSTree 3 2 --mode epsilon --epsilon 1
expect_err "epsilon on range" "$refused" range "$d" DSTree 5 2 --epsilon 0.5
expect_err "delta on queryd" "$no_daemon" \
  queryd "$d" 3 2 --port 1 --mode delta-epsilon --epsilon 1 --delta 0.5
expect_err "delta on serve" "$refused" serve "$d" DSTree --delta 0.5
expect_ok "max-leaves on query" query "$d" DSTree 3 2 --max-leaves 2
expect_err "max-leaves on compare" "$refused" compare "$d" 2 --max-leaves 2
expect_ok "max-raw on query" query "$d" DSTree 3 2 --max-raw 20
expect_err "max-raw on gen" "$refused" \
  gen synth 10 8 1 "$tmp/z.bin" --max-raw 5
expect_ok "index on range" range "$d" DSTree 5 2 --index "$tmp/idx"
expect_err "index on build" "$refused" \
  build "$d" DSTree "$tmp/i-idx" --index "$tmp/idx"
expect_ok "trace on range" range "$d" DSTree 5 2 --trace "$tmp/t.json"
expect_err "trace on queryd" "$refused" queryd "$d" 3 2 --trace "$tmp/t.json"
expect_err "full on stats" "$no_daemon" stats --port 1 --full
expect_err "full on ping" "$refused" ping --port 1 --full
expect_ok "kernels on compare" compare "$d" 1 --kernels scalar
expect_err "kernels on serve" "$refused" serve "$d" DSTree --kernels scalar
expect_err "port on ping" "$no_daemon" ping --port 1

# Every integer flag one step outside its range on both sides.
expect_err "threads min-1" "--threads must be an integer in [1, 1024]" \
  query "$d" DSTree 3 2 --threads 0
expect_err "threads max+1" "--threads must be an integer in [1, 1024]" \
  query "$d" DSTree 3 2 --threads 1025
expect_err "shards min-1" "--shards must be an integer in [1, 1024]" \
  query "$d" DSTree 3 2 --shards 0
expect_err "shards max+1" "--shards must be an integer in [1, 1024]" \
  query "$d" DSTree 3 2 --shards 1025
expect_err "query-threads min-1" \
  "--query-threads must be an integer in [1, 1024]" \
  query "$d" DSTree 3 2 --query-threads 0
expect_err "query-threads max+1" \
  "--query-threads must be an integer in [1, 1024]" \
  query "$d" DSTree 3 2 --query-threads 1025
expect_err "port min-1" "--port must be an integer in [0, 65535]" \
  ping --port -1
expect_err "port max+1" "--port must be an integer in [0, 65535]" \
  ping --port 65536
expect_err "serve-threads min-1" \
  "--serve-threads must be an integer in [1, 1024]" \
  serve "$d" DSTree --serve-threads 0
expect_err "serve-threads max+1" \
  "--serve-threads must be an integer in [1, 1024]" \
  serve "$d" DSTree --serve-threads 1025
expect_err "cache-mb min-1" "--cache-mb must be an integer in [0, 4096]" \
  serve "$d" DSTree --cache-mb -1
expect_err "cache-mb max+1" "--cache-mb must be an integer in [0, 4096]" \
  serve "$d" DSTree --cache-mb 4097
expect_err "max-inflight min-1" \
  "--max-inflight must be an integer in [1, 1048576]" \
  serve "$d" DSTree --max-inflight 0
expect_err "max-inflight max+1" \
  "--max-inflight must be an integer in [1, 1048576]" \
  serve "$d" DSTree --max-inflight 1048577
expect_err "pool-mb min-1" "--pool-mb must be an integer in [1, 65536]" \
  query "$d" DSTree 3 2 --storage mmap --pool-mb 0
expect_err "pool-mb max+1" "--pool-mb must be an integer in [1, 65536]" \
  query "$d" DSTree 3 2 --storage mmap --pool-mb 65537
expect_err "max-leaves min-1" "--max-leaves must be a positive integer" \
  query "$d" DSTree 3 2 --max-leaves 0
expect_err "max-leaves max+1" "--max-leaves must be a positive integer" \
  query "$d" DSTree 3 2 --max-leaves 9223372036854775808
expect_err "max-raw min-1" "--max-raw must be a positive integer" \
  query "$d" DSTree 3 2 --max-raw 0
expect_err "max-raw max+1" "--max-raw must be a positive integer" \
  query "$d" DSTree 3 2 --max-raw 9223372036854775808

# The rules that involve two flags.
expect_err "pool-mb without mmap" "requires --storage mmap" \
  query "$d" DSTree 3 2 --pool-mb 4
expect_err "threads on unsharded range" \
  "--threads is only supported by 'query' and 'compare' (or any sharded" \
  range "$d" DSTree 5 2 --threads 2
expect_ok "threads on sharded range" \
  range "$d" DSTree 5 2 --shards 2 --threads 2

# Nothing on the command line is ignored: a misspelled or unknown flag, a
# repeated flag, and surplus positionals are all refused.
expect_err "misspelled query-threads" "unknown flag" \
  query "$d" DSTree 3 2 --qeury-threads 8
expect_err "misspelled mode" "unknown flag" range "$d" DSTree 3 2 --mdoe ng
expect_err "unknown flag on methods" "unknown flag" methods --bogus
expect_err "repeated flag" "given more than once" \
  query "$d" DSTree 3 2 --threads 2 --threads 3
expect_usage "surplus positionals" query "$d" DSTree 3 2 extra junk
expect_usage "surplus positional on methods" methods extra

# An absurd probe count exits 1 instead of aborting on allocation.
expect_err "oversized queries on query" "queries must be at most" \
  query "$d" DSTree 3 99999999999999
expect_err "oversized queries on range" "queries must be at most" \
  range "$d" DSTree 3 99999999999999
expect_err "oversized queries on compare" "queries must be at most" \
  compare "$d" 99999999999999
expect_err "oversized queries on queryd" "queries must be at most" \
  queryd "$d" 3 99999999999999 --port 1

# The range radius is parsed as strictly as --epsilon.
expect_err "radius inf" "radius must be a non-negative number" \
  range "$d" DSTree inf 2
expect_err "radius hex float" "radius must be a non-negative number" \
  range "$d" DSTree 0x5 2
expect_err "radius leading space" "radius must be a non-negative number" \
  range "$d" DSTree " 3" 2
expect_err "radius negative" "radius must be a non-negative number" \
  range "$d" DSTree -1 2

# A series length the PAA-segment methods cannot cut into 16 equal
# segments is refused before anything is built; compare skips them.
d100="$tmp/d100.bin"
"$bin" gen synth 300 100 7 "$d100" >/dev/null || {
  echo "FAIL: could not generate the length-100 dataset"
  exit 1
}
for m in "ADS+" "iSAX2+" "R*-tree"; do
  expect_err "$m query at length 100" "needs a series length divisible by 16" \
    query "$d100" "$m" 5 2
  expect_err "$m sharded query at length 100" "divisible by 16" \
    query "$d100" "$m" 5 2 --shards 2
  expect_err "$m range at length 100" "divisible by 16" \
    range "$d100" "$m" 5 2
  expect_err "$m build at length 100" "divisible by 16" \
    build "$d100" "$m" "$tmp/idx100"
  expect_err "$m serve at length 100" "divisible by 16" \
    serve "$d100" "$m" --port 0
done
expect_ok "DSTree query at length 100" query "$d100" DSTree 5 2
out=$("$bin" compare "$d100" 2 2>&1)
rc=$?
if [ "$rc" -ne 0 ]; then
  echo "FAIL (compare at length 100): exit $rc — output: $out"
  fails=1
fi
for m in "ADS+" "iSAX2+"; do
  case "$out" in
    *"note: skipping $m, which needs a series length divisible by 16"*) ;;
    *)
      echo "FAIL (compare at length 100): no skip note for $m: $out"
      fails=1
      ;;
  esac
done
case "$out" in
  *"| DSTree"*) ;;
  *)
    echo "FAIL (compare at length 100): DSTree row missing: $out"
    fails=1
    ;;
esac

# Valid specs run end to end.
expect_ok "exact default" query "$d" DSTree 3 2
expect_ok "explicit exact" query "$d" DSTree 3 2 --mode exact
expect_ok "epsilon" query "$d" DSTree 3 2 --mode epsilon --epsilon 0.5
expect_ok "delta-epsilon" \
  query "$d" SFA 3 2 --mode delta-epsilon --epsilon 1 --delta 0.25
expect_ok "ng" query "$d" iSAX2+ 3 2 --mode ng
expect_ok "budgeted exact" query "$d" DSTree 3 2 --max-raw 50 --max-leaves 2
expect_ok "mtree epsilon" query "$d" M-tree 3 2 --mode epsilon --epsilon 2

if [ "$fails" -ne 0 ]; then
  echo "cli_validation_test: FAILED"
  exit 1
fi
echo "cli_validation_test: all checks passed"
