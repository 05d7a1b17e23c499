#!/usr/bin/env bash
# Storage smoke: the mmap + buffer-pool backend must print exactly the
# same query answers as the in-RAM backend — for every method, at any
# pool budget, composed with shards and intra-query threads — while
# reporting real measured pool traffic. Malformed storage flags must be
# refused with exit 1 and a reason, never a crash. Diffs compare the
# `query` lines only: the "built ... CPU" line embeds wall-clock timing
# and the mmap run adds its storage summary, neither of which is part of
# the answer contract.
set -euo pipefail
HYDRA="${1:?usage: storage_smoke.sh <path-to-hydra-binary>}"
TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT

# `hydra gen` streams to disk through SeriesFileWriter; the readers
# validate the patched header, so a successful query pass below also
# proves the streamed file is well-formed.
"$HYDRA" gen sald 6000 64 11 "$TMP/data.bin" > /dev/null

# ~1.5MB of data behind a 1MB pool: the run scratch cannot hold the file.
POOL="--storage mmap --pool-mb 1"

answers() { grep '^query'; }
# With intra-query workers the trailing "[examined ..., seeks ...]"
# ledger depends on shared-bound arrival timing (see shard_smoke.sh);
# the threaded comparison pins the answers, not the traversal counters.
answers_no_ledger() { grep '^query' | sed 's/ \[.*\]$//'; }

for m in "ADS+" "DSTree" "iSAX2+" "M-tree" "R*-tree" "SFA" "VA+file" \
         "Stepwise" "UCR-Suite" "MASS"; do
  "$HYDRA" query "$TMP/data.bin" "$m" 5 3 | answers > "$TMP/ram.txt"
  "$HYDRA" query "$TMP/data.bin" "$m" 5 3 $POOL > "$TMP/mmap_full.txt"
  answers < "$TMP/mmap_full.txt" > "$TMP/mmap.txt"
  diff "$TMP/ram.txt" "$TMP/mmap.txt" \
    || { echo "FAIL($m): mmap answers differ from ram"; exit 1; }
  grep -q '^storage: mmap pool=1MiB' "$TMP/mmap_full.txt" \
    || { echo "FAIL($m): mmap run did not describe its pool"; exit 1; }
done
echo "OK all methods identical ram vs mmap"

# Describe prints the budget as given: 1 MiB is not a whole number of
# 384-byte series (length 96), and the line must still read pool=1MiB.
"$HYDRA" gen synth 3000 96 7 "$TMP/len96.bin" > /dev/null
"$HYDRA" query "$TMP/len96.bin" DSTree 5 3 $POOL > "$TMP/len96.txt"
grep -q '^storage: mmap pool=1MiB' "$TMP/len96.txt" \
  || { echo "FAIL: a 1 MiB pool over length 96 is not described as 1MiB"
       grep '^storage: mmap' "$TMP/len96.txt"; exit 1; }

# The index methods verify raw candidates through the pool: measured
# misses must be nonzero cold, and the reconciliation line must appear.
"$HYDRA" query "$TMP/data.bin" DSTree 5 4 $POOL > "$TMP/pooled.txt"
grep -Eq '^storage: [1-9][0-9]* pool misses,' "$TMP/pooled.txt" \
  || { echo "FAIL: pooled run reported no measured misses"; exit 1; }
grep -q '^storage check: measured pool misses' "$TMP/pooled.txt" \
  || { echo "FAIL: missing measured-vs-modeled reconciliation"; exit 1; }

# The RAM backend must not print storage lines at all: its output is the
# historical byte-identical format.
"$HYDRA" query "$TMP/data.bin" DSTree 5 4 > "$TMP/ram_full.txt"
if grep -q '^storage' "$TMP/ram_full.txt"; then
  echo "FAIL: ram run printed storage lines"; exit 1
fi

# Answers are invariant under the pool budget (only traffic changes).
"$HYDRA" query "$TMP/data.bin" DSTree 5 4 $POOL | answers > "$TMP/p1.txt"
"$HYDRA" query "$TMP/data.bin" DSTree 5 4 --storage mmap --pool-mb 4 \
  | answers > "$TMP/p4.txt"
diff "$TMP/p1.txt" "$TMP/p4.txt" \
  || { echo "FAIL: answers changed with the pool budget"; exit 1; }

# VA+file and ADS+ verify their candidates through skip-sequential run
# reads: a pooled VA+file run serves them from run scratch (direct
# reads), and both answer the same at any pool budget.
"$HYDRA" query "$TMP/data.bin" VA+file 5 4 $POOL > "$TMP/va_pooled.txt"
grep -Eq '^storage: .*, [1-9][0-9]* direct reads,' "$TMP/va_pooled.txt" \
  || { echo "FAIL: pooled VA+file run reported no direct reads"; exit 1; }
for m in "VA+file" "ADS+"; do
  "$HYDRA" query "$TMP/data.bin" "$m" 5 4 $POOL | answers > "$TMP/p1.txt"
  "$HYDRA" query "$TMP/data.bin" "$m" 5 4 --storage mmap --pool-mb 4 \
    | answers > "$TMP/p4.txt"
  diff "$TMP/p1.txt" "$TMP/p4.txt" \
    || { echo "FAIL($m): answers changed with the pool budget"; exit 1; }
done

# The summarized trees (DSTree, iSAX2+, SFA) read each leaf's filter
# survivors as planned runs, and the R*-tree each surviving leaf entry as a
# run of one series: behind a pool a quarter of the 4 MiB file the preads
# stay within 4x the 1 KiB series they served (a page-per-member leaf scan
# preads hundreds of MB here).
"$HYDRA" gen synth 4000 256 7 "$TMP/wide.bin" > /dev/null
for m in DSTree iSAX2+ SFA "R*-tree"; do
  line="$("$HYDRA" query "$TMP/wide.bin" "$m" 10 10 $POOL \
    | grep '^storage: [0-9]')"
  direct="$(sed -E 's/.* ([0-9]+) direct reads.*/\1/' <<< "$line")"
  bytes="$(sed -E 's/.* ([0-9]+) bytes.*/\1/' <<< "$line")"
  if [ "$direct" -eq 0 ] || [ "$bytes" -gt $((4 * direct * 1024)) ]; then
    echo "FAIL($m): leaf scan thrashes the pool: $line"; exit 1
  fi
done
echo "OK tree leaf scans read runs: preads <= 4x served"

# The memory-resident M-tree reads its leaves from the mapping in place:
# no pread at all, and its measured ledger agrees with the modeled one.
"$HYDRA" query "$TMP/wide.bin" M-tree 10 10 $POOL > "$TMP/mtree.txt"
grep -Eq '^storage: .*, 0 preads,' "$TMP/mtree.txt" \
  || { echo "FAIL(M-tree): pooled M-tree preads"; exit 1; }
grep -q '^storage check: .*(consistent' "$TMP/mtree.txt" \
  || { echo "FAIL(M-tree): storage check is not consistent"; exit 1; }
echo "OK M-tree reads the mapping in place"

# Sharded slices and intra-query workers compose with the pool.
"$HYDRA" query "$TMP/data.bin" DSTree 5 4 --shards 3 --threads 2 \
  --query-threads 2 | answers_no_ledger > "$TMP/shard_ram.txt"
"$HYDRA" query "$TMP/data.bin" DSTree 5 4 --shards 3 --threads 2 \
  --query-threads 2 $POOL | answers_no_ledger > "$TMP/shard_mmap.txt"
diff "$TMP/shard_ram.txt" "$TMP/shard_mmap.txt" \
  || { echo "FAIL: sharded mmap answers differ from sharded ram"; exit 1; }

# Range queries route through the same raw layer.
"$HYDRA" range "$TMP/data.bin" SFA 8 3 | answers > "$TMP/range_ram.txt"
"$HYDRA" range "$TMP/data.bin" SFA 8 3 $POOL | answers > "$TMP/range_mmap.txt"
diff "$TMP/range_ram.txt" "$TMP/range_mmap.txt" \
  || { echo "FAIL: mmap range answers differ from ram"; exit 1; }
echo "OK pool sweep, shards, range identical"

# Flag validation: clean exit-1 refusals, never a crash or silent ignore.
if "$HYDRA" query "$TMP/data.bin" DSTree 5 2 --pool-mb 8 2> "$TMP/err.txt"
then
  echo "FAIL: --pool-mb without --storage mmap should exit 1"; exit 1
fi
grep -q 'requires --storage mmap' "$TMP/err.txt" \
  || { echo "FAIL: --pool-mb refusal lacks a reason"; exit 1; }

if "$HYDRA" query "$TMP/data.bin" DSTree 5 2 --storage floppy \
    2> "$TMP/err.txt"; then
  echo "FAIL: an unknown backend should exit 1"; exit 1
fi
grep -q 'unknown storage backend' "$TMP/err.txt" \
  || { echo "FAIL: unknown-backend error lacks the token"; exit 1; }

if "$HYDRA" methods --storage mmap 2> "$TMP/err.txt"; then
  echo "FAIL: --storage on a non-dataset command should exit 1"; exit 1
fi
grep -q 'only supported by' "$TMP/err.txt" \
  || { echo "FAIL: wrong-command refusal lacks a reason"; exit 1; }

# `hydra gen` must fail loudly when it cannot write the file.
if "$HYDRA" gen synth 10 8 1 "$TMP/no/such/dir/out.bin" 2> "$TMP/err.txt"
then
  echo "FAIL: gen to an unwritable path should exit 1"; exit 1
fi
[ -s "$TMP/err.txt" ] \
  || { echo "FAIL: gen failure printed no error"; exit 1; }

echo "storage smoke OK"
