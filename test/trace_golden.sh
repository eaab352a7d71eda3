#!/bin/sh
# Pins every method's observable bytes: for nine configurations (the
# seven methods, RITU in multi mode and ORDUP with Lamport ordering),
# each run fully replicated on 4 sites and ring-sharded on 6, it prints
# the exit status, the trace event count and the MD5 of the trace, the
# series dump, the metrics dump and stdout.  Stdout lines that echo a
# dump path are dropped.  Two hot-key 2PC runs (8 keys, Zipf 0.99) come
# next: they queue many waiters per key, so they pin the lock manager's
# grant order and its deadlock refusals.  A 16-site Chrome export, which
# streams every event as it is emitted, follows.  The esr-audit/2
# certificates of a seeded audit campaign come next, and the complete
# JSONL dumps of a crash-biased campaign last.
#
#   sh test/trace_golden.sh _build/default/bin/esrsim.exe
#
# test/trace_golden.expected holds the output; `dune runtest` diffs
# against it, and `dune promote` re-baselines it.
set -e
exe=$1
dir=$(mktemp -d)
trap 'rm -rf "$dir"' EXIT
faults='crash@400:2;recover@900:2;partition@1000:0 1|2 3;heal@1500'
md5() { md5sum "$1" | cut -d' ' -f1; }
# run CONFIG PLACEMENT: one faulty, audited run and its three lines.
run() {
  rc=0
  # $1 and $2 are deliberately split into words.
  # shellcheck disable=SC2086
  "$exe" run $1 $2 --faults "$faults" \
    --checkpoint-interval 300 --loss 0.05 --audit \
    --trace "$dir/t.jsonl" --series "$dir/s.json" \
    --metrics "$dir/m.json" > "$dir/out" || rc=$?
  sed '/ -> /d' "$dir/out" > "$dir/stdout"
  echo "$1 $2: rc=$rc events=$(wc -l < "$dir/t.jsonl" | tr -d ' ')"
  echo "  trace $(md5 "$dir/t.jsonl") series $(md5 "$dir/s.json")"
  echo "  metrics $(md5 "$dir/m.json") stdout $(md5 "$dir/stdout")"
}
for placement in "-s 4" "-s 6 --placement ring --replication 3"; do
  for config in "-m ORDUP" "-m COMMU" "-m RITU" "-m COMPE" "-m 2PC" \
    "-m QUORUM" "-m QUASI" "-m RITU --ritu-mode multi" \
    "-m ORDUP --ordup-ordering lamport"; do
    run "$config" "$placement"
  done
done
for placement in "-s 4" "-s 6 --placement ring --replication 3"; do
  run "-m 2PC --keys 8 --theta 0.99 --update-rate 0.2 --query-rate 0.2" \
    "$placement"
done
# A 16-site ORDUP run exported as a Chrome trace, streamed as its events
# are emitted.  The line shows how many events the file holds.
rc=0
"$exe" run -m ORDUP -s 16 --duration 4000 --update-rate 0.5 \
  --faults 'crash@3400:3;recover@3600:3;partition@3700:0 1 2 3 4 5 6 7|8 9 10 11 12 13 14 15;heal@3800' \
  --checkpoint-interval 2000 --audit \
  --trace "$dir/t.json" --trace-format chrome > "$dir/out" || rc=$?
sed '/ -> /d' "$dir/out" > "$dir/stdout"
echo "-m ORDUP -s 16 chrome: rc=$rc events=$(grep -c '"ph":"[iX]"' "$dir/t.json")"
echo "  chrome $(md5 "$dir/t.json") stdout $(md5 "$dir/stdout")"
# The 14 certificates of every method, full and ring-sharded, under one
# seeded nemesis schedule: pins the certificate and ledger bytes.
rc=0
"$exe" audit -m all --sharded --seed 7 -e 3 --checkpoint-interval 300 \
  --ledger "$dir/certs.jsonl" > /dev/null || rc=$?
echo "audit -m all --sharded --seed 7: rc=$rc" \
  "certificates=$(wc -l < "$dir/certs.jsonl" | tr -d ' ') ledger $(md5 "$dir/certs.jsonl")"
# The seven JSONL dumps of a crash-biased campaign, streamed through a
# file sink and concatenated in registry order: pins every event of the
# runs.
rc=0
"$exe" audit -s 4 --seed 11 --windows 3 --crash-bias 1.0 \
  --dump-dir "$dir/d" > /dev/null || rc=$?
echo "audit -s 4 --seed 11 --windows 3 --crash-bias 1.0: rc=$rc" \
  "dumps=$(ls "$dir"/d/*.jsonl | wc -l | tr -d ' ') jsonl $(
    for m in ordup commu ritu compe 2pc quorum quasi; do
      cat "$dir/d/audit_${m}_full_seed11.jsonl"
    done | md5sum | cut -d' ' -f1)"
