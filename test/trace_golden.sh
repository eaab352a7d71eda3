#!/bin/sh
# Pins every method's observable bytes: for nine configurations (the
# seven methods, RITU in multi mode and ORDUP with Lamport ordering),
# each run fully replicated on 4 sites and ring-sharded on 6, it prints
# the exit status, the trace event count and the MD5 of the trace, the
# series dump, the metrics dump and stdout.  Stdout lines that echo a
# dump path are dropped.
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
for placement in "-s 4" "-s 6 --placement ring --replication 3"; do
  for config in "-m ORDUP" "-m COMMU" "-m RITU" "-m COMPE" "-m 2PC" \
    "-m QUORUM" "-m QUASI" "-m RITU --ritu-mode multi" \
    "-m ORDUP --ordup-ordering lamport"; do
    rc=0
    # $placement and $config are deliberately split into words.
    # shellcheck disable=SC2086
    "$exe" run $config $placement --faults "$faults" \
      --checkpoint-interval 300 --loss 0.05 --audit \
      --trace "$dir/t.jsonl" --series "$dir/s.json" \
      --metrics "$dir/m.json" > "$dir/out" || rc=$?
    sed '/ -> /d' "$dir/out" > "$dir/stdout"
    echo "$config $placement: rc=$rc events=$(wc -l < "$dir/t.jsonl" | tr -d ' ')"
    echo "  trace $(md5 "$dir/t.jsonl") series $(md5 "$dir/s.json")"
    echo "  metrics $(md5 "$dir/m.json") stdout $(md5 "$dir/stdout")"
  done
done
