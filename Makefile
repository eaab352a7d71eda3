.PHONY: all build test bench bench-all bench-scale trace report soak audit clean

all: build

build:
	dune build @all

test:
	dune runtest

# Timed experiment sweep: runs every experiment plain, traced and
# profiled, byte-compares the three outputs, and writes
# BENCH_experiments.json. Same as `dune build @bench`.
bench:
	dune exec bench/main.exe -- timed

# Every table, experiment, and microbench, sequentially printed.
bench-all:
	dune exec bench/main.exe

# The E15 million-op scale tier on its own: ~100 sites, ~10^5 keys,
# >10^6 applied update operations per method. Wall-clock throughput is
# printed to stderr; shrink or grow the tier with ESR_SCALE (or pass
# `--scale F` through SCALE=F).
bench-scale:
	dune exec bench/main.exe -- $(if $(SCALE),--scale $(SCALE),) e15_scale

# Capture a 3-site ORDUP run as a Chrome trace_event file and load it at
# https://ui.perfetto.dev — one track per site plus a system track.
# Same smoke as `dune build @trace` (which keeps its output in _build).
trace:
	dune exec bin/esrsim.exe -- run -m ORDUP -s 3 --trace trace.json --trace-format chrome

# Divergence observatory end to end: a faulty 4-site ORDUP run recorded
# as trace + series, rendered as a terminal dashboard plus report.html
# (inline SVG, fault windows shaded) and a span-enriched Perfetto trace.
report:
	dune exec bin/esrsim.exe -- run -m ORDUP -s 4 \
	  --faults 'crash@400:2;recover@900:2' \
	  --trace report-run.jsonl --series report-run.series.json
	dune exec bin/esrsim.exe -- report --trace report-run.jsonl \
	  --series report-run.series.json --html report.html --chrome report.json

# The CI audit gate, locally: three seeded nemesis schedules against
# all seven methods, full and ring-sharded placement, with the runtime
# consistency auditor tapped into every run. Exits 2 on any violation;
# per-run esr-audit/2 certificates land in audit-certs/.
audit:
	mkdir -p audit-certs
	for seed in 7 23 47; do \
	  dune exec bin/esrsim.exe -- audit -m all --sharded --seed $$seed \
	    --ledger audit-certs/certs-$$seed.jsonl || exit 2; \
	done

# E16 long soak at a reduced scale with the host-time profiler on:
# resource-growth table on stdout, per-method artifact dumps (series
# JSON, OpenMetrics, HTML report, esr-profile/1 dump) under soak-out/.
# Grow the horizon with ESR_SCALE.
soak:
	ESR_SCALE=$(or $(ESR_SCALE),0.1) ESR_SOAK_DIR=soak-out \
	  dune exec bench/main.exe -- --profile e16_soak

clean:
	dune clean
