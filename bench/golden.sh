#!/bin/sh
# Prints the golden experiment tables: the paper tables and every
# experiment except E18 at scale 0.05, then E18 at scale 0.01.
#
#   sh bench/golden.sh _build/default/bench/main.exe
#
# The argument is the bench executable. bench/experiments.expected
# holds the output; `dune runtest` diffs against it, and `dune promote`
# re-baselines it.
set -e
exe=$1
"$exe" --scale 0.05 \
  tables \
  e1_scalability e2_epsilon e3_convergence e4_partition e5_compensation \
  e6_ritu_vtnc e7_lock_counter e8_crash_recovery e9_sagas e10_value_bound \
  e11_quasi e12_partition_merge e13_fault_availability \
  e14_divergence_profile a1_ordup_ordering a2_squeue_retry e16_soak \
  e17_sharded_scale e19_audit_certificates e15_scale
"$exe" --scale 0.01 e18_bounded_soak
