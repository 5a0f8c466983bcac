# Convenience targets; everything is plain dune underneath.

.PHONY: all build test lint fuzz-smoke bench-check examples experiments clean

all: build

build:
	dune build @all

test:
	dune runtest

# Static determinism checks (rejlint) over lib/ bin/ bench/ test/, both
# tiers: the syntactic pass (@lint alias, RJL001-009) and the typed pass
# (--typed, RJL100-104 over the .cmt files the build just produced;
# @check writes the executables' .cmt files, which @all does not).
# Exits nonzero on any error-severity finding.  See DESIGN.md section 7.
lint:
	dune build @lint @all @check
	dune exec bin/rejlint.exe -- --typed

# Deterministic fuzz smoke (~30s): the coverage-guided scenario fuzzer
# over the whole policy registry at a fixed seed, once sequentially and
# once on a 4-domain pool.  Exit code 3 (shrunk repro on stderr) on any
# oracle/metamorphic violation.  See DESIGN.md section 10.
fuzz-smoke:
	dune exec bin/rejsched.exe -- fuzz --seed 7 --budget 300
	dune exec bin/rejsched.exe -- fuzz --seed 7 --budget 300 --domains 4 --quiet

# Regression gate: tier-1 tests plus the speed and memory claims that
# neither the tests nor the layer ladder check (bench/main.ml).  Writes
# bench-check.json (telemetry counter snapshot and pool scaling curve
# embedded; outside the BENCH_prN.json pattern, so the newest recorded
# baseline is compared against, not overwritten) and fails if greedy-spt's indexed driver events, bare or
# with telemetry, fall below 2x the scan-based seed reference; if the
# bare events/sec fall below 2x the PR-4 recorded figure or more than
# 2x below the newest previous BENCH_prN.json; if the flight recorder
# costs more than 5% on flow-reject; if the pool gates fail (width-1
# overhead > 2x; on >=4-core hosts, 4 domains < 2x over sequential; any
# non-byte-identical output); if the rolling-retirement stream breaches
# its resident-memory gates; or if any test regresses.  The gate builds
# with --profile release: the dev profile compiles with -opaque, which
# disables cross-module inlining and so boxes every float accessor
# result, and the gates would measure the build mode, not the code.
bench-check:
	dune build @all
	dune runtest
	dune exec --profile release bench/main.exe -- --out bench-check.json

# Every example, each run audited (a failed audit exits non-zero).
examples:
	dune exec examples/quickstart.exe
	dune exec examples/datacenter_flow.exe
	dune exec examples/energy_cluster.exe
	dune exec examples/adversarial_demo.exe
	dune exec examples/trace_replay.exe

# Regenerate every experiment CSV into results/.
experiments:
	dune exec bin/rejsched.exe -- experiment all --out results

clean:
	dune clean
