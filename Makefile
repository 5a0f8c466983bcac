# Convenience targets; everything is plain dune underneath.

.PHONY: all build test lint fuzz-smoke bench quick-bench bench-check examples experiments clean

all: build

build:
	dune build @all

test:
	dune runtest

# Static determinism checks (rejlint) over lib/ bin/ bench/ test/, both
# tiers: the syntactic pass (@lint alias, RJL001-009) and the typed pass
# (--typed, RJL100-103 over the .cmt files the build just produced).
# Exits nonzero on any error-severity finding.  See DESIGN.md section 7.
lint:
	dune build @lint @all
	dune exec bin/rejlint.exe -- --typed

# Deterministic fuzz smoke (~30s): the coverage-guided scenario fuzzer
# over the whole policy registry at a fixed seed, once sequentially and
# once on a 4-domain pool.  Exit code 3 (shrunk repro on stderr) on any
# oracle/metamorphic violation.  See DESIGN.md section 10.
fuzz-smoke:
	dune exec bin/rejsched.exe -- fuzz --seed 7 --budget 300
	dune exec bin/rejsched.exe -- fuzz --seed 7 --budget 300 --domains 4 --quiet

# Full experiment tables + Bechamel micro-benchmarks (a few minutes).
# Benchmarks build with --profile release: the dev profile compiles
# with -opaque, which disables cross-module inlining and so boxes every
# float accessor result — perf gates would measure the build mode, not
# the code.
bench:
	dune exec --profile release bench/main.exe

# Fast smoke version of the same.
quick-bench:
	REJSCHED_QUICK=1 dune exec --profile release bench/main.exe

# Regression gate: tier-1 tests plus the indexed-vs-scan performance
# baseline.  Writes BENCH_pr12.json (telemetry counter snapshot and pool
# scaling curve embedded) and compares throughput against the newest
# previous BENCH_prN.json; fails if the driver-event microbenchmark
# speedup — bare or with telemetry recording — drops below 2x, if the
# flat-core gates fail (events/sec < 2x the PR-4 recorded baseline;
# allocations/event over the ceiling), if the flight recorder costs
# more than 5%, if the pool gates fail (width-1 overhead > 2x; on
# >=4-core hosts, 4 domains < 2x over sequential; any
# non-byte-identical output), if a streamed session diverges from the
# batch run or the rolling-retirement stream breaches its
# resident-memory gates, or any test regresses.
bench-check:
	dune build @all
	dune runtest
	dune exec --profile release bench/main.exe -- --regression --out BENCH_pr12.json

examples:
	dune exec examples/quickstart.exe
	dune exec examples/datacenter_flow.exe
	dune exec examples/energy_cluster.exe
	dune exec examples/adversarial_demo.exe

# Regenerate every experiment CSV into results/.
experiments:
	dune exec bin/rejsched.exe -- experiment all --out results

clean:
	dune clean
