# Developer entry points. `make verify` mirrors the CI pipeline
# (.github/workflows/ci.yml) and the tier-1 acceptance gate.

CARGO ?= cargo

.PHONY: verify fmt lint doc build test test-names determinism bench-build examples trace-check bench-device cluster-smoke fidelity serve-smoke obs-smoke flight-smoke perfbench-check experiments loc

verify: fmt lint doc build test test-names determinism bench-build examples trace-check bench-device cluster-smoke fidelity serve-smoke obs-smoke flight-smoke perfbench-check
	@echo "verify: all gates passed"

fmt:
	$(CARGO) fmt --all --check

lint:
	$(CARGO) clippy --workspace --all-targets -- -D warnings

# API docs must build without warnings: a doc link to a renamed or
# deleted item fails the build instead of rotting silently.
doc:
	RUSTDOCFLAGS="-D warnings" $(CARGO) doc --workspace --no-deps

build:
	$(CARGO) build --release --workspace

test:
	$(CARGO) test -q --workspace

# No test binary may list a name twice: a duplicate registration runs the
# same test twice with the same seed. Lists every binary's tests (each list
# ends with its "N tests, M benchmarks" line) and fails on a name repeated
# within one list.
test-names:
	@mkdir -p target
	$(CARGO) test --workspace -- --list > target/test-names.txt
	awk '/: test$$/ { if (seen[$$0]++) { print "listed twice in one test binary: " $$0; dup = 1 } } /^[0-9]+ tests?, [0-9]+ benchmarks?$$/ { split("", seen) } END { exit dup }' target/test-names.txt

# Intra-run parallelism determinism suite at several worker shapes: the
# default counts (1,2,7,16), then deliberately awkward odd counts, then
# powers of two up to 32. Reports must be byte-identical to serial in
# every shape, and cluster reports to their frozen goldens.
determinism:
	$(CARGO) test -q --test parallel_determinism --test cluster_determinism --test golden_cluster
	STREAMPIM_TEST_WORKERS=1,3,5,13 $(CARGO) test -q --test parallel_determinism --test cluster_determinism --test golden_cluster
	STREAMPIM_TEST_WORKERS=2,4,8,32 $(CARGO) test -q --test parallel_determinism --test cluster_determinism --test golden_cluster

# Benches and examples must stay compilable even when not run.
bench-build:
	$(CARGO) bench --workspace --no-run
	$(CARGO) build --release --examples

# The quick examples must run to a zero exit, not only compile. `loadgen`
# is a long load run, and `trace-check` already runs `trace_dump`.
EXAMPLES = quickstart bitlevel_demo fault_injection expression_compiler dnn_inference ablation_study polybench_sweep runtime_sweep

examples:
	$(CARGO) build --release --examples
	@set -e; for example in $(EXAMPLES); do \
		echo "examples: $$example"; \
		$(CARGO) run --release --quiet --example $$example > /dev/null; \
	done

# Trace export self-validation: `--check` re-parses the written Perfetto
# JSON and asserts resource coverage, exiting 1 on any violation.
trace-check:
	$(CARGO) run --release --example trace_dump -- gemm 0.02 trace.json --check

# Device-kernel smoke bench, gated on speedup drift against the committed
# baseline (regenerate the baseline in full mode:
# `cargo run --release -p pim-bench --bin bench_device`).
bench-device:
	$(CARGO) run --release -p pim-bench --bin bench_device -- --smoke --out target/BENCH_device_smoke.json --compare BENCH_device.json
	test -s target/BENCH_device_smoke.json

# Cluster scale-out smoke: single-device equivalence, interconnect
# conservation, worker-count determinism across the device grid, and the
# 4-device data-parallel speedup gate — then the scaling-curve bench in
# smoke mode (regenerate the committed curves in full mode:
# `cargo run --release -p pim-bench --bin bench_cluster`).
cluster-smoke:
	$(CARGO) run --release -p pim-bench --bin cluster_smoke
	$(CARGO) run --release -p pim-bench --bin bench_cluster -- --smoke --out target/BENCH_cluster_smoke.json
	test -s target/BENCH_cluster_smoke.json

# Paper-fidelity regression gate: reruns the scaled evaluation and checks
# every figure against the frozen expectations in fidelity.toml.
fidelity:
	$(CARGO) run --release -p pim-bench --bin fidelity_gate

# Service-layer smoke: boots a pim-serve instance on a loopback port,
# exercises submit/poll/result, forces explicit 429s under a concurrent
# burst, scrapes /metrics.prom and /v1/events (strict exposition-format
# validation, request-id correlation), drains, and reconciles the
# metering ledger.
serve-smoke:
	$(CARGO) run --release -p pim-serve --bin serve_smoke

# Observability smoke: the telemetry A/B overhead gate (registry must add
# no measurable cost to the serving path) plus one rendered pim_top frame
# against a live in-process server.
obs-smoke:
	$(CARGO) run --release -p pim-serve --bin obs_overhead
	$(CARGO) run --release -p pim-serve --bin pim_top -- --demo

# Flight-recorder smoke: boots a server with a 1 ns SLO objective so
# every job breaches, then checks the tail sampler retained full records,
# each is fetchable at /v1/debug/requests/<id> with spans + attribution +
# folded stacks, /v1/device/health serves a non-empty wear heatmap, and
# the Prometheus exposition (strictly validated) carries the new families.
flight-smoke:
	$(CARGO) run --release -p pim-serve --bin flight_smoke

# The end-to-end benchmark (perfbench/) is a package with its own
# workspace that depends on the crates here by path: build it and run its
# self-tests so an API change cannot break it unnoticed.
perfbench-check:
	$(CARGO) test --release --offline --manifest-path perfbench/Cargo.toml

# Regenerate every table and figure of the paper's evaluation.
experiments:
	$(CARGO) run --release -p pim-bench --bin experiments -- all

# Non-test lines of Rust (every line of crates/*/src and src/ before its
# file's first `#[cfg(test)]`) and, among them, public item definitions
# (`pub fn|struct|enum|const|static|trait|type`). A size report for
# comparing two trees, not a gate.
loc:
	@find crates/*/src src -name '*.rs' | sort | xargs awk 'FNR == 1 { t = 0 } /^[[:space:]]*#\[cfg\(test\)\]/ { t = 1 } !t { n++ } !t && /^[[:space:]]*pub (fn|struct|enum|const|static|trait|type)[[:space:]]/ { p++ } END { print n " non-test lines"; print p " public item definitions" }'
