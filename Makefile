# Convenience targets for the stateful serverless workbench.

.PHONY: install test test-fast test-faults test-overload test-audit test-gcp test-resilience test-supervise test-fuzz fuzz audit-sweep resilience-sweep resume-demo bench bench-kernel bench-campaign bench-perf bench-perf-smoke examples takeaways paper clean

install:
	pip install -e . || python setup.py develop

test:
	pytest tests/ -q

# Parallel test run; falls back to the serial suite when pytest-xdist
# (the `dev` extra) is not installed.
test-fast:
	pytest tests/ -q -n auto || pytest tests/ -q

# Fault-injection and reliability tests only.
test-faults:
	pytest tests/ -q -m faults

# Overload, throttling and backpressure tests only.
test-overload:
	pytest tests/ -q -m overload

# Runtime invariant-auditor tests only.
test-audit:
	pytest tests/ -q -m audit

# GCP backend tests only (Cloud Functions, Workflows, campaigns).
test-gcp:
	pytest tests/ -q -m gcp

# Correlated-outage, mitigation-policy and SLO-campaign tests only.
test-resilience:
	pytest tests/ -q -m resilience

# Crash-safe supervision: chaos-kill, timeout, journal and resume tests.
test-supervise:
	pytest tests/ -q -m supervise

# Campaign-fuzzer tests: generation, differential oracle, shrinking,
# planted-bug acceptance demo and corpus replay.
test-fuzz:
	pytest tests/ -q -m fuzz

# A bounded fuzz session plus a regression-corpus replay; exit 1 on any
# cross-path divergence or a corpus bug coming back.
fuzz:
	python -m repro fuzz run --budget 50 --seed 0 --no-cache
	python -m repro fuzz replay corpus

# Audited chaos + overload sweeps; exit 1 on any invariant violation.
audit-sweep:
	python -m repro audit

# Audited outage-window sweep with client-side mitigation across all
# registered backends; prints availability/MTTR/SLO verdicts.
resilience-sweep:
	python -m repro resilience --audit

# Crash-safety demo: journal a sweep, interrupt it mid-flight, then
# finish it with `repro resume` — bit-identical to an uninterrupted run.
resume-demo:
	rm -rf /tmp/repro-resume-demo
	-timeout -s INT 3 python -m repro latency --iterations 200 \
		--journal /tmp/repro-resume-demo --no-cache -j 2
	python -m repro resume /tmp/repro-resume-demo

bench:
	pytest benchmarks/ --benchmark-only -s

# Kernel hot-path microbenchmark: seed vs optimized events/sec, written
# to BENCH_kernel.json at the repo root.
bench-kernel:
	PYTHONPATH=src python benchmarks/test_kernel_throughput.py

# Macro benchmark: an audited idle-heavy campaign end to end, seed
# kernel + sampled polling vs live kernel + idle-poll elision, written
# to BENCH_campaign.json at the repo root.
bench-campaign:
	PYTHONPATH=src python benchmarks/test_macro_campaign.py

# Laboratory benchmark (benchmarks/perf): every workload, untraced, with
# the seed-0 outcome digests checked; exit 1 on any wrong outcome.  This
# is the benchmark that backs speed claims.
bench-perf:
	python3 benchmarks/perf/bench.py --seed 0

# The laboratory benchmark's own smoke test (not part of tier-1).
bench-perf-smoke:
	PYTHONPATH=src python -m pytest benchmarks/perf -q

examples:
	@for script in examples/*.py; do \
		echo "== $$script"; python $$script || exit 1; done

takeaways:
	python -m repro takeaways

paper:
	python -m repro paper

clean:
	find . -name __pycache__ -type d -exec rm -rf {} + 2>/dev/null; true
	rm -rf .pytest_cache .benchmarks src/repro.egg-info
