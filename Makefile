# Developer entry points. `make check` is the PR gate: the tier-1 test
# suite plus a smoke import of every repro.* module.

PYTHON ?= python
export PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH))

.PHONY: check test smoke bench bench-fig2 bench-obs bench-sweep \
	bench-faults bench-traffic bench-fluid-scale bench-routing \
	bench-service bench-cc bench-e2e bench-fig10 clean

check: test smoke bench-obs bench-sweep bench-faults bench-traffic \
	bench-fluid-scale bench-routing bench-service bench-cc bench-e2e \
	bench-fig10

test:
	$(PYTHON) -m pytest -x -q

smoke:
	$(PYTHON) -c "import importlib, pkgutil, repro; \
	mods = ['repro'] + [m.name for m in pkgutil.walk_packages(repro.__path__, 'repro.')]; \
	[importlib.import_module(name) for name in mods]; \
	print('smoke-imported', len(mods), 'modules')"
	$(PYTHON) -c "import sys, repro; \
	assert 'networkx' not in sys.modules, 'import repro pulled in networkx'; \
	assert '_orbit_oracle' not in sys.modules and '_fluid_oracle' not in sys.modules, \
	    'import repro pulled in a tests/ oracle'"
	! grep -rn "except Exception" src/
	! grep -rnE "_ELASTIC_DEMAND_CAPACITIES|_flow_pairs" src/ \
	    --exclude-dir=fluid
	! grep -rnwIE "TcpNewRenoFlow|TcpVegasFlow|TcpBbrFlow|bench-report" \
	    src/ examples/ README.md .github/
	! grep -rnI "BENCH_" src/ examples/ README.md .github/
	! grep -n "partial(" src/repro/simulation/devices.py \
	    src/repro/simulation/events.py
	! grep -rnIE "fallback_fraction|source_ingress_many|distances_to|\bpath_via\b|_search_graph" \
	    src/ examples/ README.md .claude/
	! grep -rnwIE "check_spec|checkpoint_sweep|record_sweep_metrics|ChunkRecord" \
	    src/ examples/ README.md .claude/
	! grep -rnwI "mp_context" src/repro/service/ examples/ README.md .claude/
	! grep -rnwIE "rtt_extremes|upper_pairs_mask|DynamicState|all_pairs_distance_m|_scalar_eci|_all_circular|_combined_fct_extras|pair_rtt_stats_over_time|pair_path_stats_over_time" \
	    src/ benchmarks/*.py examples/ README.md .claude/
	! grep -rnIE "propagate_to_ec|parse_tle|read_tle_file|max_min_fair_allocation_vectorized|batched_elevation_angles_deg|max_slant_range_m|topocentric_enu|pairs_by_name|repro\.fluid\.maxmin|repro\.orbits\.propagation" \
	    src/ benchmarks/*.py examples/ README.md .claude/
	wc -l src/repro/routing/*.py
	find src -name '*.py' | xargs wc -l | tail -1

# Full per-figure benchmark harness (writes results/*.txt).
bench:
	$(PYTHON) -m pytest benchmarks -q -o testpaths=

# Observability overhead gates: disabled-tracer instrumentation must
# cost <= 10% of the per-event budget, and disabled span hooks <= 2%
# of a 1e5-flow vectorized fluid solve.
bench-obs:
	$(PYTHON) -m pytest benchmarks/test_obs_overhead.py \
	    benchmarks/test_span_overhead.py -q -o testpaths=

# Sweep-engine gate: parallel must equal serial bit-for-bit, and reach
# 1.7x at 4 workers (speedup half auto-skips below 4 cores).
bench-sweep:
	$(PYTHON) -m pytest benchmarks/test_sweep_speedup.py -q -o testpaths=

# Fault-model gate: scheduled outage waves must degrade RTTs gracefully
# and recover bit-identically once the schedule ends.
bench-faults:
	$(PYTHON) -m pytest benchmarks/test_extension_resilience.py -q -o testpaths=

# Traffic-model gate: ~1000 finite flows must arrive, get re-solved
# allocations, and complete on the Starlink S1 shell.
bench-traffic:
	$(PYTHON) -m pytest benchmarks/test_traffic_churn.py -q -o testpaths=

# Fluid-core scale gate: the vectorized max-min kernel must match the
# Python oracle bit-for-bit, and solve a 100-city gravity snapshot with
# >= 1e5 concurrent flows at >= 10x the per-flow solver; waterfill's
# scalar and array kernels must agree bit-for-bit from 8 to 2048
# traversal entries, the scalar one no slower at SMALL_SOLVE_ENTRIES and
# the array one no slower at 8x that (results/fluid_small_solves.txt;
# timing halves auto-skip below 4 cores).
bench-fluid-scale:
	$(PYTHON) -m pytest benchmarks/test_fluid_scale.py -q -o testpaths=

# Incremental-routing gate: repaired destination trees must equal the
# from-scratch solve bit-for-bit (sparse deltas, moving timelines at
# 0.1-15 s steps, serial and workers=4); every 1 s step must be repaired
# and the 15 s walk must give up; repair must reach 5x per-snapshot
# routing time on S1 under sparse topology deltas and 1.3x on the moving
# 1 s timeline (speedup halves auto-skip below 4 cores; the step-size
# crossover table goes to results/routing_incremental.txt); the batched
# trees must equal the per-destination reference bit for bit and be
# computed >= 2x faster.
bench-routing:
	$(PYTHON) -m pytest benchmarks/test_routing_incremental.py \
	    benchmarks/test_batched_routing.py -q -o testpaths=

# Live-service gate: checkpoint -> restore -> continue must be
# bit-identical to never stopping (packet + max-min fluid engines),
# and sweep warm-starts must splice bit-identically (serial and
# workers=4).
bench-service:
	$(PYTHON) -m pytest benchmarks/test_service_restore.py -q -o testpaths=

# Congestion-control gate: the plug-in classics must stay bit-identical
# to the frozen seed flows (cwnd/RTT traces and counters), and the
# learned controller must match or beat the best classic's FCT p50 in
# >= 1 scenario of the fault x weather x churn cc-lab matrix — with the
# matrix itself bit-identical at any worker count.
bench-cc:
	$(PYTHON) -m pytest benchmarks/test_cc_matrix.py -q -o testpaths=

# End-to-end benchmark self-check (~20 s): every BENCHMARK.json workload
# runs, passes its output checks and matches its pinned golden digest.
bench-e2e:
	$(PYTHON) -m pytest benchmarks/e2e/test_selfcheck.py -q -o testpaths=

# AIMD gate (~9 s): the paper's Fig. 10 run — the one fluid engine no
# other gate or BENCHMARK.json workload executes — must keep the dynamic
# network leaving more bandwidth unused than the frozen one.
bench-fig10:
	$(PYTHON) -m pytest benchmarks/test_fig10_unused_bandwidth.py -q \
	    -o testpaths=

# The scalability benches touched by the batched routing path.
bench-fig2:
	$(PYTHON) -m pytest benchmarks/test_fig2_scalability.py \
	    benchmarks/test_batched_routing.py -q -o testpaths=

clean:
	find . -name __pycache__ -type d -prune -exec rm -rf {} +
	rm -rf .pytest_cache .benchmarks
