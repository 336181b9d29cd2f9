# Developer entry points. `make check` is the PR gate: the tier-1 test
# suite plus a smoke import of every repro.* module.

PYTHON ?= python
export PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH))

.PHONY: check test smoke bench bench-fig2 bench-obs bench-sweep \
	bench-faults bench-traffic bench-fluid-scale bench-routing \
	bench-service bench-cc bench-e2e bench-fig10 bench-transport \
	bench-packet clean

check: test smoke bench-obs bench-sweep bench-faults bench-traffic \
	bench-fluid-scale bench-routing bench-service bench-cc bench-e2e \
	bench-fig10 bench-transport bench-packet

test:
	$(PYTHON) -m pytest -x -q --durations=10

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
	! grep -rnwIE "BanditController|BanditBrain|make_shared_state|learned_vs_best_classic|CLASSIC_CONTROLLERS" \
	    src/ examples/ README.md .claude/
	! grep -rnwIE "ControllerFlowFactory|resolve_controller|make_controller|flow_factory|_on_attach" \
	    src/ examples/ README.md .claude/
	! grep -rnwIE "rtt_extremes|upper_pairs_mask|DynamicState|all_pairs_distance_m|_scalar_eci|_all_circular|_combined_fct_extras|pair_rtt_stats_over_time|pair_path_stats_over_time" \
	    src/ benchmarks/*.py examples/ README.md .claude/
	! grep -rnIE "propagate_to_ec|parse_tle|read_tle_file|max_min_fair_allocation_vectorized|batched_elevation_angles_deg|max_slant_range_m|topocentric_enu|pairs_by_name|repro\.fluid\.maxmin|repro\.orbits\.propagation" \
	    src/ benchmarks/*.py examples/ README.md .claude/
	! grep -rnwIE "WeatherModel|RainEvent|from_weather|state_dict|_deque_fields|loss_fraction" \
	    src/ benchmarks/*.py examples/ README.md .claude/
	! grep -rnIE "RateControlEnv|EnvSpec|ExternalController|sweep_with_checkpoint|resume_sweep|warmstart|attach_arrivals|FlowArrivalStream|register_isl_builder|k_shortest_paths|SpanRecord" \
	    src/ benchmarks/*.py examples/ README.md .claude/
	! grep -rnwIE "flatten_path_devices|_paths_at" \
	    src/ benchmarks/*.py examples/ README.md .claude/
	! grep -rnwI "_invalidated_mask" \
	    src/ benchmarks/*.py examples/ README.md .claude/
	! grep -rnwI "_build_vectorized_state" \
	    src/ benchmarks/*.py examples/ README.md .claude/
	! grep -rnIE "_row_order|_take_rows|_reorder|snapshot_cache_hits|full_solves" \
	    src/ benchmarks/*.py examples/ README.md .claude/
	! grep -rnIE "_canonical_json|_canonical\(|_fingerprinted|spec_fingerprint" \
	    src/ examples/ README.md .claude/
	! grep -rnwIE "isl_rate_overrides|gsl_rate_overrides|capacity_overrides|controller_kwargs|share_state|PACKET_CORRUPTION|packet_corruption|isl_cut_probability" \
	    src/ examples/ README.md .claude/
	! grep -rnwIE "delayed_ack_count|rwnd_packets|register_controller|_arm_delack|lognormal_sigma|pareto_alpha" \
	    src/ examples/ README.md .claude/
	! grep -rnIE "isl_builder_name|static_isl_pairs|spec-expressible|constellation_name" \
	    src/ benchmarks/*.py examples/ README.md .claude/
	! grep -rnwI "failed_satellites" \
	    src/ benchmarks/*.py examples/ README.md .claude/
	! grep -rnIE "class Checkpoint\b|from_checkpoint|use_isls|repro profile" \
	    src/ benchmarks/*.py examples/ README.md .claude/
	! grep -rnIE "WALL_CLOCK_KEYS|events_per_wall_s|routing_compute_s|repair_wall_s|snapshots_per_wall_s|ROUTING_COMPUTE|_record_metrics|allocate_flow_id|ensure_flow_ids_above|packet_id" \
	    src/ examples/ README.md .claude/
	! grep -rnw pickle src/repro/service/
	! grep -rnwIE "CHECKPOINT_MAGIC|_BODY_ERRORS" \
	    src/ examples/ README.md .claude/
	! grep -rnIE 'engine="aimd"|--engine aimd|--engine maxmin|_FLUID_ENGINES|active_mask' \
	    src/ examples/ README.md .claude/ .github/
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

# Sweep-engine gate: parallel must equal serial bit-for-bit (on K1 and on
# the two-shell S1+S2), and reach 1.7x at 4 workers (speedup half
# auto-skips below 4 cores) although every chunk pays a network rebuild
# and a cold routing solve.
bench-sweep:
	$(PYTHON) -m pytest benchmarks/test_sweep_speedup.py -q -o testpaths=

# Fault-model gate: scheduled outage waves must degrade RTTs gracefully
# and recover bit-identically once the schedule ends.
bench-faults:
	$(PYTHON) -m pytest benchmarks/test_extension_resilience.py -q -o testpaths=

# Traffic-model gate: ~1000 finite flows must arrive, get re-solved
# allocations, and complete on the Starlink S1 shell — through the
# event-driven sub-event loop, bit-identical to the rescanning reference
# loop in tests/_fluid_oracle.py (step time per solve of both goes to
# results/traffic_churn.txt).
bench-traffic:
	$(PYTHON) -m pytest benchmarks/test_traffic_churn.py -q -o testpaths=

# Fluid-core scale gate: the vectorized max-min kernel must match the
# Python oracle bit-for-bit, and solve a 100-city gravity snapshot with
# >= 1e5 concurrent flows at >= 10x the per-flow solver; waterfill's
# scalar and array kernels must agree bit-for-bit from 8 to 2048
# traversal entries, the scalar one no slower at SMALL_SOLVE_ENTRIES and
# the array one no slower at 8x that, both timed through waterfill_lists
# in interleaved rounds (results/fluid_small_solves.txt; timing halves
# auto-skip below 4 cores).
bench-fluid-scale:
	$(PYTHON) -m pytest benchmarks/test_fluid_scale.py -q -o testpaths=

# Incremental-routing gate: repaired destination trees must equal the
# from-scratch solve bit-for-bit (sparse deltas, moving timelines at
# 0.1-15 s steps, serial and workers=4); the sparse deltas alternate the
# destination order and must still take one full solve and no
# destination change; every 1 s step must be repaired
# and the 15 s walk must give up; repair must reach 5x per-snapshot
# routing time on S1 under sparse topology deltas and 1.3x on the moving
# 1 s timeline (speedup halves auto-skip below 4 cores; the step-size
# crossover table goes to results/routing_incremental.txt); the batched
# trees must equal the per-destination reference bit for bit and be
# computed >= 2x faster.
bench-routing:
	$(PYTHON) -m pytest benchmarks/test_routing_incremental.py \
	    benchmarks/test_batched_routing.py -q -o testpaths=

# Live-service gate: checkpoint -> restore (replay) -> continue must be
# bit-identical to never stopping (the service's two engines, packet and
# fluid, i.e. max-min), and
# a restore may cost at most 2x building the service and advancing it
# to the checkpoint's clock (results/service_restore.txt).
bench-service:
	$(PYTHON) -m pytest benchmarks/test_service_restore.py -q -o testpaths=

# Congestion-control gate: the plug-in classics must stay bit-identical
# to the frozen seed flows (cwnd/RTT traces and counters), and every
# cell of the fault x weather x churn cc-lab matrix must complete a flow
# and deliver part of its load — with the matrix itself bit-identical at
# any worker count.
bench-cc:
	$(PYTHON) -m pytest benchmarks/test_cc_matrix.py -q -o testpaths=

# End-to-end benchmark self-check (~20 s): every BENCHMARK.json workload
# runs, passes its output checks and matches its pinned golden digest.
bench-e2e:
	$(PYTHON) -m pytest benchmarks/e2e/test_selfcheck.py -q -o testpaths=

# AIMD gate (~9 s): the paper's Fig. 10 run — the fluid AIMD model of
# long-running flows, which only Fig. 10 and the fluid-vs-packet
# ablation build (no service, CLI or BENCHMARK.json workload runs it) —
# must keep the dynamic network leaving more bandwidth unused than the
# frozen one.
bench-fig10:
	$(PYTHON) -m pytest benchmarks/test_fig10_unused_bandwidth.py -q \
	    -o testpaths=

# Transport anchor (~20 s): NewReno goodput under random uplink loss at
# p = 0.005, 0.01, 0.02 (60 s, five fault seeds) must keep its median
# ratio to the Mathis et al. bound within [0.7, 1.4]
# (results/transport_mathis.txt).
bench-transport:
	$(PYTHON) -m pytest benchmarks/test_transport_anchors.py -q -o testpaths=

# Packet-device gate (~2 s): a packet simulator over all five Starlink
# shells builds no device up front and stays under
# MAX_PACKET_SIM_BUILD_MB to construct; after a short K1 NewReno run
# every device that exists has carried a packet
# (results/packet_devices.txt).
bench-packet:
	$(PYTHON) -m pytest benchmarks/test_packet_devices.py -q -o testpaths=

# The scalability benches touched by the batched routing path.
bench-fig2:
	$(PYTHON) -m pytest benchmarks/test_fig2_scalability.py \
	    benchmarks/test_batched_routing.py -q -o testpaths=

clean:
	find . -name __pycache__ -type d -prune -exec rm -rf {} +
	rm -rf .pytest_cache .benchmarks
