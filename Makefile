GO ?= go

.PHONY: build test check fmt vet race chaos bench bench-smoke bench-shard bench-writeback bench-replica bench-chase bench-wire benchguard difftest fuzz-smoke trace-smoke loc

build:
	$(GO) build ./...

# loc prints the three tracked sizes, non-test lines each: the transport
# (internal/remote + internal/rdma, ROADMAP's "should go down" number),
# the whole far tier (farmem + shardmap + replica + remote + rdma), and
# the two entry points that assemble it (cards.go + cmd/cardsc/main.go).
loc:
	@ls internal/remote/*.go internal/rdma/*.go | grep -v _test.go | xargs cat | wc -l
	@ls internal/farmem/*.go internal/shardmap/*.go internal/replica/*.go internal/remote/*.go internal/rdma/*.go | grep -v _test.go | xargs cat | wc -l
	@cat cards.go cmd/cardsc/main.go | wc -l

test:
	$(GO) test ./...

fmt:
	@out=$$(gofmt -l .); \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

vet:
	$(GO) vet ./...

race:
	$(GO) test -race ./...

# check is the CI gate: formatting, static analysis, the full test
# suite under the race detector (exercises the concurrent remote server
# and the obs tracer/registry), the differential-testing suite (oracle
# vs per-hop vs offloaded traversal, byte-exact under seeded chaos), a
# short fuzzing smoke pass over the wire-format decoders and the live
# server loop, the distributed-tracing smoke, and the sweep regression
# guards against the checked-in baselines.
check: fmt vet race difftest fuzz-smoke trace-smoke benchguard

# difftest runs the differential harness verbosely: every traversal
# workload three ways (in-process oracle, per-hop remote, offloaded
# chase) with checksums compared byte-for-byte, on clean links and
# under seeded fault schedules. The race target above already runs
# these once; this target pins them by name so the suite cannot be
# silently lost to a test rename.
difftest:
	$(GO) test -v -count=1 ./internal/difftest

# trace-smoke runs a traced pointer chase over a real TCP far tier with
# injected RTT and validates the tentpole end to end: the merged Chrome
# trace carries causally linked client and server spans, and every op's
# four-component latency decomposition sums to its wall time.
trace-smoke:
	$(GO) test -run '^TestTraceSmoke$$' -count=1 -v .

# benchguard reruns the pipeline-depth, dirty write-back, replication,
# traversal-offload and wire-efficiency sweeps and fails if any guarded
# ratio fell below its floor relative to the checked-in
# BENCH_pipeline.json / BENCH_writeback.json / BENCH_replica.json /
# BENCH_chase.json / BENCH_wire.json baselines (the guarded values are
# in-run ratios, so host speed cancels out; the chase gate pins the
# hop-budget-16 speedup, the wire gate pins the analytics workload's
# "bytes vs raw" reduction on the +lz+range rung). Pass or fail, it
# prints the per-row measured-vs-baseline delta tables.
benchguard:
	$(GO) run ./cmd/benchguard -baseline BENCH_pipeline.json -writeback-baseline BENCH_writeback.json -replica-baseline BENCH_replica.json -chase-baseline BENCH_chase.json -wire-baseline BENCH_wire.json

# fuzz-smoke runs each native fuzzer briefly (seed corpus + a short
# random exploration). Go allows one -fuzz pattern per invocation, so
# each fuzzer gets its own.
FUZZTIME ?= 30s
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzFrameDecode$$' -fuzztime $(FUZZTIME) ./internal/rdma
	$(GO) test -run '^$$' -fuzz '^FuzzLZ$$' -fuzztime $(FUZZTIME) ./internal/rdma
	$(GO) test -run '^$$' -fuzz '^FuzzWords$$' -fuzztime $(FUZZTIME) ./internal/rdma
	$(GO) test -run '^$$' -fuzz '^FuzzServeConn$$' -fuzztime $(FUZZTIME) ./internal/remote
	$(GO) test -run '^$$' -fuzz '^FuzzParseSpec$$' -fuzztime $(FUZZTIME) ./internal/faultnet

# chaos runs the fault-tolerance suite: the e2e workloads over the chaos
# proxy, the breaker outage demo and the sharded / replicated / chase
# kill-and-restart runs (root), the transport's
# handshake/cut/timeout/uncertain-write/reconnect tests, cardsd's
# read-burst serving under cuts, drains and parked writes, and the
# down-and-resume outage cycle (internal/remote), the breaker, prober and
# async fault paths, the write-back sweep's failed, parked, scoped and
# reentrant drains and the late and failing fills of store-once misses
# (internal/farmem, and internal/interp for the fills of random
# programs), the per-backend fault domains
# over them (internal/shardmap, internal/replica), and the injector
# itself (internal/faultnet). Schedules are seeded in the tests, so a run
# is reproducible.
chaos:
	$(GO) test -v -run 'TestChaos|TestBreaker|TestShardedServerOutageAndRecovery|TestReplicaKillRestartSequenceUnderCorruption|TestReplicaKillAnyBackendMidRun|TestChaseOffloadSurvivesBackendKillMidRun' .
	$(GO) test -v -run 'TestHandshake|TestDialPipelined|TestPipelined|TestClientGoesDownAndResumes|TestDialIsBoundedByTimeout|TestServerDrain|TestBurst|TestCRCSession' ./internal/remote
	$(GO) test -v -run 'TestBreaker|TestStoreRetry|TestDegraded|TestHarvest|TestClockSettle|TestFailedAsyncWrite|TestParkedWriteBack|TestScopedDrain|TestShardDegraded|TestFailedRangeWrite|TestWriteBackSweepReentrancy|TestFill' ./internal/farmem ./internal/interp
	$(GO) test -v ./internal/shardmap ./internal/replica
	$(GO) test -v ./internal/faultnet

# bench runs the root package's benchmarks: one per paper artifact, the
# BenchmarkGuard* primitives, and the three the benchmark/ ladder is
# blind to — BenchmarkGuardHitStridedPrefetch (a guard hit with the
# compiler's prefetcher and the production breaker installed; the
# ladder's farmem.guard_hit_ns rung installs neither),
# BenchmarkInterpLoopNsPerInstr (the analytics histogram kernel over
# local memory: dispatch, operand and call cost per IR instruction) and
# BenchmarkCompiledTaxiNsPerDeref (the analytics workload compiled and
# run in process, MaxUse at k 0.5 in a quarter of its working set over
# the in-process store: interpreter + guard hit path per deref) and
# BenchmarkCompiledBFSNsPerDerefTCP (the bfs workload the same way, over
# an in-process cardsd on loopback with the production far-tier
# settings: ns/deref and sync-reads/deref, the misses the application
# thread blocked on, which the in-process store cannot show).
# The rest live beside the code they price, where the ladder's
# rdma.lz_* rungs (one byte ramp, cleared at GB/s) see nothing:
# BenchmarkLZShapes (internal/rdma: both block codecs on the 4 KiB
# object shapes bfs, analytics, array-read and store-fanin ship — LZ
# compress/decompress MB/s and ratio on all of them, words/scan, pack,
# unpack and check with the block size on those that lane-pack, and
# scan/bail, which fails if giving up on a noise or byte-ramp object
# takes more than the first 64 bytes), BenchmarkServerReadStoredLZ and
# BenchmarkServerReadStoredWords (internal/remote: cardsd's whole read
# path for a bfs-shaped object its client wrote back compressed, per
# scheme), BenchmarkServerWriteAdmit (cardsd taking that write-back:
# an LZ tuple's validating decode against a words tuple's CheckWords)
# and BenchmarkServerFaultBurstTCP (a fault that drags a dirty eviction:
# one doorbell of write-back + read over TCP, with the server's Write
# calls per doorbell — 1 when a burst's replies leave together).
bench:
	$(GO) test -bench . -benchtime 2s -run '^$$' .
	$(GO) test -bench 'LZShapes' -benchtime 1s -run '^$$' ./internal/rdma
	$(GO) test -bench 'ServerReadStored|ServerWriteAdmit|ServerFaultBurstTCP' -benchtime 1s -run '^$$' ./internal/remote

# bench-smoke runs the real-socket sweeps briefly (TCP loopback) and
# records their tables for trend tracking.
bench-smoke: bench-writeback
	$(GO) run ./cmd/cardsbench -exp pipeline -scale quick -json > BENCH_pipeline.json
	@cat BENCH_pipeline.json

# bench-writeback runs the sync-vs-async dirty write-back sweep (real
# TCP loopback, RTT injected per server-side read burst) and records the
# table.
bench-writeback:
	$(GO) run ./cmd/cardsbench -exp writeback -scale quick -json > BENCH_writeback.json
	@cat BENCH_writeback.json

# bench-replica runs the replicated far-tier sweep (R=1/2/3 over the
# same 3-backend TCP fleet with injected per-op service latency):
# write amplification, write-throughput retention vs the unreplicated
# baseline, and the failover latency of a read stream whose primary is
# killed mid-run.
bench-replica:
	$(GO) run ./cmd/cardsbench -exp replica -scale quick -json > BENCH_replica.json
	@cat BENCH_replica.json

# bench-chase runs the server-side traversal-offload sweep (dependent
# per-hop reads vs one CHASEBATCH per hop-budget window, real TCP
# loopback with 200µs injected per-request RTT, hop budgets 2..64) and
# records the table.
bench-chase:
	$(GO) run ./cmd/cardsbench -exp chase -scale quick -json > BENCH_chase.json
	@cat BENCH_chase.json

# bench-wire runs the wire-efficiency ladder (objects shipped raw →
# +adaptive LZ compression → +compiler-aided dirty-range write-back,
# each rung's checksum held against an in-process run) over a
# bandwidth-shaped TCP loopback and records bytes-on-wire per op and
# end-to-end throughput per rung, as ratios over the raw rung.
bench-wire:
	$(GO) run ./cmd/cardsbench -exp wire -scale quick -json > BENCH_wire.json
	@cat BENCH_wire.json

# bench-shard runs the sharded far-tier sweep (1→4 backends, real TCP
# loopback with injected per-connection service latency) and records the
# read-bandwidth scaling table.
bench-shard:
	$(GO) run ./cmd/cardsbench -exp shard -scale quick -json > BENCH_shard.json
	@cat BENCH_shard.json
