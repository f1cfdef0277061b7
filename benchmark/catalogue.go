package main

// A workload is one named traffic shape the benchmark drives against
// real cardsd child processes. The why strings are the catalogue the
// README and BENCHMARK.json repeat.
type workload struct {
	name    string
	servers int // cardsd children the repetition starts
	// gated workloads are the ones BENCHMARK.json lists and the driver
	// runs. Its time limit covers 22 runs per workload, and runs long
	// enough to be steady on a shared host leave room for four.
	gated bool
	why   string
}

const (
	wlBFS     = "bfs"
	wlTaxi    = "analytics"
	wlChase   = "pointerchase"
	wlArrayRd = "array-read"
	wlArrayRW = "array-rw-r2"
	wlFanin   = "store-fanin"
)

var workloads = []workload{
	{wlBFS, 1, true, "compiled BFS at 25% local memory: demand faults and dirty write-backs dominate, so the farmem miss/evict path and the sync round trip do the work"},
	{wlTaxi, 2, true, "compiled strided analytics over two shards: prefetch hides every fault, so interp, the guard hit path and the async pipeline do the work; bypass for fault-latency changes"},
	{wlChase, 1, false, "compiled linked-list traversal: the only workload that drives CHASEBATCH offload end to end; client-CPU bound with few remote ops"},
	{wlArrayRd, 1, true, "library Array.Get, 94% of calls miss: the per-call remote-fault latency a user sees; anchors the per-layer budget"},
	{wlArrayRW, 2, false, "library Array 50% Set / 50% Get over Replicas=2, WriteQuorum=2: dirty evictions and epoch-stamped fan-out; catches read gains that tax writes"},
	{wlFanin, 1, true, "raw pipelined client keeping 64 ops outstanding, farmem and interp bypassed: transport and cardsd only, shows codec, dispatch and ObjectStore changes"},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func compiledWorkload(name string) bool {
	return name == wlBFS || name == wlTaxi || name == wlChase
}

// sizes fixes the work of one repetition. Only the amount of work
// changes between scales; the regime (local-memory fraction, policy,
// cache share, read/write mix, window) never does.
type sizes struct {
	bfsVertices int64
	taxiTrips   int64
	chaseN      int64
	arrayObjs   int // 4 KiB objects in the array; the cache holds 1/16 of them
	arrayWarm   int
	arrayRdOps  int
	arrayRWOps  int
	faninObjs   int // objects per data structure (two data structures)
	faninOps    int // per connection
	ladderTime  string
}

// Scales: full is the issue's sizing; driver is what one `--workload`
// invocation runs, repetitions of 0.7-2 s so that a run of half a minute
// aggregates fifteen or more of them; smoke is the tier-1 test.
var scales = map[string]sizes{
	"full": {
		bfsVertices: 4096, taxiTrips: 1 << 19, chaseN: 65536,
		arrayObjs: 8192, arrayWarm: 2000, arrayRdOps: 50000, arrayRWOps: 50000,
		faninObjs: 4096, faninOps: 300000, ladderTime: "300ms",
	},
	"driver": {
		bfsVertices: 1024, taxiTrips: 64 << 10, chaseN: 16384,
		arrayObjs: 2048, arrayWarm: 1000, arrayRdOps: 20000, arrayRWOps: 10000,
		faninObjs: 4096, faninOps: 100000, ladderTime: "60ms",
	},
	"smoke": {
		bfsVertices: 512, taxiTrips: 24 << 10, chaseN: 3072,
		arrayObjs: 512, arrayWarm: 100, arrayRdOps: 2500, arrayRWOps: 2500,
		faninObjs: 256, faninOps: 15000, ladderTime: "1x",
	},
}

// metricDef names one reported number. bound is the share by which the
// metric may worsen before a change counts as a regression; zero for
// per-layer metrics, which explain and are never gated.
type metricDef struct {
	name   string
	unit   string
	better string
	bound  float64
}

// End-to-end metrics, measured with tracing off; each is aggregated over
// the repetitions of one workload (see aggregate).
const (
	mSetup   = "setup_s"
	mOps     = "ops_per_s"
	mP50     = "op_p50_us"
	mP99     = "op_p99_us"
	mCPU     = "cpu_us_per_op"
	mWire    = "wire_bytes_per_op"
	mRSS     = "client_peak_rss_mb"
	mFailed  = "failed_share"
	setupAbs = 0.25 // setup_s may also worsen by this many seconds
)

// betterQuartile names the end-to-end metrics that measure time and the
// quantile of the repetitions each reports: the quartile on its better
// side. Other tenants of the host only ever slow a repetition down, and
// by a different amount each minute, so the faster repetitions are the
// better estimate of what the code costs; the median follows the host.
var betterQuartile = map[string]float64{mSetup: 0.25, mOps: 0.75, mP50: 0.25, mP99: 0.25, mCPU: 0.25}

// The bounds of the timed metrics are wider than the issue's table
// (10/10/15/10 %). On the shared 2-core microVMs this runs on, the host's
// speed moves between three levels (a 5 ms compute slice takes 2.0, 2.5 or
// 3.1 ms) for seconds to minutes at a time, and ten 30-second runs with
// ten seeds still spread (quartile distance over median) by 3-9 % while
// the host is busy, 14 % at worst (bfs, and op_p99_us of array-read). A
// bound has to clear the spread, and the contract caps it at 25 %.
// wire_bytes_per_op repeats within 1 % and client_peak_rss_mb within 2 %
// on the gated workloads, so they keep bounds near the issue's (3 / 10 %).
var endToEnd = []metricDef{
	{mSetup, "s", "lower", 0.25},
	{mOps, "1/s", "higher", 0.25},
	{mP50, "us", "lower", 0.25},
	{mCPU, "us", "lower", 0.25},
	{mWire, "B", "lower", 0.05},
	{mRSS, "MiB", "lower", 0.10},
}

// perLayer lists every per-layer metric, grouped by the repo package it
// describes. Sources: P process accounting, C counters of the untraced
// repetition, T the traced repetition, L the ladder.
var perLayer = []metricDef{
	// core (C)
	{"core.compile_ms", "ms", "lower", 0},
	{"guards.inserted", "count", "lower", 0},
	{"guards.elided", "count", "higher", 0},
	// interp (C)
	{"interp.instr_per_deref", "count", "lower", 0},
	{"interp.local_ns_per_instr", "ns", "lower", 0},
	// farmem (C)
	{"farmem.miss_share", "ratio", "lower", 0},
	{"farmem.fastpath_share", "ratio", "higher", 0},
	{"farmem.evictions_per_op", "count", "lower", 0},
	{"farmem.writebacks_per_op", "count", "lower", 0},
	{"farmem.wb_stalls", "count", "lower", 0},
	{"farmem.wb_reissues", "count", "lower", 0},
	{"farmem.chases_issued", "count", "higher", 0},
	{"farmem.chase_staging_hit_share", "ratio", "higher", 0},
	{"farmem.chase_stale", "count", "lower", 0},
	{"farmem.chase_fallbacks", "count", "lower", 0},
	{"farmem.store_retries", "count", "lower", 0},
	// farmem (L)
	{"farmem.guard_hit_ns", "ns", "lower", 0},
	{"farmem.fault_mapstore_ns", "ns", "lower", 0},
	{"farmem.fault_mapstore_allocs", "count", "lower", 0},
	// prefetch (C)
	{"prefetch.issued_per_op", "count", "lower", 0},
	{"prefetch.hit_share", "ratio", "higher", 0},
	// seam farmem -> store (T)
	{"seam.read_sync_count", "count", "lower", 0},
	{"seam.read_sync_p50_us", "us", "lower", 0},
	{"seam.read_sync_p99_us", "us", "lower", 0},
	{"seam.read_async_count", "count", "lower", 0},
	{"seam.read_async_p50_us", "us", "lower", 0},
	{"seam.read_async_p99_us", "us", "lower", 0},
	{"seam.write_sync_count", "count", "lower", 0},
	{"seam.write_sync_p50_us", "us", "lower", 0},
	{"seam.write_sync_p99_us", "us", "lower", 0},
	{"seam.write_async_count", "count", "lower", 0},
	{"seam.write_async_p50_us", "us", "lower", 0},
	{"seam.write_async_p99_us", "us", "lower", 0},
	{"seam.write_range_count", "count", "lower", 0},
	{"seam.write_range_p50_us", "us", "lower", 0},
	{"seam.write_range_p99_us", "us", "lower", 0},
	{"seam.chase_count", "count", "lower", 0},
	{"seam.chase_p50_us", "us", "lower", 0},
	{"seam.chase_p99_us", "us", "lower", 0},
	{"seam.sync_block_share", "ratio", "lower", 0},
	// remote client (T)
	{"remote.client_queue_us", "us", "lower", 0},
	{"remote.wire_us", "us", "lower", 0},
	{"remote.batch_reads_mean", "count", "higher", 0},
	{"remote.batch_writes_mean", "count", "higher", 0},
	// remote client (L)
	{"remote.pipe_read_ns", "ns", "lower", 0},
	{"remote.tcp_read_ns", "ns", "lower", 0},
	{"remote.tcp_read_allocs", "count", "lower", 0},
	{"remote.resilient_tcp_read_ns", "ns", "lower", 0},
	{"remote.tcp_write_ns", "ns", "lower", 0},
	// rdma (L)
	{"rdma.readbatch_encode_ns", "ns", "lower", 0},
	{"rdma.readbatchc_encode_ns", "ns", "lower", 0},
	{"rdma.databatch_decode_ns", "ns", "lower", 0},
	{"rdma.databatchc_decode_ns", "ns", "lower", 0},
	{"rdma.writebatchc_encode_ns", "ns", "lower", 0},
	{"rdma.frame_io_ns", "ns", "lower", 0},
	{"rdma.frame_io_crc_ns", "ns", "lower", 0},
	{"rdma.lz_compress_mb_s", "MB/s", "higher", 0},
	{"rdma.lz_decompress_mb_s", "MB/s", "higher", 0},
	{"rdma.codec_allocs", "count", "lower", 0},
	// kernel (L, P)
	{"kernel.tcp_minus_pipe_ns", "ns", "lower", 0},
	{"client.sys_share", "ratio", "lower", 0},
	{"cardsd.syscalls_per_op", "count", "lower", 0},
	// cardsd server dispatch (P, T)
	{"cardsd.cpu_us_per_op", "us", "lower", 0},
	{"cardsd.peak_rss_mb", "MiB", "lower", 0},
	{"cardsd.queue_us", "us", "lower", 0},
	{"cardsd.service_us", "us", "lower", 0},
	// objectstore (L)
	{"objectstore.read_ns", "ns", "lower", 0},
	{"objectstore.write_ns", "ns", "lower", 0},
	{"objectstore.write_allocs", "count", "lower", 0},
	{"objectstore.write_epoch_ns", "ns", "lower", 0},
	{"objectstore.write_range_ns", "ns", "lower", 0},
	{"objectstore.parallel_read_ns", "ns", "lower", 0},
	// shardmap (P, L)
	{"shardmap.byte_balance", "ratio", "higher", 0},
	{"shardmap.read_overhead_ns", "ns", "lower", 0},
	// replica (P)
	{"replica.write_amp", "ratio", "lower", 0},
	{"replica.cpu_us_per_op", "us", "lower", 0},
	// client process (P)
	{"client.cpu_us_per_op", "us", "lower", 0},
	{"client.allocs_per_op", "count", "lower", 0},
	{"client.gc_pause_ms", "ms", "lower", 0},
	{"client.ctxsw_per_op", "count", "lower", 0},
	// tail latency (P): reported here and not gated, because on a shared
	// host the tail belongs to the neighbours. A slow phase of the host
	// that cost ops_per_s 12 % cost op_p99_us of array-read 30 %, and ten
	// 26-second runs spread it by up to 27 %, past any bound allowed.
	{mP99, "us", "lower", 0},
	// calibration (L)
	{"calib.memcpy4k_ns", "ns", "lower", 0},
	{"calib.loopback_rtt_us", "us", "lower", 0},
	// budget (T)
	{"budget.runtime_us", "us", "lower", 0},
	{"budget.residual_share", "ratio", "lower", 0},
	{"trace.overhead_share", "ratio", "lower", 0},
}

// metricMap is a set of named measurements of one repetition or one
// aggregate; every value is a plain number in the metric's unit.
type metricMap map[string]float64

func (m metricMap) merge(o metricMap) {
	for k, v := range o {
		m[k] = v
	}
}
