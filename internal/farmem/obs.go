package farmem

import (
	"cards/internal/netsim"
	"cards/internal/obs"
)

// Metric names published by the runtime, following the project-wide
// cards_<layer>_<name> scheme. Per-data-structure series carry a
// ds="<id>" label; everything else is a single global series.
const (
	// Per-DS counters (label ds="<id>").
	MetricDSHits           = "cards_farmem_ds_hits_total"
	MetricDSMisses         = "cards_farmem_ds_misses_total"
	MetricDSColdFaults     = "cards_farmem_ds_cold_faults_total"
	MetricDSEvictions      = "cards_farmem_ds_evictions_total"
	MetricDSWriteBacks     = "cards_farmem_ds_writebacks_total"
	MetricDSPrefetchIssued = "cards_farmem_ds_prefetch_issued_total"
	MetricDSPrefetchHits   = "cards_farmem_ds_prefetch_hits_total"
	MetricDSPinnedBytes    = "cards_farmem_ds_pinned_bytes"
	MetricDSRemoteBytes    = "cards_farmem_ds_remote_bytes"
	MetricDSSpilled        = "cards_farmem_ds_spilled"

	// Per-DS latency histograms in virtual cycles (label ds="<id>"),
	// observed into single-writer locals on the slow paths and copied
	// into the registry by PublishObs.
	MetricFetchCycles        = "cards_farmem_fetch_cycles"
	MetricPrefetchWaitCycles = "cards_farmem_prefetch_wait_cycles"
	MetricEvictCycles        = "cards_farmem_evict_cycles"

	// Global runtime counters.
	MetricGuardChecks     = "cards_farmem_guard_checks_total"
	MetricFastPathHits    = "cards_farmem_fastpath_hits_total"
	MetricDerefCalls      = "cards_farmem_deref_calls_total"
	MetricRemoteFetches   = "cards_farmem_remote_fetches_total"
	MetricEvictions       = "cards_farmem_evictions_total"
	MetricSpilledDS       = "cards_farmem_spilled_ds_total"
	MetricAllLocalCalls   = "cards_farmem_all_local_calls_total"
	MetricOvercommitBytes = "cards_farmem_overcommit_bytes"

	// Fault-tolerance counters and the circuit-breaker state gauge
	// (0=closed 1=open 2=half-open; see breaker.go).
	MetricStoreRetries      = "cards_farmem_store_retries_total"
	MetricDegradedOps       = "cards_farmem_degraded_ops_total"
	MetricBreakerTrips      = "cards_farmem_breaker_trips_total"
	MetricBreakerRecoveries = "cards_farmem_breaker_recoveries_total"
	MetricDrainedWriteBacks = "cards_farmem_drained_writebacks_total"
	MetricBreakerState      = "cards_farmem_breaker_state"
	MetricRemotableBudget   = "cards_farmem_remotable_budget_bytes"

	// Asynchronous write-back pipeline (writeback.go): staged evictions,
	// backpressure stalls (virtual time), synchronous reissues of failed
	// async writes, read-your-writes derefs served from staging, and the
	// current staging occupancy: budgeted bytes (retired ones excluded)
	// and entries (all of them).
	MetricStagedWriteBacks       = "cards_farmem_staged_writebacks_total"
	MetricWriteBackStalls        = "cards_farmem_writeback_stalls_total"
	MetricWriteBackReissues      = "cards_farmem_writeback_reissues_total"
	MetricWriteBackStagingHits   = "cards_farmem_writeback_staging_hits_total"
	MetricWriteBackStagedBytes   = "cards_farmem_writeback_staged_bytes"
	MetricWriteBackStagedEntries = "cards_farmem_writeback_staged_entries"

	// Dirty-range write-back (dirtyrange.go): evictions that shipped
	// only the modified extents, and the object bytes that elision kept
	// off the wire.
	MetricRangeWriteBacks = "cards_farmem_range_writebacks_total"
	MetricRangeBytesSaved = "cards_farmem_range_bytes_saved_total"

	// Traversal offload (chase.go): programs shipped, path objects
	// delivered ahead of demand, derefs served from the chase staging
	// area, stale results dropped by the write-back generation guard,
	// and chases that degraded to per-hop reads.
	MetricChasesIssued     = "cards_chase_issued_total"
	MetricChaseHopsStaged  = "cards_chase_offloaded_hops_total"
	MetricChaseStagingHits = "cards_chase_staging_hits_total"
	MetricChaseStale       = "cards_chase_stale_total"
	MetricChaseFallbacks   = "cards_chase_fallbacks_total"
	MetricChaseStagedBytes = "cards_chase_staged_bytes"

	// Local memory occupancy gauges.
	MetricArenaUsed     = "cards_farmem_arena_used_bytes"
	MetricPinnedUsed    = "cards_farmem_pinned_used_bytes"
	MetricRemotableUsed = "cards_farmem_remotable_used_bytes"
	MetricInflightBytes = "cards_farmem_inflight_bytes"

	// Simulated link counters and queue depth.
	MetricLinkFetches      = "cards_netsim_fetches_total"
	MetricLinkPrefetches   = "cards_netsim_prefetches_total"
	MetricLinkWriteBacks   = "cards_netsim_writebacks_total"
	MetricLinkBytesIn      = "cards_netsim_bytes_in_total"
	MetricLinkBytesOut     = "cards_netsim_bytes_out_total"
	MetricLinkQueueBacklog = "cards_netsim_queue_backlog_cycles"
	MetricLinkQueueDelay   = "cards_netsim_queue_delay_cycles"
	MetricLinkRetries      = "cards_netsim_retries_total"
)

// cyclesPerMicro converts virtual cycles to trace microseconds at the
// paper's 2.4 GHz clock.
const cyclesPerMicro = uint64(netsim.DefaultHz / 1e6)

// Obs returns the runtime's metrics registry.
func (r *Runtime) Obs() *obs.Registry { return r.reg }

// Tracer returns the runtime's trace sink (nil when tracing is off).
func (r *Runtime) Tracer() *obs.Tracer { return r.tracer }

// PublishObs copies the runtime's single-threaded tallies — per-DS and
// global counters, latency histograms, occupancy gauges, link activity
// — into the registry, so a subsequent Snapshot sees a coherent
// point-in-time view.
func (r *Runtime) PublishObs() {
	reg := r.reg
	for _, d := range r.dss {
		st := d.stats
		l := d.label
		d.fetchHist.PublishTo(reg.Histogram(MetricFetchCycles, "ds", l))
		d.pfWaitHist.PublishTo(reg.Histogram(MetricPrefetchWaitCycles, "ds", l))
		d.evictHist.PublishTo(reg.Histogram(MetricEvictCycles, "ds", l))
		reg.Counter(MetricDSHits, "ds", l).Store(st.Hits)
		reg.Counter(MetricDSMisses, "ds", l).Store(st.Misses)
		reg.Counter(MetricDSColdFaults, "ds", l).Store(st.ColdFaults)
		reg.Counter(MetricDSEvictions, "ds", l).Store(st.Evictions)
		reg.Counter(MetricDSWriteBacks, "ds", l).Store(st.WriteBacks)
		reg.Counter(MetricDSPrefetchIssued, "ds", l).Store(st.PrefetchIssued)
		reg.Counter(MetricDSPrefetchHits, "ds", l).Store(st.PrefetchHits)
		reg.Counter(MetricDSPinnedBytes, "ds", l).Store(st.PinnedBytes)
		reg.Counter(MetricDSRemoteBytes, "ds", l).Store(st.RemoteBytes)
		spilled := int64(0)
		if d.spilled {
			spilled = 1
		}
		reg.Gauge(MetricDSSpilled, "ds", l).Set(spilled)
	}

	s := r.stats
	reg.Counter(MetricGuardChecks).Store(s.GuardChecks)
	reg.Counter(MetricFastPathHits).Store(s.FastPathHits)
	reg.Counter(MetricDerefCalls).Store(s.DerefCalls)
	reg.Counter(MetricRemoteFetches).Store(s.RemoteFetches)
	reg.Counter(MetricEvictions).Store(s.Evictions)
	reg.Counter(MetricSpilledDS).Store(s.SpilledDS)
	reg.Counter(MetricAllLocalCalls).Store(s.AllLocalCalls)
	reg.Counter(MetricOvercommitBytes).Store(s.OvercommitBytes)

	reg.Counter(MetricStoreRetries).Store(s.StoreRetries)
	reg.Counter(MetricDegradedOps).Store(s.DegradedOps)
	reg.Counter(MetricBreakerTrips).Store(s.BreakerTrips)
	reg.Counter(MetricBreakerRecoveries).Store(s.BreakerRecoveries)
	reg.Counter(MetricDrainedWriteBacks).Store(s.DrainedWriteBacks)
	reg.Gauge(MetricBreakerState).Set(int64(r.BreakerState()))
	reg.Gauge(MetricRemotableBudget).Set(int64(r.remotableBudget))

	reg.Counter(MetricStagedWriteBacks).Store(s.StagedWriteBacks)
	reg.Counter(MetricWriteBackStalls).Store(s.WriteBackStalls)
	reg.Counter(MetricWriteBackReissues).Store(s.WriteBackReissues)
	reg.Counter(MetricWriteBackStagingHits).Store(s.WriteBackStagingHits)
	reg.Counter(MetricRangeWriteBacks).Store(s.RangeWriteBacks)
	reg.Counter(MetricRangeBytesSaved).Store(s.RangeBytesSaved)
	reg.Gauge(MetricWriteBackStagedBytes).Set(int64(r.wbBytes))
	reg.Gauge(MetricWriteBackStagedEntries).Set(int64(r.StagedWriteBackEntries()))

	reg.Counter(MetricChasesIssued).Store(s.ChasesIssued)
	reg.Counter(MetricChaseHopsStaged).Store(s.ChaseHopsStaged)
	reg.Counter(MetricChaseStagingHits).Store(s.ChaseStagingHits)
	reg.Counter(MetricChaseStale).Store(s.ChaseStale)
	reg.Counter(MetricChaseFallbacks).Store(s.ChaseFallbacks)
	reg.Gauge(MetricChaseStagedBytes).Set(int64(r.chaseStagedBytes))

	reg.Gauge(MetricArenaUsed).Set(int64(r.arena.Used()))
	reg.Gauge(MetricPinnedUsed).Set(int64(r.pinnedUsed))
	reg.Gauge(MetricRemotableUsed).Set(int64(r.remotableUsed))
	reg.Gauge(MetricInflightBytes).Set(int64(r.inflightBytes))

	reg.Counter(MetricLinkFetches).Store(r.link.Fetches)
	reg.Counter(MetricLinkPrefetches).Store(r.link.Prefetches)
	reg.Counter(MetricLinkWriteBacks).Store(r.link.WriteBacks)
	reg.Counter(MetricLinkBytesIn).Store(r.link.BytesIn)
	reg.Counter(MetricLinkBytesOut).Store(r.link.BytesOut)
	reg.Counter(MetricLinkRetries).Store(r.link.Retries)
	reg.Gauge(MetricLinkQueueBacklog).Set(int64(r.link.QueueBacklog()))
	r.link.QueueDelay.PublishTo(reg.Histogram(MetricLinkQueueDelay))
}

// ObsSnapshot publishes the current tallies and returns the resulting
// point-in-time snapshot — the single source Report, /stats and
// /metrics-style exports all render from.
func (r *Runtime) ObsSnapshot() *obs.Snapshot {
	r.PublishObs()
	return r.reg.Snapshot()
}
