// Command cardsd is the remote memory node: it owns the far tier of
// objects and serves the CaRDS wire protocol — one version-checked
// HELLO per connection, then tagged, checksummed, bit-packed batch verbs
// over length-prefixed TCP frames (READBATCH-C scatter-gather reads,
// WRITEBATCH-C writes, CHASEBATCH traversal programs), and the epoch
// modifier on reads and writes that the replicated client uses: stamped
// writes carry a monotonically increasing per-object epoch and apply
// only when at least as new as the stored image, so replica resync and
// reissued write-backs are idempotent. A peer speaking another protocol version
// is refused with one ERR naming both.
// Point a runtime at it with
// cards.Config{RemoteAddr: ...} or run examples/cluster against it —
// this is the "memory server machine" of the paper's two-node CloudLab
// setup.
//
// With -metrics-addr the node also serves live introspection over HTTP:
// GET /metrics returns the Prometheus text exposition of the server's
// registry (verb latency histograms, wire bytes, connection and
// in-flight gauges); GET /stats the same snapshot as JSON; GET
// /debug/pprof/* the standard net/http/pprof profiles. On shutdown
// (SIGINT/SIGTERM) the final snapshot is dumped to stderr.
//
// With -chaos every accepted connection is wrapped in the deterministic
// fault injector (internal/faultnet): forced disconnects, corrupted or
// truncated frames, added latency and stalls, per the given spec — the
// harness the fault-tolerant client path is exercised against. On
// SIGINT/SIGTERM the server drains gracefully: it stops accepting,
// waits up to -drain-timeout for in-flight requests, then force-closes
// stragglers.
//
// Usage:
//
//	cardsd [-listen 127.0.0.1:7770] [-metrics-addr :9090]
//	       [-chaos cut=65536,corrupt=0.01,seed=7] [-drain-timeout 5s] [-v]
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"os/signal"
	"sync/atomic"
	"syscall"
	"time"

	"cards/internal/faultnet"
	"cards/internal/obs"
	"cards/internal/remote"
)

func main() {
	listen := flag.String("listen", "127.0.0.1:7770", "address to serve on")
	metricsAddr := flag.String("metrics-addr", "", "serve /metrics (Prometheus text), /stats (JSON) and /debug/pprof/* on this address")
	chaos := flag.String("chaos", "", "inject faults on every connection, e.g. cut=65536,corrupt=0.01,seed=7 (see internal/faultnet)")
	drainTimeout := flag.Duration("drain-timeout", 5*time.Second, "graceful-shutdown budget for in-flight requests")
	verbose := flag.Bool("v", false, "log periodic statistics")
	flag.Parse()

	srv := remote.NewServer()
	if *chaos != "" {
		cfg, err := faultnet.ParseSpec(*chaos)
		if err != nil {
			fmt.Fprintf(os.Stderr, "cardsd: -chaos: %v\n", err)
			os.Exit(2)
		}
		// Derive a distinct (but deterministic) schedule per connection,
		// so reconnects do not replay the identical fault sequence.
		var connSeq atomic.Int64
		srv.ConnWrap = func(c io.ReadWriteCloser) io.ReadWriteCloser {
			ccfg := cfg
			ccfg.Seed += connSeq.Add(1) - 1
			return faultnet.Wrap(c, ccfg)
		}
		log.Printf("cardsd: chaos injection enabled: %s", *chaos)
	}
	addr, err := srv.Listen(*listen)
	if err != nil {
		fmt.Fprintf(os.Stderr, "cardsd: %v\n", err)
		os.Exit(1)
	}
	log.Printf("cardsd: serving far memory on %s", addr)

	if *metricsAddr != "" {
		ln := *metricsAddr
		go func() {
			log.Printf("cardsd: metrics on http://%s/metrics (JSON on /stats, profiles on /debug/pprof/)", ln)
			if err := http.ListenAndServe(ln, obs.DebugHandler(srv.ObsSnapshot, nil)); err != nil {
				log.Printf("cardsd: metrics server: %v", err)
			}
		}()
	}

	done := make(chan struct{})
	if *verbose {
		go func() {
			tick := time.NewTicker(5 * time.Second)
			defer tick.Stop()
			for {
				select {
				case <-tick.C:
					r, w := srv.Counts()
					log.Printf("cardsd: %d objects resident, %d reads, %d writes",
						srv.Store.Len(), r, w)
				case <-done:
					return
				}
			}
		}()
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	close(done)
	log.Printf("cardsd: draining (up to %s)", *drainTimeout)
	if srv.Drain(*drainTimeout) {
		log.Printf("cardsd: drained cleanly")
	} else {
		log.Printf("cardsd: drain timed out; connections force-closed")
	}

	// Final point-in-time snapshot so a scrape-less run still leaves the
	// numbers behind.
	fmt.Fprintln(os.Stderr, "cardsd: final metrics snapshot:")
	srv.ObsSnapshot().WriteJSON(os.Stderr)
}
