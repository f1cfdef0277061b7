// Package faultnet injects deterministic, seeded transport faults into
// byte streams: added latency, read/write stalls, mid-frame disconnects,
// truncated writes, and byte corruption. It is the chaos layer the
// fault-tolerance stack is tested against — wrap a single connection
// with Wrap for unit tests, or stand a Proxy in front of a cardsd
// server to subject a whole session (including reconnects) to a seeded
// fault schedule.
//
// Determinism: every fault decision is drawn from a rand.Rand seeded by
// Config.Seed (the Proxy derives one stream per accepted connection
// from its seed and a connection counter). Cut points are byte-count
// based, so the same byte stream always breaks at the same offsets; the
// per-chunk corruption and stall draws depend on how the reader chunks
// the stream, which makes them statistically — not bit-for-bit —
// reproducible over real sockets.
package faultnet

import (
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// ErrInjected is the root of every injected failure; test assertions
// use errors.Is against it to separate chaos from real bugs.
var ErrInjected = errors.New("faultnet: injected fault")

// ErrCut marks an injected mid-stream disconnect (the wrapped
// connection has been closed underneath the caller).
var ErrCut = fmt.Errorf("%w: connection cut", ErrInjected)

// Kind labels one injected fault for accounting hooks.
type Kind int

// Fault kinds reported to Config.OnFault.
const (
	KindCut Kind = iota
	KindCorrupt
	KindStall
	KindTruncate
)

func (k Kind) String() string {
	switch k {
	case KindCut:
		return "cut"
	case KindCorrupt:
		return "corrupt"
	case KindStall:
		return "stall"
	case KindTruncate:
		return "truncate"
	}
	return "fault(" + strconv.Itoa(int(k)) + ")"
}

// Config is a fault schedule. The zero value injects nothing.
type Config struct {
	// Seed seeds the fault schedule (0 behaves like 1).
	Seed int64

	// CutEveryBytes injects a disconnect roughly every N bytes through
	// the connection (both directions combined): the next cut point is
	// drawn uniformly from [N/2, 3N/2), so frames are severed at
	// arbitrary offsets, including mid-header. 0 never cuts.
	CutEveryBytes int

	// CorruptProb flips one random byte per Read chunk with this
	// probability — undetectable without frame checksums, which is
	// exactly what the rdma CRC feature exists to catch.
	CorruptProb float64

	// TruncateProb drops the tail of a Write with this probability and
	// cuts the connection — a torn frame on the peer.
	TruncateProb float64

	// Latency delays every Read call by Latency plus a uniform draw
	// from [0, Jitter). The delay is per call, not per frame: a peer that
	// reads through a buffer (the server and the pipelined client both
	// do) issues one Read per burst of frames the transport holds, so a
	// closed-loop caller pays it once per request and a deep pipeline
	// once per doorbell's worth of frames.
	Latency time.Duration
	Jitter  time.Duration

	// StallProb freezes a Read for Stall with this probability —
	// long enough to trip round-trip deadlines when Stall exceeds them.
	StallProb float64
	Stall     time.Duration

	// Bandwidth caps throughput at this many bytes per second, each
	// direction paced independently by a serialization-delay token
	// bucket — a fixed-capacity link, where fewer bytes on the wire
	// translate directly into wall-clock time saved. 0 never throttles.
	Bandwidth int

	// OnFault, when non-nil, is called once per injected fault (from
	// the goroutine doing the I/O; must be cheap and concurrency-safe).
	OnFault func(Kind)
}

func (c Config) active() bool {
	return c.CutEveryBytes > 0 || c.CorruptProb > 0 || c.TruncateProb > 0 ||
		c.Latency > 0 || c.StallProb > 0 || c.Bandwidth > 0
}

// ParseSpec parses a comma-separated chaos spec, e.g.
//
//	"cut=65536,corrupt=0.01,latency=200us,jitter=1ms,stall=50ms,stallp=0.001,trunc=0.002,seed=7"
//
// Keys: cut (bytes between disconnects), corrupt / trunc / stallp
// (probabilities), latency / jitter / stall (durations), seed (int).
// An empty spec returns the zero Config.
func ParseSpec(spec string) (Config, error) {
	var cfg Config
	if strings.TrimSpace(spec) == "" {
		return cfg, nil
	}
	for _, part := range strings.Split(spec, ",") {
		kv := strings.SplitN(strings.TrimSpace(part), "=", 2)
		if len(kv) != 2 {
			return cfg, fmt.Errorf("faultnet: bad spec element %q (want key=value)", part)
		}
		key, val := kv[0], kv[1]
		var err error
		switch key {
		case "cut":
			cfg.CutEveryBytes, err = strconv.Atoi(val)
		case "corrupt":
			cfg.CorruptProb, err = parseProb(val)
		case "trunc":
			cfg.TruncateProb, err = parseProb(val)
		case "stallp":
			cfg.StallProb, err = parseProb(val)
		case "latency":
			cfg.Latency, err = time.ParseDuration(val)
		case "jitter":
			cfg.Jitter, err = time.ParseDuration(val)
		case "stall":
			cfg.Stall, err = time.ParseDuration(val)
		case "bw":
			cfg.Bandwidth, err = strconv.Atoi(val)
		case "seed":
			cfg.Seed, err = strconv.ParseInt(val, 10, 64)
		default:
			return cfg, fmt.Errorf("faultnet: unknown spec key %q", key)
		}
		if err != nil {
			return cfg, fmt.Errorf("faultnet: spec %s=%s: %w", key, val, err)
		}
	}
	if cfg.StallProb > 0 && cfg.Stall == 0 {
		cfg.Stall = 50 * time.Millisecond
	}
	return cfg, nil
}

// parseProb parses a probability, rejecting non-finite values: a NaN
// fault probability compares unequal to itself and would poison every
// schedule decision made against it.
func parseProb(val string) (float64, error) {
	p, err := strconv.ParseFloat(val, 64)
	if err != nil {
		return 0, err
	}
	if math.IsNaN(p) || math.IsInf(p, 0) {
		return 0, fmt.Errorf("non-finite probability %q", val)
	}
	return p, nil
}

// Conn wraps an io.ReadWriteCloser with the fault schedule. Reads and
// writes may run concurrently (the pipelined client's reader and
// flusher do); the schedule state is guarded by one mutex that is never
// held across inner I/O. Deadline calls pass through when the inner
// connection supports them, so round-trip timeouts keep working under
// chaos.
type Conn struct {
	inner io.ReadWriteCloser
	cfg   Config

	mu        sync.Mutex
	rng       *rand.Rand
	untilCut  int64 // bytes until the next injected cut; 0 = cutting disabled
	cutArmed  bool
	wasCut    atomic.Bool
	closeOnce sync.Once

	// Per-direction pacing state for the Bandwidth throttle: the virtual
	// time at which each direction's last byte finishes serializing.
	readReady  time.Time
	writeReady time.Time
}

// Wrap applies the fault schedule to inner. A zero Config passes
// everything through untouched (but still via the wrapper).
func Wrap(inner io.ReadWriteCloser, cfg Config) *Conn {
	seed := cfg.Seed
	if seed == 0 {
		seed = 1
	}
	c := &Conn{inner: inner, cfg: cfg, rng: rand.New(rand.NewSource(seed))}
	if cfg.CutEveryBytes > 0 {
		c.cutArmed = true
		c.untilCut = c.nextCutLocked()
	}
	return c
}

// nextCutLocked draws the distance to the next cut point.
func (c *Conn) nextCutLocked() int64 {
	n := int64(c.cfg.CutEveryBytes)
	return n/2 + c.rng.Int63n(n)
}

// WasCut reports whether this connection died to an injected cut (as
// opposed to a real close).
func (c *Conn) WasCut() bool { return c.wasCut.Load() }

func (c *Conn) fault(k Kind) {
	if c.cfg.OnFault != nil {
		c.cfg.OnFault(k)
	}
}

// cut severs the connection as an injected fault.
func (c *Conn) cut() error {
	if c.wasCut.CompareAndSwap(false, true) {
		c.fault(KindCut)
	}
	c.Close()
	return ErrCut
}

// consume charges n bytes against the cut budget; it returns the number
// of bytes allowed through before the connection must be severed, and
// whether the cut fires now.
func (c *Conn) consume(n int) (allowed int, cutNow bool) {
	if !c.cutArmed {
		return n, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if int64(n) < c.untilCut {
		c.untilCut -= int64(n)
		return n, false
	}
	allowed = int(c.untilCut)
	c.untilCut = c.nextCutLocked()
	return allowed, true
}

func (c *Conn) Read(p []byte) (int, error) {
	if c.wasCut.Load() {
		return 0, ErrCut
	}
	if d := c.readDelay(); d > 0 {
		time.Sleep(d)
	}
	n, err := c.inner.Read(p)
	if n > 0 {
		c.throttle(&c.readReady, n)
		c.maybeCorrupt(p[:n])
		allowed, cutNow := c.consume(n)
		if cutNow {
			// Sever mid-chunk: deliver only the bytes before the cut
			// point so partially-read frames are torn, then close.
			cerr := c.cut()
			if allowed > 0 {
				return allowed, nil // error surfaces on the next Read
			}
			return 0, cerr
		}
	}
	if err != nil && c.wasCut.Load() {
		err = ErrCut
	}
	return n, err
}

// readDelay draws this Read's injected latency (zero when none).
func (c *Conn) readDelay() time.Duration {
	if c.cfg.Latency == 0 && c.cfg.StallProb == 0 {
		return 0
	}
	c.mu.Lock()
	d := c.cfg.Latency
	if c.cfg.Jitter > 0 {
		d += time.Duration(c.rng.Int63n(int64(c.cfg.Jitter)))
	}
	stalled := c.cfg.StallProb > 0 && c.rng.Float64() < c.cfg.StallProb
	c.mu.Unlock()
	if stalled {
		c.fault(KindStall)
		d += c.cfg.Stall
	}
	return d
}

// bwGranule is the smallest serialization debt the throttle sleeps
// for: time.Sleep overshoots by tens of microseconds per call, so
// paying the debt one tiny chunk at a time would throttle far below
// the configured rate. Debt accumulates until it is worth one sleep,
// bounding bursts at a few granules.
const bwGranule = 2 * time.Millisecond

// throttle charges n bytes of serialization delay against one
// direction's pacing clock and sleeps once the accumulated debt
// crosses the granule.
func (c *Conn) throttle(ready *time.Time, n int) {
	if c.cfg.Bandwidth <= 0 || n <= 0 {
		return
	}
	d := time.Duration(int64(n) * int64(time.Second) / int64(c.cfg.Bandwidth))
	c.mu.Lock()
	now := time.Now()
	if ready.Before(now) {
		*ready = now
	}
	*ready = ready.Add(d)
	wait := ready.Sub(now)
	c.mu.Unlock()
	if wait >= bwGranule {
		time.Sleep(wait)
	}
}

// maybeCorrupt flips one byte of the chunk with CorruptProb.
func (c *Conn) maybeCorrupt(p []byte) {
	if c.cfg.CorruptProb == 0 || len(p) == 0 {
		return
	}
	c.mu.Lock()
	hit := c.rng.Float64() < c.cfg.CorruptProb
	var pos int
	var bit byte
	if hit {
		pos = c.rng.Intn(len(p))
		bit = 1 << c.rng.Intn(8)
	}
	c.mu.Unlock()
	if hit {
		p[pos] ^= bit
		c.fault(KindCorrupt)
	}
}

func (c *Conn) Write(p []byte) (int, error) {
	if c.wasCut.Load() {
		return 0, ErrCut
	}
	if c.cfg.TruncateProb > 0 {
		c.mu.Lock()
		trunc := c.rng.Float64() < c.cfg.TruncateProb
		c.mu.Unlock()
		if trunc && len(p) > 1 {
			c.fault(KindTruncate)
			n, _ := c.inner.Write(p[:len(p)/2])
			return n, c.cut()
		}
	}
	allowed, cutNow := c.consume(len(p))
	if cutNow {
		var n int
		if allowed > 0 {
			n, _ = c.inner.Write(p[:allowed])
		}
		return n, c.cut()
	}
	// Corrupt a private copy: the caller's buffer must never be mutated.
	if c.cfg.CorruptProb > 0 {
		c.mu.Lock()
		hit := c.rng.Float64() < c.cfg.CorruptProb
		var pos int
		var bit byte
		if hit && len(p) > 0 {
			pos = c.rng.Intn(len(p))
			bit = 1 << c.rng.Intn(8)
		}
		c.mu.Unlock()
		if hit && len(p) > 0 {
			cp := make([]byte, len(p))
			copy(cp, p)
			cp[pos] ^= bit
			c.fault(KindCorrupt)
			n, err := c.inner.Write(cp)
			if err != nil && c.wasCut.Load() {
				err = ErrCut
			}
			return n, err
		}
	}
	c.throttle(&c.writeReady, len(p))
	n, err := c.inner.Write(p)
	if err != nil && c.wasCut.Load() {
		err = ErrCut
	}
	return n, err
}

// Close closes the inner connection (idempotent).
func (c *Conn) Close() error {
	var err error
	c.closeOnce.Do(func() { err = c.inner.Close() })
	return err
}

// Deadline passthrough: the remote clients' round-trip timeouts use
// SetReadDeadline when the transport offers it, so the wrapper forwards
// the calls to a net.Conn underneath.

type deadliner interface {
	SetDeadline(time.Time) error
	SetReadDeadline(time.Time) error
	SetWriteDeadline(time.Time) error
}

// SetDeadline implements the net.Conn deadline surface when the inner
// connection does.
func (c *Conn) SetDeadline(t time.Time) error {
	if d, ok := c.inner.(deadliner); ok {
		return d.SetDeadline(t)
	}
	return errors.New("faultnet: inner connection has no deadlines")
}

// SetReadDeadline forwards to the inner connection.
func (c *Conn) SetReadDeadline(t time.Time) error {
	if d, ok := c.inner.(deadliner); ok {
		return d.SetReadDeadline(t)
	}
	return errors.New("faultnet: inner connection has no deadlines")
}

// SetWriteDeadline forwards to the inner connection.
func (c *Conn) SetWriteDeadline(t time.Time) error {
	if d, ok := c.inner.(deadliner); ok {
		return d.SetWriteDeadline(t)
	}
	return errors.New("faultnet: inner connection has no deadlines")
}

// Proxy is a chaos TCP proxy: it accepts connections, dials the target
// for each, and pipes bytes through a fault-injecting wrapper. Clients
// that reconnect after an injected cut get a fresh backend connection
// with a fresh (seed-derived) fault stream, so a redial loop faces an
// endless supply of scheduled faults.
type Proxy struct {
	cfg    Config
	target string
	ln     net.Listener
	wg     sync.WaitGroup
	closed atomic.Bool

	mu    sync.Mutex
	conns map[net.Conn]struct{}

	accepted atomic.Int64
	cuts     atomic.Int64
	corrupts atomic.Int64
	stalls   atomic.Int64
}

// NewProxy listens on listenAddr (e.g. "127.0.0.1:0") and forwards to
// target through the fault schedule.
func NewProxy(listenAddr, target string, cfg Config) (*Proxy, error) {
	ln, err := net.Listen("tcp", listenAddr)
	if err != nil {
		return nil, fmt.Errorf("faultnet: proxy listen: %w", err)
	}
	p := &Proxy{cfg: cfg, target: target, ln: ln, conns: make(map[net.Conn]struct{})}
	p.wg.Add(1)
	go p.acceptLoop()
	return p, nil
}

// Addr returns the proxy's listen address — the address chaos-tested
// clients dial.
func (p *Proxy) Addr() string { return p.ln.Addr().String() }

// Conns returns the number of connections accepted so far.
func (p *Proxy) Conns() int64 { return p.accepted.Load() }

// Cuts returns the number of injected disconnects.
func (p *Proxy) Cuts() int64 { return p.cuts.Load() }

// Corruptions returns the number of injected byte corruptions.
func (p *Proxy) Corruptions() int64 { return p.corrupts.Load() }

// Stalls returns the number of injected read stalls.
func (p *Proxy) Stalls() int64 { return p.stalls.Load() }

func (p *Proxy) acceptLoop() {
	defer p.wg.Done()
	for {
		conn, err := p.ln.Accept()
		if err != nil {
			return
		}
		idx := p.accepted.Add(1)
		p.wg.Add(1)
		go p.serve(conn, idx)
	}
}

func (p *Proxy) track(c net.Conn) func() {
	p.mu.Lock()
	p.conns[c] = struct{}{}
	p.mu.Unlock()
	return func() {
		p.mu.Lock()
		delete(p.conns, c)
		p.mu.Unlock()
	}
}

func (p *Proxy) serve(client net.Conn, idx int64) {
	defer p.wg.Done()
	defer client.Close()
	backend, err := net.Dial("tcp", p.target)
	if err != nil {
		return
	}
	defer backend.Close()
	untrackC := p.track(client)
	defer untrackC()
	untrackB := p.track(backend)
	defer untrackB()

	// Each proxied connection gets its own deterministic fault stream:
	// the base seed shifted by the connection index.
	cfg := p.cfg
	cfg.Seed = p.cfg.Seed + idx*0x9E3779B9
	cfg.OnFault = func(k Kind) {
		switch k {
		case KindCut, KindTruncate:
			p.cuts.Add(1)
		case KindCorrupt:
			p.corrupts.Add(1)
		case KindStall:
			p.stalls.Add(1)
		}
		if p.cfg.OnFault != nil {
			p.cfg.OnFault(k)
		}
	}
	chaos := Wrap(client, cfg)

	// Bidirectional pipe; either direction dying (injected or real)
	// tears down both so the peer sees a clean disconnect.
	done := make(chan struct{}, 2)
	go func() {
		io.Copy(backend, chaos) // client -> backend (through chaos reads)
		backend.Close()
		chaos.Close()
		done <- struct{}{}
	}()
	io.Copy(chaos, backend) // backend -> client (through chaos writes)
	chaos.Close()
	backend.Close()
	<-done
}

// Close stops the proxy and severs every live proxied connection.
func (p *Proxy) Close() error {
	if !p.closed.CompareAndSwap(false, true) {
		return nil
	}
	err := p.ln.Close()
	p.mu.Lock()
	for c := range p.conns {
		c.Close()
	}
	p.mu.Unlock()
	p.wg.Wait()
	return err
}
