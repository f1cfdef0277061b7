package remote

import "sync"

// Resilient is a StoreConn that survives outages longer than the
// underlying client's reconnect budget. The PipelinedClient replays its
// window across transient cuts, but once RetryMax consecutive redials
// fail (server down, not flaky) it fails permanently — the right
// behavior for the transport, since blocking ops during an unbounded
// outage would wedge the runtime instead of letting its circuit breaker
// degrade. Resilient adds the missing half: after a permanent client
// failure, the next operation (typically the breaker's Ping probe)
// dials a replacement client, so a restarted server resumes service
// without the process restarting.
//
// Each replacement dial is a single attempt that fails fast; pacing
// retries across the outage is the caller's job (the farmem breaker
// probes on its own clock).
//
// Every method has one shape: take the live client, forward, and retire
// the client if the operation failed because it died.
type Resilient struct {
	addr string
	opts PipelineOpts

	mu     sync.Mutex
	cur    *PipelinedClient
	closed bool
}

// DialResilient connects like DialPipelined (the initial dial uses the
// config's full retry budget) and keeps the connection replaceable
// across permanent client failures.
func DialResilient(addr string, cfg DialConfig) (*Resilient, error) {
	opts := cfg.pipelineOpts()
	c, err := DialPipelined(addr, opts)
	if err != nil {
		return nil, err
	}
	return &Resilient{addr: addr, opts: opts, cur: c}, nil
}

// client returns the live client, dialing a replacement if the previous
// one was retired.
func (r *Resilient) client() (*PipelinedClient, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return nil, ErrClientClosed
	}
	if r.cur != nil {
		return r.cur, nil
	}
	c, err := dialOnce(r.addr, r.opts)
	if err != nil {
		return nil, err
	}
	r.cur = c
	return c, nil
}

// clientOr is client for the async methods: a dial failure completes
// done and yields nil.
func (r *Resilient) clientOr(done func(error)) *PipelinedClient {
	c, err := r.client()
	if err != nil {
		done(err)
		return nil
	}
	return c
}

// retireOn drops c after an operation on it returned err, if c can no
// longer serve: its reconnect budget is spent. Any other error (a
// server-level rejection, a stale range base) came from a healthy
// session and leaves the client in place.
func (r *Resilient) retireOn(c *PipelinedClient, err error) {
	if err == nil || c.Alive() {
		return
	}
	r.mu.Lock()
	if r.cur == c {
		r.cur = nil
	}
	r.mu.Unlock()
	// The client has already failed permanently: its connection is closed
	// and its loops are exiting, so Close only waits for them. That wait
	// must not run inline — retireOn is reached from async completion
	// callbacks that fail() invokes on the dying client's own reader
	// goroutine, where a synchronous Close would wait on itself.
	go c.Close()
}

// retiring wraps an async completion so a failure retires c first: the
// caller's reissue then finds a fresh connection.
func (r *Resilient) retiring(c *PipelinedClient, done func(error)) func(error) {
	return func(err error) {
		r.retireOn(c, err)
		done(err)
	}
}

func (r *Resilient) do(op func(*PipelinedClient) error) error {
	c, err := r.client()
	if err != nil {
		return err
	}
	err = op(c)
	r.retireOn(c, err)
	return err
}

// ReadObj implements StoreConn.
func (r *Resilient) ReadObj(ds, idx int, dst []byte) error {
	return r.do(func(c *PipelinedClient) error { return c.ReadObj(ds, idx, dst) })
}

// WriteObj implements StoreConn.
func (r *Resilient) WriteObj(ds, idx int, src []byte) error {
	return r.do(func(c *PipelinedClient) error { return c.WriteObj(ds, idx, src) })
}

// Ping implements StoreConn; it is the usual path that detects a
// recovered server and triggers the replacement dial.
func (r *Resilient) Ping() error {
	return r.do((*PipelinedClient).Ping)
}

// IssueRead implements farmem.AsyncStore.
func (r *Resilient) IssueRead(ds, idx int, dst []byte, done func(error)) {
	if c := r.clientOr(done); c != nil {
		c.IssueRead(ds, idx, dst, r.retiring(c, done))
	}
}

// IssueWrite implements farmem.AsyncWriteStore.
func (r *Resilient) IssueWrite(ds, idx int, src []byte, done func(error)) {
	if c := r.clientOr(done); c != nil {
		c.IssueWrite(ds, idx, src, r.retiring(c, done))
	}
}

// Close implements StoreConn.
func (r *Resilient) Close() error {
	r.mu.Lock()
	c := r.cur
	r.cur = nil
	r.closed = true
	r.mu.Unlock()
	if c != nil {
		return c.Close()
	}
	return nil
}
