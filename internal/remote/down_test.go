package remote

import (
	"bytes"
	"errors"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cards/internal/testutil"
)

// outageListener is a counting listener in front of a replaceable
// Server: every connection a client opens is counted, then served by
// the current server or, while there is none, closed at once. hold
// makes the live connections swallow what the client sends next, so a
// test can park ops in flight and then kill the server under them.
type outageListener struct {
	ln    net.Listener
	dials atomic.Int32

	mu    sync.Mutex
	srv   *Server       // nil: the server is dead
	held  chan struct{} // non-nil: requests are held back from srv
	conns []net.Conn
	wg    sync.WaitGroup
}

type heldConn struct {
	net.Conn
	l *outageListener
}

func (c heldConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.l.mu.Lock()
	held := c.l.held
	c.l.mu.Unlock()
	if held != nil && n > 0 {
		<-held // closed by kill, after the connection
		return 0, net.ErrClosed
	}
	return n, err
}

func newOutageListener(t *testing.T) *outageListener {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	l := &outageListener{ln: ln}
	accepting := make(chan struct{})
	go func() {
		defer close(accepting)
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			l.dials.Add(1)
			l.mu.Lock()
			srv := l.srv
			if srv != nil {
				l.conns = append(l.conns, conn)
				l.wg.Add(1)
			}
			l.mu.Unlock()
			if srv == nil {
				conn.Close()
				continue
			}
			go func() {
				defer l.wg.Done()
				srv.ServeConn(heldConn{conn, l})
			}()
		}
	}()
	t.Cleanup(func() {
		l.kill()
		ln.Close()
		<-accepting
	})
	return l
}

// start brings a server up behind the listener.
func (l *outageListener) start(srv *Server) {
	l.mu.Lock()
	l.srv = srv
	l.mu.Unlock()
}

// hold parks everything the client sends from now on.
func (l *outageListener) hold() {
	l.mu.Lock()
	l.held = make(chan struct{})
	l.mu.Unlock()
}

// kill takes the server down: its connections are cut, requests it was
// holding are never seen, and later dials are refused.
func (l *outageListener) kill() {
	l.mu.Lock()
	conns, held := l.conns, l.held
	l.srv, l.conns, l.held = nil, nil, nil
	l.mu.Unlock()
	for _, c := range conns {
		c.Close()
	}
	if held != nil {
		close(held)
	}
	l.wg.Wait()
}

// TestClientGoesDownAndResumes pins the whole outage contract at the
// transport, twenty outages in a row on one client: reads in flight
// when the server dies fail only once the redial budget is spent,
// writes in flight surface ErrUncertainWrite, the client then is down —
// not dead — and every later op costs exactly one dial, and after a
// restart on the same address the next Ping resumes the session and a
// write queued beside it, which never reached the wire, is sent once.
func TestClientGoesDownAndResumes(t *testing.T) {
	testutil.NoGoroutineLeaks(t)
	const retryMax, nReads, nWrites = 3, 4, 2

	l := newOutageListener(t)
	store := NewObjectStore()
	serve := func() *Server {
		srv := NewServer()
		srv.Store = store
		l.start(srv)
		return srv
	}
	serve()
	cl, err := DialPipelined(l.ln.Addr().String(), PipelineOpts{
		Timeout:   2 * time.Second,
		RetryMax:  retryMax,
		RetryBase: time.Millisecond,
		RetryCap:  2 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	dials := l.dials.Load()
	spent := func(what string, want int32) {
		t.Helper()
		if n := l.dials.Load() - dials; n != want {
			t.Fatalf("%s cost %d dials, want %d", what, n, want)
		}
		dials += want
	}

	for cycle := 0; cycle < 20; cycle++ {
		payload := bytes.Repeat([]byte{byte(cycle + 1)}, 64)

		// Park reads and writes on the wire, then kill the server.
		l.hold()
		rerr := make(chan error, nReads)
		werr := make(chan error, nWrites)
		for i := 0; i < nReads; i++ {
			cl.IssueRead(1, i, make([]byte, 64), func(err error) { rerr <- err })
		}
		for i := 0; i < nWrites; i++ {
			cl.IssueWrite(2, i, payload, func(err error) { werr <- err })
		}
		for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
			cl.mu.Lock()
			r, w := cl.inflight, cl.inflightW
			cl.mu.Unlock()
			if r == nReads && w == nWrites {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("cycle %d: %d reads and %d writes in flight, want %d and %d", cycle, r, w, nReads, nWrites)
			}
		}
		l.kill()
		for i := 0; i < nWrites; i++ {
			if err := <-werr; !errors.Is(err, ErrUncertainWrite) {
				t.Fatalf("cycle %d: in-flight write = %v, want ErrUncertainWrite", cycle, err)
			}
		}
		for i := 0; i < nReads; i++ {
			if err := <-rerr; err == nil || errors.Is(err, ErrUncertainWrite) {
				t.Fatalf("cycle %d: in-flight read = %v, want the reconnect failure", cycle, err)
			}
		}
		spent("the reconnect budget", retryMax)
		if cl.ChaseCapable() {
			t.Fatalf("cycle %d: a down client offers traversal offload", cycle)
		}

		// Down: each op buys one dial and fails on it. A write that fails
		// this way never left the client, so its outcome is certain.
		if err := cl.ReadObj(1, 0, make([]byte, 64)); err == nil {
			t.Fatalf("cycle %d: read against a dead server succeeded", cycle)
		}
		spent("a read on a down client", 1)
		if err := cl.WriteObj(2, 0, payload); err == nil || errors.Is(err, ErrUncertainWrite) {
			t.Fatalf("cycle %d: write on a down client = %v, want a certain failure", cycle, err)
		}
		spent("a write on a down client", 1)
		if err := cl.Ping(); err == nil {
			t.Fatalf("cycle %d: ping against a dead server succeeded", cycle)
		}
		spent("a ping on a down client", 1)

		// Restart. The write is queued first, so it rides the Ping's dial.
		srv := serve()
		cl.IssueWrite(3, cycle, payload, func(err error) { werr <- err })
		if err := cl.Ping(); err != nil {
			t.Fatalf("cycle %d: ping after the restart = %v", cycle, err)
		}
		if err := <-werr; err != nil {
			t.Fatalf("cycle %d: write queued across the resume = %v", cycle, err)
		}
		spent("the resume", 1)
		if _, writes := srv.Counts(); writes != 1 {
			t.Fatalf("cycle %d: the queued write reached the server %d times, want 1", cycle, writes)
		}
		got := make([]byte, 64)
		if err := cl.ReadObj(3, cycle, got); err != nil || !bytes.Equal(got, payload) {
			t.Fatalf("cycle %d: read back %x, %v", cycle, got[:4], err)
		}
		spent("a read on the resumed session", 0)
	}
}
