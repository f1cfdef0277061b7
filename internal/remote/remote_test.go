package remote

import (
	"bytes"
	"net"
	"sync"
	"testing"

	"cards/internal/core"
	"cards/internal/farmem"
	"cards/internal/ir"
	"cards/internal/policy"
	"cards/internal/workloads"
)

func startServer(t *testing.T) (*Server, *PipelinedClient) {
	t.Helper()
	return startPipelined(t, PipelineOpts{})
}

func TestPing(t *testing.T) {
	_, cl := startServer(t)
	if err := cl.Ping(); err != nil {
		t.Fatal(err)
	}
}

func TestReadWriteObjects(t *testing.T) {
	srv, cl := startServer(t)
	data := []byte("0123456789abcdef")
	if err := cl.WriteObj(2, 5, data); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, len(data))
	if err := cl.ReadObj(2, 5, buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, data) {
		t.Fatalf("roundtrip = %q", buf)
	}
	// Absent object reads as zeros.
	zeros := make([]byte, 8)
	if err := cl.ReadObj(9, 9, zeros); err != nil {
		t.Fatal(err)
	}
	for _, b := range zeros {
		if b != 0 {
			t.Fatal("absent object should read zero")
		}
	}
	r, w := srv.Counts()
	if r != 2 || w != 1 {
		t.Fatalf("counts = %d/%d", r, w)
	}
	if srv.Store.Len() != 1 {
		t.Fatalf("store len = %d", srv.Store.Len())
	}
}

func TestShortReadBuffer(t *testing.T) {
	_, cl := startServer(t)
	cl.WriteObj(0, 0, []byte{1, 2, 3, 4, 5, 6, 7, 8})
	buf := make([]byte, 4)
	if err := cl.ReadObj(0, 0, buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, []byte{1, 2, 3, 4}) {
		t.Fatalf("short read = %v", buf)
	}
}

func TestConcurrentClients(t *testing.T) {
	srv, _ := startServer(t)
	addr := srv.ln.Addr().String()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			cl, err := DialPipelined(addr, PipelineOpts{})
			if err != nil {
				t.Error(err)
				return
			}
			defer cl.Close()
			for i := 0; i < 50; i++ {
				data := []byte{byte(g), byte(i)}
				if err := cl.WriteObj(g, i, data); err != nil {
					t.Error(err)
					return
				}
				buf := make([]byte, 2)
				if err := cl.ReadObj(g, i, buf); err != nil {
					t.Error(err)
					return
				}
				if buf[0] != byte(g) || buf[1] != byte(i) {
					t.Errorf("corrupt readback %v", buf)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if srv.Store.Len() != 8*50 {
		t.Fatalf("store len = %d, want 400", srv.Store.Len())
	}
}

func TestPipeTransport(t *testing.T) {
	srv := NewServer()
	c1, c2 := net.Pipe()
	go srv.ServeConn(c1)
	cl, err := NewPipelined(c2, PipelineOpts{})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if err := cl.WriteObj(1, 1, []byte{42}); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 1)
	if err := cl.ReadObj(1, 1, buf); err != nil {
		t.Fatal(err)
	}
	if buf[0] != 42 {
		t.Fatalf("readback = %d", buf[0])
	}
}

// TestRuntimeOverTCP is the integration test: a compiled Listing 1 runs
// with the remote tier on a real TCP server — the two-machine setup of
// the paper, on loopback.
func TestRuntimeOverTCP(t *testing.T) {
	srv, cl := startServer(t)

	// Fill-then-sum: the sum pass re-reads objects the fill pass dirtied
	// and evicted, forcing real READ and WRITE traffic on the wire.
	m := ir.NewModule("fillsum")
	n := int64(8192) // 64 KiB over an 8-object (32 KiB) cache
	f := m.NewFunc("main", ir.Void())
	b := ir.NewBuilder(f)
	arr := b.Alloc(ir.I64(), ir.CI(n))
	fill := b.CountedLoop("f", ir.CI(0), ir.CI(n), ir.CI(1))
	b.Store(ir.I64(), fill.IV, b.Idx(arr, fill.IV))
	b.CloseLoop(fill)
	acc := f.NewReg("acc", ir.I64())
	b.Assign(acc, ir.CI(0))
	sum := b.CountedLoop("s", ir.CI(0), ir.CI(n), ir.CI(1))
	b.Assign(acc, b.Add(acc, b.Load(ir.I64(), b.Idx(arr, sum.IV))))
	b.CloseLoop(sum)
	b.Ret(nil)
	m.AssignSites()
	ir.MustVerify(m)

	c, err := core.Compile(m, core.CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Run(core.RunConfig{
		Policy:          policy.AllRemotable,
		PinnedBudget:    0,
		RemotableBudget: 8 * 4096, // force heavy eviction traffic
		Store:           cl,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Runtime.RemoteFetches+res.TotalPrefetchHits() == 0 {
		t.Fatal("no remote traffic over TCP (neither demand fetches nor prefetch hits)")
	}
	reads, writes := srv.Counts()
	if reads == 0 || writes == 0 {
		t.Fatalf("server saw reads=%d writes=%d", reads, writes)
	}
	if srv.Store.Len() == 0 {
		t.Fatal("server store empty after eviction traffic")
	}
	t.Logf("TCP run: %d fetches, server reads=%d writes=%d objects=%d",
		res.Runtime.RemoteFetches, reads, writes, srv.Store.Len())
	var _ farmem.Store = cl // interface check
}

func TestServerCloseIdempotent(t *testing.T) {
	srv := NewServer()
	if _, err := srv.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestWorkloadsOverTCP runs real benchmark programs with the far tier on
// a TCP server: compiled BFS and analytics execute with heavy eviction
// against the wire protocol and must produce the same checksums as the
// in-process store.
func TestWorkloadsOverTCP(t *testing.T) {
	builds := map[string]func() *ir.Module{
		"bfs": func() *ir.Module {
			return workloads.BuildBFS(workloads.BFSConfig{
				Vertices: 256, Degree: 4, Trials: 1, Seed: 11}).Module
		},
		"analytics": func() *ir.Module {
			return workloads.BuildTaxi(workloads.TaxiConfig{
				Trips: 512, HotPasses: 2, Seed: 11}).Module
		},
	}
	for name, build := range builds {
		t.Run(name, func(t *testing.T) {
			run := func(store farmem.Store) uint64 {
				c, err := core.Compile(build(), core.CompileOptions{})
				if err != nil {
					t.Fatal(err)
				}
				res, err := c.Run(core.RunConfig{
					Policy:          policy.AllRemotable,
					PinnedBudget:    0,
					RemotableBudget: 8 * 4096, // tiny cache: force wire traffic
					Store:           store,
				})
				if err != nil {
					t.Fatal(err)
				}
				return res.MainResult
			}
			want := run(nil) // in-process store

			srv, cl := startServer(t)
			got := run(cl)
			if got != want {
				t.Fatalf("TCP checksum %#x != in-process %#x", got, want)
			}
			reads, writes := srv.Counts()
			if reads == 0 || writes == 0 {
				t.Fatalf("no wire traffic: reads=%d writes=%d", reads, writes)
			}
		})
	}
}
