package remote

import (
	"fmt"
	"net"
	"sync"
	"testing"
)

const benchObjSize = 4096

func benchServerTCP(b *testing.B) string {
	b.Helper()
	srv := NewServer()
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { srv.Close() })
	srv.Store.Write(0, 0, make([]byte, benchObjSize))
	return addr
}

func benchPipelinedRead(b *testing.B, cl *PipelinedClient) {
	b.Helper()
	dsts := make([][]byte, 64)
	for i := range dsts {
		dsts[i] = make([]byte, benchObjSize)
	}
	var wg sync.WaitGroup
	wg.Add(b.N)
	b.SetBytes(benchObjSize)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cl.IssueRead(0, 0, dsts[i%len(dsts)], func(err error) {
			if err != nil {
				b.Error(err)
			}
			wg.Done()
		})
	}
	wg.Wait()
}

func BenchmarkPipelinedReadTCP(b *testing.B) {
	for _, depth := range []int{1, 8, 32} {
		b.Run(fmt.Sprintf("depth%d", depth), func(b *testing.B) {
			addr := benchServerTCP(b)
			cl, err := DialPipelined(addr, PipelineOpts{Window: depth})
			if err != nil {
				b.Fatal(err)
			}
			defer cl.Close()
			benchPipelinedRead(b, cl)
		})
	}
}

func BenchmarkPipelinedReadPipe(b *testing.B) {
	for _, depth := range []int{1, 8, 32} {
		b.Run(fmt.Sprintf("depth%d", depth), func(b *testing.B) {
			srv := NewServer()
			srv.Store.Write(0, 0, make([]byte, benchObjSize))
			c1, c2 := net.Pipe()
			go srv.ServeConn(c1)
			cl, err := NewPipelined(c2, PipelineOpts{Window: depth})
			if err != nil {
				b.Fatal(err)
			}
			defer cl.Close()
			benchPipelinedRead(b, cl)
		})
	}
}
