package remote

import (
	"bytes"
	"encoding/hex"
	"errors"
	"io"
	"net"
	"runtime"
	"testing"
	"time"

	"cards/internal/rdma"
	"cards/internal/testutil"
)

// FuzzServeConn feeds arbitrary bytes to a live Server.ServeConn over
// net.Pipe and hangs up. Whatever arrives, the server must:
//
//   - return (no wedged read loop, no worker left behind — the goroutine
//     count settles back), and never panic;
//   - answer with a well-formed stream: a plain-framed OK or ERR first,
//     then CRC-framed replies under the framing the hello asked for, each
//     within rdma.MaxFrame — the frame reader on this end rejects
//     anything oversized or with a bad trailer, so the only errors the
//     stream may end in are those of the hang-up itself;
//   - keep a refused connection away from the store.
func FuzzServeConn(f *testing.F) {
	stream := func(hello rdma.Frame, frames ...rdma.Frame) []byte {
		var b bytes.Buffer
		rdma.WriteFrame(&b, hello)
		for _, fr := range frames {
			rdma.WriteFrameCRC(&b, fr)
		}
		return b.Bytes()
	}
	hello := func(opts uint16) rdma.Frame {
		return rdma.HelloFrame(rdma.OpHello, rdma.Hello{Version: rdma.ProtoVersion, Opts: opts})
	}
	// retired builds a frame on an opcode older protocol versions used:
	// the server must answer it with ERRTAG and never decode it.
	retired := func(op rdma.Op, tag uint32, payloadHex string) rdma.Frame {
		p, err := hex.DecodeString(payloadHex)
		if err != nil {
			f.Fatal(err)
		}
		return rdma.Frame{Op: rdma.TagBit | op, Tag: tag, Payload: p}
	}
	reads := []rdma.ReadReq{{DS: 1, Idx: 0, Size: 64}, {DS: 1, Idx: 1, Size: 64}}
	fixedReads := func(op rdma.Op, tag uint32) rdma.Frame { // READBATCH / READEPOCHBATCH
		fr := rdma.EncodeReadBatchPooled(tag, reads)
		fr.Op = rdma.TagBit | op
		return fr
	}
	wb := retired(0x06, 2, "0100000001000000000000001000000066757a7a2073656564206f626a656374") // WRITEBATCH
	web := retired(0x08, 3, "0100000001000000010000000400000000000000070000007374616d706564")  // WRITEEPOCHBATCH
	cw := []rdma.WriteReqC{
		{DS: 1, Idx: 2, Epoch: 1, Scheme: rdma.SchemeZero, RawLen: 128},
		{DS: 1, Idx: 0, Epoch: 5, ObjSize: 64, Scheme: rdma.SchemeRaw, RawLen: 4,
			Extents: []rdma.Extent{{Off: 8, Len: 4}}, Data: []byte{1, 2, 3, 4}},
	}
	wbc, _ := rdma.EncodeWriteBatchCPooled(7, cw, false)
	webc, _ := rdma.EncodeWriteBatchCPooled(8, cw, true)
	webcOld := webc
	webcOld.Op = rdma.TagBit | 0x10 // WRITEEPOCHBATCH-C
	// One frame of every verb a version-2 server served — the retired
	// ones now on reserved opcodes — on a plain session…
	f.Add(stream(hello(0),
		wb, web, fixedReads(0x01, 1), fixedReads(0x09, 4),
		rdma.EncodeChaseBatchPooled(5, []rdma.ChaseReq{{DS: 1, Start: 0, ObjSize: 64, NextOff: 8, Hops: 4}}),
		rdma.EncodeReadBatchCPooled(6, reads), wbc, webcOld,
		rdma.Frame{Op: rdma.OpErrTag, Tag: 9}, // a reply opcode sent as a request
		hello(0),                              // and a second hello
	))
	// …and a compressing one.
	f.Add(stream(hello(rdma.OptCompress), wbc, rdma.EncodeReadBatchCPooled(6, reads)))
	// A traced session: frames carry the trace block, and the same frame
	// without one misparses.
	traced := rdma.EncodeReadBatchCPooled(1, reads)
	traced.SetTraceCtx(0xABCD, 0x1234, true)
	f.Add(stream(hello(rdma.OptTrace), traced, rdma.EncodeReadBatchCPooled(2, reads)))
	// An old 4-byte feature PING, a truncated hello, a hello with a bad
	// CRC, a hello from the future, and a data verb with no hello at all.
	f.Add(stream(rdma.Frame{Op: rdma.OpHello, Payload: []byte{0xFF, 0, 0, 0}}))
	f.Add(stream(hello(0))[:9])
	bad := stream(hello(0))
	bad[len(bad)-1] ^= 0x40
	f.Add(bad)
	f.Add(stream(rdma.HelloFrame(rdma.OpHello, rdma.Hello{Version: rdma.ProtoVersion + 1})))
	f.Add(stream(rdma.EncodeReadBatchCPooled(1, reads)))
	f.Add([]byte{})
	// The epoch modifier (past seed#8, so the numbering above stands): a
	// stamped write and range write, a stamped read of what they stored
	// plus a zero-length probe, a stamped range write whose extent lies
	// outside its object, and the modifier on verbs it does not apply to.
	stampedReads := rdma.EncodeReadBatchCPooled(10, append(reads[:2:2], rdma.ReadReq{DS: 1, Idx: 2, Size: 0}))
	stampedReads.Op |= rdma.EpochBit
	forged, _ := rdma.EncodeWriteBatchCPooled(11, []rdma.WriteReqC{{
		DS: 1, Idx: 0, Epoch: 6, ObjSize: 32, Scheme: rdma.SchemeRaw, RawLen: 16,
		Extents: []rdma.Extent{{Off: 24, Len: 16}}, Data: make([]byte, 16),
	}}, true)
	chase := rdma.EncodeChaseBatchPooled(12, []rdma.ChaseReq{{DS: 1, Start: 0, ObjSize: 64, NextOff: 8, Hops: 4}})
	chase.Op |= rdma.EpochBit
	f.Add(stream(hello(rdma.OptCompress), webc, stampedReads, forged, chase,
		rdma.Frame{Op: rdma.OpAckBatchC | rdma.EpochBit, Tag: 13}))
	// Lane-packed words: a 64-byte object of one small word as a full
	// tuple, a read that is served the stored block, a chase hop that
	// expands it, and a tuple whose bitmap promises a word the block does
	// not hold.
	words := func(tag uint32, block ...byte) rdma.Frame {
		fr, _ := rdma.EncodeWriteBatchCPooled(tag, []rdma.WriteReqC{{DS: 1, Idx: 0, Scheme: rdma.SchemeWords, RawLen: 64, Data: block}}, false)
		return fr
	}
	f.Add(stream(hello(rdma.OptCompress), words(14, 0, 2, 0x02, 0x34, 0x12), rdma.EncodeReadBatchCPooled(15, reads),
		rdma.EncodeChaseBatchPooled(16, []rdma.ChaseReq{{DS: 1, Start: 0, ObjSize: 64, NextOff: 8, Hops: 4}}),
		words(17, 0, 2, 0x03, 0x34, 0x12)))

	f.Fuzz(func(t *testing.T, data []byte) {
		before := runtime.NumGoroutine()
		srv := NewServer()
		c1, c2 := net.Pipe()
		served := make(chan struct{})
		go func() { defer close(served); srv.ServeConn(c1) }()

		replies := make(chan error, 1)
		go func() { replies <- readReplies(c2) }()
		c2.Write(data) // fails midway if the server refused and hung up: fine
		c2.Close()
		select {
		case <-served:
		case <-time.After(20 * time.Second):
			t.Fatal("ServeConn did not return after the client hung up")
		}
		if err := <-replies; err != nil {
			t.Fatalf("server's reply stream is malformed: %v", err)
		}
		if h, err := firstHello(data); err != nil || !h.Valid() {
			if r, w := srv.Counts(); r != 0 || w != 0 || srv.Store.Len() != 0 {
				t.Fatalf("a connection without a valid hello reached the store: reads=%d writes=%d objects=%d",
					r, w, srv.Store.Len())
			}
		}
		testutil.CheckGoroutines(t, before)
	})
}

// firstHello decodes the hello a byte stream opens with.
func firstHello(data []byte) (rdma.Hello, error) {
	f, err := rdma.ReadFrame(bytes.NewReader(data))
	if err != nil {
		return rdma.Hello{}, err
	}
	if f.Op != rdma.OpHello || len(f.Payload) != rdma.HelloSize {
		return rdma.Hello{}, rdma.ErrHelloCheck
	}
	return rdma.DecodeHello(f.Payload)
}

// readReplies parses everything the server sends until the connection
// ends. It returns nil when the stream was well-formed up to the hang-up
// and the framing violation otherwise.
func readReplies(conn net.Conn) error {
	hungUp := func(err error) bool {
		return errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) || errors.Is(err, io.ErrClosedPipe)
	}
	first, err := rdma.ReadFrame(conn)
	if err != nil {
		if hungUp(err) {
			return nil
		}
		return err
	}
	h, herr := rdma.DecodeHello(first.Payload)
	if herr != nil || (first.Op != rdma.OpOK && first.Op != rdma.OpErr) {
		return errors.New("first reply is neither an OK nor an ERR led by a hello record: " + first.Op.String())
	}
	for {
		f, err := rdma.ReadFrameOpts(conn, true, first.Op == rdma.OpOK && h.Opts&rdma.OptTrace != 0)
		if err != nil {
			if hungUp(err) {
				return nil
			}
			return err
		}
		rdma.PutBuf(f.Payload)
		if first.Op == rdma.OpErr {
			return errors.New("server kept talking after refusing the hello: " + f.Op.String())
		}
	}
}
