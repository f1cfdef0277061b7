package remote

import (
	"net"
	"testing"

	"cards/internal/rdma"
	"cards/internal/testutil"
)

// readEpoch is IssueReadEpoch, waited for.
func readEpoch(c *PipelinedClient, ds, idx int, dst []byte) (epoch uint64, err error) {
	done := make(chan struct{})
	c.IssueReadEpoch(ds, idx, dst, func(e uint64, er error) { epoch, err = e, er; close(done) })
	<-done
	return epoch, err
}

// writeEpoch is a full-object IssueWriteRangesEpoch, waited for.
func writeEpoch(c *PipelinedClient, ds, idx int, epoch uint64, src []byte) error {
	errCh := make(chan error, 1)
	c.IssueWriteRangesEpoch(ds, idx, epoch, src, nil, func(err error) { errCh <- err })
	return <-errCh
}

// TestRetiredOpcodesAreRefused: the opcodes protocol versions 1 and 2
// used for the fixed-width and epoch verb families are reserved. Sent
// mid-session — here with payloads that were valid requests then — each
// is answered with an ERRTAG under its own tag (stamped, on this traced
// session, like every tagged reply), nothing reaches the store, and the
// session goes on serving.
func TestRetiredOpcodesAreRefused(t *testing.T) {
	testutil.NoGoroutineLeaks(t)
	srv, _ := startServer(t)
	conn, err := net.Dial("tcp", srv.ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	rdma.WriteFrame(conn, rdma.HelloFrame(rdma.OpHello, rdma.Hello{Version: rdma.ProtoVersion, Opts: rdma.OptTrace}))
	if resp, err := rdma.ReadFrame(conn); err != nil || resp.Op != rdma.OpOK {
		t.Fatalf("hello reply = %+v, %v", resp, err)
	}
	send := func(f rdma.Frame) rdma.Frame {
		t.Helper()
		f.SetTraceCtx(0xFEED, 1, true)
		if err := rdma.WriteFrameCRC(conn, f); err != nil {
			t.Fatal(err)
		}
		resp, err := rdma.ReadFrameOpts(conn, true, true)
		if err != nil {
			t.Fatalf("reply to %s: %v", f.Op, err)
		}
		return resp
	}

	fixedRead := rdma.EncodeReadBatchPooled(0, []rdma.ReadReq{{DS: 1, Idx: 0, Size: 8}}).Payload
	fixedWrite := []byte{1, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 2, 0, 0, 0, 'h', 'i'}               // count | ds idx len | bytes
	epochWrite := []byte{1, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 5, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0} // count | ds idx epoch len
	errsBefore := srv.ObsSnapshot().Counters[MetricErrors]
	retired := []struct {
		op      rdma.Op
		payload []byte
	}{
		{0x01, fixedRead}, {0x06, fixedWrite}, {0x08, epochWrite}, {0x09, fixedRead},
		{0x02, nil}, {0x07, []byte{1, 0, 0, 0}}, {0x0A, nil}, {0x10, nil},
	}
	for i, r := range retired {
		tag := uint32(100 + i)
		resp := send(rdma.Frame{Op: rdma.TagBit | r.op, Tag: tag, Payload: r.payload})
		if resp.Op != rdma.OpErrTag || resp.Tag != tag || !resp.HasExt {
			t.Fatalf("retired opcode %#x answered with %s tag %d ext=%v (%q); want a stamped ERRTAG under tag %d",
				uint8(rdma.TagBit|r.op), resp.Op, resp.Tag, resp.HasExt, resp.Payload, tag)
		}
	}
	if got := srv.ObsSnapshot().Counters[MetricErrors]; got != errsBefore+uint64(len(retired)) {
		t.Fatalf("errors counter moved by %d, want %d", got-errsBefore, len(retired))
	}
	if r, w := srv.Counts(); r != 0 || w != 0 || srv.Store.Len() != 0 {
		t.Fatalf("a retired verb reached the store: reads=%d writes=%d objects=%d", r, w, srv.Store.Len())
	}
	// The modifier on a verb it does not apply to is just as unknown.
	if resp := send(rdma.Frame{Op: rdma.OpChaseBatch | rdma.EpochBit, Tag: 7}); resp.Op != rdma.OpErrTag || resp.Tag != 7 {
		t.Fatalf("CHASEBATCH with the epoch modifier answered with %s", resp.Op)
	}
	// The session survived all of it.
	resp := send(rdma.EncodeReadBatchCPooled(8, []rdma.ReadReq{{DS: 1, Idx: 0, Size: 8}}))
	if resp.Op != rdma.OpDataBatchC || resp.Tag != 8 {
		t.Fatalf("live read after the refusals = %s tag %d (%q)", resp.Op, resp.Tag, resp.Payload)
	}
}
