package remote

import (
	"bytes"
	"net"
	"strings"
	"testing"
	"time"

	"cards/internal/farmem"
	"cards/internal/obs"
	"cards/internal/rdma"
	"cards/internal/replica"
	"cards/internal/testutil"
)

// TestReplicatedReadsRideTheCompactTier: a replicated read is an
// ordinary read with the epoch modifier, so it gets the session's
// encoding — zero objects ship no bytes, compressible ones an LZ block —
// and still reports the stored epoch; a zero-length stamped read is a
// pure epoch probe. (Before protocol version 3 stamped reads rode a
// fixed-width verb family of their own: 4 KiB on the wire each,
// whatever the session had asked for.)
func TestReplicatedReadsRideTheCompactTier(t *testing.T) {
	testutil.NoGoroutineLeaks(t)
	const objSize = 4096
	creg := obs.NewRegistry() // both backends' clients publish here
	var srvs [2]*Server
	var cls [2]*PipelinedClient
	backends := make([]farmem.Store, 2)
	for i := range srvs {
		srvs[i], cls[i] = startPipelined(t, PipelineOpts{Obs: creg, Timeout: time.Second})
		backends[i] = cls[i]
	}
	rs, err := replica.New(backends, replica.Options{Replicas: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer rs.Close()

	text, zero := compressible(objSize), make([]byte, objSize)
	for _, img := range [][]byte{compressible(objSize / 2), text} { // two writes: ds1[0] ends at epoch 2
		if err := rs.WriteObj(1, 0, append(img, make([]byte, objSize-len(img))...)); err != nil {
			t.Fatal(err)
		}
	}
	if err := rs.WriteObj(1, 1, zero); err != nil {
		t.Fatal(err)
	}

	// Reply bytes under every DATA verb, whatever it is called.
	dataBytes := func() (n uint64) {
		for key, v := range creg.Snapshot().Counters {
			if strings.HasPrefix(key, MetricWireBytes+`{verb="DATA`) {
				n += v
			}
		}
		return n
	}
	before := dataBytes()
	for idx, want := range [][]byte{text, zero} {
		got := bytes.Repeat([]byte{0xEE}, objSize)
		if err := rs.ReadObj(1, idx, got); err != nil || !bytes.Equal(got, want) {
			t.Fatalf("replicated read of ds1[%d]: err=%v, image match=%v", idx, err, bytes.Equal(got, want))
		}
	}
	if grew := dataBytes() - before; grew == 0 || grew > objSize/2 {
		t.Fatalf("two replicated reads of a compressible and a zero object cost %d reply bytes; the session's encoding should make that a small fraction of %d", grew, 2*objSize)
	}
	snap := creg.Snapshot()
	if plain, stamped := snap.Counter(MetricWireBytes, "verb", "DATABATCH-C"), snap.Counter(MetricWireBytes, "verb", "DATABATCH-C+EPOCH"); plain != 0 || stamped == 0 {
		t.Fatalf("reply bytes: %d un-stamped, %d stamped; replicated reads must ride the stamped DATA verb", plain, stamped)
	}

	// Every member holds both objects at the epoch the group wrote, and
	// reports it with the image or, asked for zero bytes, without.
	for i, cl := range cls {
		for idx, want := range []uint64{2, 1} {
			stored := srvs[i].Store.Epoch(1, uint32(idx))
			if stored != want {
				t.Fatalf("backend %d stores ds1[%d] at epoch %d, want %d", i, idx, stored, want)
			}
			before := dataBytes()
			ep, err := cl.ReadObjEpoch(1, idx, nil)
			if err != nil || ep != stored {
				t.Fatalf("backend %d: epoch probe of ds1[%d] = %d, %v; want %d", i, idx, ep, err, stored)
			}
			if n := dataBytes() - before; n == 0 || n > 32 {
				t.Fatalf("backend %d: an epoch probe's reply is %d bytes on the wire, want a bare header", i, n)
			}
		}
		got := make([]byte, objSize)
		if ep, err := cl.ReadObjEpoch(1, 0, got); err != nil || ep != 2 || !bytes.Equal(got, text) {
			t.Fatalf("backend %d: stamped read = epoch %d, %v, image match=%v", i, ep, err, bytes.Equal(got, text))
		}
		if ep, err := cl.ReadObjEpoch(9, 9, got[:8]); err != nil || ep != 0 || !bytes.Equal(got[:8], zero[:8]) {
			t.Fatalf("backend %d: stamped read of an absent object = epoch %d, %v", i, ep, err)
		}
	}
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
