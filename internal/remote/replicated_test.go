package remote_test

// The tests of this package that stack internal/replica over the client:
// replica imports remote (replica.Dial), so they cannot live in package
// remote itself.

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"cards/internal/farmem"
	"cards/internal/obs"
	"cards/internal/remote"
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
	var srvs [2]*remote.Server
	var cls [2]*remote.PipelinedClient
	backends := make([]farmem.Store, 2)
	for i := range srvs {
		srvs[i], cls[i] = remote.StartPipelined(t, remote.PipelineOpts{Obs: creg, Timeout: time.Second})
		backends[i] = cls[i]
	}
	rs, err := replica.New(backends, replica.Options{Replicas: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer rs.Close()

	text, zero := remote.Compressible(objSize), make([]byte, objSize)
	for _, img := range [][]byte{remote.Compressible(objSize / 2), text} { // two writes: ds1[0] ends at epoch 2
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
			if strings.HasPrefix(key, remote.MetricWireBytes+`{verb="DATA`) {
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
	if plain, stamped := snap.Counter(remote.MetricWireBytes, "verb", "DATABATCH-C"), snap.Counter(remote.MetricWireBytes, "verb", "DATABATCH-C+EPOCH"); plain != 0 || stamped == 0 {
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
			ep, err := remote.ReadEpoch(cl, 1, idx, nil)
			if err != nil || ep != stored {
				t.Fatalf("backend %d: epoch probe of ds1[%d] = %d, %v; want %d", i, idx, ep, err, stored)
			}
			if n := dataBytes() - before; n == 0 || n > 32 {
				t.Fatalf("backend %d: an epoch probe's reply is %d bytes on the wire, want a bare header", i, n)
			}
		}
		got := make([]byte, objSize)
		if ep, err := remote.ReadEpoch(cl, 1, 0, got); err != nil || ep != 2 || !bytes.Equal(got, text) {
			t.Fatalf("backend %d: stamped read = epoch %d, %v, image match=%v", i, ep, err, bytes.Equal(got, text))
		}
		if ep, err := remote.ReadEpoch(cl, 9, 9, got[:8]); err != nil || ep != 0 || !bytes.Equal(got[:8], zero[:8]) {
			t.Fatalf("backend %d: stamped read of an absent object = epoch %d, %v", i, ep, err)
		}
	}
}
