package remote

import (
	"bytes"
	"encoding/hex"
	"errors"
	"math/rand"
	"slices"
	"testing"

	"cards/internal/obs"
	"cards/internal/rdma"
	"cards/internal/testutil"
)

// compressible returns n bytes with heavy repetition (LZ shrinks it).
func compressible(n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i / 16 % 7)
	}
	return b
}

func incompressible(n int, seed int64) []byte {
	b := make([]byte, n)
	rand.New(rand.NewSource(seed)).Read(b)
	return b
}

func TestCompactSessionRoundTrip(t *testing.T) {
	testutil.NoGoroutineLeaks(t)
	reg := obs.NewRegistry()
	srv, cl := startPipelined(t, PipelineOpts{Obs: reg})
	if !cl.compress {
		t.Fatal("a default session should ask for compression")
	}

	objs := map[[2]int][]byte{
		{1, 0}: compressible(512),
		{1, 1}: incompressible(512, 42),
		{1, 2}: make([]byte, 256), // all-zero: SchemeZero both directions
		{2, 9}: compressible(4096),
	}
	for k, v := range objs {
		if err := cl.WriteObj(k[0], k[1], v); err != nil {
			t.Fatal(err)
		}
	}
	for k, v := range objs {
		got := make([]byte, len(v))
		if err := cl.ReadObj(k[0], k[1], got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, v) {
			t.Fatalf("roundtrip mismatch for %v", k)
		}
		// Whatever form the server kept it in, Store.Read expands it.
		if stored := srv.Store.Read(uint32(k[0]), uint32(k[1]), uint32(len(v))); !bytes.Equal(stored, v) {
			t.Fatalf("server stored corrupted bytes for %v", k)
		}
	}

	// The session actually rode the compact verbs.
	snap := reg.Snapshot()
	for _, verb := range []string{"WRITEBATCH-C", "READBATCH-C", "DATABATCH-C", "ACKBATCH-C"} {
		if v := snap.Counter(MetricWireBytes, "verb", verb); v == 0 {
			t.Fatalf("no wire bytes recorded for %s", verb)
		}
	}
}

// TestCompactCompressionShrinksWire scans the same objects over a
// compact+compression session and a compact-but-raw session: the
// compressed session must ship strictly fewer reply bytes for
// compressible data, and the adaptive policy must stop attempting
// compression for a DS that never shrinks.
func TestCompactCompressionShrinksWire(t *testing.T) {
	testutil.NoGoroutineLeaks(t)
	srv := NewServer()
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	const n, size = 64, 1024
	for i := 0; i < n; i++ {
		srv.Store.Write(1, uint32(i), compressible(size))
	}

	scan := func(opts PipelineOpts) uint64 {
		reg := obs.NewRegistry()
		opts.Obs = reg
		cl, err := DialPipelined(addr, opts)
		if err != nil {
			t.Fatal(err)
		}
		defer cl.Close()
		buf := make([]byte, size)
		for i := 0; i < n; i++ {
			if err := cl.ReadObj(1, i, buf); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(buf, compressible(size)) {
				t.Fatalf("scan mismatch at %d", i)
			}
		}
		return reg.Snapshot().Counter(MetricWireBytes, "verb", "DATABATCH-C")
	}

	withLZ := scan(PipelineOpts{})
	raw := scan(PipelineOpts{Compression: "off"})
	if withLZ == 0 || raw == 0 {
		t.Fatalf("scans did not ride DATABATCH-C: lz=%d raw=%d", withLZ, raw)
	}
	if withLZ*2 >= raw {
		t.Fatalf("compression saved too little on compressible data: lz=%d raw=%d", withLZ, raw)
	}
}

func TestCompressPolicyAdapts(t *testing.T) {
	var p compressPolicy
	// Unseen: always probe.
	if !p.shouldCompress(7) {
		t.Fatal("unseen DS should attempt compression")
	}
	// Feed incompressible outcomes until the EWMA crosses the threshold.
	for i := 0; i < 64; i++ {
		p.observe(7, 1000, 1000)
	}
	attempts := 0
	const trials = 3 * probePeriod
	for i := 0; i < trials; i++ {
		if p.shouldCompress(7) {
			attempts++
			p.observe(7, 1000, 1000)
		}
	}
	if attempts == 0 {
		t.Fatal("policy must keep probing an incompressible DS")
	}
	if attempts > trials/probePeriod+1 {
		t.Fatalf("policy attempted %d of %d on an incompressible DS", attempts, trials)
	}
	// A compressible streak flips it back on.
	for i := 0; i < 64; i++ {
		p.observe(7, 1000, 300)
	}
	if !p.shouldCompress(7) {
		t.Fatal("policy must resume compressing once the data shrinks again")
	}
}

// TestServerReprobesIncompressibleDS: a DS the server has classed
// incompressible is still probed every probePeriod-th object, so when
// its data turns compressible the replies turn LZ again. (The verdict
// used to be drawn twice per request — once to pick the reply layout,
// once to compress — and the first draw consumed every probe.)
func TestServerReprobesIncompressibleDS(t *testing.T) {
	testutil.NoGoroutineLeaks(t)
	srv := NewServer()
	sess := dialRaw(t, srv, rdma.OptCompress)
	const ds, n, size = 9, 64, 1024
	readScheme := func(i int) uint8 {
		sess.read(false, rdma.ReadReq{DS: ds, Idx: uint32(i % n), Size: size})
		return sess.segs[0].Scheme
	}
	for i := 0; i < n; i++ {
		srv.Store.Write(ds, uint32(i), incompressible(size, int64(i)))
	}
	for i := 0; i < n; i++ {
		if sc := readScheme(i); sc != rdma.SchemeRaw {
			t.Fatalf("noise object %d came back under scheme %d", i, sc)
		}
	}
	if ewma := srv.cpolicy.slot(ds).Load() & 0xFFFF; ewma < compressPermille {
		t.Fatalf("after %d incompressible objects the policy EWMA is %d, want >= %d", n, ewma, compressPermille)
	}
	ramp := make([]byte, size)
	for i := range ramp {
		ramp[i] = byte(i)
	}
	for i := 0; i < n; i++ {
		srv.Store.Write(ds, uint32(i), ramp)
	}
	lz := 0
	for i := 0; i < 400; i++ {
		if readScheme(i) == rdma.SchemeLZ {
			lz++
		} else if i >= 200 {
			t.Fatalf("read %d of the now-compressible DS still came back raw (%d LZ replies so far, policy EWMA %d)",
				i, lz, srv.cpolicy.slot(ds).Load()&0xFFFF)
		}
	}
}

// TestUncompressedReplyBytes pins the bytes of a DATABATCH-C that
// carries only raw and zero segments — every reply of a session that did
// not ask for compression, and of a Ping on any session: a raw object, a
// stored all-zero one, an absent one, a read shorter than its object, a
// size whose length field spans several groups, a block a client wrote
// packed (expanded for this session), and the empty batch. A diff here
// is a wire change, whatever moved in how the reply is assembled.
func TestUncompressedReplyBytes(t *testing.T) {
	testutil.NoGoroutineLeaks(t)
	srv := NewServer()
	plain, packed := dialRaw(t, srv, 0), dialRaw(t, srv, rdma.OptCompress)
	ramp := make([]byte, 300)
	for i := range ramp {
		ramp[i] = byte(i * 7)
	}
	srv.Store.Write(1, 0, ramp[:16])
	srv.Store.Write(1, 1, make([]byte, 24))
	srv.Store.Write(3, 0, ramp)
	words := wordsObject()
	s, w := rdma.ScanWords(words)
	block := make([]byte, rdma.WordsBound(len(words)))
	srv.Store.writeWire(4, 0, false, 0, rdma.SchemeWords, uint32(len(words)), block[:rdma.PackWords(block, words, s, w)])

	reply := func(sess *rawSession, reqs ...rdma.ReadReq) string {
		resp := sess.call(rdma.EncodeReadBatchCPooled(0, reqs))
		defer rdma.PutBuf(resp.Payload)
		if resp.Op != rdma.OpDataBatchC {
			t.Fatalf("read answered with %s", resp.Op)
		}
		return hex.EncodeToString(resp.Payload)
	}
	for _, c := range []struct {
		name, got, want string
	}{
		{"mixed", reply(plain,
			rdma.ReadReq{DS: 1, Idx: 0, Size: 16}, rdma.ReadReq{DS: 1, Idx: 1, Size: 24},
			rdma.ReadReq{DS: 2, Idx: 5, Size: 8}, rdma.ReadReq{DS: 1, Idx: 0, Size: 8},
			rdma.ReadReq{DS: 3, Idx: 0, Size: 300}, rdma.ReadReq{DS: 4, Idx: 0, Size: 128}),
			// The bit-packed header (six segments: raw 16, zero 24, zero 8,
			// raw 8, raw 300, raw 128, then alignment), then the raw bytes.
			"8c208c420824174180" + hex.EncodeToString(slices.Concat(ramp[:16], ramp[:8], ramp, words))},
		{"empty, plain session", reply(plain), "00"},
		{"empty, compressing session", reply(packed), "00"},
	} {
		if c.got != c.want {
			t.Errorf("%s: reply payload\n got %s\nwant %s", c.name, c.got, c.want)
		}
	}
}

// TestCompactRangeWriteRMW exercises the dirty-range sub-encoding end
// to end: only the extents' bytes ship, the server splices them into
// the stored image, and untouched bytes survive.
func TestCompactRangeWriteRMW(t *testing.T) {
	testutil.NoGoroutineLeaks(t)
	srv, cl := startPipelined(t, PipelineOpts{})

	base := incompressible(1024, 7)
	if err := cl.WriteObj(3, 5, base); err != nil {
		t.Fatal(err)
	}
	// Mutate two disjoint ranges of a private copy, then ship only them.
	img := append([]byte(nil), base...)
	copy(img[64:96], bytes.Repeat([]byte{0xEE}, 32))
	copy(img[900:908], []byte("rangewrb"))
	exts := []rdma.Extent{{Off: 64, Len: 32}, {Off: 900, Len: 8}}
	errCh := make(chan error, 1)
	cl.IssueWriteRanges(3, 5, img, exts, func(err error) { errCh <- err })
	if err := <-errCh; err != nil {
		t.Fatal(err)
	}
	if got := srv.Store.Read(3, 5, 1024); !bytes.Equal(got, img) {
		t.Fatal("range write did not splice correctly")
	}

	// Range write to an absent object: the base is all zeros.
	sparse := make([]byte, 512)
	copy(sparse[100:116], bytes.Repeat([]byte{0xAB}, 16))
	cl.IssueWriteRanges(3, 6, sparse, []rdma.Extent{{Off: 100, Len: 16}}, func(err error) { errCh <- err })
	if err := <-errCh; err != nil {
		t.Fatal(err)
	}
	if got := srv.Store.Read(3, 6, 512); !bytes.Equal(got, sparse) {
		t.Fatal("range write onto an absent object must splice into zeros")
	}

	// Degenerate range sets fall back to a full write transparently.
	full := incompressible(256, 9)
	cl.IssueWriteRanges(3, 7, full, []rdma.Extent{{Off: 0, Len: 256}}, func(err error) { errCh <- err })
	if err := <-errCh; err != nil {
		t.Fatal(err)
	}
	if got := srv.Store.Read(3, 7, 256); !bytes.Equal(got, full) {
		t.Fatal("full-coverage range set must still land")
	}
}

// TestCompactRangeWriteEpoch verifies the conditional-apply contract of
// epoch-stamped range writes: predecessor base applies, replay is
// idempotent, an epoch gap rejects with ErrStaleRangeBase, and an
// obsolete tuple is dropped with a positive ack.
func TestCompactRangeWriteEpoch(t *testing.T) {
	testutil.NoGoroutineLeaks(t)
	srv, cl := startPipelined(t, PipelineOpts{})

	base := compressible(512)
	if err := writeEpoch(cl, 4, 1, 1, base); err != nil {
		t.Fatal(err)
	}
	img := append([]byte(nil), base...)
	copy(img[10:20], bytes.Repeat([]byte{0x5A}, 10))
	exts := []rdma.Extent{{Off: 10, Len: 10}}
	errCh := make(chan error, 1)

	//

	// Epoch 3 against a base at epoch 1: a missed epoch, must reject.
	cl.IssueWriteRangesEpoch(4, 1, 3, img, exts, func(err error) { errCh <- err })
	if err := <-errCh; !errors.Is(err, ErrStaleRangeBase) {
		t.Fatalf("stale-base range write returned %v, want ErrStaleRangeBase", err)
	}
	if got := srv.Store.Read(4, 1, 512); !bytes.Equal(got, base) {
		t.Fatal("rejected range write must not touch the stored image")
	}

	// Epoch 2 against epoch 1: the fresh case.
	cl.IssueWriteRangesEpoch(4, 1, 2, img, exts, func(err error) { errCh <- err })
	if err := <-errCh; err != nil {
		t.Fatal(err)
	}
	if got := srv.Store.Read(4, 1, 512); !bytes.Equal(got, img) {
		t.Fatal("fresh epoch range write must splice")
	}
	if ep := srv.Store.Epoch(4, 1); ep != 2 {
		t.Fatalf("stored epoch = %d, want 2", ep)
	}

	// Replaying epoch 2 (the uncertain-ack reissue) is a positive no-op.
	cl.IssueWriteRangesEpoch(4, 1, 2, img, exts, func(err error) { errCh <- err })
	if err := <-errCh; err != nil {
		t.Fatalf("idempotent replay must ack positively, got %v", err)
	}

	// An obsolete epoch (stored moved ahead) is dropped, ack positive.
	newer := append([]byte(nil), img...)
	newer[0] = 0xFF
	if err := writeEpoch(cl, 4, 1, 5, newer); err != nil {
		t.Fatal(err)
	}
	cl.IssueWriteRangesEpoch(4, 1, 2, img, exts, func(err error) { errCh <- err })
	if err := <-errCh; err != nil {
		t.Fatalf("obsolete range write must be dropped with a positive ack, got %v", err)
	}
	if got := srv.Store.Read(4, 1, 512); !bytes.Equal(got, newer) {
		t.Fatal("obsolete range write must not clobber the newer image")
	}
}

// TestSplicedImageIsPackedOnce: a raw image — a splice leaves one — is
// packed by the first read on a compressing session, and that block is
// kept and sent verbatim until the next splice or write, which drops it.
// An image a pack cannot shrink (noise) or that is already a block (a
// client's packed write) keeps nothing.
func TestSplicedImageIsPackedOnce(t *testing.T) {
	testutil.NoGoroutineLeaks(t)
	srv := NewServer()
	sess := dialRaw(t, srv, rdma.OptCompress)
	img := sparseInt64(512, rand.New(rand.NewSource(3)))
	words := func() []byte {
		s, w := rdma.ScanWords(img)
		b := make([]byte, rdma.WordsBound(len(img)))
		return b[:rdma.PackWords(b, img, s, w)]
	}
	whole := []rdma.Extent{{Off: 0, Len: 512}}
	srv.Store.WriteRange(1, 0, 512, whole, img)
	srv.Store.WriteRange(1, 1, 512, whole, incompressible(512, 5))
	srv.Store.writeWire(1, 2, false, 0, rdma.SchemeWords, 512, words())
	kept := func(idx uint32) (uint32, []byte) {
		srv.Store.mu.RLock()
		defer srv.Store.mu.RUnlock()
		im := srv.Store.m[[2]uint32{1, idx}]
		if len(im.packed) > 0 && im.pscheme != rdma.SchemeWords {
			t.Fatalf("obj %d keeps a scheme-%d block, want words", idx, im.pscheme)
		}
		return im.ver, bytes.Clone(im.packed)
	}
	for round := 0; round < 2; round++ {
		for idx := uint32(0); idx < 3; idx++ {
			if objs, _ := sess.read(false, rdma.ReadReq{DS: 1, Idx: idx, Size: 512}); !bytes.Equal(objs[0], srv.Store.Read(1, idx, 512)) {
				t.Fatalf("round %d: obj %d reads other bytes than stored", round, idx)
			}
		}
		if ver, block := kept(0); !bytes.Equal(block, words()) || ver != 1 {
			t.Fatalf("round %d: spliced obj 0 keeps a %d-byte block at version %d, want its words block at version 1", round, len(block), ver)
		}
		for _, idx := range []uint32{1, 2} {
			if _, block := kept(idx); len(block) != 0 {
				t.Fatalf("round %d: obj %d keeps a block", round, idx)
			}
		}
	}
	img[8] ^= 1
	srv.Store.WriteRange(1, 0, 512, []rdma.Extent{{Off: 8, Len: 1}}, img[8:9])
	if ver, block := kept(0); len(block) != 0 || ver != 2 {
		t.Fatalf("after a splice obj 0 keeps %d block bytes at version %d, want none at version 2", len(block), ver)
	}
	if objs, _ := sess.read(false, rdma.ReadReq{DS: 1, Idx: 0, Size: 512}); !bytes.Equal(objs[0], img) {
		t.Fatal("the read after the splice returns other bytes than the splice left")
	}
	if _, block := kept(0); !bytes.Equal(block, words()) {
		t.Fatal("the read after the splice kept no block of the new version")
	}
}
