package remote

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/bits"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"testing"

	"cards/internal/rdma"
	"cards/internal/testutil"
)

// TestObjectStoreWriteInPlace pins the same-size overwrite path: a
// write that does not change an object's length allocates nothing, and
// a length change still replaces the image (shorter reads zero-fill).
func TestObjectStoreWriteInPlace(t *testing.T) {
	s := NewObjectStore()
	img := bytes.Repeat([]byte{0xA1}, 4096)
	s.Write(1, 2, img)
	s.WriteEpoch(1, 3, 1, img)
	var epoch uint64 = 1
	if n := testing.AllocsPerRun(200, func() {
		img[0]++
		s.Write(1, 2, img)
		epoch++
		if !s.WriteEpoch(1, 3, epoch, img) {
			t.Fatal("WriteEpoch with a rising epoch did not apply")
		}
	}); n != 0 {
		t.Fatalf("same-size Write+WriteEpoch allocate %.1f times per run, want 0", n)
	}
	for _, idx := range []uint32{2, 3} {
		if got := s.Read(1, idx, 4096); !bytes.Equal(got, img) {
			t.Fatalf("object %d does not hold the last image written", idx)
		}
	}
	// The store copied: scribbling on the caller's buffer changes nothing.
	want := append([]byte(nil), img...)
	clear(img)
	if got := s.Read(1, 2, 4096); !bytes.Equal(got, want) {
		t.Fatal("stored image aliases the caller's buffer")
	}

	s.Write(1, 2, []byte("short"))
	got := s.Read(1, 2, 8)
	if !bytes.Equal(got, []byte("short\x00\x00\x00")) {
		t.Fatalf("after shrinking write: %q", got)
	}
	s.Write(1, 2, want)
	if got := s.Read(1, 2, 4096); !bytes.Equal(got, want) {
		t.Fatal("growing write did not replace the image")
	}
	if s.WriteEpoch(1, 3, epoch-1, []byte("stale")) {
		t.Fatal("stale epoch applied")
	}
	if got := s.Read(1, 3, 4096); !bytes.Equal(got, want) {
		t.Fatal("rejected stale write modified the stored image")
	}
}

// TestObjectStoreInPlaceWriteIsAtomic runs readers against writers that
// overwrite one key in place: every read must observe one whole image,
// never a mix of two (run under -race, this also proves the in-place
// copy is ordered with every reader's copy-out).
func TestObjectStoreInPlaceWriteIsAtomic(t *testing.T) {
	s := NewObjectStore()
	images := [][]byte{bytes.Repeat([]byte{0x11}, 4096), bytes.Repeat([]byte{0xEE}, 4096)}
	s.Write(0, 0, images[0])
	s.WriteEpoch(0, 1, 0, images[0])
	const rounds = 2000
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				s.Write(0, 0, images[(i+w)%2])
				s.WriteEpoch(0, 1, uint64(i), images[(i+w)%2])
			}
		}()
	}
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			dst := make([]byte, 4096)
			for i := 0; i < rounds; i++ {
				s.ReadInto(0, 0, dst)
				if !bytes.Equal(dst, images[0]) && !bytes.Equal(dst, images[1]) {
					t.Error("ReadInto observed a torn image")
					return
				}
				s.ReadEpochInto(0, 1, dst)
				if !bytes.Equal(dst, images[0]) && !bytes.Equal(dst, images[1]) {
					t.Error("ReadEpochInto observed a torn image")
					return
				}
			}
		}()
	}
	wg.Wait()
}

// flatModel is the oracle the store is held to: one raw image and one
// epoch per key, with the store's documented rules (DESIGN.md §10/§11)
// written out the obvious way.
type flatModel struct {
	img map[[2]uint32][]byte
	ep  map[[2]uint32]uint64
}

// read is ReadInto's contract: the image's prefix, zero-filled to size.
func (m *flatModel) read(k [2]uint32, size uint32) []byte {
	out := make([]byte, size)
	copy(out, m.img[k])
	return out
}

func (m *flatModel) write(k [2]uint32, img []byte) {
	m.img[k] = append([]byte(nil), img...)
}

// writeEpoch applies iff the stamp is not older than the stored one.
func (m *flatModel) writeEpoch(k [2]uint32, epoch uint64, img []byte) bool {
	if epoch < m.ep[k] {
		return false
	}
	m.write(k, img)
	m.ep[k] = epoch
	return true
}

// splice is the read-modify-write of a range tuple: the base resized to
// objSize, the extents' bytes laid over it.
func (m *flatModel) splice(k [2]uint32, objSize uint32, exts []rdma.Extent, raw []byte) {
	base := m.read(k, objSize)
	off := uint32(0)
	for _, e := range exts {
		copy(base[e.Off:e.Off+e.Len], raw[off:off+e.Len])
		off += e.Len
	}
	m.img[k] = base
}

// spliceEpoch: a newer stored image drops the tuple (positive ack), a
// base that missed an epoch rejects it, anything else applies.
func (m *flatModel) spliceEpoch(k [2]uint32, epoch uint64, objSize uint32, exts []rdma.Extent, raw []byte) (rejected bool) {
	stored := m.ep[k]
	if stored > epoch {
		return false
	}
	if stored+1 < epoch {
		return true
	}
	m.splice(k, objSize, exts, raw)
	m.ep[k] = epoch
	return false
}

// chase is chaseOne over the model.
func (m *flatModel) chase(r rdma.ChaseReq) rdma.ChaseResult {
	var res rdma.ChaseResult
	shift := uint(bits.TrailingZeros32(r.ObjSize))
	idx := r.Start
	for hop := uint32(0); ; hop++ {
		node := m.read([2]uint32{r.DS, idx}, r.ObjSize)
		res.Hops = append(res.Hops, rdma.ChaseHop{Idx: idx, Data: node})
		word := binary.LittleEndian.Uint64(node[r.NextOff:])
		if !rdma.ChaseAddrTagged(word) || rdma.ChaseAddrDS(word) != r.DS {
			res.Status, res.Final = rdma.ChaseDone, word
			return res
		}
		if hop+1 == r.Hops {
			res.Status, res.Final = rdma.ChaseHops, word
			return res
		}
		idx = uint32(rdma.ChaseAddrOff(word) >> shift)
	}
}

// TestObjectStoreMatchesFlatModel drives seeded random histories through
// every way an image reaches or leaves the store — direct Write /
// WriteEpoch / WriteRange(Epoch), full-object tuples in all four wire
// schemes and range tuples (plain and stamped) over a session that asked
// for compression and one that did not, reads at matching and
// mismatched sizes through both, stamped reads, chase programs — and
// holds every byte that comes back, every ack bit, and Keys / Len /
// Epoch to the flat model. Whatever form the store keeps an image in is
// invisible here by construction: that is the test. Two readers hammer
// the same keys throughout so the race detector sees every overlap.
func TestObjectStoreMatchesFlatModel(t *testing.T) {
	testutil.NoGoroutineLeaks(t)
	const (
		chaseDS, mixedDS = 1, 2
		nIdx             = 10
		nodeSize         = 512
		steps            = 1500
	)
	for seed := int64(1); seed <= 4; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			srv := NewServer()
			sessions := []*rawSession{dialRaw(t, srv, rdma.OptCompress), dialRaw(t, srv, 0)}
			model := &flatModel{img: map[[2]uint32][]byte{}, ep: map[[2]uint32]uint64{}}

			// Concurrent readers: one straight at the store, one through its
			// own compressing session, each doing a short burst per step of
			// the history. They check nothing but that a read comes back; the
			// writers below are what they race with.
			kicks := [2]chan struct{}{make(chan struct{}, 1), make(chan struct{}, 1)}
			var readers sync.WaitGroup
			readerSess := dialRaw(t, srv, rdma.OptCompress)
			readers.Add(2)
			go func() {
				defer readers.Done()
				buf := make([]byte, nodeSize)
				i := uint32(0)
				for range kicks[0] {
					for n := 0; n < 4; n, i = n+1, i+1 {
						srv.Store.ReadInto(1+i%2, i%nIdx, buf)
						srv.Store.ReadEpochInto(1+i%2, i%nIdx, buf[:300])
					}
				}
			}()
			go func() {
				defer readers.Done()
				i := uint32(0)
				for range kicks[1] {
					readerSess.read(i%3 == 0, rdma.ReadReq{DS: 1 + i%2, Idx: i % nIdx, Size: nodeSize})
					i++
				}
			}()
			defer func() {
				close(kicks[0])
				close(kicks[1])
				readers.Wait()
			}()

			// image draws an object: sparse small ints (they bit-pack, and LZ
			// shrinks them), noise (neither) or zeros; a chaseDS node also gets
			// a successor word — a tagged one spans all eight lanes, so only
			// terminal nodes stay bit-packable.
			image := func(ds uint32) []byte {
				size := nodeSize
				if ds == mixedDS || rng.Intn(8) == 0 {
					size = []int{64, 256, 300, 512, 1024, 4096}[rng.Intn(6)]
				}
				var img []byte
				switch rng.Intn(5) {
				case 0:
					img = make([]byte, size)
				case 1:
					img = make([]byte, size)
					rng.Read(img)
				default:
					img = sparseInt64(size, rng)
				}
				if ds == chaseDS && rng.Intn(4) != 0 {
					next := uint64(0xDEAD0000 + rng.Intn(16)) // untagged: terminal
					if rng.Intn(5) != 0 {
						next = 1<<63 | uint64(chaseDS)<<48 | uint64(rng.Intn(nIdx+2))*nodeSize
					}
					binary.LittleEndian.PutUint64(img[8:], next)
				}
				return img
			}
			// anyScheme draws the form a tuple is asked to travel in (fullTuple
			// falls back where the bytes do not admit it).
			anyScheme := func() uint8 {
				return []uint8{rdma.SchemeRaw, rdma.SchemeLZ, rdma.SchemeWords}[rng.Intn(3)]
			}
			// stamp draws an epoch around the stored one: stale, equal, the
			// successor, or a gap.
			stamp := func(k [2]uint32) uint64 {
				cur := model.ep[k]
				switch d := rng.Intn(6); {
				case d == 0 && cur > 0:
					return cur - 1
				case d == 1:
					return cur
				case d == 2:
					return cur + 2 + uint64(rng.Intn(3))
				default:
					return cur + 1
				}
			}
			extents := func(objSize uint32) (exts []rdma.Extent, raw []byte) {
				if rng.Intn(4) == 0 { // one 64-byte run of small words: a gather that bit-packs
					return []rdma.Extent{{Off: uint32(rng.Intn(int(objSize)-64)) &^ 7, Len: 64}}, sparseInt64(64, rng)
				}
				off := uint32(0)
				for n := 1 + rng.Intn(3); n > 0 && off+2 < objSize; n-- {
					off += uint32(rng.Intn(int(objSize-off) / 2))
					l := 1 + uint32(rng.Intn(int(min(objSize-off, 40))))
					exts = append(exts, rdma.Extent{Off: off, Len: l})
					off += l
				}
				raw = make([]byte, extentBytes(exts))
				if rng.Intn(3) != 0 { // some splices write zeros, some compressible bytes
					for i := range raw {
						raw[i] = byte(rng.Intn(3))
					}
				}
				return exts, raw
			}
			check := func(what string, k [2]uint32, got, want []byte) {
				t.Helper()
				if !bytes.Equal(got, want) {
					t.Fatalf("step %s: key %v reads %d bytes that differ from the model (first at %d)",
						what, k, len(got), firstDiff(got, want))
				}
			}

			for step := 0; step < steps; step++ {
				ds := uint32(1 + rng.Intn(2))
				k := [2]uint32{ds, uint32(rng.Intn(nIdx))}
				sess := sessions[rng.Intn(2)]
				what := fmt.Sprintf("%d", step)
				for _, kick := range kicks {
					select {
					case kick <- struct{}{}:
					default:
					}
				}
				switch op := rng.Intn(12); op {
				case 0: // direct raw write
					img := image(ds)
					srv.Store.Write(k[0], k[1], img)
					model.write(k, img)
				case 1: // direct stamped write
					img, e := image(ds), stamp(k)
					if got, want := srv.Store.WriteEpoch(k[0], k[1], e, img), model.writeEpoch(k, e, img); got != want {
						t.Fatalf("step %s: WriteEpoch(%v, %d) applied=%v, model says %v", what, k, e, got, want)
					}
				case 2, 3: // full-object tuple, any scheme, plain
					img := image(ds)
					if _, err := sess.write(false, fullTuple(k[0], k[1], 0, img, anyScheme())); err != nil {
						t.Fatalf("step %s: %v", what, err)
					}
					model.write(k, img)
				case 4: // full-object tuple, any scheme, stamped
					img, e := image(ds), stamp(k)
					if _, err := sess.write(true, fullTuple(k[0], k[1], e, img, anyScheme())); err != nil {
						t.Fatalf("step %s: %v", what, err)
					}
					model.writeEpoch(k, e, img)
				case 5: // plain range tuple, objSize free to grow or shrink the object
					objSize := uint32([]int{256, 512, 512, 1024}[rng.Intn(4)])
					exts, raw := extents(objSize)
					if rng.Intn(2) == 0 {
						srv.Store.WriteRange(k[0], k[1], objSize, exts, raw)
					} else {
						r := fullTuple(k[0], k[1], 0, raw, anyScheme())
						r.ObjSize, r.Extents = objSize, exts
						if _, err := sess.write(false, r); err != nil {
							t.Fatalf("step %s: %v", what, err)
						}
					}
					model.splice(k, objSize, exts, raw)
				case 6: // stamped range tuple
					objSize := uint32([]int{256, 512, 512, 1024}[rng.Intn(4)])
					exts, raw := extents(objSize)
					e := stamp(k)
					want := model.spliceEpoch(k, e, objSize, exts, raw)
					r := fullTuple(k[0], k[1], e, raw, anyScheme())
					r.ObjSize, r.Extents = objSize, exts
					rej, err := sess.write(true, r)
					if err != nil {
						t.Fatalf("step %s: %v", what, err)
					}
					if got := rej[0]&1 != 0; got != want {
						t.Fatalf("step %s: stamped splice of %v at epoch %d rejected=%v, model says %v", what, k, e, got, want)
					}
				case 7: // chase across whatever forms the nodes are in
					req := rdma.ChaseReq{DS: chaseDS, Start: uint32(rng.Intn(nIdx)), ObjSize: nodeSize, NextOff: 8, Hops: uint32(1 + rng.Intn(6))}
					got, want := sess.chase(req), model.chase(req)
					if got.Status != want.Status || got.Final != want.Final || len(got.Hops) != len(want.Hops) {
						t.Fatalf("step %s: chase %+v = status %d final %#x over %d hops, model %d %#x %d",
							what, req, got.Status, got.Final, len(got.Hops), want.Status, want.Final, len(want.Hops))
					}
					for i := range want.Hops {
						if got.Hops[i].Idx != want.Hops[i].Idx {
							t.Fatalf("step %s: chase hop %d visited %d, model %d", what, i, got.Hops[i].Idx, want.Hops[i].Idx)
						}
						check(what+" (chase hop)", [2]uint32{chaseDS, want.Hops[i].Idx}, got.Hops[i].Data, want.Hops[i].Data)
					}
				case 8: // direct read, any size
					size := uint32([]int{0, 8, 256, 300, 512, 1024, 4096}[rng.Intn(7)])
					check(what+" (Store.Read)", k, srv.Store.Read(k[0], k[1], size), model.read(k, size))
				default: // session read: two keys in one batch, the stored size or another
					k2 := [2]uint32{uint32(1 + rng.Intn(2)), uint32(rng.Intn(nIdx + 2))}
					size := func(k [2]uint32) uint32 {
						if n := len(model.img[k]); n > 0 && rng.Intn(3) != 0 {
							return uint32(n)
						}
						return uint32([]int{8, 256, 300, 512, 1024, 4096}[rng.Intn(6)])
					}
					reqs := []rdma.ReadReq{{DS: k[0], Idx: k[1], Size: size(k)}, {DS: k2[0], Idx: k2[1], Size: size(k2)}}
					stamped := rng.Intn(3) == 0
					objs, eps := sess.read(stamped, reqs...)
					for i, r := range reqs {
						rk := [2]uint32{r.DS, r.Idx}
						check(what+" (session read)", rk, objs[i], model.read(rk, r.Size))
						if stamped && eps[i] != model.ep[rk] {
							t.Fatalf("step %s: stamped read of %v reports epoch %d, model %d", what, rk, eps[i], model.ep[rk])
						}
					}
				}
			}

			// The store holds exactly the model's keys, images and epochs.
			byKey := func(ks [][2]uint32) {
				sort.Slice(ks, func(i, j int) bool { return ks[i][0] < ks[j][0] || ks[i][0] == ks[j][0] && ks[i][1] < ks[j][1] })
			}
			keys := srv.Store.Keys()
			var want [][2]uint32
			for k := range model.img {
				want = append(want, k)
			}
			byKey(keys)
			byKey(want)
			if fmt.Sprint(keys) != fmt.Sprint(want) || srv.Store.Len() != len(want) {
				t.Fatalf("store keys %v (Len %d), model %v", keys, srv.Store.Len(), want)
			}
			for _, k := range want {
				check("final", k, srv.Store.Read(k[0], k[1], uint32(len(model.img[k]))+8), model.read(k, uint32(len(model.img[k]))+8))
				if got := srv.Store.Epoch(k[0], k[1]); got != model.ep[k] {
					t.Fatalf("key %v at epoch %d, model %d", k, got, model.ep[k])
				}
			}
		})
	}
}

func firstDiff(a, b []byte) int {
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return min(len(a), len(b))
}

// forgedTupleStoresNothing sends {a good tuple, victim's tuple in scheme
// after forge has corrupted it, another good tuple} as one batch with a
// valid CRC and holds the server to DESIGN.md §10: a definitive ERRTAG;
// when the batch decodes (the forgery is inside the block), the tuple
// ahead of it has applied — write-back reissue is idempotent — and when
// it does not, nothing has; the forged tuple and everything behind it
// stored nothing; no reader on any session is ever shown the block; the
// writer's session survives and its honest reissue lands.
func forgedTupleStoresNothing(t *testing.T, victim []byte, scheme uint8, forge func(*rdma.WriteReqC), decodes bool) {
	t.Helper()
	srv := NewServer()
	writer, reader := dialRaw(t, srv, rdma.OptCompress), dialRaw(t, srv, rdma.OptCompress)
	rng := rand.New(rand.NewSource(5))
	good, after := sparseInt64(4096, rng), sparseInt64(4096, rng)
	honest := fullTuple(7, 2, 0, victim, scheme)
	if honest.Scheme != scheme {
		t.Fatalf("the victim image travels as scheme %d, want %d", honest.Scheme, scheme)
	}
	forged := honest
	forged.Data = append([]byte(nil), honest.Data...)
	forge(&forged)

	_, err := writer.write(false,
		fullTuple(7, 1, 0, good, rdma.SchemeLZ), forged, fullTuple(7, 3, 0, after, rdma.SchemeRaw))
	if err == nil || decodes && !strings.Contains(err.Error(), rdma.ErrCorrupt.Error()) {
		t.Fatalf("forged batch answered with %v, want an ERRTAG (naming the corrupt block if the batch decodes)", err)
	}
	absent := make([]byte, 4096)
	ahead, stored := absent, 0
	if decodes {
		ahead, stored = good, 1
	}
	if srv.Store.Len() != stored {
		t.Fatalf("store holds %v after the refusal, want %d objects", srv.Store.Keys(), stored)
	}
	objs, _ := reader.read(false, rdma.ReadReq{DS: 7, Idx: 2, Size: 4096}, rdma.ReadReq{DS: 7, Idx: 3, Size: 4096}, rdma.ReadReq{DS: 7, Idx: 1, Size: 4096})
	if !bytes.Equal(objs[0], absent) || !bytes.Equal(objs[1], absent) || !bytes.Equal(objs[2], ahead) {
		t.Fatal("a reader on another session saw something other than {absent, absent, the tuple ahead of the forged one}")
	}
	if _, err := writer.write(false, honest); err != nil {
		t.Fatal(err)
	}
	if objs, _ := reader.read(false, rdma.ReadReq{DS: 7, Idx: 2, Size: 4096}); !bytes.Equal(objs[0], victim) {
		t.Fatal("reissued write did not land")
	}
}

// TestForgedLZTupleStoresNothing: a write batch whose CRC is good but
// whose second tuple carries a corrupt LZ block (forgedTupleStoresNothing).
func TestForgedLZTupleStoresNothing(t *testing.T) {
	testutil.NoGoroutineLeaks(t)
	victim := sparseInt64(4096, rand.New(rand.NewSource(6)))
	forgedTupleStoresNothing(t, victim, rdma.SchemeLZ, func(r *rdma.WriteReqC) {
		// Corrupt the block until it no longer decodes to 4096 bytes (a flip
		// inside a literal run would still decode, to the wrong image — that
		// is the CRC's job to catch, not the codec's).
		for i := 0; rdma.LZDecompress(make([]byte, 4096), r.Data) == nil; i++ {
			if i == len(r.Data) {
				t.Fatal("no single-byte corruption makes the block undecodable")
			}
			r.Data[i] = 0xFF
		}
	}, true)
}

// TestForgedWordsTupleStoresNothing is the same contract for every way a
// bit-packed block can be wrong: admission is rdma.CheckWords, and what
// it refuses is refused exactly as an LZ block that fails to decode is.
func TestForgedWordsTupleStoresNothing(t *testing.T) {
	testutil.NoGoroutineLeaks(t)
	victim := sparseInt64(4096, rand.New(rand.NewSource(6))) // bits 0-9: s 0, w 10
	bitmap := func(r *rdma.WriteReqC) []byte { return r.Data[2 : 2+64] }
	flipFirst := func(r *rdma.WriteReqC, set bool) {
		for i, b := range bitmap(r) {
			for j := 0; j < 8; j++ {
				if (b>>j&1 != 0) == set {
					bitmap(r)[i] ^= 1 << j
					return
				}
			}
		}
		t.Fatal("bitmap has no such bit")
	}
	for _, tc := range []struct {
		name    string
		forge   func(*rdma.WriteReqC)
		decodes bool
	}{
		{"popcount one more than the word area holds", func(r *rdma.WriteReqC) { flipFirst(r, false) }, true},
		{"popcount one fewer than the word area holds", func(r *rdma.WriteReqC) { flipFirst(r, true) }, true},
		{"word area one byte short", func(r *rdma.WriteReqC) { r.Data = r.Data[:len(r.Data)-1] }, true},
		{"w=0", func(r *rdma.WriteReqC) { r.Data[1] = 0 }, true},
		{"w=5", func(r *rdma.WriteReqC) { r.Data[1] = 5 }, true},
		{"lo+w=9", func(r *rdma.WriteReqC) { r.Data[0] = 65 - r.Data[1] }, true}, // s+w = 65
		{"rawLen not whole groups", func(r *rdma.WriteReqC) { r.RawLen -= 8 }, true},
		{"rawLen another multiple of 64", func(r *rdma.WriteReqC) { r.RawLen += 64 }, true},
		// A block no shorter than its object never reaches CheckWords: the
		// tuple decoder refuses the length, and with it the whole batch.
		{"block as long as the object", func(r *rdma.WriteReqC) { r.RawLen = uint32(len(r.Data)) }, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			forgedTupleStoresNothing(t, victim, rdma.SchemeWords, tc.forge, tc.decodes)
		})
	}
}

// TestPackedWriteTuplesOnPlainSession pins what OptCompress governs: what
// the server sends, not what it takes. A session that did not ask for it
// may still write LZ and bit-packed tuples — full objects and range
// gathers — which are validated and stored exactly as on a compressing
// session (and refused exactly so when forged); it is never sent a
// compressed segment back (rawSession.read fails the test on one), while
// a compressing session reading the same objects gets the stored blocks.
func TestPackedWriteTuplesOnPlainSession(t *testing.T) {
	testutil.NoGoroutineLeaks(t)
	srv := NewServer()
	plain, packed := dialRaw(t, srv, 0), dialRaw(t, srv, rdma.OptCompress)
	rng := rand.New(rand.NewSource(9))
	img := sparseInt64(4096, rng)
	schemes := []uint8{rdma.SchemeLZ, rdma.SchemeWords}
	var reqs []rdma.ReadReq
	for i, scheme := range schemes {
		tuple := fullTuple(9, uint32(i), 0, img, scheme)
		if tuple.Scheme != scheme {
			t.Fatalf("the image travels as scheme %d, want %d", tuple.Scheme, scheme)
		}
		if _, err := plain.write(false, tuple); err != nil {
			t.Fatalf("scheme-%d tuple on a plain session: %v", scheme, err)
		}
		forged := tuple
		forged.Idx += 10
		forged.Data = tuple.Data[:8] // too short to hold 4 KiB under either scheme
		if _, err := plain.write(false, forged); err == nil || !strings.Contains(err.Error(), rdma.ErrCorrupt.Error()) {
			t.Fatalf("forged scheme-%d tuple on a plain session answered with %v", scheme, err)
		}
		reqs = append(reqs, rdma.ReadReq{DS: 9, Idx: uint32(i), Size: 4096})
	}
	if srv.Store.Len() != len(schemes) {
		t.Fatalf("store holds %v, want the two honest objects", srv.Store.Keys())
	}
	for _, sess := range []*rawSession{plain, packed} {
		objs, _ := sess.read(false, reqs...)
		for i, scheme := range schemes {
			if !bytes.Equal(objs[i], img) {
				t.Fatalf("object written as scheme %d reads back wrong (compress=%v)", scheme, sess.compress)
			}
			if got := sess.segs[i].Scheme; sess.compress && got != scheme {
				t.Fatalf("object stored as scheme %d was served to a compressing session as scheme %d", scheme, got)
			}
		}
	}

	// A range tuple whose 64-byte gather bit-packs, spliced onto the
	// bit-packed image.
	gather := sparseInt64(64, rng)
	r := fullTuple(9, 1, 0, gather, rdma.SchemeWords)
	if r.Scheme != rdma.SchemeWords {
		t.Fatalf("the gather travels as scheme %d", r.Scheme)
	}
	r.ObjSize, r.Extents = 4096, []rdma.Extent{{Off: 128, Len: 64}}
	if _, err := plain.write(false, r); err != nil {
		t.Fatal(err)
	}
	want := append([]byte(nil), img...)
	copy(want[128:], gather)
	for _, sess := range []*rawSession{plain, packed} {
		if objs, _ := sess.read(false, reqs[1]); !bytes.Equal(objs[0], want) {
			t.Fatalf("bit-packed range tuple spliced wrong (compress=%v)", sess.compress)
		}
	}
}
