package testutil

import (
	"encoding/binary"
	"errors"
	"math/bits"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"cards/internal/rdma"
)

// ObjStore is the synchronous surface of a far-memory store
// (farmem.Store), restated so this package need not import farmem: the
// wrappers below satisfy farmem.AsyncStore and farmem.RangeWriteStore
// structurally.
type ObjStore interface {
	ReadObj(ds, idx int, dst []byte) error
	WriteObj(ds, idx int, src []byte) error
}

// ErrInjected is the failure FailingAsync injects.
var ErrInjected = errors.New("testutil: injected failure")

// splice is the far tier's read-modify-write of a range write: the
// bytes of src inside exts — the only ones it is valid in — laid over
// the stored image.
func splice(s ObjStore, ds, idx int, src []byte, exts []rdma.Extent) error {
	cur := make([]byte, len(src))
	if err := s.ReadObj(ds, idx, cur); err != nil {
		return err
	}
	for _, e := range exts {
		copy(cur[e.Off:e.Off+e.Len], src[e.Off:])
	}
	return s.WriteObj(ds, idx, cur)
}

// InlineAsync gives a synchronous store the asynchronous read, write
// and range-write surfaces, completing every op inline, before the
// issuing call returns: the runtime takes its async paths, and every
// completion is already there when it looks.
type InlineAsync struct{ ObjStore }

// IssueRead implements farmem.AsyncStore.
func (s InlineAsync) IssueRead(ds, idx int, dst []byte, done func(error)) {
	done(s.ReadObj(ds, idx, dst))
}

// IssueWrite implements farmem.AsyncWriteStore.
func (s InlineAsync) IssueWrite(ds, idx int, src []byte, done func(error)) {
	done(s.WriteObj(ds, idx, src))
}

// IssueWriteRanges implements farmem.RangeWriteStore.
func (s InlineAsync) IssueWriteRanges(ds, idx int, src []byte, exts []rdma.Extent, done func(error)) {
	done(splice(s.ObjStore, ds, idx, src, exts))
}

// WireForm leaves the object read into dst in the form a far tier's
// reply may carry it (farmem.WireReadStore), named by *blk: an object
// rdma.ScanWords finds eligible as its bit-packed block, an all-zero one
// as no bytes, any other raw. The bytes past a block are scribbled, as a
// reused staging buffer's would be stale, so a reader that skips the
// decode reads garbage.
func WireForm(dst []byte, blk *rdma.Block) {
	s, w := rdma.ScanWords(dst)
	switch {
	case w == 0:
		*blk = rdma.Block{Scheme: rdma.SchemeZero}
	case w > 0:
		b := make([]byte, rdma.WordsBound(len(dst)))
		*blk = rdma.Block{Scheme: rdma.SchemeWords, Len: copy(dst, b[:rdma.PackWords(b, dst, s, w)])}
	default:
		return
	}
	for i := blk.Len; i < len(dst); i++ {
		dst[i] = 0xa5
	}
}

// WireInline is InlineAsync that also leaves a read in wire form
// (farmem.WireReadStore, see WireForm).
type WireInline struct{ InlineAsync }

// IssueReadWire implements farmem.WireReadStore.
func (s WireInline) IssueReadWire(ds, idx int, dst []byte, blk *rdma.Block, done func(error)) {
	err := s.ReadObj(ds, idx, dst)
	if err == nil {
		WireForm(dst, blk)
	}
	done(err)
}

// LateAsync completes every async op on a goroutine of its own after a
// seeded random delay: reads fill dst only then, and writes and splices
// land only then, so a runtime that looks at a buffer before its
// completion sees stale bytes. It also counts reads of an object issued
// while a write of it is still out (Overlaps), which the runtime's
// read-your-writes rule forbids.
type LateAsync struct {
	ObjStore
	maxDelay time.Duration
	mu       sync.Mutex
	rng      *rand.Rand
	writing  map[[2]int]int
	wg       sync.WaitGroup
	reads    atomic.Int64
	splices  atomic.Int64
	overlaps atomic.Int64
}

// NewLateAsync wraps s with delays up to maxDelay drawn from seed.
func NewLateAsync(s ObjStore, maxDelay time.Duration, seed int64) *LateAsync {
	return &LateAsync{ObjStore: s, maxDelay: maxDelay, rng: rand.New(rand.NewSource(seed)), writing: make(map[[2]int]int)}
}

func (s *LateAsync) later(op func() error, done func(error)) {
	s.mu.Lock()
	d := time.Duration(s.rng.Int63n(int64(s.maxDelay) + 1))
	s.mu.Unlock()
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		// Yield rather than sleep: a timer cannot wait microseconds.
		for start := time.Now(); time.Since(start) < d; {
			runtime.Gosched()
		}
		done(op())
	}()
}

// write runs op late, with the object marked as being written until
// just before done.
func (s *LateAsync) write(ds, idx int, op func() error, done func(error)) {
	k := [2]int{ds, idx}
	s.mu.Lock()
	s.writing[k]++
	s.mu.Unlock()
	s.later(func() error {
		err := op()
		s.mu.Lock()
		s.writing[k]--
		s.mu.Unlock()
		return err
	}, done)
}

func (s *LateAsync) noteRead(ds, idx int) {
	s.mu.Lock()
	if s.writing[[2]int{ds, idx}] > 0 {
		s.overlaps.Add(1)
	}
	s.mu.Unlock()
}

// ReadObj implements farmem.Store.
func (s *LateAsync) ReadObj(ds, idx int, dst []byte) error {
	s.noteRead(ds, idx)
	return s.ObjStore.ReadObj(ds, idx, dst)
}

// IssueRead implements farmem.AsyncStore.
func (s *LateAsync) IssueRead(ds, idx int, dst []byte, done func(error)) {
	s.reads.Add(1)
	s.noteRead(ds, idx)
	s.later(func() error { return s.ObjStore.ReadObj(ds, idx, dst) }, done)
}

// WireLate is LateAsync that also leaves a read in wire form
// (farmem.WireReadStore, see WireForm).
type WireLate struct{ *LateAsync }

// IssueReadWire implements farmem.WireReadStore.
func (s WireLate) IssueReadWire(ds, idx int, dst []byte, blk *rdma.Block, done func(error)) {
	s.reads.Add(1)
	s.noteRead(ds, idx)
	s.later(func() error {
		err := s.ObjStore.ReadObj(ds, idx, dst)
		if err == nil {
			WireForm(dst, blk)
		}
		return err
	}, done)
}

// IssueWrite implements farmem.AsyncWriteStore.
func (s *LateAsync) IssueWrite(ds, idx int, src []byte, done func(error)) {
	s.write(ds, idx, func() error { return s.WriteObj(ds, idx, src) }, done)
}

// IssueWriteRanges implements farmem.RangeWriteStore.
func (s *LateAsync) IssueWriteRanges(ds, idx int, src []byte, exts []rdma.Extent, done func(error)) {
	s.splices.Add(1)
	s.write(ds, idx, func() error { return splice(s.ObjStore, ds, idx, src, exts) }, done)
}

// Reads returns how many async reads were issued.
func (s *LateAsync) Reads() int64 { return s.reads.Load() }

// Splices returns how many range writes were issued.
func (s *LateAsync) Splices() int64 { return s.splices.Load() }

// Overlaps returns how many reads found a write of their object out.
func (s *LateAsync) Overlaps() int64 { return s.overlaps.Load() }

// Wait returns once every op issued so far has completed.
func (s *LateAsync) Wait() { s.wg.Wait() }

// FailingAsync fails every async read with ErrInjected; synchronous
// reads fail the same way while SyncFails is set, else go through.
// Writes, async ones included, go through inline, and so do splices
// unless SpliceFails is set: then every one fails with ErrInjected, and
// every second one is applied first, as an uncertain write may be.
type FailingAsync struct {
	ObjStore
	SyncFails, SpliceFails bool
	splices                atomic.Int64
}

// ReadObj implements farmem.Store.
func (s *FailingAsync) ReadObj(ds, idx int, dst []byte) error {
	if s.SyncFails {
		return ErrInjected
	}
	return s.ObjStore.ReadObj(ds, idx, dst)
}

// IssueRead implements farmem.AsyncStore.
func (s *FailingAsync) IssueRead(ds, idx int, dst []byte, done func(error)) {
	done(ErrInjected)
}

// IssueWrite implements farmem.AsyncWriteStore.
func (s *FailingAsync) IssueWrite(ds, idx int, src []byte, done func(error)) {
	done(s.WriteObj(ds, idx, src))
}

// IssueWriteRanges implements farmem.RangeWriteStore.
func (s *FailingAsync) IssueWriteRanges(ds, idx int, src []byte, exts []rdma.Extent, done func(error)) {
	n := s.splices.Add(1)
	if !s.SpliceFails || n%2 == 0 {
		err := splice(s.ObjStore, ds, idx, src, exts)
		if !s.SpliceFails || err != nil {
			done(err)
			return
		}
	}
	done(ErrInjected)
}

// Splices returns how many range writes were issued.
func (s *FailingAsync) Splices() int64 { return s.splices.Load() }

// HeldAsync gives a synchronous store an asynchronous write surface
// whose writes are applied and acknowledged only on Release: until then
// the far tier keeps the old bytes and the runtime's completion is out,
// as behind a link whose acks are late. Reads and synchronous writes go
// through. Release may run on a goroutine beside the runtime's.
type HeldAsync struct {
	ObjStore
	mu   sync.Mutex
	held []heldWrite
}

type heldWrite struct {
	idx int
	ack func(error)
}

// IssueWrite implements farmem.AsyncWriteStore.
func (s *HeldAsync) IssueWrite(ds, idx int, src []byte, done func(error)) {
	s.mu.Lock()
	s.held = append(s.held, heldWrite{idx, func(err error) {
		if err == nil {
			err = s.WriteObj(ds, idx, src)
		}
		done(err)
	}})
	s.mu.Unlock()
}

// Held returns how many writes await release.
func (s *HeldAsync) Held() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.held)
}

// Release acknowledges the held writes of object idx, or every held
// write when idx is negative, oldest first, and returns how many it
// released: with err nil each is applied first, otherwise each fails
// with err unapplied.
func (s *HeldAsync) Release(idx int, err error) int {
	s.mu.Lock()
	var out []heldWrite
	kept := s.held[:0]
	for _, w := range s.held {
		if idx < 0 || w.idx == idx {
			out = append(out, w)
		} else {
			kept = append(kept, w)
		}
	}
	s.held = kept
	s.mu.Unlock()
	for _, w := range out {
		w.ack(err)
	}
	return len(out)
}

// ChaseAsync is an in-process far tier with the asynchronous read,
// write and chase surfaces over a synchronous store. It executes every
// op in issue order but acknowledges late: a write, and a chase's walk
// of the store, take effect when issued, a read fills dst only when it
// completes, and every completion arrives on a goroutine of its own
// after a seeded random delay up to maxDelay. A walk follows the
// tagged successor word at NextOff of each visited object, as cardsd
// does, and returns every visited object whole.
type ChaseAsync struct {
	*LateAsync
	chases atomic.Int64
}

// NewChaseAsync wraps s with delays up to maxDelay drawn from seed.
func NewChaseAsync(s ObjStore, maxDelay time.Duration, seed int64) *ChaseAsync {
	return &ChaseAsync{LateAsync: NewLateAsync(s, maxDelay, seed)}
}

// IssueWrite implements farmem.AsyncWriteStore.
func (s *ChaseAsync) IssueWrite(ds, idx int, src []byte, done func(error)) {
	err := s.WriteObj(ds, idx, src)
	s.later(func() error { return err }, done)
}

// ChaseCapable implements farmem.AsyncChaseStore.
func (s *ChaseAsync) ChaseCapable() bool { return true }

// Chase implements farmem.AsyncChaseStore.
func (s *ChaseAsync) Chase(req rdma.ChaseReq) (rdma.ChaseResult, error) {
	return s.walk(req)
}

// IssueChase implements farmem.AsyncChaseStore.
func (s *ChaseAsync) IssueChase(req rdma.ChaseReq, done func(rdma.ChaseResult, error)) {
	s.chases.Add(1)
	res, err := s.walk(req)
	s.later(func() error { return err }, func(err error) { done(res, err) })
}

// Chases returns how many chase programs were issued.
func (s *ChaseAsync) Chases() int64 { return s.chases.Load() }

func (s *ChaseAsync) walk(req rdma.ChaseReq) (rdma.ChaseResult, error) {
	var res rdma.ChaseResult
	shift := uint(bits.TrailingZeros32(req.ObjSize))
	for idx, hop := req.Start, uint32(1); ; hop++ {
		data := make([]byte, req.ObjSize)
		if err := s.ObjStore.ReadObj(int(req.DS), int(idx), data); err != nil {
			return rdma.ChaseResult{}, err
		}
		res.Hops = append(res.Hops, rdma.ChaseHop{Idx: idx, Data: data})
		word := binary.LittleEndian.Uint64(data[req.NextOff:])
		switch {
		case !rdma.ChaseAddrTagged(word) || rdma.ChaseAddrDS(word) != req.DS:
			res.Status, res.Final = rdma.ChaseDone, word
			return res, nil
		case hop == req.Hops:
			res.Status, res.Final = rdma.ChaseHops, word
			return res, nil
		}
		idx = uint32(rdma.ChaseAddrOff(word) >> shift)
	}
}

// IssueWriteRanges implements farmem.RangeWriteStore.
func (s *ChaseAsync) IssueWriteRanges(ds, idx int, src []byte, exts []rdma.Extent, done func(error)) {
	err := splice(s.ObjStore, ds, idx, src, exts)
	s.later(func() error { return err }, done)
}
