package testutil

import (
	"errors"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// ObjStore is the synchronous surface of a far-memory store
// (farmem.Store), restated so this package need not import farmem: the
// wrappers below satisfy farmem.AsyncStore and farmem.AsyncWriteStore
// structurally.
type ObjStore interface {
	ReadObj(ds, idx int, dst []byte) error
	WriteObj(ds, idx int, src []byte) error
}

// ErrInjected is the read failure FailingAsync injects.
var ErrInjected = errors.New("testutil: injected read failure")

// InlineAsync gives a synchronous store the asynchronous read and write
// surfaces, completing every op inline, before the issuing call
// returns: the runtime takes its async paths, and every completion is
// already there when it looks.
type InlineAsync struct{ ObjStore }

// IssueRead implements farmem.AsyncStore.
func (s InlineAsync) IssueRead(ds, idx int, dst []byte, done func(error)) {
	done(s.ReadObj(ds, idx, dst))
}

// IssueWrite implements farmem.AsyncWriteStore.
func (s InlineAsync) IssueWrite(ds, idx int, src []byte, done func(error)) {
	done(s.WriteObj(ds, idx, src))
}

// LateAsync completes every async op on a goroutine of its own after a
// seeded random delay: reads fill dst only then, so a runtime that looks
// at a buffer before its completion sees stale bytes.
type LateAsync struct {
	ObjStore
	maxDelay time.Duration
	mu       sync.Mutex
	rng      *rand.Rand
	wg       sync.WaitGroup
	reads    atomic.Int64
}

// NewLateAsync wraps s with delays up to maxDelay drawn from seed.
func NewLateAsync(s ObjStore, maxDelay time.Duration, seed int64) *LateAsync {
	return &LateAsync{ObjStore: s, maxDelay: maxDelay, rng: rand.New(rand.NewSource(seed))}
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

// IssueRead implements farmem.AsyncStore.
func (s *LateAsync) IssueRead(ds, idx int, dst []byte, done func(error)) {
	s.reads.Add(1)
	s.later(func() error { return s.ReadObj(ds, idx, dst) }, done)
}

// IssueWrite implements farmem.AsyncWriteStore.
func (s *LateAsync) IssueWrite(ds, idx int, src []byte, done func(error)) {
	s.later(func() error { return s.WriteObj(ds, idx, src) }, done)
}

// Reads returns how many async reads were issued.
func (s *LateAsync) Reads() int64 { return s.reads.Load() }

// Wait returns once every op issued so far has completed.
func (s *LateAsync) Wait() { s.wg.Wait() }

// FailingAsync fails every async read with ErrInjected; synchronous
// reads fail the same way while SyncFails is set, else go through.
// Writes, async ones included, always go through inline.
type FailingAsync struct {
	ObjStore
	SyncFails bool
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
