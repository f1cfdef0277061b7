package replica

import (
	"cards/internal/farmem"
	"cards/internal/shardmap"
)

// Anti-entropy resync. A member that missed writes (dead, or a failed
// sub-write) is out of the read set; once its backend answers again it
// takes live writes immediately — the epoch-conditional apply on the
// server makes interleaving with the sweep safe — but rejoins reads
// only after a sweep proved every object it owns carries an epoch at
// least as new as the client-side authority, re-copying stale images
// from an in-sync survivor where it does not.

// resyncItem is one inventory entry the sweep must verify on the
// recovering member.
type resyncItem struct {
	ds, idx int
	epoch   uint64
	size    uint32
}

// resyncTick rides the fleet prober's tick (which has just probed the
// open members): it launches the anti-entropy sweep for divergent
// members whose backend is reachable again. The fleet's Close joins the
// sweeps.
func (s *Store) resyncTick(p *farmem.Prober) {
	for _, m := range s.members {
		if !m.inSync.Load() && m.Breaker.State() != farmem.BreakerOpen &&
			m.resyncing.CompareAndSwap(false, true) {
			p.Go(func() { s.resync(m, p.Stopped()) })
		}
	}
}

// inventoryFor snapshots the authority entries whose replica group
// contains m — the objects the sweep must verify.
func (s *Store) inventoryFor(m *member) []resyncItem {
	var gbuf [MaxReplicas]int
	s.epMu.Lock()
	defer s.epMu.Unlock()
	items := make([]resyncItem, 0, len(s.epochs))
	for k, meta := range s.epochs {
		ds, idx := int(k>>32), int(uint32(k))
		for _, gi := range s.GroupOf(ds, idx, gbuf[:0]) {
			if s.members[gi] == m {
				items = append(items, resyncItem{ds: ds, idx: idx, epoch: meta.epoch, size: meta.size})
				break
			}
		}
	}
	return items
}

// resync runs one anti-entropy sweep against a recovering member: for
// every owned object, compare the member's stored epoch (an
// epoch-only read — zero payload) with the authority; stale objects
// are re-copied from an in-sync survivor via epoch-conditional writes,
// so racing live writes can never be clobbered by the sweep's older
// image. The member rejoins the read set only when the sweep finishes
// without the member diverging again mid-flight.
func (s *Store) resync(m *member, stop <-chan struct{}) {
	defer m.resyncing.Store(false)
	gen := m.divergeGen.Load()
	items := s.inventoryFor(m)
	var buf []byte
	repaired, skipped := 0, 0
	for _, it := range items {
		select {
		case <-stop:
			return
		default:
		}
		have, err := m.readEpoch(it.ds, it.idx, nil)
		if err != nil {
			// The backend died again; its breaker re-trips and the next
			// recovery restarts the sweep.
			m.Fail()
			return
		}
		m.OK()
		if have >= it.epoch {
			continue
		}
		if cap(buf) < int(it.size) {
			buf = make([]byte, it.size)
		}
		ok, abort := s.repair(m, it, buf[:it.size])
		if abort {
			return
		}
		if !ok {
			// No reachable survivor holds the authoritative image — the
			// sole holder is down, or the image exists only in a parked
			// write-back whose drain will re-stamp and re-fan it. Count
			// the skip and keep sweeping so everything repairable is
			// repaired this pass, but do not rejoin below: claiming sync
			// with objects missing would silently drop the group to a
			// single copy. The next tick retries; the member rejoins once
			// a source resurfaces or the parked drain lands.
			s.resyncSkipped.Inc()
			skipped++
			continue
		}
		repaired++
	}
	if skipped > 0 {
		s.resyncedObjs.Add(uint64(repaired))
		return
	}
	if m.divergeGen.Load() != gen {
		// Missed more writes while sweeping; the next tick retries.
		return
	}
	m.inSync.Store(true)
	m.insyncGauge.Set(1)
	m.resyncs.Inc()
	s.resyncedObjs.Add(uint64(repaired))
}

// repair copies one stale object onto the target from the best
// survivor. Reports ok=false when no survivor held an image at least
// as new as the authority, abort=true when the target itself failed
// (sweep must stop). Any reachable member qualifies as a source — even
// one that is itself out of the read set: the epoch stamp on the read
// image, not the member's in-sync flag, proves per-object freshness,
// and requiring an in-sync source would wedge two concurrently
// recovering replicas that each hold objects only the other misses.
func (s *Store) repair(target *member, it resyncItem, buf []byte) (ok, abort bool) {
	var gbuf [MaxReplicas]int
	for _, gi := range s.GroupOf(it.ds, it.idx, gbuf[:0]) {
		src := s.members[gi]
		if src == target || !src.Breaker.Gate() {
			continue
		}
		epoch, err := src.readEpoch(it.ds, it.idx, buf)
		if err != nil {
			src.Fail()
			continue
		}
		src.OK()
		if epoch < it.epoch {
			continue
		}
		if err := shardmap.Wait(func(done func(error)) {
			target.eb.IssueWriteRangesEpoch(it.ds, it.idx, epoch, buf, nil, done)
		}); err != nil {
			target.Fail()
			return false, true
		}
		target.OK()
		return true, false
	}
	return false, false
}

// readEpoch is one stamped read on m, waited for; a nil dst is the
// epoch-only probe.
func (m *member) readEpoch(ds, idx int, dst []byte) (epoch uint64, err error) {
	err = shardmap.Wait(func(done func(error)) {
		m.eb.IssueReadEpoch(ds, idx, dst, func(e uint64, err error) { epoch = e; done(err) })
	})
	return epoch, err
}
