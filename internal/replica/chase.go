package replica

import (
	"fmt"

	"cards/internal/farmem"
	"cards/internal/rdma"
	"cards/internal/shardmap"
)

// Traversal offload over the replica group. A chase routes like a read:
// to the highest-ranked member and down the ranking on failure — but
// only across in-sync members. Chase replies carry no epoch stamps (the
// path is assembled server-side, one stamp per hop would defeat the
// compact encoding), so the staleness detection the epoch read path
// gets for free is replaced by a stricter admission rule: a member that
// may have missed writes never serves a chase. When no in-sync member
// speaks the chase verbs the program fails with ErrDegraded and the
// runtime degrades to per-hop epoch reads, which remain individually
// verifiable.

// ChaseCapable implements farmem.AsyncChaseStore: offload is on while some
// in-sync member speaks the chase verbs on its live session.
func (s *Store) ChaseCapable() bool {
	for _, m := range s.members {
		if m.Caps.Chase != nil && m.inSync.Load() && m.Caps.Chase.ChaseCapable() {
			return true
		}
	}
	return false
}

// Chase implements farmem.AsyncChaseStore: IssueChase, waited for.
func (s *Store) Chase(req rdma.ChaseReq) (res rdma.ChaseResult, err error) {
	err = shardmap.Wait(func(done func(error)) {
		s.IssueChase(req, func(r rdma.ChaseResult, err error) { res = r; done(err) })
	})
	return res, err
}

// IssueChase implements farmem.AsyncChaseStore: the program walks down
// the replica ranking of its (pinned) structure, promoted to the
// next-ranked in-sync member mid-op when the serving one fails.
func (s *Store) IssueChase(req rdma.ChaseReq, done func(rdma.ChaseResult, error)) {
	ranked, err := s.ChaseGroup(int(req.DS), int(req.Start))
	if err != nil {
		done(rdma.ChaseResult{}, err)
		return
	}
	s.chaseNext(req, ranked, 0, done)
}

// chaseNext issues the program against the next eligible member of the
// ranking; its completion callback reissues down the ranking on
// transport failure, counting each promotion as a chase failover.
func (s *Store) chaseNext(req rdma.ChaseReq, ranked []int, next int, done func(rdma.ChaseResult, error)) {
	for next < len(ranked) {
		m := s.members[ranked[next]]
		next++
		if m.Caps.Chase == nil || !m.inSync.Load() || !m.Breaker.Gate() {
			continue
		}
		cont := next
		m.Caps.Chase.IssueChase(req, func(res rdma.ChaseResult, err error) {
			if err != nil {
				m.Fail()
				s.chaseFailovers.Inc()
				s.chaseNext(req, ranked, cont, done)
				return
			}
			m.OK()
			m.reads.Inc()
			done(res, nil)
		})
		return
	}
	done(rdma.ChaseResult{}, fmt.Errorf("replica: no in-sync chase-capable replica for ds%d: %w",
		req.DS, farmem.ErrDegraded))
}
