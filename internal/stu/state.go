package stu

import (
	"deact/internal/acm"
	"deact/internal/sim"
	"deact/internal/tlb"
)

// assocState captures one assoc table. Generic over the value type so each
// organization's payload is copied by value.
type assocState[V any] struct {
	keys   []uint64
	vals   []V
	valid  []bool
	stamps []uint64
	tick   uint64
	hits   uint64
	misses uint64
}

func (a *assoc[V]) captureState(st *assocState[V]) {
	st.keys = append(st.keys[:0], a.keys...)
	st.vals = append(st.vals[:0], a.vals...)
	st.valid = append(st.valid[:0], a.valid...)
	st.stamps = append(st.stamps[:0], a.stamps...)
	st.tick = a.tick
	st.hits, st.misses = a.hits, a.misses
}

func (a *assoc[V]) restoreState(st *assocState[V]) {
	if len(st.keys) != len(a.keys) {
		panic("stu: restoreState assoc geometry mismatch")
	}
	copy(a.keys, st.keys)
	copy(a.vals, st.vals)
	copy(a.valid, st.valid)
	copy(a.stamps, st.stamps)
	a.tick = st.tick
	a.hits, a.misses = st.hits, st.misses
}

// State is an STU's mutable state for core.System.Snapshot: the port
// calendar, whichever cache organization is active, the FAM walk cache and
// the counters. The walk scratch buffer is not state (it never survives a
// call), and the page-table alias is restored by the broker, not here.
type State struct {
	port   sim.ServerState
	ifam   assocState[ifamEntry]
	wcache assocState[struct{}]
	ncache assocState[acm.Entry]
	ptw    tlb.PTWCacheState
	stats  Stats
}

// CaptureState captures the STU into st, reusing st's storage.
func (s *STU) CaptureState(st *State) {
	s.port.CaptureState(&st.port)
	if s.ifam != nil {
		s.ifam.captureState(&st.ifam)
	}
	if s.wcache != nil {
		s.wcache.captureState(&st.wcache)
	}
	if s.ncache != nil {
		s.ncache.captureState(&st.ncache)
	}
	s.ptw.CaptureState(&st.ptw)
	st.stats = s.stats
}

// RestoreState rewinds the STU to st. The STU must be built from the
// configuration st was captured from.
func (s *STU) RestoreState(st *State) {
	s.port.RestoreState(&st.port)
	if s.ifam != nil {
		s.ifam.restoreState(&st.ifam)
	}
	if s.wcache != nil {
		s.wcache.restoreState(&st.wcache)
	}
	if s.ncache != nil {
		s.ncache.restoreState(&st.ncache)
	}
	s.ptw.RestoreState(&st.ptw)
	s.stats = st.stats
}
