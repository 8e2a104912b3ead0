//go:build amd64 && !purego

package game

// walk16 plays rounds rounds of the games of groups sixteen-lane groups of
// st, from the states in st.sA and st.sB, reading each lane's moves from
// the packed tables at signed dword offsets st.offA and st.offB from base.
// It adds each round's outcome to the lane's byte counters in st.ctr and
// leaves the states entering the next round in st.sA and st.sB.  When rec
// is not nil it also writes lane l's focal state after round r to
// rec[64r+l].  mask is NumStates-1.  rounds must not exceed
// maxCounterRounds, and every lane, padding included, must address live
// tables.
//
//go:noescape
func walk16(base *uint64, st *laneState, groups, rounds int, mask uint32, rec *uint16)

// revisits16 finds, for each lane l of groups sixteen-lane groups, the
// first revisit of its walk over the first rounds rounds, from the states
// rec holds (rec[64r+l] is lane l's state after round r; the walk starts
// in state 0): first[l] is r<<8 | mu when r is the first round whose
// entering state repeats one, first entered at round mu, and 0 when no
// state repeats by round rounds.  rounds must be at least 1.
//
//go:noescape
func revisits16(rec *uint16, groups, rounds int, first *[BatchLanes]uint32)
