package lts

// Partition refinement in the Paige–Tarjan tradition over the CSR edge
// array: the coarsest strong-bisimulation partition of a transition
// system, the engine behind Bisimilar.
//
// Determinism contract: block ids are assigned by encounter rank — the
// order in which blocks are first met scanning states 0..n-1 — never by
// map iteration order. Two byte-identical inputs therefore always
// produce byte-identical partitions, regardless of interner ID
// assignment; TestRefineIndependentOfInternOrder pins
// this the same way TestExploreIndependentOfInternOrder pins it for
// exploration.

import "slices"

// refineCSR computes the coarsest partition of states 0..n-1 stable under
// the labelled edge relation out: the strong-bisimulation partition. Block ids are dense, assigned in first-
// encounter order over the final state scan, so the result is a pure
// function of the input — no map iteration order is ever observed.
//
// The algorithm is worklist partition refinement in the Paige–Tarjan
// tradition: a split of block C enqueues only the blocks holding
// predecessors of the states C lost, so stabilised regions of the state
// space are never rescanned — the work per round is proportional to the
// part of the partition still in motion, not to the whole LTS. Within a
// round, blocks are split by exact signature — the dedup-sorted set of
// (label, successor block) moves — grouped through an open-addressed
// table with full collision checks. Splitting is monotone (the largest
// signature group keeps the block's id, the others get fresh ids), so
// the partition only ever refines and the loop terminates with the
// coarsest stable one.
func refineCSR(n int, out func(s int) []Edge) ([]int32, int) {
	// The reverse CSR — the worklist needs "who can reach the states this
	// split moved" — is built lazily, on the first split that actually
	// moves states: partitions that collapse in one pass never pay for it.
	var rstart, rsrc []int32
	buildRev := func() {
		rstart = make([]int32, n+1)
		total := 0
		for s := 0; s < n; s++ {
			for _, e := range out(s) {
				rstart[e.Dst+1]++
				total++
			}
		}
		for i := 0; i < n; i++ {
			rstart[i+1] += rstart[i]
		}
		rsrc = make([]int32, total)
		rfill := append([]int32(nil), rstart[:n]...)
		for s := 0; s < n; s++ {
			for _, e := range out(s) {
				rsrc[rfill[e.Dst]] = int32(s)
				rfill[e.Dst]++
			}
		}
	}

	// Internal block state: ids are stable across rounds (only fresh
	// split-off groups get new ones); the canonical encounter-rank
	// numbering is applied in one renaming pass at the end.
	blockOf := make([]int32, n)
	all := make([]int32, n)
	for i := range all {
		all[i] = int32(i)
	}
	members := [][]int32{all}
	inQueue := []bool{true}
	queue := []int32{0}
	var nextQueue []int32
	dirtyState := make([]bool, n)
	var dirtyList []int32

	var sig []uint64       // scratch: the signature of the member at hand
	var groupSigs []uint64 // pooled: one canonical signature per group
	var gidx []int32       // group index per member of the block at hand
	var table []int32      // pooled open-addressed table (group index + 1)
	var tslots []int32     // slots written into table, zeroed after each block
	var changed []int32    // states whose block id changed this round

	for len(queue) > 0 {
		changed = changed[:0]
		for _, b := range queue {
			inQueue[b] = false
			ms := members[b]
			if len(ms) <= 1 {
				continue
			}
			// Group members by exact signature, two passes (so the id
			// assignment can favour the LARGEST group — see below). A
			// member's signature lives only in a scratch while it is
			// matched against the per-group canonical copies: nothing
			// proportional to the block's edge count is retained.
			tcap := 16
			for tcap < 2*len(ms) {
				tcap <<= 1
			}
			if len(table) < tcap {
				table = make([]int32, tcap) // group index + 1; 0 = empty
			}
			type group struct {
				off, len int32 // canonical signature, into groupSigs
				count    int32
			}
			var groups []group
			groupSigs = groupSigs[:0]
			gidx = gidx[:0]
			tslots = tslots[:0]
			for _, s := range ms {
				sig = sig[:0]
				for _, e := range out(int(s)) {
					sig = append(sig, uint64(uint32(e.Label))<<32|uint64(uint32(blockOf[e.Dst])))
				}
				sortDedupU64(&sig)
				h := hashU64s(sig)
				for i := int(h) & (tcap - 1); ; i = (i + 1) & (tcap - 1) {
					ei := table[i]
					if ei == 0 {
						table[i] = int32(len(groups) + 1)
						tslots = append(tslots, int32(i))
						gidx = append(gidx, int32(len(groups)))
						groups = append(groups, group{off: int32(len(groupSigs)), len: int32(len(sig)), count: 1})
						groupSigs = append(groupSigs, sig...)
						break
					}
					g := &groups[ei-1]
					if int(g.len) == len(sig) && equalU64(groupSigs[g.off:g.off+g.len], sig) {
						g.count++
						gidx = append(gidx, ei-1)
						break
					}
				}
			}
			// The pooled table must be clean for the next block: zero
			// exactly the slots this block wrote.
			for _, i := range tslots {
				table[i] = 0
			}
			if len(groups) == 1 {
				continue
			}
			// The largest group keeps id b (ties: first encountered), the
			// others take fresh ids in encounter order. Keeping the big
			// group in place is the Hopcroft bound: every state then
			// migrates O(log n) times over the whole refinement, which
			// caps the total churn the reverse pass has to chase.
			keeper := 0
			for gi := 1; gi < len(groups); gi++ {
				if groups[gi].count > groups[keeper].count {
					keeper = gi
				}
			}
			ids := make([]int32, len(groups))
			segs := make([][]int32, len(groups))
			backing := make([]int32, len(ms))
			used := int32(0)
			for gi := range groups {
				segs[gi] = backing[used : used : used+groups[gi].count]
				used += groups[gi].count
				if gi == keeper {
					ids[gi] = b
				} else {
					ids[gi] = int32(len(members))
					members = append(members, nil)
					inQueue = append(inQueue, false)
				}
			}
			for mi, s := range ms {
				gi := gidx[mi]
				segs[gi] = append(segs[gi], s)
				if int(gi) != keeper {
					blockOf[s] = ids[gi]
					changed = append(changed, s)
				}
			}
			for gi := range groups {
				members[ids[gi]] = segs[gi]
			}
		}
		// Predecessors of moved states must be re-examined: their
		// signatures now mention the fresh block ids. (States that kept
		// their id need no re-examination — their predecessors'
		// signatures are bitwise unchanged, and any split those
		// predecessors still owe is triggered by a dirty co-member.)
		if len(changed) > 0 && rsrc == nil {
			buildRev()
		}
		for _, d := range changed {
			for _, p := range rsrc[rstart[d]:rstart[d+1]] {
				if !dirtyState[p] {
					dirtyState[p] = true
					dirtyList = append(dirtyList, p)
				}
			}
		}
		nextQueue = nextQueue[:0]
		for _, s := range dirtyList {
			dirtyState[s] = false
			if b := blockOf[s]; !inQueue[b] {
				inQueue[b] = true
				nextQueue = append(nextQueue, b)
			}
		}
		dirtyList = dirtyList[:0]
		slices.Sort(nextQueue) // fixed processing order: determinism
		queue, nextQueue = nextQueue, queue
	}

	// Canonical numbering: dense ids in first-encounter order over the
	// state scan (a plain rename slice — no map is consulted).
	rename := make([]int32, len(members))
	for i := range rename {
		rename[i] = -1
	}
	final := make([]int32, n)
	count := 0
	for s := 0; s < n; s++ {
		b := blockOf[s]
		if rename[b] < 0 {
			rename[b] = int32(count)
			count++
		}
		final[s] = rename[b]
	}
	return final, count
}

// hashU64s mixes a signature into a 64-bit probe hash.
func hashU64s(sig []uint64) uint64 {
	h := uint64(0x9e3779b97f4a7c15)
	for _, x := range sig {
		h ^= x
		h *= 0x100000001b3
		h ^= h >> 29
	}
	return h
}

// sortDedupU64 sorts the signature moves and removes duplicates in place.
// Move lists are short and mostly sorted (successor blocks correlate with
// edge order), so the insertion sort wins on constants; long lists fall
// back to the library sort.
func sortDedupU64(xs *[]uint64) {
	s := *xs
	if len(s) <= 1 {
		return
	}
	if len(s) <= 32 {
		for i := 1; i < len(s); i++ {
			for j := i; j > 0 && s[j] < s[j-1]; j-- {
				s[j], s[j-1] = s[j-1], s[j]
			}
		}
	} else {
		slices.Sort(s)
	}
	w := 1
	for i := 1; i < len(s); i++ {
		if s[i] != s[i-1] {
			s[w] = s[i]
			w++
		}
	}
	*xs = s[:w]
}

func equalU64(a, b []uint64) bool {
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
