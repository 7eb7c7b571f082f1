package learning

import "math"

// argmaxTree is a tournament (winner) tree over a bandit's pulled arms,
// one leaf per slot. Leaf n+s holds slot s while its arm is a candidate
// and -1 while it is not (or while the slot is unused); every inner node
// i holds the winner of its children 2i and 2i+1, so node 1 is the
// argmax over all candidates. Changing one slot's efficiency replays only
// the matches on its leaf-to-root path — O(log n) where a scan is O(n) —
// and, because the match rule is a total order on the arms (higher
// efficiency first, lower arm index on a tie), the answer is the one a
// lowest-index scan over the arms gives, whatever order the slots were
// opened in.
//
// An arm whose efficiency is NaN or -Inf is never a candidate: like the
// scan's `eff > -Inf` it cannot win, and keeping it out of the leaves
// means matches never compare a NaN.
type argmaxTree []int32

// newArgmaxTree returns a tree with room for n slots and no candidates.
func newArgmaxTree(n int) argmaxTree {
	t := make(argmaxTree, 2*n)
	for i := range t {
		t[i] = -1
	}
	return t
}

// better reports whether arm a, of efficiency effA, outranks arm b, of
// effB: the order every argmax in this package plays, higher efficiency
// first and the lower index on a tie — which, with our index convention,
// prefers fewer resources.
func better(effA float64, a int, effB float64, b int) bool {
	return effA > effB || (effA == effB && a < b)
}

// match returns the winner of two subtree winners (-1 = empty subtree).
func match(slots []slot, a, b int32) int32 {
	switch {
	case a < 0:
		return b
	case b < 0:
		return a
	case better(slots[b].eff, slots[b].arm, slots[a].eff, slots[a].arm):
		return b
	}
	return a
}

// candidate reports whether an efficiency can win at all.
func candidate(eff float64) bool { return eff > math.Inf(-1) }

// grow returns a tree with room for every slot: t itself while it has
// room, otherwise one of twice the size with every slot entered and
// every match played.
func (t argmaxTree) grow(slots []slot) argmaxTree {
	if len(slots) <= len(t)/2 {
		return t
	}
	t = newArgmaxTree(max(firstSlots, len(t)))
	n := len(t) / 2
	for s := range slots {
		if candidate(slots[s].eff) {
			t[n+s] = int32(s)
		}
	}
	for i := n - 1; i >= 1; i-- {
		t[i] = match(slots, t[2*i], t[2*i+1])
	}
	return t
}

// update re-enters slot s after its efficiency changed and replays its
// path. The walk stops at the first node that some other slot won before
// and still wins: nothing that node's ancestors compare has moved.
func (t argmaxTree) update(slots []slot, s int) {
	i := len(t)/2 + s
	t[i] = -1
	if candidate(slots[s].eff) {
		t[i] = int32(s)
	}
	for i >>= 1; i >= 1; i >>= 1 {
		w := match(slots, t[2*i], t[2*i+1])
		if w == t[i] && w != int32(s) {
			return
		}
		t[i] = w
	}
}

// best returns the winning slot, or -1 when there is no candidate.
func (t argmaxTree) best() int {
	if len(t) == 0 {
		return -1
	}
	return int(t[1])
}
