package learning

import "math"

// argmaxTree is a tournament (winner) tree over a bandit's cached
// efficiencies. Leaf n+arm holds arm while the arm is a candidate and -1
// while it is not; every inner node i holds the winner of its children
// 2i and 2i+1, so node 1 is the argmax over all candidates. Changing one
// arm's efficiency replays only the matches on its leaf-to-root path —
// O(log n) where a scan is O(n) — and, because the match rule is a total
// order (higher efficiency first, lower index on a tie), the answer is
// the one a lowest-index scan gives whatever the arm count's shape.
//
// An arm whose efficiency is NaN or -Inf is never a candidate: like the
// scan's `eff > -Inf` it cannot win, and keeping it out of the leaves
// means matches never compare a NaN.
type argmaxTree []int32

// newArgmaxTree returns a tree over n arms with no candidates.
func newArgmaxTree(n int) argmaxTree {
	t := make(argmaxTree, 2*n)
	for i := range t {
		t[i] = -1
	}
	return t
}

// match returns the winner of two subtree winners (-1 = empty subtree).
func match(eff []float64, a, b int32) int32 {
	switch {
	case a < 0:
		return b
	case b < 0:
		return a
	case eff[b] > eff[a] || (eff[b] == eff[a] && b < a):
		return b
	}
	return a
}

// candidate reports whether an efficiency can win at all.
func candidate(eff float64) bool { return eff > math.Inf(-1) }

// fill enters every arm whose efficiency is a candidate and plays every
// match, bottom-up.
func (t argmaxTree) fill(eff []float64) {
	n := len(t) / 2
	for arm := 0; arm < n; arm++ {
		t[n+arm] = -1
		if candidate(eff[arm]) {
			t[n+arm] = int32(arm)
		}
	}
	for i := n - 1; i >= 1; i-- {
		t[i] = match(eff, t[2*i], t[2*i+1])
	}
}

// update re-enters arm after eff[arm] changed and replays its path. The
// walk stops at the first node that some other arm won before and still
// wins: nothing that node's ancestors compare has moved.
func (t argmaxTree) update(eff []float64, arm int) {
	i := len(t)/2 + arm
	t[i] = -1
	if candidate(eff[arm]) {
		t[i] = int32(arm)
	}
	for i >>= 1; i >= 1; i >>= 1 {
		w := match(eff, t[2*i], t[2*i+1])
		if w == t[i] && w != int32(arm) {
			return
		}
		t[i] = w
	}
}

// best returns the winning arm, or -1 when there is no candidate.
func (t argmaxTree) best() int { return int(t[1]) }
