// Package ost implements an order-statistic tree (a size-augmented treap).
//
// The futility of a cache line is its uselessness rank within its partition
// normalized to [0,1]: for the line ranked r-th of M, f = r/M (§III-A of the
// paper). Exact futility ranking therefore needs order statistics over a
// dynamically changing set of keys — access frequencies for LFU and next-use
// times for OPT. Those two reference rankers are the treap's only users: recency keys only ever grow, so exact LRU
// ranks and the MRC profiler's stack distances (futility.ExactLRU,
// alloc.Profiler) come from internal/recency's Fenwick tree over access
// order instead. The treap supports Insert, Delete, Rank, Select, Min and Max
// in O(log n) expected time with deterministic behaviour given a seed.
//
// Keys are (uint64 primary, uint64 tiebreak) pairs; the tiebreak makes every
// stored key unique so ranks are a strict total order, as the paper requires
// ("a strict total order of the uselessness of cache lines").
package ost

import "fscache/internal/xrand"

// Key is a composite ordering key. Primary orders first; Tie breaks equal
// primaries (callers usually use a unique line identifier or sequence
// number). Two keys stored in one tree must never be fully equal.
type Key struct {
	Primary uint64
	Tie     uint64
}

// Less reports whether k orders strictly before other.
func (k Key) Less(other Key) bool {
	if k.Primary != other.Primary {
		return k.Primary < other.Primary
	}
	return k.Tie < other.Tie
}

type node struct {
	key         Key
	value       int64 // caller payload (e.g. line index)
	priority    uint64
	size        int
	left, right *node
}

func size(n *node) int {
	if n == nil {
		return 0
	}
	return n.size
}

func (n *node) update() {
	n.size = 1 + size(n.left) + size(n.right)
}

// Tree is an order-statistic treap. The zero value is not usable; call New.
type Tree struct {
	root *node
	rng  *xrand.Rand
	free []*node // recycled nodes to reduce allocation churn in hot loops
	// path is the reusable explicit parent stack for the iterative
	// Insert/Delete rebalancing walks (no recursion on the hot path).
	path []*node
}

// New returns an empty tree whose heap priorities are drawn from seed.
func New(seed uint64) *Tree {
	return &Tree{rng: xrand.New(seed)}
}

// Len returns the number of keys stored.
func (t *Tree) Len() int { return size(t.root) }

func (t *Tree) newNode(key Key, value int64) *node {
	var n *node
	if len(t.free) > 0 {
		n = t.free[len(t.free)-1]
		t.free = t.free[:len(t.free)-1]
		*n = node{}
	} else {
		//fslint:ignore allocfree freelist miss during fill; steady-state inserts recycle Delete'd nodes
		n = &node{}
	}
	n.key = key
	n.value = value
	n.priority = t.rng.Uint64()
	n.size = 1
	return n
}

// Insert adds key with an associated value. It panics if the key is already
// present: futility rankings require unique keys, and a duplicate indicates
// a bookkeeping bug in the caller.
//
// The implementation is iterative (descend with an explicit parent stack,
// attach, rotate up): a treap with distinct priorities has a unique shape,
// so this produces exactly the structure the previous split/merge recursion
// did — with one descent instead of a duplicate-check pass plus a
// split/merge pass, and no recursive call overhead.
//
//fs:allocfree
func (t *Tree) Insert(key Key, value int64) {
	path := t.path[:0]
	n := t.root
	for n != nil {
		path = append(path, n)
		switch {
		case key.Less(n.key):
			n = n.left
		case n.key.Less(key):
			n = n.right
		default:
			t.path = path
			panic("ost: duplicate key inserted")
		}
	}
	t.path = path
	nn := t.newNode(key, value)
	if len(path) == 0 {
		t.root = nn
		return
	}
	p := path[len(path)-1]
	if key.Less(p.key) {
		p.left = nn
	} else {
		p.right = nn
	}
	// Restore the invariants bottom-up: rotate nn above every ancestor it
	// outranks (rotations recompute sizes via update); once the heap order
	// holds, the remaining ancestors just gained one descendant.
	for i := len(path) - 1; i >= 0; i-- {
		p := path[i]
		if nn.priority > p.priority {
			if p.left == nn {
				p.left = nn.right
				nn.right = p
			} else {
				p.right = nn.left
				nn.left = p
			}
			p.update()
			nn.update()
			if i == 0 {
				t.root = nn
			} else if g := path[i-1]; g.left == p {
				g.left = nn
			} else {
				g.right = nn
			}
			continue
		}
		for j := i; j >= 0; j-- {
			path[j].size++
		}
		return
	}
}

func (t *Tree) contains(key Key) bool {
	n := t.root
	for n != nil {
		if key.Less(n.key) {
			n = n.left
		} else if n.key.Less(key) {
			n = n.right
		} else {
			return true
		}
	}
	return false
}

// Contains reports whether key is stored.
func (t *Tree) Contains(key Key) bool { return t.contains(key) }

// Delete removes key and reports whether it was present.
//
// Iterative counterpart of Insert: descend with the parent stack, then rotate
// the target down past its higher-priority child until it is a leaf, detach
// and recycle it. Rotating toward the higher-priority child rebuilds the
// canonical treap of the remaining keys, exactly as merging the two subtrees
// did.
//
//fs:allocfree
func (t *Tree) Delete(key Key) bool {
	path := t.path[:0]
	n := t.root
	for n != nil {
		if key.Less(n.key) {
			path = append(path, n)
			n = n.left
		} else if n.key.Less(key) {
			path = append(path, n)
			n = n.right
		} else {
			break
		}
	}
	t.path = path
	if n == nil {
		return false
	}
	// Every ancestor loses one descendant regardless of how n sinks.
	for _, a := range path {
		a.size--
	}
	var p *node
	if len(path) > 0 {
		p = path[len(path)-1]
	}
	for n.left != nil || n.right != nil {
		var c *node
		if n.right == nil || (n.left != nil && n.left.priority > n.right.priority) {
			c = n.left
			n.left = c.right
			c.right = n
		} else {
			c = n.right
			n.right = c.left
			c.left = n
		}
		n.update()
		c.update()
		c.size-- // n is still below c but is about to be removed
		switch {
		case p == nil:
			t.root = c
		case p.left == n:
			p.left = c
		default:
			p.right = c
		}
		p = c
	}
	switch {
	case p == nil:
		t.root = nil
	case p.left == n:
		p.left = nil
	default:
		p.right = nil
	}
	*n = node{}
	t.free = append(t.free, n)
	return true
}

// Rank returns the 1-based ascending rank of key (1 = smallest) and whether
// the key is present. If absent, rank is the rank the key would have after
// insertion.
//
//fs:allocfree
func (t *Tree) Rank(key Key) (rank int, ok bool) {
	rank = 1
	n := t.root
	for n != nil {
		if key.Less(n.key) {
			n = n.left
		} else if n.key.Less(key) {
			rank += size(n.left) + 1
			n = n.right
		} else {
			return rank + size(n.left), true
		}
	}
	return rank, false
}

// Select returns the key and value at 1-based ascending rank r.
// It panics if r is out of range.
//
//fs:allocfree
func (t *Tree) Select(r int) (Key, int64) {
	if r < 1 || r > t.Len() {
		panic("ost: Select rank out of range")
	}
	n := t.root
	for {
		ls := size(n.left)
		switch {
		case r <= ls:
			n = n.left
		case r == ls+1:
			return n.key, n.value
		default:
			r -= ls + 1
			n = n.right
		}
	}
}

// Min returns the smallest key and its value. It panics if the tree is empty.
//
//fs:allocfree
func (t *Tree) Min() (Key, int64) {
	n := t.root
	if n == nil {
		panic("ost: Min of empty tree")
	}
	for n.left != nil {
		n = n.left
	}
	return n.key, n.value
}

// Max returns the largest key and its value. It panics if the tree is empty.
//
//fs:allocfree
func (t *Tree) Max() (Key, int64) {
	n := t.root
	if n == nil {
		panic("ost: Max of empty tree")
	}
	for n.right != nil {
		n = n.right
	}
	return n.key, n.value
}

// Walk visits every (key, value) pair in ascending key order. The callback
// must not mutate the tree.
func (t *Tree) Walk(fn func(Key, int64)) {
	var rec func(*node)
	rec = func(n *node) {
		if n == nil {
			return
		}
		rec(n.left)
		fn(n.key, n.value)
		rec(n.right)
	}
	rec(t.root)
}

// validate checks structural invariants; used by tests.
func (t *Tree) validate() bool {
	var rec func(n *node, lo, hi *Key) bool
	rec = func(n *node, lo, hi *Key) bool {
		if n == nil {
			return true
		}
		if n.size != 1+size(n.left)+size(n.right) {
			return false
		}
		if lo != nil && !lo.Less(n.key) {
			return false
		}
		if hi != nil && !n.key.Less(*hi) {
			return false
		}
		if n.left != nil && n.left.priority > n.priority {
			return false
		}
		if n.right != nil && n.right.priority > n.priority {
			return false
		}
		return rec(n.left, lo, &n.key) && rec(n.right, &n.key, hi)
	}
	return rec(t.root, nil, nil)
}
