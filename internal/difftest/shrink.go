package difftest

import "fscache/internal/oracle"

// Shrink reduces a diverging scenario to a (locally) minimal reproducer:
// any single transformation it knows — removing ops, shrinking the cache,
// simplifying the array, ranking or scheme, zeroing address bits — would
// make the divergence disappear. It returns the shrunk scenario and its
// divergence.
//
// The predicate is "still diverges somewhere", not "diverges identically":
// a defect that manifests at step 400 of a 500-op program usually also
// manifests in a far shorter one, and the shorter reproducer is what a
// human debugs. Shrinking is deterministic (no randomness, fixed pass
// order), so the same failure always shrinks to the same reproducer.
//
// Invariant audits are skipped while shrinking (Options.SkipInvariants):
// only the observable divergence needs to reproduce, and the audits are the
// dominant cost at small op counts.
func Shrink(s *Scenario, opt Options) (*Scenario, *Divergence) {
	opt.SkipInvariants = true
	fails := func(c *Scenario) *Divergence {
		if c == nil || len(c.Ops) == 0 {
			return nil
		}
		return RunScenario(c, opt)
	}
	d := fails(s)
	if d == nil {
		return s, nil
	}
	cur := clone(s)

	// Ops past the divergence step contribute nothing.
	truncate := func() {
		if d.Step+1 < len(cur.Ops) {
			cur.Ops = cur.Ops[:d.Step+1]
		}
	}
	truncate()

	// simplify tries one structural mutation, keeping it if the divergence
	// survives normalization and re-running.
	simplify := func(mutate func(*Scenario)) {
		c := clone(cur)
		mutate(c)
		c.normalize()
		if nd := fails(c); nd != nil {
			cur, d = c, nd
			truncate()
		}
	}

	// The passes run to a fixpoint because later passes unlock earlier
	// ones. The canonical case is a fully-associative scenario, where
	// eviction — and so divergence — needs more accesses than lines:
	// switching to a set-indexed array only preserves the divergence once
	// ddmin and address zeroing have concentrated the accesses onto
	// colliding lines, after which the next round's array pass succeeds and
	// the op count collapses.
	for round := 0; round < 4; round++ {
		before := string(ToBytes(cur))

		// Structural simplifications: a simpler array or smaller cache
		// often cuts the op count needed to reach an eviction, which makes
		// the ddmin pass below start from a much shorter program.
		for cur.LinesCode > 0 {
			prev := cur.LinesCode
			simplify(func(c *Scenario) { c.LinesCode-- })
			if cur.LinesCode == prev {
				break
			}
		}
		for _, k := range []ArrayKind{ArrayDirectMapped, ArraySetAssocXOR} {
			if cur.Array != k {
				simplify(func(c *Scenario) { c.Array = k })
			}
		}
		if cur.Ranking != oracle.LRU {
			simplify(func(c *Scenario) { c.Ranking = oracle.LRU })
		}
		if cur.Scheme != oracle.Fixed {
			simplify(func(c *Scenario) {
				c.Scheme = oracle.Fixed
				c.AlphaQ = nil // normalize() refills with zeros (all α = 1)
			})
		}
		if cur.Parts > 1 {
			simplify(func(c *Scenario) {
				c.Parts = 1
				c.InitW = c.InitW[:1]
			})
		}

		// ddmin over the op list: remove chunks, halving the chunk size
		// each time a full sweep removes nothing, down to single ops.
		for chunk := len(cur.Ops) / 2; chunk >= 1; {
			removed := false
			for lo := 0; lo < len(cur.Ops); {
				c := clone(cur)
				c.Ops = append(c.Ops[:lo:lo], c.Ops[min(lo+chunk, len(c.Ops)):]...)
				if nd := fails(c); nd != nil {
					cur, d = c, nd
					truncate()
					removed = true
					// Keep lo: the next chunk slid into this position.
				} else {
					lo += chunk
				}
			}
			if !removed {
				chunk /= 2
			}
		}

		// Simplify surviving ops in place: zero address bits and fold
		// special ops into plain accesses where the divergence allows.
		for i := range cur.Ops {
			if i >= len(cur.Ops) {
				break
			}
			if cur.Ops[i].Kind != OpAccess {
				simplify(func(c *Scenario) { c.Ops[i] = Op{Kind: OpAccess, Part: c.Ops[i].Part, K: 0} })
				continue
			}
			for bit := 15; bit >= 0; bit-- {
				if cur.Ops[i].K&(1<<bit) != 0 {
					simplify(func(c *Scenario) { c.Ops[i].K &^= 1 << bit })
				}
			}
		}

		if string(ToBytes(cur)) == before {
			break
		}
	}
	return cur, d
}

// clone deep-copies a scenario so candidate mutations never alias the
// current best.
func clone(s *Scenario) *Scenario {
	c := *s
	c.InitW = append([]uint8(nil), s.InitW...)
	c.AlphaQ = append([]uint8(nil), s.AlphaQ...)
	c.Ops = make([]Op, len(s.Ops))
	for i, op := range s.Ops {
		c.Ops[i] = op
		c.Ops[i].W = append([]uint8(nil), op.W...)
	}
	return &c
}
