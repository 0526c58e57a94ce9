package scenario

import (
	"fmt"

	"fscache/internal/alloc"
)

// AllocObjective builds the allocation objective named on a CLI for this
// compiled scenario. Plain names ("utility", "maxmin", "phase") resolve via
// alloc.ByName; "qos" derives per-partition guarantees from the spec's
// guaranteed-class ("g") clients — each is guaranteed its share-proportional
// slice of the cache over the full client population, while best-effort
// clients compete for the remainder by marginal utility.
func (c *Compiled) AllocObjective(name string) (alloc.Objective, error) {
	if name != "qos" {
		return alloc.ByName(name)
	}
	total := 0.0
	for i := range c.Clients {
		total += c.Clients[i].Share
	}
	guar := make([]int, len(c.Clients))
	for i := range c.Clients {
		if c.Clients[i].Class == "g" && total > 0 {
			guar[i] = int(float64(c.Spec.Cache.Lines) * c.Clients[i].Share / total)
		}
	}
	return &alloc.QoS{GuaranteeLines: guar}, nil
}

// AllocConfig builds the online allocator configuration for this scenario:
// partition count, capacity and seed from the spec, initial targets from the
// static share apportionment over the initially live clients, and the named
// objective. Epoch length, sampling rate and floors take the alloc package
// defaults; callers may adjust the returned Config before alloc.New.
func (c *Compiled) AllocConfig(objective string) (alloc.Config, error) {
	obj, err := c.AllocObjective(objective)
	if err != nil {
		return alloc.Config{}, fmt.Errorf("scenario %s: %w", c.Spec.Name, err)
	}
	// Keep at least two chunks per partition available so one-chunk floors
	// stay feasible even for replicated many-tenant specs.
	lines := c.Spec.Cache.Lines
	chunk := lines / 64
	if ceiling := lines / (2 * c.Parts()); chunk > ceiling {
		chunk = ceiling
	}
	if chunk < 1 {
		chunk = 1
	}
	return alloc.Config{
		Parts:      c.Parts(),
		Lines:      lines,
		ChunkLines: chunk,
		// Scenario streams are short (10^5-ish accesses); reallocate every
		// two cache-fills so a spec sees a useful number of epochs.
		EpochAccesses: 2 * lines,
		Objective:     obj,
		Initial:       c.Targets(lines, c.InitialLive()),
		Seed:          c.Spec.Seed,
	}, nil
}
