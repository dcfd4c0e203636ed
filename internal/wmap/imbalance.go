package wmap

// ImbalanceOptions controls the parallel-link imbalance computation of the
// paper's Figure 5c.
type ImbalanceOptions struct {
	// IgnoreZero drops 0 % loads: such links are unused in the network.
	IgnoreZero bool
	// IgnoreOne drops 1 % loads: a 1 % reading cannot be distinguished from
	// control traffic only.
	IgnoreOne bool
	// MinLinks drops directed sets with fewer remaining links; the paper
	// removes sets with only one remaining link (MinLinks = 2).
	MinLinks int
}

// PaperImbalanceOptions returns the exact filtering the paper applies:
// ignore 0 % and 1 % loads, require at least two remaining links per set.
func PaperImbalanceOptions() ImbalanceOptions {
	return ImbalanceOptions{IgnoreZero: true, IgnoreOne: true, MinLinks: 2}
}

// Imbalance is the load imbalance of one directed set of parallel links:
// the difference between the maximum and the minimum load, assuming all
// parallel links between two routers have the same capacity.
type Imbalance struct {
	From, To string
	Internal bool // true when both endpoints are OVH routers
	Spread   int  // max load − min load, percentage points
	Links    int  // number of links contributing after filtering
}

// Imbalances computes the load imbalance for every directed set of parallel
// links on the map, applying the given filters. Each node pair yields up
// to two directed sets (one per direction), matching the paper's
// methodology for Figure 5c.
func (m *Map) Imbalances(opt ImbalanceOptions) []Imbalance {
	return NewTopology(nil, m.Links).Imbalances(m.Links, opt)
}
