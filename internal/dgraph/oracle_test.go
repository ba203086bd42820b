package dgraph

// Reference implementations for plan_test.go and plan_tcp_test.go; nothing
// outside this package's tests calls them.

// syncGhostsDense is the pre-plan implementation (point queries through the
// dense all-to-all). It is retained as the test oracle the plan-based path
// is verified against.
func (d *DGraph) syncGhostsDense(vals []int64) {
	answers := d.LookupI64(vals[:d.nLocal], d.ghostGlobal)
	copy(vals[d.nLocal:], answers)
}

// PushGhosts is PushGhostsFunc without an update hook, the form the
// exchange tests drive. Collective.
//
//parhip:collective
//lint:rawslice-ok changed is a list of local node IDs, not a partition
func (d *DGraph) PushGhosts(vals []int64, changed []int32) {
	d.PushGhostsFunc(vals, changed, nil)
}

// pushGhostsDense is the pre-plan implementation ((globalID, value) pairs
// over the dense all-to-all, silently skipping unknown IDs). It is retained
// as the test oracle the plan-based path is verified against.
func (d *DGraph) pushGhostsDense(vals []int64, changed []int32) {
	size := d.Comm.Size()
	out := make([][]int64, size)
	for _, v := range changed {
		for _, r := range d.AdjacentRanks(v) {
			out[r] = append(out[r], d.ToGlobal(v), vals[v])
		}
	}
	in := d.Comm.Alltoallv(out)
	for _, buf := range in {
		for i := 0; i+1 < len(buf); i += 2 {
			if lu, ok := d.ToLocal(buf[i]); ok && lu >= d.nLocal {
				vals[lu] = buf[i+1]
			}
		}
	}
}
