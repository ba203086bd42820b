// Package clean holds the sanctioned API shapes: documented wrapper types,
// the allowlisted raw-slice boundary and annotated escapes.
package clean

// Partition is the documented wrapper: a named int32-slice type passes.
type Partition []int32

// Assign returns the wrapper.
func Assign(n int) Partition { return make(Partition, n) }

// NewPartition is the sanctioned raw-slice boundary adapter.
func NewPartition(raw []int32) Partition { return Partition(raw) }

// EdgeCut is an allowlisted checker for a raw assignment.
func EdgeCut(raw []int32) int64 { return int64(len(raw)) }

// Ranks returns PE ranks, not a partition; the escape documents that.
//
//lint:rawslice-ok rank list, not a partition
func Ranks() []int32 { return nil }

// unexported declarations are outside the audit.
func unexported() []int32 { return nil }

var _ = unexported
