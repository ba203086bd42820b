// Package workpool is what is left of the per-rank worker pool: nothing.
// Ranks are the only parallelism, and no kernel runs on a pool any more.
// Pool, New and Close remain only because benchmark/adapter.go, which
// changes only in a benchmark PR, still names them; that PR deletes this
// package.
package workpool

// Pool is an empty placeholder. It starts no goroutines.
type Pool struct{}

// New returns an empty Pool; the size is ignored.
func New(int) *Pool { return &Pool{} }

// Close does nothing.
func (*Pool) Close() {}
