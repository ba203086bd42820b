package parhip

import (
	"context"
	"errors"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/mpi"
)

// This file is the session API: a Partitioner constructed with New and
// functional options, run under a context.Context with live progress
// reporting.

// MaxEps bounds the allowed imbalance parameter. An eps beyond it (the
// heaviest block allowed 100x the average) is always a caller bug, not a
// balance setting, and is rejected at the API boundary.
const MaxEps = 99.0

// ProgressEvent is one checkpoint of a running partition, delivered to the
// session's WithProgressFunc callback. Phase is one of "coarsen", "init",
// "refine", "rebalance" or "done"; Cut and Imbalance are -1 when the phase
// has not computed them (coarsening tracks shrinkage only).
type ProgressEvent = core.Progress

// Defaults of a session. This is the one declaration of them: the CLIs'
// flag defaults and the parhipd job canonicalization read these constants.
const (
	DefaultPEs  = 4    // simulated processing elements
	DefaultEps  = 0.03 // allowed imbalance (the paper's 3%)
	DefaultSeed = 1    // random seed
)

// settings is the resolved configuration of a Partitioner session. Every
// option range-checks its own value when applied, so a zero in k or eps
// can only mean "not configured" and is filled in by resolve.
type settings struct {
	k          int32 // 0: required, or inherited from prev
	pes        int
	mode       Mode
	class      GraphClass
	eps        float64 // 0: prev's eps on a repartitioning run, else DefaultEps
	seed       uint64
	evoBudget  time.Duration
	objective  Objective
	tracer     *Tracer
	prev       *Partition // previous partition for migration-aware runs
	onProgress func(ProgressEvent)
}

// Option configures a Partitioner session (see New). An option whose value
// is out of range makes New fail with a descriptive error.
type Option func(*settings) error

// WithK sets the number of blocks. Required.
func WithK(k int32) Option { return func(s *settings) error { s.k = k; return nil } }

// WithPEs sets the number of simulated processing elements. Must be
// positive; omit the option for DefaultPEs.
func WithPEs(n int) Option {
	return func(s *settings) error {
		if n < 1 {
			return fmt.Errorf("parhip: PEs = %d, must be >= 1", n)
		}
		s.pes = n
		return nil
	}
}

// WithMode selects the quality/time trade-off (default Fast).
func WithMode(m Mode) Option {
	return func(s *settings) error {
		if m < Fast || m > Minimal {
			return fmt.Errorf("parhip: unknown mode %d", m)
		}
		s.mode = m
		return nil
	}
}

// WithClass selects the graph class driving the coarsening size constraint
// (default Social).
func WithClass(c GraphClass) Option {
	return func(s *settings) error {
		if c < Social || c > Mesh {
			return fmt.Errorf("parhip: unknown graph class %d", c)
		}
		s.class = c
		return nil
	}
}

// WithEps sets the allowed imbalance. Must be in (0, MaxEps]; omit the
// option for DefaultEps (the hard-balance case eps=0 is not supported by
// the partitioner).
func WithEps(eps float64) Option {
	return func(s *settings) error {
		if !(eps > 0 && eps <= MaxEps) {
			return fmt.Errorf("parhip: eps = %g, must be in (0, %g]", eps, MaxEps)
		}
		s.eps = eps
		return nil
	}
}

// WithSeed makes the run reproducible. Must be >= 1; omit the option for
// DefaultSeed.
func WithSeed(seed uint64) Option {
	return func(s *settings) error {
		if seed < 1 {
			return errors.New("parhip: seed = 0, must be >= 1")
		}
		s.seed = seed
		return nil
	}
}

// WithEvoTimeBudget bounds the evolutionary search by wall-clock time,
// divided among the PEs as in the paper's eco setting. It is the one option
// under which the partition depends on timing, not only on the seed.
func WithEvoTimeBudget(d time.Duration) Option {
	return func(s *settings) error {
		if d < 0 {
			return fmt.Errorf("parhip: negative evolutionary time budget %v", d)
		}
		s.evoBudget = d
		return nil
	}
}

// WithObjective selects the fitness of the coarsest-level evolutionary
// search (default MinimizeCut).
func WithObjective(o Objective) Option {
	return func(s *settings) error {
		if o < MinimizeCut || o > MinimizeMigration {
			return fmt.Errorf("parhip: unknown objective %d", o)
		}
		s.objective = o
		return nil
	}
}

// WithPrevious makes the session a repartitioning run: prev — typically
// the result of an earlier run on an older version of the graph — is fed
// into the first V-cycle (the result is never worse than the input, §VI),
// and the whole pipeline becomes migration-aware: label propagation
// refinement keeps nodes on their previous block when a move is
// cut-neutral, the coarsest-level evolutionary selection breaks objective
// ties in favour of fewer moved nodes, and Stats gains
// MigratedNodes/MigrationVolume. The previous partition may come from a
// different (drifted) graph as long as the node count matches; use
// Repartition for the one-call form.
//
// When WithK is omitted, the session inherits prev's block count; when
// WithEps is omitted, it inherits prev's eps.
func WithPrevious(prev *Partition) Option {
	return func(s *settings) error { s.prev = prev; return nil }
}

// WithTracer attaches a span tracer to the session: the run records
// per-rank spans (pipeline phases and levels, sclp supersteps with move
// counts, mpi exchange supersteps with word counts) into t, and
// t.WriteJSON afterwards yields a Chrome trace-event file openable in
// Perfetto with one track per rank. A nil t leaves tracing disabled (the
// default): nothing is recorded or allocated.
func WithTracer(t *Tracer) Option { return func(s *settings) error { s.tracer = t; return nil } }

// WithProgressFunc registers a callback invoked synchronously for every
// progress event (on the coordinating rank's goroutine — it must not block
// for long). Concurrent Runs of one session call it concurrently, each
// from its own run's goroutine. Like every option, the last one given
// wins; a nil fn turns progress reporting off. A session without a
// callback skips the per-level checkpoint collectives altogether.
func WithProgressFunc(fn func(ProgressEvent)) Option {
	return func(s *settings) error { s.onProgress = fn; return nil }
}

// resolve applies opts over the defaults and validates the result against
// g. It is the one place a caller's options become settings, shared by New
// and RunBaseline.
func resolve(g *Graph, opts []Option) (settings, error) {
	s := settings{pes: DefaultPEs, seed: DefaultSeed}
	for _, o := range opts {
		if err := o(&s); err != nil {
			return s, err
		}
	}
	if g == nil {
		return s, errors.New("parhip: nil graph")
	}
	if s.prev != nil {
		// A repartitioning session inherits k (and, unless set, eps) from
		// the previous partition, then validates the pair.
		if s.k == 0 {
			s.k = s.prev.K()
		}
		if s.eps == 0 {
			s.eps = s.prev.Eps()
		}
		if s.prev.NumNodes() != g.NumNodes() {
			return s, fmt.Errorf("parhip: previous partition has %d nodes, graph has %d (repartitioning requires a matching node set)",
				s.prev.NumNodes(), g.NumNodes())
		}
		if s.prev.K() != s.k {
			return s, fmt.Errorf("parhip: previous partition has k = %d, session configured k = %d",
				s.prev.K(), s.k)
		}
	}
	if s.eps == 0 {
		s.eps = DefaultEps
	}
	if s.objective == MinimizeMigration && s.prev == nil {
		return s, errors.New("parhip: MinimizeMigration requires a previous partition (WithPrevious or Repartition)")
	}
	if s.k < 1 {
		return s, fmt.Errorf("parhip: k = %d, need k >= 1 (set it with WithK)", s.k)
	}
	if s.k > g.NumNodes() {
		return s, fmt.Errorf("parhip: k = %d exceeds the graph's %d nodes", s.k, g.NumNodes())
	}
	return s, nil
}

// Partitioner is a configured partitioning session: build it with New,
// then call Run. It holds only the graph and the resolved settings, so Run
// may be called any number of times, also concurrently; each call is an
// independent run of the same settings.
type Partitioner struct {
	g *Graph
	s settings
}

// New validates the configuration and returns a ready-to-run session.
//
//	p, err := parhip.New(g, parhip.WithK(8), parhip.WithMode(parhip.Eco))
//	...
//	res, err := p.Run(ctx)
//
// Every invalid setting is rejected here with a descriptive error instead
// of being silently replaced by a default: k < 1 or k > n, eps outside
// (0, MaxEps], PEs or seed below 1, unknown Mode/Class/Objective
// values, a negative evolutionary time budget, and a previous partition
// that does not match the graph or k.
func New(g *Graph, opts ...Option) (*Partitioner, error) {
	s, err := resolve(g, opts)
	if err != nil {
		return nil, err
	}
	return &Partitioner{g: g, s: s}, nil
}

// CoreConfig returns the pipeline configuration the session resolved from
// its options — exactly what Run hands to the partitioner, and the one
// mapping from mode, class and the rest onto core.Config. It is exported
// for launchers that host one rank of a multi-process world themselves
// (parhip -transport tcp), so that they run what a session would.
func (p *Partitioner) CoreConfig() core.Config {
	s := &p.s
	var cfg core.Config
	switch s.mode {
	case Eco:
		cfg = core.EcoConfig(s.k, s.class)
	case Minimal:
		cfg = core.MinimalConfig(s.k, s.class)
	default:
		cfg = core.FastConfig(s.k, s.class)
	}
	cfg.Eps = s.eps
	cfg.Seed = s.seed
	cfg.EvoTimeBudget = s.evoBudget
	cfg.Objective = s.objective
	cfg.Tracer = s.tracer
	if s.prev != nil {
		// Repartitioning: the previous assignment both seeds the first
		// V-cycle (never worse than the input) and acts as the migration
		// reference the pipeline stays close to.
		cfg.Previous = s.prev.assign
	}
	return cfg
}

// Run executes the session. It blocks until the partition is complete, the
// context is cancelled, or its deadline passes; in the latter two cases it
// returns ctx.Err() promptly (every simulated rank unwinds cooperatively
// at the next superstep boundary — no goroutine outlives the call).
func (p *Partitioner) Run(ctx context.Context) (Result, error) {
	cfg := p.CoreConfig()
	cfg.OnProgress = p.s.onProgress
	res, err := core.RunOn(ctx, mpi.NewWorld(p.s.pes), p.g, cfg)
	if err != nil {
		return Result{}, err
	}
	return resultOf(p.g, p.s.k, cfg.Eps, res), nil
}

// Repartition partitions g starting from a previous partition, minimizing
// migration: the one-call form of New + WithPrevious(prev) + Run. It is
// the intended entry point for dynamic graphs — partition once, let the
// graph drift, then Repartition with the saved result to obtain a new
// feasible partition whose cut is competitive with a cold run while moving
// only a small fraction of the nodes. Diff the result against prev with
// Partition.MigrationPlan; Stats reports MigratedNodes/MigrationVolume.
//
//	res, err := parhip.Repartition(ctx, g2, prevRes.Partition)
//	plan, _ := res.Partition.MigrationPlan(prevRes.Partition)
func Repartition(ctx context.Context, g *Graph, prev *Partition, opts ...Option) (Result, error) {
	if prev == nil {
		return Result{}, errors.New("parhip: Repartition: nil previous partition")
	}
	p, err := New(g, append([]Option{WithPrevious(prev)}, opts...)...)
	if err != nil {
		return Result{}, err
	}
	return p.Run(ctx)
}
