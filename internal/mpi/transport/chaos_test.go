package transport

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// ChaosAction is what an armed chaos rule does to a matching frame.
type ChaosAction int

const (
	// ChaosDrop silently discards the frame, modelling a lossy link. TCP itself never loses a
	// frame on a live connection, so the receiver just waits for it until
	// the world aborts.
	ChaosDrop ChaosAction = iota
	// ChaosDelay sleeps the sending goroutine before forwarding,
	// preserving per-pair frame order while modelling a slow link.
	ChaosDelay
	// ChaosSever cuts the link: the frame is discarded and, when the inner
	// transport supports it (TCP does), the connection is closed and the
	// peer declared down, so the world must abort.
	ChaosSever
)

// ChaosRule matches outbound frames and applies an action. Zero-valued
// fields Src/Dst of -1 act as wildcards; Epoch -1 matches every epoch.
type ChaosRule struct {
	// Src and Dst select the rank pair; -1 matches any rank.
	Src, Dst int
	// Epoch, when >= 0, arms the rule only while the harness-controlled
	// epoch counter (see Chaos.SetEpoch — tests bump it at superstep
	// boundaries) equals it.
	Epoch int
	// AfterFrames arms the rule only from the Nth matching frame of the
	// pair onward (0 = immediately).
	AfterFrames int
	// Action is what to do with a matching frame.
	Action ChaosAction
	// Delay is the sleep for ChaosDelay.
	Delay time.Duration
	// Once disarms the rule after its first strike.
	Once bool
}

// severer is the optional chaos hook of a transport that can cut a peer
// link for real (TCP implements it).
type severer interface {
	Sever(rank int)
}

// Chaos wraps a transport with deterministic fault injection on the
// outbound path. Rules are matched in order on the sending goroutine, so
// with a deterministic program the Nth frame of a pair is always the same
// frame — drops and severs are reproducible. The inbound path is passed
// through untouched (injecting on one side is enough: every link has a
// wrapped end in the tests).
type Chaos struct {
	inner Transport

	mu    sync.Mutex // guards rules and the per-pair frame counts
	rules []ChaosRule
	seen  map[[2]int]int // frames observed per (src,dst) pair

	epoch   atomic.Int64
	dropped atomic.Int64
	delayed atomic.Int64
}

// NewChaos wraps inner. Rules can be added before or during the run.
func NewChaos(inner Transport) *Chaos {
	return &Chaos{inner: inner, seen: make(map[[2]int]int)}
}

// AddRule installs a fault-injection rule.
func (c *Chaos) AddRule(r ChaosRule) {
	c.mu.Lock()
	c.rules = append(c.rules, r)
	c.mu.Unlock()
}

// SetEpoch publishes the harness-controlled epoch counter that
// Epoch-scoped rules match against; tests bump it at superstep
// boundaries.
func (c *Chaos) SetEpoch(e int) { c.epoch.Store(int64(e)) }

// Dropped returns how many frames the wrapper discarded (drops + severs).
func (c *Chaos) Dropped() int64 { return c.dropped.Load() }

// Delayed returns how many frames the wrapper delayed.
func (c *Chaos) Delayed() int64 { return c.delayed.Load() }

// Size returns the world size.
func (c *Chaos) Size() int { return c.inner.Size() }

// LocalRanks returns the inner transport's local ranks.
func (c *Chaos) LocalRanks() []int { return c.inner.LocalRanks() }

// Start brings up the inner transport.
func (c *Chaos) Start(h Handlers) error { return c.inner.Start(h) }

// Send applies the first matching armed rule, then forwards.
func (c *Chaos) Send(f Frame) {
	act, delay, strike := c.match(f)
	if !strike {
		c.inner.Send(f)
		return
	}
	switch act {
	case ChaosDelay:
		c.delayed.Add(1)
		time.Sleep(delay)
		c.inner.Send(f)
	case ChaosSever:
		c.dropped.Add(1)
		if s, ok := c.inner.(severer); ok {
			s.Sever(f.Dst)
		}
	default: // ChaosDrop
		c.dropped.Add(1)
	}
}

// match finds the first armed rule for f and records the pair's frame
// count.
func (c *Chaos) match(f Frame) (ChaosAction, time.Duration, bool) {
	epoch := int(c.epoch.Load())
	c.mu.Lock()
	defer c.mu.Unlock()
	pair := [2]int{f.Src, f.Dst}
	n := c.seen[pair]
	c.seen[pair] = n + 1
	for i := range c.rules {
		r := &c.rules[i]
		if r.Src >= 0 && r.Src != f.Src {
			continue
		}
		if r.Dst >= 0 && r.Dst != f.Dst {
			continue
		}
		if r.Epoch >= 0 && r.Epoch != epoch {
			continue
		}
		if n < r.AfterFrames {
			continue
		}
		act, delay := r.Action, r.Delay
		if r.Once {
			c.rules = append(c.rules[:i], c.rules[i+1:]...)
		}
		return act, delay, true
	}
	return 0, 0, false
}

// Abort forwards to the inner transport.
func (c *Chaos) Abort() { c.inner.Abort() }

// Close forwards to the inner transport.
func (c *Chaos) Close() error { return c.inner.Close() }

// Stats returns the inner transport's counters.
func (c *Chaos) Stats() Stats { return c.inner.Stats() }

// Sever forwards the chaos hook to the inner transport when supported.
func (c *Chaos) Sever(rank int) {
	if s, ok := c.inner.(severer); ok {
		s.Sever(rank)
	}
}

// fakeTransport records sends and severs for chaos wrapper tests.
type fakeTransport struct {
	size int
	mu   sync.Mutex
	sent []Frame
	sev  []int
}

func (f *fakeTransport) Size() int            { return f.size }
func (f *fakeTransport) LocalRanks() []int    { return []int{0} }
func (f *fakeTransport) Start(Handlers) error { return nil }
func (f *fakeTransport) Abort()               {}
func (f *fakeTransport) Close() error         { return nil }
func (f *fakeTransport) Stats() Stats         { return Stats{} }

func (f *fakeTransport) Send(fr Frame) {
	f.mu.Lock()
	f.sent = append(f.sent, fr)
	f.mu.Unlock()
}

func (f *fakeTransport) Sever(rank int) {
	f.mu.Lock()
	f.sev = append(f.sev, rank)
	f.mu.Unlock()
}

func (f *fakeTransport) sentCount() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.sent)
}

func TestChaosDropByPair(t *testing.T) {
	inner := &fakeTransport{size: 3}
	c := NewChaos(inner)
	c.AddRule(ChaosRule{Src: 0, Dst: 1, Epoch: -1, Action: ChaosDrop})
	c.Start(Handlers{Deliver: func(Frame) {}})
	c.Send(Frame{Src: 0, Dst: 1, Payload: []int64{1}}) // dropped
	c.Send(Frame{Src: 0, Dst: 2, Payload: []int64{2}}) // forwarded
	c.Send(Frame{Src: 1, Dst: 0, Payload: []int64{3}}) // forwarded (src mismatch)
	if got := inner.sentCount(); got != 2 {
		t.Fatalf("forwarded %d frames, want 2", got)
	}
	if c.Dropped() != 1 {
		t.Fatalf("Dropped() = %d, want 1", c.Dropped())
	}
}

func TestChaosWildcardAndAfterFrames(t *testing.T) {
	inner := &fakeTransport{size: 2}
	c := NewChaos(inner)
	// Drop everything to rank 1 from the third frame of each pair onward.
	c.AddRule(ChaosRule{Src: -1, Dst: 1, Epoch: -1, AfterFrames: 2, Action: ChaosDrop})
	c.Start(Handlers{Deliver: func(Frame) {}})
	for i := 0; i < 5; i++ {
		c.Send(Frame{Src: 0, Dst: 1, Payload: []int64{int64(i)}})
	}
	if got := inner.sentCount(); got != 2 {
		t.Fatalf("forwarded %d frames, want the first 2", got)
	}
}

func TestChaosEpochScoping(t *testing.T) {
	inner := &fakeTransport{size: 2}
	c := NewChaos(inner)
	c.AddRule(ChaosRule{Src: 0, Dst: 1, Epoch: 2, Action: ChaosDrop})
	c.Start(Handlers{Deliver: func(Frame) {}})
	c.Send(Frame{Src: 0, Dst: 1}) // epoch 0: forwarded
	c.SetEpoch(2)
	c.Send(Frame{Src: 0, Dst: 1}) // epoch 2: dropped
	c.SetEpoch(3)
	c.Send(Frame{Src: 0, Dst: 1}) // epoch 3: forwarded
	if got := inner.sentCount(); got != 2 {
		t.Fatalf("forwarded %d frames, want 2", got)
	}
}

func TestChaosOnceDisarms(t *testing.T) {
	inner := &fakeTransport{size: 2}
	c := NewChaos(inner)
	c.AddRule(ChaosRule{Src: 0, Dst: 1, Epoch: -1, Action: ChaosDrop, Once: true})
	c.Start(Handlers{Deliver: func(Frame) {}})
	c.Send(Frame{Src: 0, Dst: 1})
	c.Send(Frame{Src: 0, Dst: 1})
	if got := inner.sentCount(); got != 1 {
		t.Fatalf("forwarded %d frames, want 1 (rule disarms after first strike)", got)
	}
}

func TestChaosDelayForwards(t *testing.T) {
	inner := &fakeTransport{size: 2}
	c := NewChaos(inner)
	c.AddRule(ChaosRule{Src: 0, Dst: 1, Epoch: -1, Action: ChaosDelay, Delay: 20 * time.Millisecond, Once: true})
	c.Start(Handlers{Deliver: func(Frame) {}})
	start := time.Now()
	c.Send(Frame{Src: 0, Dst: 1})
	if elapsed := time.Since(start); elapsed < 20*time.Millisecond {
		t.Fatalf("delayed send returned after %v, want >= 20ms", elapsed)
	}
	if inner.sentCount() != 1 {
		t.Fatal("delayed frame was not forwarded")
	}
	if c.Delayed() != 1 {
		t.Fatalf("Delayed() = %d, want 1", c.Delayed())
	}
}

func TestChaosSeverDelegates(t *testing.T) {
	inner := &fakeTransport{size: 2}
	c := NewChaos(inner)
	c.AddRule(ChaosRule{Src: 0, Dst: 1, Epoch: -1, Action: ChaosSever})
	c.Start(Handlers{Deliver: func(Frame) {}})
	c.Send(Frame{Src: 0, Dst: 1, Payload: []int64{1, 2}})
	inner.mu.Lock()
	defer inner.mu.Unlock()
	if len(inner.sev) != 1 || inner.sev[0] != 1 {
		t.Fatalf("sever not delegated to the inner transport: %v", inner.sev)
	}
	if len(inner.sent) != 0 {
		t.Fatal("severed frame was forwarded")
	}
}

func TestChaosPassthroughInterfaces(t *testing.T) {
	inner := &fakeTransport{size: 4}
	c := NewChaos(inner)
	if c.Size() != 4 {
		t.Errorf("Size() = %d", c.Size())
	}
	if got := c.LocalRanks(); len(got) != 1 || got[0] != 0 {
		t.Errorf("LocalRanks() = %v", got)
	}
	var _ Transport = c // Chaos must satisfy the Transport interface
}
