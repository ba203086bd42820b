package server

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/graph"
)

// storedGraph is one uploaded graph plus the metadata the API reports.
type storedGraph struct {
	ID          string    `json:"id"`
	Fingerprint string    `json:"fingerprint"`
	N           int32     `json:"n"`
	M           int64     `json:"m"`
	UploadedAt  time.Time `json:"uploaded_at"`

	g *graph.Graph
}

// graphStore is an in-memory bounded map of uploaded graphs. Jobs hold
// the *graph.Graph pointer directly, so a delete can never crash a run —
// but the DELETE handler still refuses (409) while queued/running jobs or
// a live overlay reference the entry, so results are never attributed to
// a graph ID whose store slot was recycled underneath them.
type graphStore struct {
	mu     sync.Mutex
	cap    int
	nextID int64
	byID   map[string]*storedGraph
}

func newGraphStore(capacity int) *graphStore {
	if capacity < 1 {
		capacity = 1
	}
	return &graphStore{cap: capacity, byID: make(map[string]*storedGraph)}
}

var errStoreFull = fmt.Errorf("graph store full")

// add registers g and returns its metadata. Re-uploading a byte-identical
// graph returns the existing entry instead of storing a copy, so clients
// can idempotently re-upload without growing the store. The fingerprint is
// noted on g, so a job's result takes it instead of hashing g again.
func (s *graphStore) add(g *graph.Graph, now time.Time) (*storedGraph, error) {
	fp := g.Fingerprint()
	graph.NoteFingerprint(g, fp)
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, sg := range s.byID {
		if sg.Fingerprint == fp {
			return sg, nil
		}
	}
	if len(s.byID) >= s.cap {
		return nil, errStoreFull
	}
	s.nextID++
	sg := &storedGraph{
		ID:          fmt.Sprintf("g%d", s.nextID),
		Fingerprint: fp,
		N:           g.NumNodes(),
		M:           g.NumEdges(),
		UploadedAt:  now,
		g:           g,
	}
	s.byID[sg.ID] = sg
	return sg, nil
}

func (s *graphStore) get(id string) (*storedGraph, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	sg, ok := s.byID[id]
	return sg, ok
}

func (s *graphStore) delete(id string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.byID[id]; !ok {
		return false
	}
	delete(s.byID, id)
	return true
}

func (s *graphStore) list() []*storedGraph {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*storedGraph, 0, len(s.byID))
	for _, sg := range s.byID {
		out = append(out, sg)
	}
	// IDs are "g<counter>", so shorter-then-lexicographic is numeric order.
	sort.Slice(out, func(i, j int) bool {
		if len(out[i].ID) != len(out[j].ID) {
			return len(out[i].ID) < len(out[j].ID)
		}
		return out[i].ID < out[j].ID
	})
	return out
}

func (s *graphStore) len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.byID)
}

func (s *graphStore) capacity() int { return s.cap }
