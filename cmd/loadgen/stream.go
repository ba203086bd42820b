package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net/http"
	"time"

	"repro/internal/gen"
)

// streamCfg parameterizes the -stream scenario.
type streamCfg struct {
	addr    string
	n       int32   // nodes in the generated community graph
	k       int32   // blocks
	mode    string  // partitioning mode for the auto-repartition jobs
	churn   float64 // fraction of edges to churn over the whole run
	batches int     // delta batches to stream
	seed    int64
	timeout time.Duration
}

// liveStatus mirrors the GET /v1/graphs/{id}/live payload fields the
// stream scenario checks.
type liveStatus struct {
	Epoch            int64   `json:"epoch"`
	Seq              int64   `json:"seq"`
	PendingDeltas    int64   `json:"pending_deltas"`
	ChurnFraction    float64 `json:"churn_fraction"`
	InFlight         bool    `json:"in_flight"`
	AutoRepartitions int64   `json:"auto_repartitions"`
	Swaps            int64   `json:"swaps"`
	LastError        string  `json:"last_error"`
	Cut              *int64  `json:"cut"`
	Feasible         *bool   `json:"feasible"`
}

// runStream drives the live-graph path end to end against a running
// daemon: upload a community graph, promote it to live, stream churn as
// sequence-numbered delta batches with placement lookups interleaved,
// then verify the controller auto-repartitioned and the final state is
// clean. Exits the process non-zero on any violation, so CI can use it
// as a smoke gate.
func runStream(cfg streamCfg) {
	g, _ := gen.PlantedPartition(cfg.n, 30, 8, 0.4, uint64(cfg.seed))
	id, err := upload(cfg.addr, g)
	if err != nil {
		log.Fatalf("loadgen -stream: upload: %v", err)
	}
	fmt.Printf("uploaded planted graph n=%d m=%d -> %s\n", g.NumNodes(), g.NumEdges(), id)

	enable := map[string]any{
		"k":       cfg.k,
		"options": map[string]any{"mode": cfg.mode},
		"policy":  map[string]any{"churn_fraction": 0.05, "max_staleness_ms": 500},
	}
	if code, body := postJSON(cfg.addr+"/v1/graphs/"+id+"/live", enable, nil); code != http.StatusCreated {
		log.Fatalf("loadgen -stream: enable live: status %d: %s", code, body)
	}

	deadline := time.Now().Add(cfg.timeout)
	st := awaitStatus(cfg.addr, id, deadline, "initial partition", func(s liveStatus) bool {
		return s.Epoch >= 1
	})
	fmt.Printf("initial partition swapped in: epoch %d, cut %s\n", st.Epoch, cutString(st))

	// Stream the churn. Placement lookups ride along with every batch and
	// must stay valid with a monotone epoch across the swaps.
	deltas := gen.PerturbDeltas(g, cfg.churn, uint64(cfg.seed)+1)
	per := (len(deltas) + cfg.batches - 1) / cfg.batches
	lastEpoch, lookups := st.Epoch, 0
	seq := int64(0)
	for i := 0; i < len(deltas); i += per {
		end := i + per
		if end > len(deltas) {
			end = len(deltas)
		}
		seq++
		var ur struct {
			Applied  int   `json:"applied"`
			Replayed bool  `json:"replayed"`
			Epoch    int64 `json:"epoch"`
		}
		code, body := postJSON(cfg.addr+"/v1/graphs/"+id+"/updates", deltaBatch(seq, deltas[i:end]), &ur)
		if code != http.StatusOK || ur.Applied != end-i {
			log.Fatalf("loadgen -stream: batch %d: status %d: %s", seq, code, body)
		}
		for _, v := range []int64{0, int64(cfg.n) / 2, int64(cfg.n) - 1} {
			ep := lookupPlacement(cfg.addr, id, v, cfg.k)
			if ep < lastEpoch {
				log.Fatalf("loadgen -stream: placement epoch went backwards: %d -> %d", lastEpoch, ep)
			}
			lastEpoch, lookups = ep, lookups+1
		}
	}
	fmt.Printf("streamed %d deltas in %d batches, %d placement lookups, epoch now %d\n",
		len(deltas), seq, lookups, lastEpoch)

	// Idempotent replay: an already-applied sequence number is a no-op.
	var ur struct {
		Applied  int  `json:"applied"`
		Replayed bool `json:"replayed"`
	}
	if code, body := postJSON(cfg.addr+"/v1/graphs/"+id+"/updates", deltaBatch(seq, nil), &ur); code != http.StatusOK || !ur.Replayed || ur.Applied != 0 {
		log.Fatalf("loadgen -stream: replay of batch %d not idempotent: status %d: %s", seq, code, body)
	}

	// Drain: between the churn trigger and the staleness backstop, every
	// delta must end up incorporated into a swapped-in partition.
	st = awaitStatus(cfg.addr, id, deadline, "drain", func(s liveStatus) bool {
		return s.PendingDeltas == 0 && !s.InFlight
	})
	switch {
	case st.LastError != "":
		log.Fatalf("loadgen -stream: live graph reports error: %s", st.LastError)
	case st.AutoRepartitions < 2 || st.Epoch < 2:
		log.Fatalf("loadgen -stream: controller never auto-repartitioned after churn (runs %d, epoch %d)",
			st.AutoRepartitions, st.Epoch)
	case st.Feasible == nil || !*st.Feasible:
		log.Fatalf("loadgen -stream: final partition infeasible (%+v)", st)
	}
	fmt.Printf("live stream OK: %d auto-repartitions, %d swaps, final epoch %d, cut %s\n",
		st.AutoRepartitions, st.Swaps, st.Epoch, cutString(st))
}

func cutString(s liveStatus) string {
	if s.Cut == nil {
		return "?"
	}
	return fmt.Sprintf("%d", *s.Cut)
}

// deltaBatch renders gen edge deltas as the wire batch for seq.
func deltaBatch(seq int64, ds []gen.EdgeDelta) map[string]any {
	out := make([]map[string]any, 0, len(ds))
	for _, d := range ds {
		op := "remove_edge"
		if d.Add {
			op = "add_edge"
		}
		out = append(out, map[string]any{"op": op, "u": d.U, "v": d.V, "w": d.W})
	}
	return map[string]any{"seq": seq, "deltas": out}
}

// postJSON posts v and decodes the response into out (when non-nil),
// returning the status code and raw body.
func postJSON(url string, v any, out any) (int, string) {
	body, err := json.Marshal(v)
	if err != nil {
		log.Fatalf("loadgen -stream: marshal: %v", err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		log.Fatalf("loadgen -stream: POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if out != nil && resp.StatusCode < 300 {
		if err := json.Unmarshal(raw, out); err != nil {
			log.Fatalf("loadgen -stream: decode %s: %v", url, err)
		}
	}
	return resp.StatusCode, string(raw)
}

// lookupPlacement fetches one node's placement and validates the block
// range, returning the epoch it was served at.
func lookupPlacement(addr, id string, v int64, k int32) int64 {
	resp, err := http.Get(fmt.Sprintf("%s/v1/graphs/%s/placement/%d", addr, id, v))
	if err != nil {
		log.Fatalf("loadgen -stream: placement: %v", err)
	}
	defer resp.Body.Close()
	var pv struct {
		Block int32 `json:"block"`
		Epoch int64 `json:"epoch"`
	}
	if resp.StatusCode != http.StatusOK {
		raw, _ := io.ReadAll(resp.Body)
		log.Fatalf("loadgen -stream: placement of node %d: status %d: %s", v, resp.StatusCode, raw)
	}
	if err := json.NewDecoder(resp.Body).Decode(&pv); err != nil {
		log.Fatalf("loadgen -stream: decode placement: %v", err)
	}
	if pv.Block < 0 || pv.Block >= k {
		log.Fatalf("loadgen -stream: node %d placed in block %d outside [0,%d)", v, pv.Block, k)
	}
	return pv.Epoch
}

// awaitStatus polls the live status until cond holds or deadline passes.
func awaitStatus(addr, id string, deadline time.Time, what string, cond func(liveStatus) bool) liveStatus {
	for {
		resp, err := http.Get(addr + "/v1/graphs/" + id + "/live")
		if err != nil {
			log.Fatalf("loadgen -stream: live status: %v", err)
		}
		var st liveStatus
		err = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if err != nil {
			log.Fatalf("loadgen -stream: decode live status: %v", err)
		}
		if cond(st) {
			return st
		}
		if time.Now().After(deadline) {
			log.Fatalf("loadgen -stream: timed out waiting for %s (status %+v)", what, st)
		}
		time.Sleep(25 * time.Millisecond)
	}
}
