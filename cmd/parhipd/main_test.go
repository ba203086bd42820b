package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"testing"
	"time"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/testutil"
)

// client talks to one daemon started by run over real HTTP. Its own
// transport lets the test close the idle keep-alive connections (and their
// goroutines) before the leak check.
type client struct {
	t    *testing.T
	base string
	http *http.Client
}

// do sends body (nil for none) and decodes a 2xx JSON response into out
// (when non-nil), returning the status code and raw body.
func (c *client) do(method, path string, body []byte, out any) (int, string) {
	c.t.Helper()
	req, err := http.NewRequest(method, c.base+path, bytes.NewReader(body))
	if err != nil {
		c.t.Fatalf("%s %s: %v", method, path, err)
	}
	resp, err := c.http.Do(req)
	if err != nil {
		c.t.Fatalf("%s %s: %v", method, path, err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if out != nil && resp.StatusCode < 300 {
		if err := json.Unmarshal(raw, out); err != nil {
			c.t.Fatalf("%s %s: decode %q: %v", method, path, raw, err)
		}
	}
	return resp.StatusCode, string(raw)
}

// poll GETs path every few milliseconds until done accepts the decoded
// body, failing the test after a deadline.
func poll[T any](c *client, path string, done func(T) bool) T {
	c.t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		var v T
		if code, raw := c.do("GET", path, nil, &v); code != http.StatusOK {
			c.t.Fatalf("GET %s: %d: %s", path, code, raw)
		}
		if done(v) {
			return v
		}
		if time.Now().After(deadline) {
			c.t.Fatalf("GET %s: timed out (last %+v)", path, v)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// deltaBatch renders gen edge deltas as the wire batch for seq.
func deltaBatch(t *testing.T, seq int64, ds []gen.EdgeDelta) []byte {
	type delta struct {
		Op string `json:"op"`
		U  int32  `json:"u"`
		V  int32  `json:"v"`
		W  int64  `json:"w"`
	}
	out := make([]delta, len(ds))
	for i, d := range ds {
		out[i] = delta{Op: "remove_edge", U: d.U, V: d.V, W: d.W}
		if d.Add {
			out[i].Op = "add_edge"
		}
	}
	raw, err := json.Marshal(map[string]any{"seq": seq, "deltas": out})
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// TestRunServesAndDrains drives the daemon's own wiring — flags, both
// listeners, handler, shutdown — over real HTTP: one job submitted and read
// back, a live graph fed three delta batches with placement lookups, then a
// cancel that must return nil from run with every goroutine it started gone.
func TestRunServesAndDrains(t *testing.T) {
	base := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	addrc := make(chan string, 1)
	runErr := make(chan error, 1)
	go func() {
		runErr <- run(ctx, []string{"-addr", "127.0.0.1:0", "-debug-addr", "127.0.0.1:0", "-workers", "2", "-quiet"},
			func(addr string) { addrc <- addr })
	}()
	c := &client{t: t, http: &http.Client{Transport: &http.Transport{}, Timeout: 30 * time.Second}}
	select {
	case addr := <-addrc:
		c.base = "http://" + addr
	case err := <-runErr:
		t.Fatalf("run returned before serving: %v", err)
	}

	const n, k = 600, 4
	g, _ := gen.PlantedPartition(n, 8, 8, 0.5, 3)
	var buf bytes.Buffer
	if err := graph.WriteMetis(&buf, g); err != nil {
		t.Fatal(err)
	}
	var meta struct {
		ID string `json:"id"`
	}
	if code, raw := c.do("POST", "/v1/graphs", buf.Bytes(), &meta); code != http.StatusCreated {
		t.Fatalf("upload: %d: %s", code, raw)
	}

	// One job, polled to done; its result must be readable while serving.
	type jobView struct {
		ID    string `json:"id"`
		State string `json:"state"`
		Error string `json:"error"`
	}
	var jv jobView
	job := fmt.Sprintf(`{"graph_id":%q,"k":%d,"options":{"mode":"minimal","pes":2}}`, meta.ID, k)
	if code, raw := c.do("POST", "/v1/jobs", []byte(job), &jv); code != http.StatusAccepted {
		t.Fatalf("submit: %d: %s", code, raw)
	}
	jv = poll(c, "/v1/jobs/"+jv.ID, func(v jobView) bool {
		return v.State != "queued" && v.State != "running"
	})
	if jv.State != "done" {
		t.Fatalf("job ended %s: %s", jv.State, jv.Error)
	}
	var res struct {
		Feasible bool    `json:"feasible"`
		Part     []int32 `json:"part"`
	}
	if code, raw := c.do("GET", "/v1/jobs/"+jv.ID+"/result", nil, &res); code != http.StatusOK {
		t.Fatalf("result: %d: %s", code, raw)
	}
	if len(res.Part) != n || !res.Feasible {
		t.Fatalf("result: %d assignments (want %d), feasible %v", len(res.Part), n, res.Feasible)
	}

	// Promote to live, wait for the initial epoch, then stream three
	// sequence-numbered batches with placement lookups after each.
	type liveView struct {
		Epoch int64 `json:"epoch"`
	}
	enable := fmt.Sprintf(`{"k":%d,"options":{"mode":"minimal","pes":2}}`, k)
	if code, raw := c.do("POST", "/v1/graphs/"+meta.ID+"/live", []byte(enable), nil); code != http.StatusCreated {
		t.Fatalf("enable live: %d: %s", code, raw)
	}
	poll(c, "/v1/graphs/"+meta.ID+"/live", func(v liveView) bool { return v.Epoch >= 1 })
	deltas := gen.PerturbDeltas(g, 0.03, 4)
	per := (len(deltas) + 2) / 3
	lastEpoch := int64(1)
	for seq := int64(1); seq <= 3; seq++ {
		batch := deltas[min(int(seq-1)*per, len(deltas)):min(int(seq)*per, len(deltas))]
		var ur struct {
			Applied int `json:"applied"`
		}
		code, raw := c.do("POST", "/v1/graphs/"+meta.ID+"/updates", deltaBatch(t, seq, batch), &ur)
		if code != http.StatusOK || ur.Applied != len(batch) {
			t.Fatalf("batch %d: %d: %s", seq, code, raw)
		}
		for _, v := range []int{0, n / 2, n - 1} {
			var pv struct {
				Block int32 `json:"block"`
				Epoch int64 `json:"epoch"`
			}
			if code, raw := c.do("GET", fmt.Sprintf("/v1/graphs/%s/placement/%d", meta.ID, v), nil, &pv); code != http.StatusOK {
				t.Fatalf("placement %d: %d: %s", v, code, raw)
			}
			if pv.Block < 0 || pv.Block >= k || pv.Epoch < lastEpoch {
				t.Fatalf("batch %d: node %d placed %+v after epoch %d", seq, v, pv, lastEpoch)
			}
			lastEpoch = pv.Epoch
		}
	}

	cancel()
	select {
	case err := <-runErr:
		if err != nil {
			t.Fatalf("run after cancel: %v", err)
		}
	case <-time.After(20 * time.Second):
		t.Fatal("run did not return after cancel")
	}
	c.http.CloseIdleConnections()
	testutil.WaitNoLeak(t, base, 0)
}

// TestRunRejectsBadLogFormat: a bad flag value is an error from run, not a
// process exit.
func TestRunRejectsBadLogFormat(t *testing.T) {
	err := run(context.Background(), []string{"-addr", "127.0.0.1:0", "-log-format", "bogus"}, func(string) {
		t.Error("run served with an unknown -log-format")
	})
	if err == nil {
		t.Fatal("run accepted -log-format bogus")
	}
}
