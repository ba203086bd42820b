package parhip_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"repro"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/mpi"
	"repro/internal/mpi/transport"
	"repro/internal/server"
)

// TestEveryWayInSamePartition is the regression guard for "defaults written
// once": the library session, a bare core.RunOn with the config the session
// resolves, an HTTP job (options omitted, then every default spelled out —
// which must hit the first job's cache entry) and one TCP world per rank
// over loopback, each started the way `parhip -transport tcp` starts its
// rank (NewTCP, NewWorldOn, RunOn), all yield the identical partition of
// the same graph. A default that drifted between the library, the daemon's
// canonicalization and the TCP launcher shows up here as a checksum
// mismatch or a cache miss.
func TestEveryWayInSamePartition(t *testing.T) {
	const k = 8
	g := gen.WebCrawlLike(2000, 30, 8, 0.4, 40, 9)
	ctx := context.Background()
	session := func() *parhip.Partitioner {
		p, err := parhip.New(g, parhip.WithK(k))
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	cfg := session().CoreConfig()
	checksum := func(assign []int32) string {
		p, err := parhip.NewPartition(g, assign, k, cfg.Eps)
		if err != nil {
			t.Fatal(err)
		}
		return p.Checksum()
	}

	ways := []struct {
		name string
		run  func(t *testing.T) string
	}{
		{"parhip.New.Run", func(t *testing.T) string {
			res, err := session().Run(ctx)
			if err != nil {
				t.Fatal(err)
			}
			return res.Partition.Checksum()
		}},
		{"core.RunOn", func(t *testing.T) string {
			res, err := core.RunOn(ctx, mpi.NewWorld(parhip.DefaultPEs), g, cfg)
			if err != nil {
				t.Fatal(err)
			}
			return checksum(res.Part)
		}},
		{"http job", func(t *testing.T) string {
			srv := server.New(server.Config{})
			ts := httptest.NewServer(srv.Handler())
			defer func() {
				ts.Close()
				srv.Close()
			}()
			var metis bytes.Buffer
			if err := parhip.WriteMetis(&metis, g); err != nil {
				t.Fatal(err)
			}
			var up struct {
				ID string `json:"id"`
			}
			httpJSON(t, "POST", ts.URL+"/v1/graphs", metis.Bytes(), &up)
			spelled := fmt.Sprintf(`{"mode":"fast","class":"social","objective":"cut","eps":%g,"seed":%d,"pes":%d}`,
				parhip.DefaultEps, parhip.DefaultSeed, parhip.DefaultPEs)
			var part []int32
			for i, options := range []string{`{}`, spelled} {
				var job struct {
					ID     string `json:"id"`
					State  string `json:"state"`
					Cached bool   `json:"cached"`
					Error  string `json:"error"`
				}
				body := fmt.Sprintf(`{"graph_id":%q,"k":%d,"options":%s}`, up.ID, k, options)
				httpJSON(t, "POST", ts.URL+"/v1/jobs", []byte(body), &job)
				for deadline := time.Now().Add(time.Minute); job.State != "done"; {
					if job.State == "failed" || job.State == "cancelled" || time.Now().After(deadline) {
						t.Fatalf("job %s is %s: %s", job.ID, job.State, job.Error)
					}
					time.Sleep(5 * time.Millisecond)
					httpJSON(t, "GET", ts.URL+"/v1/jobs/"+job.ID, nil, &job)
				}
				if job.Cached != (i == 1) {
					t.Fatalf("options %s: cached = %v; spelling out the defaults must hit the cache entry of the job that omitted them, and only that", options, job.Cached)
				}
				var res struct {
					Part []int32 `json:"part"`
				}
				httpJSON(t, "GET", ts.URL+"/v1/jobs/"+job.ID+"/result", nil, &res)
				part = res.Part
			}
			return checksum(part)
		}},
		{"tcp world per rank over loopback", func(t *testing.T) string {
			peers := freeLoopbackAddrs(t, parhip.DefaultPEs)
			results := make([]core.Result, len(peers))
			errs := make([]error, len(peers))
			var wg sync.WaitGroup
			for r := range peers {
				wg.Add(1)
				go func(r int) {
					defer wg.Done()
					tcp, err := transport.NewTCP(transport.TCPConfig{Self: r, Addrs: peers})
					if err != nil {
						errs[r] = err
						return
					}
					world, err := mpi.NewWorldOn(tcp)
					if err != nil {
						tcp.Close()
						errs[r] = err
						return
					}
					defer world.Close()
					results[r], errs[r] = core.RunOn(ctx, world, g, cfg)
				}(r)
			}
			wg.Wait()
			for r, err := range errs {
				if err != nil {
					t.Fatalf("rank %d: %v", r, err)
				}
			}
			return checksum(results[0].Part)
		}},
	}
	var want string
	for _, w := range ways {
		t.Run(w.name, func(t *testing.T) {
			got := w.run(t)
			if want == "" {
				want = got
			}
			if got != want {
				t.Fatalf("partition checksum %s, want %s (the checksum of %s)", got, want, ways[0].name)
			}
		})
	}
}

// httpJSON performs one request and decodes the JSON response into out.
func httpJSON(t *testing.T, method, url string, body []byte, out any) {
	t.Helper()
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode >= 300 {
		t.Fatalf("%s %s: status %d", method, url, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatalf("%s %s: %v", method, url, err)
	}
}

// freeLoopbackAddrs reserves n distinct loopback ports and releases them
// for the TCP ranks to listen on.
func freeLoopbackAddrs(t *testing.T, n int) []string {
	t.Helper()
	addrs := make([]string, n)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer ln.Close()
		addrs[i] = ln.Addr().String()
	}
	return addrs
}
