package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/fleet"
	"repro/internal/server"
	"repro/internal/telemetry"
)

// The run request mix of the serve and durable workloads, in percent.
var strategyMix = []struct {
	name   string
	weight int
}{
	{"spillbound", 40},
	{"planbouquet", 30},
	{"alignedbound", 20},
	{"minmaxregret", 10},
}

const (
	sessionQuery = "4D_Q91"
	queryDims    = 4
	hotSetSize   = 64
)

// streamSeed derives an independent generator seed for one named input
// stream (and client) of a run from the workload seed.
func streamSeed(seed int64, stream string, client int) int64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d/%s/%d", seed, stream, client)
	return int64(h.Sum64() >> 1)
}

// runReq is one generated run request.
type runReq struct {
	Strategy string    `json:"strategy"`
	Truth    []float64 `json:"truth"`
	Durable  bool      `json:"durable,omitempty"`
}

// gen produces a client's request sequence. Strategies come in shuffled
// blocks of ten that hold the mix exactly; truths are either fresh,
// log-uniform over [1e-6, 1], or picks from a shared hot set.
type gen struct {
	rng   *rand.Rand
	hot   [][]float64 // nil: fresh truths
	block []string
}

func newGen(seed int64, stream string, client int, hot [][]float64) *gen {
	return &gen{rng: rand.New(rand.NewSource(streamSeed(seed, stream, client))), hot: hot}
}

func logUniform(rng *rand.Rand) float64 {
	return math.Exp(math.Log(1e-6) * (1 - rng.Float64()))
}

// hotSet returns the durable workload's seeded set of recurring truths: a
// Latin hypercube in log space, so every seed covers [1e-6, 1] evenly in
// each dimension and seeds differ in which points, not in how spread out
// they are.
func hotSet(seed int64) [][]float64 {
	rng := rand.New(rand.NewSource(streamSeed(seed, "hot", 0)))
	out := make([][]float64, hotSetSize)
	for i := range out {
		out[i] = make([]float64, queryDims)
	}
	for d := 0; d < queryDims; d++ {
		for i, stratum := range rng.Perm(hotSetSize) {
			u := (float64(stratum) + rng.Float64()) / hotSetSize
			out[i][d] = math.Exp(math.Log(1e-6) * (1 - u))
		}
	}
	return out
}

func (g *gen) next() runReq {
	if len(g.block) == 0 {
		for _, m := range strategyMix {
			for i := 0; i < m.weight/10; i++ {
				g.block = append(g.block, m.name)
			}
		}
		g.rng.Shuffle(len(g.block), func(i, j int) { g.block[i], g.block[j] = g.block[j], g.block[i] })
	}
	name := g.block[0]
	g.block = g.block[1:]
	if g.hot != nil {
		return runReq{Strategy: name, Truth: g.hot[g.rng.Intn(len(g.hot))]}
	}
	t := make([]float64, queryDims)
	for d := range t {
		t[d] = logUniform(g.rng)
	}
	return runReq{Strategy: name, Truth: t}
}

// truthKey identifies a truth exactly (memo-hit accounting).
func truthKey(t []float64) string { return fmt.Sprint(t) }

// rig is an in-process deployment on loopback listeners: one node
// (durable workload) or a two-node fleet sharing one data directory
// (serve workload), with one ready 4D_Q91 session.
type rig struct {
	dir     string
	srvs    []*server.Server
	nodes   []*fleet.Node
	https   []*http.Server
	addrs   []string
	inner   []http.Handler // each node's server handler (below the fleet router)
	session string
	owner   int // index of the node that owns the session
}

func startRig(dir string, nodes int) (*rig, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	r := &rig{dir: dir}
	lns := make([]net.Listener, nodes)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			for _, l := range lns[:i] {
				l.Close()
			}
			return nil, err
		}
		lns[i] = ln
		r.addrs = append(r.addrs, ln.Addr().String())
	}
	for i := 0; i < nodes; i++ {
		cfg := server.DefaultConfig()
		cfg.DataDir = dir
		// rqpd runs the brownout controller in fleet mode only.
		cfg.Brownout = nodes > 1
		srv := server.NewWithConfig(cfg)
		r.srvs = append(r.srvs, srv)
		r.inner = append(r.inner, srv.Handler())
		handler := r.inner[i]
		if nodes > 1 {
			n, err := fleet.New(fleet.Config{Self: r.addrs[i], Peers: r.addrs, DataDir: dir}, srv)
			if err != nil {
				for _, l := range lns[i:] {
					l.Close()
				}
				r.close()
				return nil, err
			}
			srv.StartBrownout()
			n.Start()
			r.nodes = append(r.nodes, n)
			handler = n.Handler()
		}
		hs := &http.Server{Handler: handler, ReadHeaderTimeout: 5 * time.Second}
		r.https = append(r.https, hs)
		go hs.Serve(lns[i])
	}
	return r, nil
}

func (r *rig) url(node int, path string) string { return "http://" + r.addrs[node] + path }

// createSession creates the 4D_Q91 session through node 0, waits until it
// is ready, and finds its owner.
func (r *rig) createSession(c *client) error {
	status, body, err := c.do(http.MethodPost, r.url(0, "/v1/sessions"), []byte(`{"query":"`+sessionQuery+`"}`))
	if err != nil || status != http.StatusAccepted {
		return fmt.Errorf("create session: status %d: %v %s", status, err, body)
	}
	var info struct {
		ID     string `json:"id"`
		Status string `json:"status"`
	}
	if err := json.Unmarshal(body, &info); err != nil {
		return fmt.Errorf("create session: %w", err)
	}
	r.session = info.ID
	deadline := time.Now().Add(60 * time.Second)
	for info.Status != "ready" {
		if time.Now().After(deadline) || info.Status == "failed" {
			return fmt.Errorf("session %s not ready: %s", r.session, info.Status)
		}
		time.Sleep(5 * time.Millisecond)
		status, body, err = c.do(http.MethodGet, r.url(0, "/v1/sessions/"+r.session), nil)
		if err != nil || status != http.StatusOK {
			return fmt.Errorf("poll session: status %d: %v", status, err)
		}
		if err := json.Unmarshal(body, &info); err != nil {
			return err
		}
	}
	if len(r.nodes) > 1 {
		status, body, err = c.do(http.MethodGet, r.url(0, "/v1/fleet/route?key="+r.session), nil)
		if err != nil || status != http.StatusOK {
			return fmt.Errorf("route: status %d: %v", status, err)
		}
		var route struct {
			Owner string `json:"owner"`
		}
		if err := json.Unmarshal(body, &route); err != nil {
			return err
		}
		r.owner = -1
		for i, a := range r.addrs {
			if a == route.Owner {
				r.owner = i
			}
		}
		if r.owner < 0 {
			return fmt.Errorf("route: unknown owner %q", route.Owner)
		}
	}
	return nil
}

// runURL is the run endpoint of the session on a node.
func (r *rig) runURL(node int) string { return r.url(node, "/v1/sessions/"+r.session+"/run") }

// sessionDir is the session's durable directory on the shared data dir.
func (r *rig) sessionDir() string { return filepath.Join(r.dir, r.session) }

func (r *rig) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for _, hs := range r.https {
		_ = hs.Shutdown(ctx) // listeners are gone either way
	}
	for _, n := range r.nodes {
		n.Close()
	}
	for _, s := range r.srvs {
		s.Close()
	}
	os.RemoveAll(r.dir)
}

// scrape sums selected counters over every node's /v1/metrics.
type scrape struct {
	runsOK      float64 // rqp_runs_total with outcome ok or degraded
	checkpoints float64 // rqp_checkpoints_total
	sheds       float64 // rqp_shed_total, every class and reason
}

func (r *rig) scrape(c *client) (scrape, error) {
	var s scrape
	for i := range r.addrs {
		status, body, err := c.do(http.MethodGet, r.url(i, "/v1/metrics"), nil)
		if err != nil || status != http.StatusOK {
			return s, fmt.Errorf("scrape node %d: status %d: %v", i, status, err)
		}
		fams, err := telemetry.ParseProm(bytes.NewReader(body))
		if err != nil {
			return s, fmt.Errorf("scrape node %d: %w", i, err)
		}
		sum := func(name string, keep func(map[string]string) bool) float64 {
			f := fams[name]
			if f == nil {
				return 0
			}
			t := 0.0
			for _, smp := range f.Samples {
				if keep == nil || keep(smp.Labels) {
					t += smp.Value
				}
			}
			return t
		}
		s.runsOK += sum("rqp_runs_total", func(l map[string]string) bool {
			return l["outcome"] == "ok" || l["outcome"] == "degraded"
		})
		s.checkpoints += sum("rqp_checkpoints_total", nil)
		s.sheds += sum("rqp_shed_total", nil)
	}
	return s, nil
}

// client is one closed-loop caller with its own keep-alive connection.
type client struct{ hc *http.Client }

func newClient() *client {
	return &client{hc: &http.Client{
		Timeout:   60 * time.Second,
		Transport: &http.Transport{MaxIdleConnsPerHost: 1, DisableCompression: true},
	}}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

func (c *client) do(method, url string, body []byte) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	return resp.StatusCode, data, err
}

// runResp is the part of a run response the checks read.
type runResp struct {
	TotalCost float64 `json:"totalCost"`
	SubOpt    float64 `json:"subOpt"`
	Guarantee float64 `json:"guarantee"`
	Steps     int     `json:"steps"`
	RunID     string  `json:"runId"`
	TraceID   string  `json:"traceId"`
	Events    []struct {
		Kind string `json:"kind"`
	} `json:"events"`
}

// checkpoints counts the response's checkpoint_save events.
func (r *runResp) checkpoints() int {
	n := 0
	for _, e := range r.Events {
		if e.Kind == string(telemetry.CheckpointSave) {
			n++
		}
	}
	return n
}

// parseRun decodes and checks a run reply: status 200, subOpt ≥ 1, and
// subOpt within the guarantee when the reply states one.
func parseRun(status int, body []byte, err error) (runResp, error) {
	var r runResp
	if err != nil {
		return r, err
	}
	if status != http.StatusOK {
		return r, fmt.Errorf("run: status %d: %s", status, strings.TrimSpace(string(body)))
	}
	if err := json.Unmarshal(body, &r); err != nil {
		return r, fmt.Errorf("run: %w", err)
	}
	return r, checkSubOpt(r.SubOpt, r.Guarantee)
}

func checkSubOpt(subOpt, guarantee float64) error {
	if !(subOpt >= 1-1e-9) {
		return fmt.Errorf("run: subOpt %g < 1", subOpt)
	}
	if guarantee > 0 && subOpt > guarantee*(1+1e-9) {
		return fmt.Errorf("run: subOpt %g above guarantee %g", subOpt, guarantee)
	}
	return nil
}
