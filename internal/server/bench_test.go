package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

// BenchmarkHandleRunPlanBouquet serves PlanBouquet runs on 4D_Q91 through
// the in-process handler, each at a fresh log-uniform truth in [1e-6, 1]^4:
// the per-request cost of the PlanBouquet run path (admission, run, reply
// and trace retention), without the network.
func BenchmarkHandleRunPlanBouquet(b *testing.B) {
	srv := New()
	b.Cleanup(srv.Close)
	h := srv.Handler()
	serve := func(method, path string, body []byte) *httptest.ResponseRecorder {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(method, path, bytes.NewReader(body)))
		return w
	}
	w := serve(http.MethodPost, "/v1/sessions", []byte(`{"query":"4D_Q91"}`))
	var info struct {
		ID     string `json:"id"`
		Status string `json:"status"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &info); err != nil || w.Code != http.StatusAccepted {
		b.Fatalf("create: status %d: %s", w.Code, w.Body)
	}
	for deadline := time.Now().Add(time.Minute); info.Status != "ready"; time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) || info.Status == "failed" {
			b.Fatalf("session %s never became ready: %s", info.ID, w.Body)
		}
		w = serve(http.MethodGet, "/v1/sessions/"+info.ID, nil)
		if err := json.Unmarshal(w.Body.Bytes(), &info); err != nil {
			b.Fatal(err)
		}
	}

	rng := rand.New(rand.NewSource(1))
	bodies := make([][]byte, b.N)
	for i := range bodies {
		truth := make([]float64, 4)
		for d := range truth {
			truth[d] = math.Exp(math.Log(1e-6) * (1 - rng.Float64()))
		}
		bodies[i] = fmt.Appendf(nil, `{"strategy":"planbouquet","truth":[%g,%g,%g,%g]}`, truth[0], truth[1], truth[2], truth[3])
	}
	path := "/v1/sessions/" + info.ID + "/run"
	b.ResetTimer()
	for _, body := range bodies {
		if w := serve(http.MethodPost, path, body); w.Code != http.StatusOK {
			b.Fatalf("run %s: status %d: %s", body, w.Code, w.Body)
		}
	}
}
