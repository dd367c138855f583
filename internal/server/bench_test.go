package server

import (
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// BenchmarkHandleRun serves runs of each strategy of perfbench's serve mix
// on 4D_Q91 through the in-process handler, each at a fresh log-uniform
// truth in [1e-6, 1]^4: the per-request cost of the run path (admission,
// run, reply and trace retention, each run under its own minted trace
// ID), without the network.
func BenchmarkHandleRun(b *testing.B) {
	_, h, id := wireServer(b, Config{})
	path := "/v1/sessions/" + id + "/run"
	for _, strategy := range []string{"spillbound", "planbouquet", "alignedbound", "minmaxregret"} {
		b.Run(strategy, func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			bodies := make([]string, b.N)
			for i := range bodies {
				truth := make([]float64, 4)
				for d := range truth {
					truth[d] = math.Exp(math.Log(1e-6) * (1 - rng.Float64()))
				}
				bodies[i] = fmt.Sprintf(`{"strategy":%q,"truth":[%g,%g,%g,%g]}`, strategy, truth[0], truth[1], truth[2], truth[3])
			}
			b.ReportAllocs()
			b.ResetTimer()
			for _, body := range bodies {
				w := httptest.NewRecorder()
				h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, path, strings.NewReader(body)))
				if w.Code != http.StatusOK {
					b.Fatalf("run %s: status %d: %s", body, w.Code, w.Body)
				}
			}
		})
	}
}
