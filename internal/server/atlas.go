package server

import (
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"time"

	repro "repro"
)

// atlasDefaultPerRegime keeps the default atlas request bounded: one scenario
// per regime exercises every guardrail class without multiplying the sweep.
const atlasDefaultPerRegime = 1

// handleAtlas serves the per-regime robustness atlas of a ready 2D session:
//
//	GET /v1/atlas?session=s1[&strategies=planbouquet,spillbound][&seed=1][&perRegime=1][&max=0][&format=svg]
//
// The sweep runs every suite scenario at (a sample of) every ESS cell per
// requested algorithm — it is admitted through the same overload limiter and
// session bulkhead as run/sweep requests. format=svg renders the heatmap
// lattice with guard overlays; the default is the JSON render data.
func (s *Server) handleAtlas(w http.ResponseWriter, r *http.Request) {
	// Brownout stage 2 sheds the expensive read surface; the atlas sweep is
	// the most expensive read the API offers.
	if s.Stage() >= 2 {
		s.shedBrownout(w, "run")
		return
	}
	q := r.URL.Query()
	id := q.Get("session")
	if id == "" {
		s.writeError(w, http.StatusBadRequest, codeBadRequest, fmt.Errorf("missing session parameter"))
		return
	}
	s.mu.Lock()
	e, ok := s.sessions[id]
	if ok {
		e.lastUsed = time.Now()
	}
	s.mu.Unlock()
	if !ok {
		s.writeError(w, http.StatusNotFound, codeNotFound, fmt.Errorf("no session %q", id))
		return
	}
	sess, ok := s.ready(w, e)
	if !ok {
		return
	}
	if e.d != 2 {
		s.writeError(w, http.StatusBadRequest, codeBadRequest,
			fmt.Errorf("the robustness atlas needs a 2D session; %s is %dD", e.id, e.d))
		return
	}

	// Strategy rows: a comma-separated list of registered names. Empty
	// means the library's default row set (discovery trio + every
	// registered selection strategy).
	var algos []repro.Algorithm
	if spec := q.Get("strategies"); spec != "" {
		for _, name := range strings.Split(spec, ",") {
			a, ok := s.resolveStrategy(w, strings.TrimSpace(name))
			if !ok {
				return
			}
			algos = append(algos, a)
		}
	}
	seed, err := intParam(q.Get("seed"), 1)
	if err != nil || seed < 1 {
		s.writeError(w, http.StatusBadRequest, codeBadRequest, fmt.Errorf("bad seed %q", q.Get("seed")))
		return
	}
	perRegime, err := intParam(q.Get("perRegime"), atlasDefaultPerRegime)
	if err != nil || perRegime < 1 || perRegime > 16 {
		s.writeError(w, http.StatusBadRequest, codeBadRequest,
			fmt.Errorf("bad perRegime %q (want 1..16)", q.Get("perRegime")))
		return
	}
	max, err := intParam(q.Get("max"), 0)
	if err != nil || max < 0 {
		s.writeError(w, http.StatusBadRequest, codeBadRequest, fmt.Errorf("bad max %q", q.Get("max")))
		return
	}
	format := q.Get("format")
	if format == "" {
		format = "json"
	}
	if format != "json" && format != "svg" {
		s.writeError(w, http.StatusBadRequest, codeBadRequest, fmt.Errorf("bad format %q (want json or svg)", format))
		return
	}

	release, admitted := s.admitRun(w, e)
	if !admitted {
		return
	}
	atlas, err := sess.Atlas(r.Context(), algos, repro.ScenarioSuite(int64(seed), perRegime), max)
	if err != nil {
		status, code := runErrorStatus(err)
		release(status < http.StatusInternalServerError)
		s.writeError(w, status, code, err)
		return
	}
	release(true)
	// The session was built through the SQL parse path, which leaves the
	// query unnamed; label the atlas with the benchmark name clients know.
	atlas.Query = e.query
	switch format {
	case "svg":
		w.Header().Set("Content-Type", "image/svg+xml")
		_, _ = w.Write([]byte(atlas.SVG()))
	default:
		b, err := atlas.JSON()
		if err != nil {
			s.writeError(w, http.StatusInternalServerError, codeInternal, err)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write(b)
	}
}

// intParam parses an optional integer query parameter.
func intParam(v string, def int) (int, error) {
	if v == "" {
		return def, nil
	}
	return strconv.Atoi(v)
}
