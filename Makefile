GO ?= go

.PHONY: all build test race vet examples chaos resume-chaos drills bench experiments experiments-check replay-smoke atlas fuzz clean

all: vet build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

# examples runs every program under examples/ end to end: they drive the
# public API (sessions, sweeps, physical runs, rendering, the service), and
# `go build` alone does not catch a runtime break there.
examples:
	@for d in examples/*/; do echo "== $$d"; $(GO) run ./$$d > /dev/null || exit 1; done

# chaos runs the seeded fault-injection scenarios under the race detector:
# injected errors, operator panics, cost-eval failures and latency faults
# must end in retried or cleanly degraded runs, never a crash or hang.
chaos:
	$(GO) test -race -run 'Chaos|Fault|Resilient|Degrad' ./... -v
	$(GO) test -race ./internal/faults/ -v

# resume-chaos runs the crash-tolerance suite under the race detector: a 3D
# SpillBound run is killed at every contour checkpoint and resumed from its
# durable snapshot (identical discovery, bounded redo), the durable server
# restart drill recovers sessions and runs from disk, and the runstate
# store/tracker invariants are exercised directly.
resume-chaos:
	$(GO) test -race -run 'CrashResume|Resume|Rehydrat|Durable|Checkpoint' . ./internal/server/ -v
	$(GO) test -race ./internal/runstate/ -v
	$(GO) test -race ./internal/fleet/ -v

# drills runs every end-to-end daemon drill (cmd/drill: metrics, overload,
# trace, fleet, brownout) against freshly built rqpd processes; each drill's
# Go doc comment states what it checks. `make <name>-smoke` runs one drill.
drills:
	$(GO) run ./cmd/drill

%-smoke:
	$(GO) run ./cmd/drill $*

# bench runs the full testing.B suite. The tracked per-layer numbers
# (ESS build throughput, selection-strategy run cost, ...) come from
# perfbench, which records its environment with every run.
bench:
	$(GO) test -bench=. -benchmem -run '^$$'

experiments:
	$(GO) run ./cmd/experiments

# experiments-check regenerates every paper table and figure plus the
# four-way MSO/ASO summary and diffs them against the archived
# results_full.txt: any moved number fails. A change that moves the numbers
# on purpose re-records the file.
experiments-check:
	{ $(GO) run ./cmd/experiments && $(GO) run ./cmd/experiments -summary; } | diff - results_full.txt

# replay-smoke boots rqpd with tight admission limits and replays a seeded
# 30s open-loop mixed trace (clean runs, adversarial / regret-correlated
# scenario runs, sweeps, builds) followed by a shed burst and a
# circuit-breaker drill. Writes replay-report.json (per-class p50/p95/p99,
# status counts, guardrail census) and -check asserts every guardrail class
# fired — watchdog abort, ESS escape, shed, breaker — with no goroutine leak.
replay-smoke:
	$(GO) run ./cmd/replay -duration 30s -rate 20 -check -o replay-report.json

# atlas renders the per-regime robustness atlas for the motivating example
# query (suboptimality heat over the ESS with guardrail-intervention
# overlays, three regimes x three strategies).
atlas:
	$(GO) run ./cmd/rqp atlas -query 2D_EQ -res 16 -max 64 -o atlas.svg

# fuzz runs the fuzz targets briefly: the runstate snapshot decoder (the
# bytes crash recovery trusts least) and the Prometheus exposition parser.
FUZZTIME ?= 10s
fuzz:
	$(GO) test -fuzz=FuzzDecodeRunState -fuzztime=$(FUZZTIME) ./internal/runstate/
	$(GO) test -fuzz=FuzzParseProm -fuzztime=$(FUZZTIME) ./internal/telemetry/

clean:
	$(GO) clean ./...
