GO ?= go

.PHONY: all build test race vet loc examples chaos resume-chaos drills bench bench-check experiments experiments-check atlas fuzz clean

all: vet build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

# loc prints the number of non-test Go lines outside perfbench/, the figure
# a change's line delta is quoted in.
loc:
	@find . -name '*.go' ! -name '*_test.go' ! -path './perfbench/*' -exec cat {} + | wc -l

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
# restart drill recovers sessions and runs from disk, the persisted ledger
# of every resumable strategy is pinned against testdata/ledger_golden.json
# (TestLedgerGolden), and the runstate store/tracker invariants are
# exercised directly.
resume-chaos:
	$(GO) test -race -run 'CrashResume|Resume|Rehydrat|Durable|Checkpoint|LedgerGolden' . ./internal/server/ -v
	$(GO) test -race ./internal/runstate/ -v
	$(GO) test -race ./internal/fleet/ -v

# drills runs every end-to-end daemon drill (cmd/drill: metrics, overload,
# trace, fleet, brownout, replay) against freshly built rqpd processes; each
# drill's Go doc comment states what it checks. `make <name>-smoke` runs one
# drill (`make replay-smoke` writes replay-report.json).
drills:
	$(GO) run ./cmd/drill

%-smoke:
	$(GO) run ./cmd/drill $*

# bench runs the full testing.B suite. The tracked per-layer numbers
# (ESS build throughput, selection-strategy run cost, ...) come from
# perfbench, which records its environment with every run.
bench:
	$(GO) test -bench=. -benchmem -run '^$$'

# bench-check runs three short perfbench rounds and fails unless each one's
# last line reports "correct":true. offline checks the session builds and
# strategy sweeps against perfbench/expected.json (POSP sizes and every
# sweep's MSO/ASO). serve and durable run traced: the traced ladder checks
# that the library, durable-library and HTTP rungs report the same
# totalCost and step count, and durable checks rqp_checkpoints_total
# against the run's checkpoint events. At seed 1 over 2 s every serve
# reply also keeps its strategy's guarantee; AlignedBound's known off-grid
# breaches show up at seeds 5 and 408 over 20 s windows (ROADMAP.md, open
# items), which this check does not run.
bench-check:
	@for w in offline serve durable; do \
		trace=1; [ $$w = offline ] && trace=0; \
		out=$$(bash perfbench/run.sh --workload $$w --seed 1 --seconds 2 --trace $$trace) || { echo "$$out"; exit 1; }; \
		echo "$$out"; \
		echo "$$out" | tail -n 1 | grep -q '"correct":true' || { echo "bench-check: $$w outputs are not correct"; exit 1; }; \
	done

experiments:
	$(GO) run ./cmd/experiments

# experiments-check regenerates every paper table and figure plus the
# four-way MSO/ASO summary and diffs them against the archived
# results_full.txt: any moved number fails. A change that moves the numbers
# on purpose re-records the file.
experiments-check:
	{ $(GO) run ./cmd/experiments && $(GO) run ./cmd/experiments -summary; } | diff - results_full.txt

# atlas renders the per-regime robustness atlas for the motivating example
# query (suboptimality heat over the ESS with guardrail-intervention
# overlays, three regimes x three strategies).
atlas:
	$(GO) run ./cmd/rqp atlas -query 2D_EQ -res 16 -max 64 -o atlas.svg

# fuzz runs the fuzz targets briefly: the runstate snapshot decoder (the
# bytes crash recovery trusts least), the Prometheus exposition parser and
# the hand-written event JSON encoder against encoding/json.
FUZZTIME ?= 10s
fuzz:
	$(GO) test -fuzz=FuzzDecodeRunState -fuzztime=$(FUZZTIME) ./internal/runstate/
	$(GO) test -fuzz=FuzzParseProm -fuzztime=$(FUZZTIME) ./internal/telemetry/
	$(GO) test -fuzz=FuzzEventJSON -fuzztime=$(FUZZTIME) ./internal/telemetry/

clean:
	$(GO) clean ./...
