GO ?= go

.PHONY: build test race vet fmt-check lint lint-bench bench-selftest sim-parity fuzz-smoke trace-smoke chaos-smoke loadtest-smoke slo-smoke layer-smoke verify

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

# fmt-check fails (and names the offenders) when gofmt would rewrite
# anything; it never rewrites.
fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# lint type-checks the module and runs the vollint suite — the ten
# project-specific invariants of DESIGN.md §9: six per-package checks
# (determinism, lockedsend, goroutinehygiene, tickleak, nilsafeobs,
# wireerr) and four interprocedural ones on the module call graph
# (lockorder, bufown, wireevolve, hotpathalloc). The committed
# lint_baseline.json tolerates known findings; new findings and stale
# entries exit 1 (run `vollint -update` to rewrite the baseline and
# wire_schema.json after a deliberate change).
lint:
	$(GO) run ./cmd/vollint -baseline lint_baseline.json ./...

# lint-bench guards the lint suite's own latency: one full vollint run
# over the module (all ten checks, call graph included) must finish
# within 60 seconds, so the gate never comes to dominate CI.
lint-bench:
	@$(GO) build -o /tmp/vollint-bench ./cmd/vollint
	@start=$$(date +%s); /tmp/vollint-bench -baseline lint_baseline.json ./... || exit 1; \
	 end=$$(date +%s); d=$$((end-start)); echo "vollint ./... took $${d}s"; \
	 if [ $$d -gt 60 ]; then echo "lint-bench: vollint exceeded the 60s budget"; exit 1; fi

# bench-selftest builds and self-tests the benchmark of BENCHMARK.json.
# bench/ is its own module (it imports internal/ through a replace), so
# the root `go test ./...` never notices when a change to the packages it
# drives breaks its build.
bench-selftest:
	cd bench && $(GO) test ./...

# sim-parity requires volsim to print the same thing at one worker and at
# eight, the elapsed-time line aside: a session with multicast, custom
# beams and prediction, a session that decodes every delivered cell, and
# the ablation table. TestWorkerCountParity covers table1, fig2b and fig3d
# inside go test. PARITY_DIR holds the binary and the outputs.
PARITY_DIR ?= /tmp/volsim-parity
sim-parity:
	@mkdir -p $(PARITY_DIR) && $(GO) build -o $(PARITY_DIR)/volsim ./cmd/volsim
	@for c in "session -multicast -custom -predictive" "session -multicast -decode" ablate; do \
		for w in 1 8; do \
			$(PARITY_DIR)/volsim -workers $$w $$c > $(PARITY_DIR)/raw.txt || exit 1; \
			grep -v '^([0-9.]*s)$$' $(PARITY_DIR)/raw.txt > $(PARITY_DIR)/w$$w.txt; \
		done; \
		diff $(PARITY_DIR)/w1.txt $(PARITY_DIR)/w8.txt || { echo "sim-parity: volsim $$c differs at -workers 1 and 8"; exit 1; }; \
		echo "sim-parity: volsim $$c identical at -workers 1 and 8"; \
	done

# fuzz-smoke gives the native fuzz targets a short budget beyond their
# committed seed corpora (testdata/fuzz, which plain `go test` replays):
# the one-pass octree encoder against the recursive reference it
# replaced, the block decoder against arbitrary bytes (as given and
# with their checksums resealed — it must error or decode, never panic
# or allocate by an unchecked count), the decode kernel against the
# decoder it replaced on the same bytes (the same error, or the same
# points), and the wire reader against arbitrary bytes (never panics,
# allocates within the length prefix it checked, re-encodes and re-parses
# to the same message, hands out payloads that alias no one else's bytes,
# allocates no more than readChunk for a body that has not arrived), and
# the content generator's branch-free sin/cos against math.Sin/math.Cos
# (the same bits for any argument folded into the kernels' domain), and
# the link equation's base-10 power against math.Pow(10, y) (the same
# bits for any y). Minimizing each new input is capped at a second so it
# cannot eat the ten.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz FuzzOctreeEncodeMatchesReference -fuzztime 10s ./internal/codec
	$(GO) test -run '^$$' -fuzz 'FuzzDecode$$' -fuzztime 10s -fuzzminimizetime 1s ./internal/codec
	$(GO) test -run '^$$' -fuzz FuzzDecodeMatchesReference -fuzztime 10s -fuzzminimizetime 1s ./internal/codec
	$(GO) test -run '^$$' -fuzz FuzzReadMessage -fuzztime 10s -fuzzminimizetime 1s ./internal/wire
	$(GO) test -run '^$$' -fuzz FuzzTrigMatchesMath -fuzztime 10s -fuzzminimizetime 1s ./internal/pointcloud
	$(GO) test -run '^$$' -fuzz FuzzPow10MatchesMath -fuzztime 10s -fuzzminimizetime 1s ./internal/phy

# trace-smoke runs a tiny traced session and lints the Perfetto dump:
# it must parse, cover >= 6 pipeline stages per frame, and attribute
# every deadline miss to a stage.
trace-smoke:
	$(GO) run ./cmd/volsim -trace /tmp/volsim-trace.json session -users 2 -seconds 1 -points 20000 -multicast -decode
	$(GO) run ./cmd/tracelint -min-stages 6 /tmp/volsim-trace.json

# chaos-smoke soaks a 3-push + 1-pull session against a seeded fault
# injector (mid-stream resets, read stalls, bandwidth caps, accept
# failures) under -race and asserts no hangs, no goroutine leaks, every
# client finishing, and the fault schedule replaying from the seed.
chaos-smoke:
	$(GO) test -race -count=1 -run 'TestChaosSoak|TestChaosScheduleReplaysAcrossListeners' -v ./internal/transport

# loadtest-smoke drives the pinned multi-session scenario — 4 sessions ×
# 16 clients, fixed seed — through a self-hosted hub and fails unless
# every gate holds: no hang, frames delivered, and the goroutine count
# back within two of where it started once the hub and the fleet stopped.
loadtest-smoke:
	$(GO) run ./cmd/volload -sessions 4 -clients 64 -duration 8s \
		-frames 20 -points 2000 -load-seed 42 -min-frames 1000

# slo-smoke proves the SLO plane end to end on a pinned seeded scenario:
# one link-capped session (0.25 Mbps via client-side faultnet, the TCP
# twin of the sim path's LinkCapMbps) must trip its SLO exactly once —
# one breach event, one flight dump — while the uncapped session stays
# clean, the scraped /sessions windowed quantiles move between scrapes,
# and tracelint -flight accepts the captured dump.
slo-smoke:
	rm -rf /tmp/volcast-flight && rm -f /tmp/volcast-slo.json
	$(GO) run ./cmd/volload -sessions 2 -clients 4 -duration 12s \
		-frames 30 -points 4000 -load-seed 7 -fps 60 -queue-depth 64 \
		-cap-scene 1 -cap-mbps 0.25 \
		-slo-every 200ms -slo-min-samples 10 -slo-recover-after 99999 \
		-flight-dir /tmp/volcast-flight -flight-interval 1h \
		-debug-addr 127.0.0.1:0 -scrape-every 1s \
		-min-breaches 1 -max-breaches 1 -require-live-quantiles \
		-out /tmp/volcast-slo.json
	@dumps="$$(ls /tmp/volcast-flight/flight_*.json)"; \
		n="$$(echo "$$dumps" | wc -l)"; \
		if [ "$$n" -ne 1 ]; then echo "slo-smoke: $$n flight dumps, want exactly 1"; exit 1; fi; \
		$(GO) run ./cmd/tracelint -flight $$dumps

# layer-smoke proves tiered serving end to end on a pinned scenario: two
# scenes with identical single-frame content, layered push clients, and
# one pull probe per scene that holds a coarse rung then flips to full
# density mid-run. Gates: the upgrades travel as enhancement-only deltas
# that undercut a full re-send (-min-delta-cells), and the second scene's
# store build hits the first's shared encode-tier entries
# (-min-cache-hits) — one encode serves every tier and every scene.
layer-smoke:
	$(GO) run ./cmd/volload -sessions 2 -clients 8 -duration 6s \
		-frames 1 -points 4000 -load-seed 1 -min-frames 500 \
		-layers -probe-upgrade -min-delta-cells 1 -min-cache-hits 1

# verify is the CI gate: static checks (vet, gofmt, vollint), a full
# build, the test suite under the race detector (the parallel
# execution substrate makes -race part of tier-1, not an extra), and the
# benchmark module's own build and self-test, which is the only thing
# that notices a deleted name bench/ compiles against.
verify: vet fmt-check lint build race bench-selftest
