GO ?= go

.PHONY: build test race vet fmt-check lint lint-bench allocs bench-selftest sim-parity fuzz-smoke chaos-smoke verify

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

# lint type-checks the module and runs the vollint suite — the five
# project-specific invariants of DESIGN.md §9 (determinism, lockedsend,
# tickleak, wireerr, lockorder). Any finding exits 1; a
# //vollint:ignore <check> <reason> comment is the only way to tolerate
# one. The wire schema is held by `go test ./internal/wire` (run
# `go test ./internal/wire -run TestWireSchema -args -update` to rewrite
# wire_schema.json after a deliberate protocol change).
lint:
	$(GO) run ./cmd/vollint ./...

# lint-bench guards the lint suite's own latency: one full vollint run
# over the module (all five checks — determinism, lockedsend, tickleak,
# wireerr, lockorder with its call graph) must finish
# within 60 seconds, so the gate never comes to dominate CI.
lint-bench:
	@$(GO) build -o /tmp/vollint-bench ./cmd/vollint
	@start=$$(date +%s); /tmp/vollint-bench ./... || exit 1; \
	 end=$$(date +%s); d=$$((end-start)); echo "vollint ./... took $${d}s"; \
	 if [ $$d -gt 60 ]; then echo "lint-bench: vollint exceeded the 60s budget"; exit 1; fi

# allocs runs every allocation count in the module without the race
# detector: each frame-path package's TestHotPathAllocs (its kernels at 0
# allocations, DESIGN.md §9) and the other AllocsPerRun tests. Their
# pooled rows, TestDecodeAllocs and TestLayeredEncodeAllocs skip under
# -race, which drops pooled items at random, so `make race` cannot hold
# them.
allocs:
	$(GO) test -count=1 -run Alloc ./...

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
# allocates no more than readChunk for a body that has not arrived), the
# connections' buffered reader against ReadMessage (the same messages and
# the same terminal error at any buffer size and any read split), and
# the content generator's branch-free sin/cos against math.Sin/math.Cos
# (the same bits for any argument folded into the kernels' domain), its
# table-driven shade against the shade of math.Sin (the same uint8 for any
# (h, θ) folded into the sampler's domain), the link equation's base-10
# power against math.Pow(10, y) (the same bits for any y), and the
# sector sweeps, which rank sectors in linear power and evaluate only
# the contenders, against the pre-kernel formula (the same sector and
# the same RSS for any receiver, bodies and reflection order), and the
# multicast merge, which prices only the pairs whose airtime floor can
# still win, against the full scan it replaced (the same partition and
# plan time bits, and no more multicast-rate calls, on any problem).
# Minimizing each new input is capped at a second so it cannot eat the
# ten.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz FuzzOctreeEncodeMatchesReference -fuzztime 10s ./internal/codec
	$(GO) test -run '^$$' -fuzz 'FuzzDecode$$' -fuzztime 10s -fuzzminimizetime 1s ./internal/codec
	$(GO) test -run '^$$' -fuzz FuzzDecodeMatchesReference -fuzztime 10s -fuzzminimizetime 1s ./internal/codec
	$(GO) test -run '^$$' -fuzz 'FuzzReadMessage$$' -fuzztime 10s -fuzzminimizetime 1s ./internal/wire
	$(GO) test -run '^$$' -fuzz FuzzReaderMatchesReadMessage -fuzztime 10s -fuzzminimizetime 1s ./internal/wire
	$(GO) test -run '^$$' -fuzz FuzzTrigMatchesMath -fuzztime 10s -fuzzminimizetime 1s ./internal/pointcloud
	$(GO) test -run '^$$' -fuzz FuzzShadeMatchesMath -fuzztime 10s -fuzzminimizetime 1s ./internal/pointcloud
	$(GO) test -run '^$$' -fuzz FuzzPow10MatchesMath -fuzztime 10s -fuzzminimizetime 1s ./internal/phy
	$(GO) test -run '^$$' -fuzz FuzzSweepMatchesReference -fuzztime 10s -fuzzminimizetime 1s ./internal/phy
	$(GO) test -run '^$$' -fuzz FuzzGreedyMatchesReference -fuzztime 10s -fuzzminimizetime 1s ./internal/multicast

# chaos-smoke soaks a 3-push + 1-pull session against a seeded fault
# injector (mid-stream resets, read stalls, bandwidth caps, accept
# failures) under -race and asserts no hangs, no goroutine leaks, every
# client finishing, and the fault schedule replaying from the seed.
chaos-smoke:
	$(GO) test -race -count=1 -run 'TestChaosSoak|TestChaosScheduleReplaysAcrossListeners' -v ./internal/transport

# verify is the CI gate: static checks (vet, gofmt, vollint), a full
# build, the test suite under the race detector (the parallel
# execution substrate makes -race part of tier-1, not an extra), the
# allocation counts without it, and the benchmark module's own build and
# self-test, which is the only thing that notices a deleted name bench/
# compiles against.
verify: vet fmt-check lint build race allocs bench-selftest
