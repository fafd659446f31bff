# ADVM reproduction — build/test entry points.
#
#   make           tier-1: build + test everything
#   make lint      gofmt check + go vet + advm-vet static analysis of the
#                  shipped suite
#   make race      vet + full test suite under the race detector
#   make fuzz      short-budget fuzz smoke (assembler lexer, CFG decoder,
#                  call-graph/stack-depth analysis, shard frame stream)
#   make bench     regenerate the EXPERIMENTS.md benchmarks
#   make cache     the build-cache benchmarks only (off/cold/warm)
#   make bench-json  telemetry-overhead benchmarks (E12) -> BENCH_telemetry.json
#                    and perf benchmarks (E14 + E16) -> BENCH_perf.json
#   make bench-smoke  the repository benchmark's smoke test (bench/, its own
#                  module): every workload once through the shipped CLIs,
#                  bundles checked byte for byte against the in-process
#                  reference (about 12 s)
#   make smoke     end-to-end resilience run of advm-regress
#                  (-deadline/-retries/-quarantine-after/-breaker)
#   make smoke-served  regression-as-a-service smoke: advm-served daemon
#                  + advm-regress -serve, certification bundle compared
#                  byte-for-byte against a direct in-process run
#   make smoke-fleet   multi-machine smoke: a TCP daemon plus a second
#                  advm-served -connect machine joining its pool over
#                  loopback, bundles cmp-identical to a direct run
#   make report    flight-recorder demo: journal + history a small matrix
#                  twice, render text + HTML + trend reports via advm-report
#   make examples  run every program under examples/ to completion
#   make commands  run every command's documented usage example that
#                  tier-1 and the smokes do not (advm-asm, -difftest,
#                  -export, -gen, -port, -run, -trace)
#
#   REPORT_DIR ?= .advm-report   scratch dir for `make report` artifacts
#   SERVED_DIR ?= .advm-served   scratch dir for `make smoke-served`
#   FLEET_DIR  ?= .advm-fleet    scratch dir for `make smoke-fleet`
#   FLEET_PORT ?= 17977          loopback TCP port for `make smoke-fleet`

GO ?= go
FUZZTIME ?= 10s
REPORT_DIR ?= .advm-report
SERVED_DIR ?= .advm-served
FLEET_DIR ?= .advm-fleet
FLEET_PORT ?= 17977

.PHONY: all tier1 vet lint race fuzz bench cache bench-json bench-smoke smoke smoke-served smoke-fleet report examples commands tools

all: tier1

tier1:
	$(GO) build ./... && $(GO) test ./...

vet:
	$(GO) vet ./...

# Formatting, then static analysis of the shipped test suite itself:
# layer discipline, CFG checks, portability, dead abstraction. Non-zero
# exit on any file gofmt would change or any error-severity finding.
lint: vet
	@unformatted=$$(gofmt -l .); if [ -n "$$unformatted" ]; then \
		echo "gofmt -l: these files need formatting:"; echo "$$unformatted"; exit 1; fi
	$(GO) run ./cmd/advm-lint

# Short-budget fuzz smoke: the assembler lexer, the vet CFG decoder, the
# whole-program call-graph/stack-depth analysis, and the shard frame
# stream as the frame reader, the client and the daemon's first-frame
# dispatch see it, FUZZTIME each (CI uses the default 10s; raise it
# locally for real runs).
fuzz:
	$(GO) test -run xxx -fuzz FuzzLexLine -fuzztime $(FUZZTIME) ./internal/asm
	$(GO) test -run xxx -fuzz FuzzCFGDecode -fuzztime $(FUZZTIME) ./internal/core/vet
	$(GO) test -run xxx -fuzz FuzzCallGraph -fuzztime $(FUZZTIME) ./internal/core/vet
	$(GO) test -run xxx -fuzz FuzzFrame -fuzztime $(FUZZTIME) ./internal/core/shard

# The concurrency gate: the regression runner, the memo table's
# singleflight behind every cache, and every cached path run under -race.
race: vet
	$(GO) test -race ./...

bench:
	$(GO) test -run xxx -bench=. -benchmem .

cache:
	$(GO) test -run xxx -bench 'BenchmarkBuildCache|BenchmarkE3_SystemRegression|BenchmarkE7' -benchtime 5x .

# The E12 telemetry-overhead and E14/E16 performance numbers, as
# machine-readable JSON: standard go-test benchmark JSON events, one per
# line, for dashboards to ingest. E16 covers the engine ladder
# (interp/predecode/translate) on the hot-loop workload.
bench-json:
	$(GO) test -run xxx -bench BenchmarkE12_TracingOverhead -benchtime 20x -json . > BENCH_telemetry.json
	@grep -c '"Action"' BENCH_telemetry.json >/dev/null && echo "wrote BENCH_telemetry.json"
	$(GO) test -run xxx -bench 'BenchmarkE1[46]_' -benchtime 2s -json . > BENCH_perf.json
	@grep -c '"Action"' BENCH_perf.json >/dev/null && echo "wrote BENCH_perf.json"
	$(GO) test -run xxx -bench 'BenchmarkE19_' -benchtime 5x -json . > BENCH_store.json
	@grep -c '"Action"' BENCH_store.json >/dev/null && echo "wrote BENCH_store.json"

# The repository benchmark's smoke test. bench/ is a module of its own,
# so tier-1 does not build or run it; this does. A sealed bundle that
# drifts from the in-process reference fails here.
bench-smoke:
	cd bench && $(GO) test ./...

# End-to-end resilience smoke: the full matrix on the golden + emulator
# rungs with per-cell deadlines, a retry budget, quarantine, and the
# per-kind circuit breaker armed. Exercises the flag plumbing and the
# resilience footer; any wedged cell would fail the run at its deadline
# instead of hanging CI.
smoke:
	$(GO) run ./cmd/advm-regress -platforms golden,emulator \
		-deadline 30s -retries 2 -quarantine-after 2 -breaker 5

# Regression-as-a-service smoke: a 2-worker advm-served daemon with a
# persistent store behind it, a served run via advm-regress -serve, and
# a direct in-process run of the same matrix slice — their sealed
# certification bundles must be byte-identical. A second served run
# against the warm daemon proves the store survives between requests.
smoke-served:
	rm -rf $(SERVED_DIR) && mkdir -p $(SERVED_DIR)
	$(GO) build -o $(SERVED_DIR)/ ./cmd/advm-served ./cmd/advm-regress
	$(SERVED_DIR)/advm-served -listen $(SERVED_DIR)/advm.sock -workers 2 \
		-store $(SERVED_DIR)/store & \
	trap "kill $$! 2>/dev/null" EXIT; \
	$(SERVED_DIR)/advm-regress -platforms golden,emulator \
		-bundle $(SERVED_DIR)/direct.json && \
	$(SERVED_DIR)/advm-regress -serve $(SERVED_DIR)/advm.sock \
		-platforms golden,emulator -bundle $(SERVED_DIR)/served.json && \
	cmp $(SERVED_DIR)/direct.json $(SERVED_DIR)/served.json && \
	$(SERVED_DIR)/advm-regress -serve $(SERVED_DIR)/advm.sock \
		-platforms golden,emulator -bundle $(SERVED_DIR)/served2.json && \
	cmp $(SERVED_DIR)/direct.json $(SERVED_DIR)/served2.json && \
	echo "smoke-served: direct and served bundles identical"

# Multi-machine fleet smoke: two advm-served processes over loopback
# TCP — a daemon (1 local worker + persistent store) and a -connect
# machine contributing 2 more workers through the epoch-checked hello
# handshake, fetch-through store included — then a served run of the
# same matrix slice vs a direct in-process run. The sealed certification
# bundles must be byte-identical: the paper's reproducibility invariant
# held across machines.
smoke-fleet:
	rm -rf $(FLEET_DIR) && mkdir -p $(FLEET_DIR)
	$(GO) build -o $(FLEET_DIR)/ ./cmd/advm-served ./cmd/advm-regress
	set -e; \
	$(FLEET_DIR)/advm-served -listen tcp:127.0.0.1:$(FLEET_PORT) -workers 1 \
		-store $(FLEET_DIR)/store & D1=$$!; \
	$(FLEET_DIR)/advm-served -connect tcp:127.0.0.1:$(FLEET_PORT) -workers 2 \
		-name machine2 -store $(FLEET_DIR)/store2 & D2=$$!; \
	trap "kill $$D1 $$D2 2>/dev/null" EXIT; \
	$(FLEET_DIR)/advm-regress -platforms golden,emulator \
		-bundle $(FLEET_DIR)/direct.json; \
	$(FLEET_DIR)/advm-regress -serve tcp:127.0.0.1:$(FLEET_PORT) \
		-platforms golden,emulator -bundle $(FLEET_DIR)/fleet.json; \
	cmp $(FLEET_DIR)/direct.json $(FLEET_DIR)/fleet.json; \
	echo "smoke-fleet: direct and fleet bundles identical"

# Flight-recorder demo: run a small matrix twice with the journal,
# run-history store, and metrics armed (the second run is history-
# scheduled and run-cache warm), then render the second journal as text
# and HTML with trend deltas against the first. Artifacts land in
# $(REPORT_DIR); CI uploads them.
report:
	mkdir -p $(REPORT_DIR)
	$(GO) run ./cmd/advm-regress -derivs SC88-A,SC88-SEC -platforms golden \
		-journal $(REPORT_DIR)/run1.jsonl -history $(REPORT_DIR)/history \
		-metrics-out $(REPORT_DIR)/metrics1.json
	$(GO) run ./cmd/advm-regress -derivs SC88-A,SC88-SEC -platforms golden \
		-journal $(REPORT_DIR)/run2.jsonl -history $(REPORT_DIR)/history \
		-metrics-out $(REPORT_DIR)/metrics2.json
	$(GO) run ./cmd/advm-report -prev $(REPORT_DIR)/run1.jsonl \
		-history $(REPORT_DIR)/history $(REPORT_DIR)/run2.jsonl
	$(GO) run ./cmd/advm-report -prev $(REPORT_DIR)/run1.jsonl \
		-history $(REPORT_DIR)/history -html $(REPORT_DIR)/report.html \
		$(REPORT_DIR)/run2.jsonl

# Every example program, run to completion: each walks one workflow end
# to end through the public advm facade and exits non-zero if it breaks.
examples:
	set -e; for d in examples/*/; do echo "== $$d"; $(GO) run ./$$d; done

# Every command the other targets leave alone, run on the examples its
# usage comment documents: a built command whose own example exits
# non-zero fails here. advm-asm assembles a three-line program and
# advm-export writes its tree, both in a temporary directory removed
# afterwards; each example's stdout is discarded, errors still print.
COMMANDS = advm-asm advm-difftest advm-export advm-gen advm-port advm-run advm-trace
commands:
	set -e; tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
	$(GO) build -o $$tmp/ $(addprefix ./cmd/,$(COMMANDS)); \
	printf '_start:\n\tLOAD d15, 0x600D\n\tHALT\n' > $$tmp/prog.asm; \
	run() { echo "== $$*"; "$$tmp/$$@" > /dev/null; }; \
	run advm-asm $$tmp/prog.asm; \
	run advm-asm -D DERIV_B -l $$tmp/prog.lst $$tmp/prog.asm; \
	run advm-asm -run golden $$tmp/prog.asm; \
	run advm-difftest -n 100 -seed 1 -insts 120; \
	run advm-export -out $$tmp/advm-tree -deriv SC88-SEC; \
	run advm-gen -n 8 -seed 7; \
	run advm-gen -n 8 -run; \
	run advm-port; \
	run advm-port -to SC88-C; \
	run advm-run -module NVM -test TEST_NVM_ERASE -deriv SC88-B -platform rtl -trace; \
	run advm-trace -module UART -test TEST_UART_TX_IDLE -platform golden; \
	run advm-trace -module NVM -test TEST_NVM_ERASE -kinds inst,reg -format jsonl; \
	run advm-trace -module UART -test TEST_UART_TX_IDLE -ring 64; \
	echo "commands: every documented example exited 0"

tools:
	$(GO) build -o bin/ ./cmd/...
