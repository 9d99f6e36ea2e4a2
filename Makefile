# memshield build targets. CI (.github/workflows/ci.yml) runs the same
# commands; `make lint` is the static gate every PR must pass.

GO ?= go

.PHONY: all build test race lint lint-cold lint-json lint-self test-faults soak soak-smoke bench-smoke fleet-smoke contract unlinked fuzz figures figures-check figures-smoke

all: build lint test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# lint = the compiler-adjacent vet suite plus memlint, the repo's own
# go/analysis-style checkers (detrand, physaccess, keycopy, keylifetime,
# sealwindow, simerrcheck, nopanic). See DESIGN.md "Static guarantees".
# memlint
# reuses per-package results from .memlintcache when the inputs are
# byte-identical; cold and warm runs print the same findings.
lint:
	$(GO) vet ./...
	$(GO) run ./cmd/memlint ./...

# lint-cold: the same gate with the on-disk result cache purged first —
# every package is re-analyzed from scratch. CI times this against the
# warm run and archives both numbers (memlint-timing artifact).
lint-cold:
	rm -rf .memlintcache
	$(GO) vet ./...
	$(GO) run ./cmd/memlint ./...

# lint-json: the same findings as `make lint`, rendered as one
# machine-readable document (memlint-findings.json) — CI archives it as
# an artifact so a red gate can be triaged without re-running locally.
# The exit code still gates: findings fail the target after the file is
# written.
lint-json:
	$(GO) run ./cmd/memlint -json ./... > memlint-findings.json

# lint-self: the analyzers must hold themselves to their own invariants —
# zero diagnostics over internal/analysis/... with zero suppressions
# beyond policy.SuppressionBudget (the budget itself is enforced by
# internal/analysis/policy's TestSuppressionBudget).
lint-self:
	$(GO) run ./cmd/memlint ./internal/analysis/...
	$(GO) test -run TestSuppressionBudget ./internal/analysis/policy

# Fault-injection matrix under the race detector: both servers × six
# protection levels × 72 seeded plans, plus the seed-replay determinism
# check and the no-false-security demonstrations (DESIGN.md §8, §10). CI
# runs this on each PR.
test-faults:
	$(GO) test -race -run 'TestFaultMatrix|TestNoFalseSecurity' -v .

# Chaos soak: seeded fault storms against supervised servers with the
# machine invariants checked every tick (cmd/soak, DESIGN.md §11). The
# smoke variant is the CI gate: a short parallel sweep re-verified
# serially (-verify demands the event log replay byte-identical at both
# worker counts) with the log archived as the soak-events artifact.
soak:
	$(GO) run ./cmd/soak -storms 8 -steps 200 -workers 4 -verify

soak-smoke:
	$(GO) run ./cmd/soak -storms 6 -steps 120 -workers 4 -verify -log soak-events.log

# One iteration of the scanning-engine, keyfinder, private-op and kernel
# layer benchmarks under the race detector: exercises the sharded scan, the
# incremental rescan, the one-dirty-frame rescan (internal/scan), the
# chunked factor scan concurrency, the RSA-CRT private op, plain and sealed,
# the Montgomery product and square, the key load, the public op and keygen
# (internal/crypto/rsakey, internal/ssl), the
# buddy page cycle per policy (internal/kernel/alloc), the httpd request's
# fresh-arena malloc + write + free (internal/libc), an integrated sshd
# child's fork + session arena + exit and a machine's boot on released
# memory (internal/kernel), without any timing sensitivity, so it catches
# bit-rot in CI (DESIGN.md §4, §9). -benchmem prints each one's Go
# allocations. CI runs this on each PR.
bench-smoke:
	$(GO) test -race -run TestNothing -bench 'BenchmarkMemoryScan|BenchmarkKeyfinderFactorScan|BenchmarkScanDirtyFrame|BenchmarkSignCRT|BenchmarkMontMul|BenchmarkMontSqr|BenchmarkPublicOp|BenchmarkGenerate|BenchmarkPrivateOp|BenchmarkD2iPrivateKey|BenchmarkAllocFree|BenchmarkArenaCycle|BenchmarkForkExit|BenchmarkBoot' -benchtime=1x -benchmem . ./internal/scan ./internal/crypto/rsakey ./internal/ssl ./internal/kernel/alloc ./internal/libc ./internal/kernel

# Fleet engine smoke for CI: the shard/worker-invariance contract and the
# concurrent hand-off of released machine memory under the race detector,
# then a small fleet storm (shared re-provision budget, serial grant
# order) with the serial replay verified.
fleet-smoke:
	$(GO) test -race -run 'TestShardWorkerInvariance|TestFleetStorm' ./internal/fleet
	$(GO) test -race -count=10 -run TestReleaseConcurrent ./internal/mem
	$(GO) run ./cmd/soak -fleet 4 -rounds 6 -steps 40 -budget 2 -workers 4 -verify -log fleet-events.log

# The output-identical contract for refactors: builds the CLIs once into
# .contract/, runs a fixed set of seed-2007 commands and prints one sha256
# line per output (soak runs hash both stdout and the -log file). CI diffs
# the result against docs/contract-digest.txt; regenerate that file only
# when a change is meant to move seeded output, and say so.
contract:
	@rm -rf .contract && mkdir -p .contract
	@$(GO) build -o .contract/ ./cmd/simulate ./cmd/attack ./cmd/memscan ./cmd/keyrecover ./cmd/soak ./cmd/figures
	@set -e; cd .contract; \
	h() { printf '%s  %s\n' "$$(sha256sum < "$$1" | cut -c1-64)" "$$2"; }; \
	run() { name="$$*"; ./"$$@" > out.txt; h out.txt "$$name"; }; \
	run simulate -server ssh -level none; \
	run simulate -server ssh -level integrated; \
	run simulate -server apache -level sealed; \
	run attack -attack tty -server ssh -conns 8; \
	run attack -attack ext2 -server apache -conns 50; \
	run memscan -server ssh -conns 8 -trace; \
	run keyrecover -server ssh -dump full; \
	run soak -storms 6 -steps 120 -workers 4 -verify -log soak.log; \
	h soak.log "soak-smoke -log"; \
	run soak -fleet 4 -rounds 6 -steps 40 -budget 2 -workers 4 -verify -log fleet.log; \
	h fleet.log "fleet-smoke -log"; \
	run figures -all -scale 0.1 -workers 4

# unlinked lists every non-test top-level function and method outside
# _bench/ and testdata/ that no binary links. The binaries are ./cmd/...,
# ./examples/... and _bench, built with inlining off so that small
# functions keep their symbols. A generic instantiation matches its
# declaration once `..dict.` and the type arguments in brackets are
# dropped. This is a report, not a gate: the linker's choices can differ
# between Go releases. EXPERIMENTS.md gives each listed entry's reason.
unlinked:
	@set -e; tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
	for d in cmd/* examples/*; do \
		$(GO) build -gcflags=all=-l -o "$$tmp/bin" ./$$d; \
		$(GO) tool nm "$$tmp/bin" | sed "s| main\.| memshield/$$d.|" >> "$$tmp/nm"; \
	done; \
	(cd _bench && $(GO) build -gcflags=all=-l -o "$$tmp/bin" .); \
	$(GO) tool nm "$$tmp/bin" >> "$$tmp/nm"; \
	sed -E -e 's/^ *[0-9a-f]* +[A-Za-z] +//' -e 's/\.\.dict\././' -e ':a' -e 's/\[[^][]*\]//g' -e 'ta' "$$tmp/nm" > "$$tmp/linked"; \
	git ls-files '*.go' | grep -v -e '_test\.go$$' -e '^_bench/' -e 'testdata/' | xargs awk ' \
		FNR == 1 { pkg = "memshield"; if (FILENAME ~ /\//) { pkg = pkg "/" FILENAME; sub(/\/[^\/]*$$/, "", pkg) } } \
		/^func / { s = substr($$0, 6); recv = ""; \
			if (s ~ /^\(/) { r = substr(s, 2, index(s, ")") - 2); s = substr(s, index(s, ")") + 2); \
				sub(/\[.*/, "", r); n = split(r, w, " "); recv = w[n] ~ /^\*/ ? "(" w[n] ")." : w[n] "." } \
			match(s, /^[A-Za-z0-9_]+/); name = substr(s, 1, RLENGTH); \
			if (recv != "" || name != "init") print pkg "." recv name "\t" FILENAME ":" FNR }' > "$$tmp/decl"; \
	awk -F'\t' 'NR == FNR { linked[$$0]; next } !($$1 in linked) { print $$2 "\t" $$1; n++ } \
		END { printf "%d functions no binary links\n", n }' "$$tmp/linked" "$$tmp/decl"

# Short fuzz smoke over every fuzz target (30s each). Each new
# interesting input is minimized for at most 1s: at the default of 60s
# one minimization can use up a whole 30s run.
fuzz:
	$(GO) test -fuzz=FuzzReadInteger -fuzztime=30s -fuzzminimizetime=1s ./internal/crypto/der
	$(GO) test -fuzz=FuzzDecode -fuzztime=30s -fuzzminimizetime=1s ./internal/crypto/pemfile
	$(GO) test -fuzz=FuzzParseDER -fuzztime=30s -fuzzminimizetime=1s ./internal/crypto/rsakey
	$(GO) test -fuzz=FuzzMontExp -fuzztime=30s -fuzzminimizetime=1s ./internal/crypto/rsakey
	$(GO) test -fuzz=FuzzPublicExp -fuzztime=30s -fuzzminimizetime=1s ./internal/crypto/rsakey
	$(GO) test -fuzz=FuzzProbablePrime -fuzztime=30s -fuzzminimizetime=1s ./internal/crypto/rsakey
	$(GO) test -fuzz=FuzzLucas -fuzztime=30s -fuzzminimizetime=1s ./internal/crypto/rsakey
	$(GO) test -fuzz=FuzzMontMul -fuzztime=30s -fuzzminimizetime=1s ./internal/crypto/rsakey
	$(GO) test -fuzz=FuzzFindPlanted -fuzztime=30s -fuzzminimizetime=1s ./internal/scan
	$(GO) test -fuzz=FuzzEngineMatchesReference -fuzztime=30s -fuzzminimizetime=1s ./internal/scan
	$(GO) test -fuzz=FuzzKeyfinderDERWalk -fuzztime=30s -fuzzminimizetime=1s ./internal/keyfinder
	$(GO) test -fuzz=FuzzStorm -fuzztime=30s -fuzzminimizetime=1s ./internal/supervise
	$(GO) test -fuzz=FuzzAllocMatchesReference -fuzztime=30s -fuzzminimizetime=1s ./internal/kernel/alloc
	$(GO) test -fuzz=FuzzVMRecycle -fuzztime=30s -fuzzminimizetime=1s ./internal/kernel/vm
	$(GO) test -fuzz=FuzzZeroedFrames -fuzztime=30s -fuzzminimizetime=1s ./internal/mem

figures:
	$(GO) run ./cmd/figures -all

# The full-scale figure suite at seed 2007 must match the committed output
# byte for byte; `make contract` covers only the 0.1-scale run. The output
# goes through a file so a failing run fails the target (make's /bin/sh
# may lack pipefail). Regenerate docs/figures-full-output.txt only when a
# change is meant to move a figure, and say so.
figures-check:
	$(GO) run ./cmd/figures -all -seed 2007 > figures-full.txt
	cmp figures-full.txt docs/figures-full-output.txt

# Scaled-down full-catalog run on 4 workers under the race detector: a fast
# end-to-end check that the parallel trial scheduler is race-free and that
# every experiment still completes. CI runs this on each PR.
figures-smoke:
	$(GO) run -race ./cmd/figures -all -scale 0.1 -workers 4 > /dev/null
