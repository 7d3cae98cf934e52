# Developer entry points. Everything here is stdlib + toolchain only;
# CI (.github/workflows/ci.yml) runs the same commands.

GO ?= go

.PHONY: all build test race lint reprolint fmt bench bench-json perfbench-test clean

all: lint test build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# lint is the consolidated static gate: vet, formatting, and the
# repo's own reprolint analyzer suite (see internal/analysis — the
# //repro: directives and what each analyzer enforces).
lint: reprolint
	$(GO) vet ./...
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "files need gofmt:" >&2; echo "$$out" >&2; exit 1; \
	fi

reprolint:
	$(GO) run ./tools/reprolint ./...

fmt:
	gofmt -w .

bench:
	$(GO) test ./internal/core/ -run xxx -bench BenchmarkProcess -benchtime 1000x -benchmem
	$(GO) test ./internal/ensemble/ -run xxx -bench BenchmarkEnsemble -benchtime 10x -benchmem

# bench-json snapshots the serving-path benchmarks (ns/op, allocs/op,
# syscalls/reply, kernel stamp coverage) into BENCH_<date>.json via
# tools/benchjson, so perf claims are diffable data.
bench-json:
	$(GO) test ./internal/ntp/ -run xxx -bench BenchmarkServeLoopback -benchmem | $(GO) run ./tools/benchjson

# perfbench-test vets and tests the benchmark module (perfbench/ has
# its own go.mod, so the root test target never builds it).
perfbench-test:
	cd perfbench && $(GO) vet ./... && $(GO) test ./...

clean:
	$(GO) clean ./...
