# Development entry points. The repo is plain `go build ./...`-able; these
# targets just name the common workflows.

.PHONY: all build test race race-short lint

all: build test

build:
	go build ./...

test:
	go test ./...

# race is the whole tree under the race detector, as CI runs it: no test
# is chosen by name, so none can silently leave the set.
race:
	go test -race ./...

# race-short is the inner loop: the same tree and detector with the three
# tests that dominate internal/check (TestExhaustiveOrbitCount,
# TestCheckpointResumeSameLevels, TestModeMatrix) at their testing.Short()
# scale — one worker count or a third of the cross instead of all of it.
# CI runs `race`.
race-short:
	go test -short -race ./...

# spill-smoke forces real disk spills: a 64KB budget against a ~240KB
# visited set, race-enabled — the local twin of the CI spill-smoke job.
.PHONY: spill-smoke
spill-smoke:
	go run -race ./cmd/sweep -grid small -rows explore -n 4 \
		-store spill -membudget 64KB -max 30000 -json -progress

# bench-pairs measures a change against its parent commit the way a
# performance claim needs: N alternating pairs of the repository benchmark
# on one workload (W) and seed (S), PARENT being a checkout of the parent
# commit (a `git clone` of this repository at it). It prints medians,
# quartiles and wins per end-to-end metric and appends every run's driver
# record to BENCH_<pr>.json (the PR number is ISSUE.md's), to be committed
# with the PR.
#   make bench-pairs PARENT=/root/scratch/parent W=explore-levelsync N=10
.PHONY: bench-pairs
N ?= 10
S ?= 7
PR := $(shell sed -n '1s/^\# ISSUE \([0-9]*\).*/\1/p' ISSUE.md)
bench-pairs:
	go run ./cmd/benchpairs -parent $(PARENT) -workload $(W) -n $(N) -seed $(S) -out BENCH_$(PR).json

lint:
	gofmt -l .
	go vet ./...
