# Development entry points. The repo is plain `go build ./...`-able; these
# targets just name the common workflows.

.PHONY: all build test race lint

all: build test

build:
	go build ./...

test:
	go test ./...

race:
	go test -race -run 'Parallel|Deterministic|Workers|Quotient|Frontier|Spill|Truncation|Cancel|ExactKeys|DegenerateHash' ./internal/check ./internal/lowerbound ./internal/model
	go test -race -run 'Reduce|Bloom|SymWorker|Canonicalize' ./internal/check ./internal/sweep ./internal/model
	go test -race -run 'Async|WSDeque|Order|Mode|ExhaustiveOrbitCount' ./internal/check ./internal/sweep
	go test -race -run 'Checkpoint|Resume' ./internal/check

# spill-smoke forces real disk spills: a 64KB budget against a ~240KB
# visited set, race-enabled — the local twin of the CI spill-smoke job.
.PHONY: spill-smoke
spill-smoke:
	go run -race ./cmd/sweep -grid small -rows explore -n 4 \
		-store spill -membudget 64KB -max 30000 -json -progress

lint:
	gofmt -l .
	go vet ./...
