#!/bin/sh
# verify.sh — the repo's full verification gate: formatting, vet, build,
# and the complete test suite under the race detector.
set -eu
cd "$(dirname "$0")"

echo "==> gofmt"
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt needed on:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "==> go vet ./..."
go vet ./...

# The non-amd64 stubs (gemm_micro_other.go, pool_other.go, peak_other.go) are
# never compiled on this host; vetting for arm64 at least type-checks them.
echo "==> GOARCH=arm64 go vet ./..."
GOARCH=arm64 go vet ./...

echo "==> go build ./..."
go build ./...

# A real non-amd64 run: a 386 binary runs natively on an amd64 host, so the
# -short suite executes the Go fallbacks that no amd64 build compiles
# (gemm_micro_other.go, asm_other.go, peak_other.go) and every line of the
# repository with a 32-bit int. A failure here is a portability bug.
echo "==> GOARCH=386 go test -short ./..."
GOARCH=386 go test -short ./...

# Telemetry watches the serving runtime only: the paper pipeline (mvml and
# the experiments behind it) builds without the obs runtime, the health
# engine and the telemetry flag wiring.
echo "==> dependency gate: ./cmd/mvml ./internal/experiments import no telemetry"
telemetry_deps=$(go list -deps ./cmd/mvml ./internal/experiments |
    grep -E '^mvml/internal/(obs|health|telemetry)(/|$)' || true)
if [ -n "$telemetry_deps" ]; then
    echo "the paper pipeline depends on:" >&2
    echo "$telemetry_deps" >&2
    exit 1
fi

# The voting runtime is generic over its versions and owns its (i, j, k)
# state: core and perception build without the NN kernels (a serving pool
# holds its own network), and core without the reliability model that
# evaluates it.
echo "==> dependency gate: ./internal/core ./internal/perception import no nn or tensor, core no reliability or petri"
kernel_deps=$(go list -deps ./internal/core ./internal/perception |
    grep -E '^mvml/internal/(nn|tensor)$' || true)
model_deps=$(go list -deps ./internal/core |
    grep -E '^mvml/internal/(reliability|petri)$' || true)
if [ -n "$kernel_deps$model_deps" ]; then
    echo "the voting runtime depends on:" >&2
    echo "$kernel_deps$model_deps" >&2
    exit 1
fi

# The serving runtime runs versions, a voter and rejuvenation; the paper
# pipeline that evaluates it (the DSPN models, the experiments, the driving
# simulator, the falsifier) stays out of the serving binaries.
echo "==> dependency gate: ./cmd/mvserve ./cmd/mvgateway import no paper pipeline"
pipeline_deps=$(go list -deps ./cmd/mvserve ./cmd/mvgateway |
    grep -E '^mvml/internal/(experiments|drivesim|perception|scenario|petri|reliability)$' || true)
if [ -n "$pipeline_deps" ]; then
    echo "the serving binaries depend on:" >&2
    echo "$pipeline_deps" >&2
    exit 1
fi

# The AVX2 and AVX-512 GEMM kernels are chosen at run time by CPUID, so the
# assembly must build for the amd64 baseline too, not only for whatever
# GOAMD64 level the toolchain defaults to.
echo "==> GOAMD64=v1 go build ./..."
GOAMD64=v1 go build ./...

# Which GEMM arm this host runs: the test fails unless it is the widest the
# CPU reports, and -v logs it, so a green log says whether the AVX-512
# kernel was exercised or the pass fell back to AVX2 (or SSE2).
echo "==> GEMM arm"
go test -count=1 ./internal/tensor -run 'WidestGemmArmTaken' -v

# Race pass: -short skips the NN-training marathons, which run 10-40x
# slower under the race detector and hold no concurrency of their own;
# everything concurrent (obs registry, span sink, exposition, serving)
# stays covered.
echo "==> go test -race -short ./..."
go test -race -short ./...
# A version's forwards share one network, each on an arena borrowed from its
# pool, and the batcher closes a batch the moment the queue is empty: schedule
# their interleavings (and submit racing Close, Close waiting for late
# forwards, and the reactive trigger with and without telemetry) on one P and
# on four, whatever GOMAXPROCS the host gives the pass above. serve's TestMain
# fails the package if a goroutine of serve outlives its tests, in this pass
# and in every other that runs it.
echo "==> go test -race -count=1 -cpu 1,4 ./internal/serve ./internal/gateway"
go test -race -count=1 -cpu 1,4 ./internal/serve ./internal/gateway

# Full pass without the race detector: every test, including training.
echo "==> go test ./..."
go test ./...

# Portable-kernel pass: the noasm tag forces the Go fallbacks of the GEMM
# micro-kernels, the int8 packer, the 2x2 max-pool forward and backward
# (maxPool2x2BackRowGo), the row add behind Col2ImAdd and AddInPlace
# (addRows) and the output epilogue on an amd64 host (the
# default pass above already runs the bitwise suites on the SSE2, AVX2 and
# AVX-512 GEMM arms the host has), so
# the bitwise, differential and int8-golden suites run against the code every
# other architecture executes — and, since training, evaluation and fault
# campaigns run on those kernels too, so do the trained-weight hashes, the
# campaigns and the short paper-table goldens, and the diversity study's
# per-input answers (Predict runs as a batch of one on the same kernels).
# ci.yml's noasm step runs the same set.
echo "==> go test -tags noasm ./internal/tensor ./internal/nn ./internal/faultinject ./internal/core, -short ./internal/experiments"
go test -tags noasm ./internal/tensor ./internal/nn ./internal/faultinject ./internal/core
go test -tags noasm -short ./internal/experiments

# FMA-contraction pass: at GOAMD64=v3 the compiler may fuse a*b+c into one
# FMA, and the int8 dequant+bias epilogue is exactly that expression. The
# bitwise, differential and int8-golden suites must hold on that build too.
echo "==> GOAMD64=v3 go test ./internal/tensor ./internal/nn"
GOAMD64=v3 go test ./internal/tensor ./internal/nn

# Shuffle pass: test order must not matter. -short keeps the pass cheap;
# any inter-test state dependence fails here with the seed printed for
# reproduction.
echo "==> go test -shuffle=on -short ./..."
go test -shuffle=on -short ./...

# Worker-count equivalence: the parallel fan-outs must reproduce the
# committed sequential golden outputs byte-for-byte at workers 1, 4 and 8.
echo "==> parallel equivalence (golden fixtures, workers 1/4/8)"
go test ./internal/experiments -run TestParallelEquivalenceGolden -count=1
go test ./internal/scenario -run TestFalsifierGolden -count=1

# Gateway demo smoke: the only multi-shard zero-failed-requests check through
# a compromise and a drain held for a sixth of the run (the demo exits
# non-zero on any failed request, or if no request was rerouted around the
# drained shard), once with telemetry off, where every shard must still be
# live at the end, and once with a health engine on every shard, which must
# print its final verdict.
echo "==> gateway demo smoke"
gwtmp=$(mktemp -d)
go build -o "$gwtmp/mvgateway" ./cmd/mvgateway
"$gwtmp/mvgateway" demo -duration 3s -rate 300 > "$gwtmp/demo.out" ||
    { cat "$gwtmp/demo.out"; exit 1; }
cat "$gwtmp/demo.out"
grep -q 'fleet: 4 shards live' "$gwtmp/demo.out"
"$gwtmp/mvgateway" demo -duration 3s -rate 300 -health \
    -telemetry-out "$gwtmp/telemetry.json" 2> "$gwtmp/health.err" ||
    { cat "$gwtmp/health.err"; exit 1; }
grep 'health: final verdict' "$gwtmp/health.err"
rm -rf "$gwtmp"

# Fuzz smoke: a few seconds per target catches regressions in the voting
# rules, quantile estimator, RNG stream derivation, the one-pass request
# decoder (differential against encoding/json) and its number scanner
# (against the RFC 8259 grammar and strconv), the shard's and the
# gateway's classify-handler status mapping, the SSE2 output epilogue
# (against its Go spec) and the packers that read the image straight into
# GEMM panels, forward and transposed, without the cost of a long campaign.
echo "==> fuzz smoke"
go test ./internal/core -run '^$' -fuzz '^FuzzVoter$' -fuzztime 5s
go test ./internal/obs -run '^$' -fuzz '^FuzzHistogramQuantile$' -fuzztime 5s
go test ./internal/xrand -run '^$' -fuzz '^FuzzXrandSplit$' -fuzztime 5s
go test ./internal/nn -run '^$' -fuzz '^FuzzForwardBatchArena$' -fuzztime 5s
go test ./internal/nn -run '^$' -fuzz '^FuzzEpilogueRow$' -fuzztime 5s
go test ./internal/serve -run '^$' -fuzz '^FuzzDecodeClassify$' -fuzztime 5s
go test ./internal/serve -run '^$' -fuzz '^FuzzReadNumber$' -fuzztime 5s
go test ./internal/serve -run '^$' -fuzz '^FuzzClassifyHandler$' -fuzztime 5s
go test ./internal/gateway -run '^$' -fuzz '^FuzzGatewayHandler$' -fuzztime 5s
go test ./internal/tensor -run '^$' -fuzz '^FuzzGemmPackedBitwise$' -fuzztime 5s
go test ./internal/tensor -run '^$' -fuzz '^FuzzInt8QuantRoundTrip$' -fuzztime 5s
go test ./internal/tensor -run '^$' -fuzz '^FuzzGemmIm2Col$' -fuzztime 5s
go test ./internal/tensor -run '^$' -fuzz '^FuzzPackIm2ColTransposed$' -fuzztime 5s
go test ./internal/scenario -run '^$' -fuzz '^FuzzScenarioRoundTrip$' -fuzztime 5s
go test ./internal/scenario -run '^$' -fuzz '^FuzzScenarioRun$' -fuzztime 5s

# Size: non-test Go lines per package, the number every CHANGES.md entry
# quotes (cmd/mvbench is the benchmark, counted apart from what it measures).
echo "==> non-test Go lines per package"
for dir in $(find . -name '*.go' ! -name '*_test.go' -exec dirname {} \; | sort -u); do
    printf '%6d  %s\n' "$(find "$dir" -maxdepth 1 -name '*.go' ! -name '*_test.go' | xargs cat | wc -l)" "$dir"
done
printf '%6d  total without ./cmd/mvbench\n' \
    "$(find . -name '*.go' ! -name '*_test.go' ! -path './cmd/mvbench/*' | xargs cat | wc -l)"
# The serving binaries' own size: the non-test lines of every mvml package
# mvserve and mvgateway link.
printf '%6d  serving binaries (mvml packages in go list -deps ./cmd/mvserve ./cmd/mvgateway)\n' \
    "$(for dir in $(go list -f '{{if not .Standard}}{{.Dir}}{{end}}' -deps ./cmd/mvserve ./cmd/mvgateway); do
        find "$dir" -maxdepth 1 -name '*.go' ! -name '*_test.go'; done | xargs cat | wc -l)"
# What reachAllowlist keeps in internal/ that no binary reaches: the count
# TestInternalCodeIsReachedFromABinary would fail on with the allowlist empty.
go test -count=1 -run '^TestInternalCodeIsReachedFromABinary$' -v . |
    sed -n 's/^.*reach_test.go:[0-9]*: //p'
# The telemetry set: everything that watches the system rather than runs it.
printf '%6d  telemetry set (obs + obs/tsdb + health + telemetry + cmd/mvtrace)\n' \
    "$(for dir in internal/obs internal/obs/tsdb internal/health internal/telemetry cmd/mvtrace; do
        find "$dir" -maxdepth 1 -name '*.go' ! -name '*_test.go'; done | xargs cat | wc -l)"
# The docs: EXPERIMENTS.md is the printout of `mvml tables -all` / `drive -all`
# and grows by a ledger row per perf change, not by a section.
printf '%6d  README + DESIGN + EXPERIMENTS\n' "$(cat README.md DESIGN.md EXPERIMENTS.md | wc -l)"

echo "OK"
