// Package mvml is a from-scratch Go reproduction of "Multi-version Machine
// Learning and Rejuvenation for Resilient Perception in Safety-critical
// Systems" (DSN 2025): an N-version ML architecture with a trusted voter and
// reactive plus time-triggered proactive rejuvenation, its DSPN reliability
// models, the fault-injection experiments that parameterise them, and a
// driving-simulator case study evaluating end-to-end safety.
//
// The implementation lives under internal/ (see DESIGN.md for the full
// inventory and per-experiment index); cmd/mvml regenerates every table and
// figure of the paper's evaluation (mvml tables, drive, dspn, falsify,
// signs), cmd/mvserve and cmd/mvgateway serve the ensemble online,
// internal/core's Example_quickstart shows the public API in use, and
// bench_test.go ties each experiment to a testing.B benchmark.
//
// Inference has two forwards per layer and no more: the per-sample Forward
// on the scalar MatMul kernels (training, and the executable spec) and the
// batched ForwardBatchArena on the packed float / int8 kernels (serving),
// bitwise identical to it. cmd/mvbench is the repo's one benchmark; it
// measures that path end to end and layer by layer.
package mvml
