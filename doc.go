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
// signs), cmd/mvserve serves the ensemble online (one shard, or -shards N
// behind a gateway), and internal/core's Example_quickstart shows the public
// API in use.
// EXPERIMENTS.md is the printout of `mvml tables -all -quick` and `mvml drive
// -all` at the paper's budget: cmd/mvml's goldens pin every step of both, and
// doc_test.go checks each "Ours" cell against them.
//
// Inference has one forward per layer: the batched ForwardBatchArena on the
// packed float / int8 kernels, which serving, evaluation (a single sample is
// a batch of one) and training all run. The per-sample executable spec it is
// held to bit for bit lives in internal/nn's tests. cmd/mvbench is the repo's
// one benchmark; it measures that path end to end and layer by layer.
package mvml
