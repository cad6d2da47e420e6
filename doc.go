// Package optiql is a from-scratch Go reproduction of "OptiQL: Robust
// Optimistic Locking for Memory-Optimized Indexes" (Shi, Yan, Wang;
// SIGMOD 2024): the OptiQL optimistic queuing lock, the comparison
// locks, OLC-based B+-tree and ART index substrates, and the full
// benchmark harness that regenerates the paper's evaluation.
//
// The implementation lives under internal/ (see DESIGN.md for the
// system inventory); runnable examples are under examples/. Every
// figure and table of the evaluation runs with cmd/experiments
// (-only <name>); cmd/indexbench drives a single index run or, with
// -net, a running cmd/optiqld server. The root package exists to host
// the module documentation.
package optiql
