// Package core implements the densest-subgraph-discovery algorithms that
// are the paper's contribution: the state-of-the-art baselines Exact
// (Algorithms 1 and 8) and PeelApp (Algorithm 2), the core-based
// algorithms CoreExact (Algorithm 4, and Section 7.2 for patterns),
// IncApp (Algorithm 5) and CoreApp (Algorithm 6), the Section-6.3
// query-anchored variant, the cited streaming (Bahmani et al.) and
// size-constrained (Andersen–Chellapilla) baselines, and a result
// certifier. All algorithms are generic over the motif Ψ (h-clique or
// pattern) via motif.Oracle, and each has one entry point; those that
// can reuse memoized per-graph state (a decomposition or a Ψ-degree
// vector) take it as a final argument, nil meaning "compute it".
//
// File guide:
//
//	exact.go      Exact: Dinkelbach flow probes on the whole graph (Alg. 1, 8)
//	coreexact.go  CoreExact: location, Pruning1-2, per-component Dinkelbach
//	              search on shrinking int64 networks, construct+
//	parallel.go   worker pool + shared monotone bound for CoreExact
//	approx.go     PeelApp and PeelAppAtLeast [3] (one peel), IncApp,
//	              CoreApp, Nucleus
//	anchored.go   QueryDensest (§6.3 variant)
//	batchpeel.go  BatchPeel [6]
//	certify.go    Certify: result certificates
//	side.go       flow-network sides (EDS / CDS / PDS nets) and the probe
//	result.go     Result and Stats types
package core
