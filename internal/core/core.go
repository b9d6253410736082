// Package core implements the paper's contribution: the Aug_k covering
// framework (§2.1, Claim 2.1), the weighted k-ECSS algorithm (§4), the
// weighted 2-ECSS algorithm (MST + weighted TAP, §3 / Theorem 1.1) and the
// unweighted 3-ECSS algorithm via cycle space sampling (§5 / Theorem 1.3).
//
// # Minimum-cut enumeration
//
// Every Aug_k level must cover every minimum cut of its current subgraph H
// (Definition 2.1). EnumerateMinCuts produces them as canonical vertex
// bipartitions, exactly and deterministically: sizes 1 and 2 come from
// bridges and cut pairs, and size >= 3 from graph.ForEachMinCut, which
// runs one capped max-flow from {0..t−1} to each t and lists the closed
// sets of each residual graph whose flow equals the size (Picard–Queyranne).
// The flows also decide λ(H), so no separate connectivity check precedes
// the enumeration. The cuts are sorted canonically, so the output depends
// on the graph alone.
//
// Cut identity is 64-bit FNV-1a hashed and resolved by an intern table
// that compares the bipartition bitset on hash collision (the size-2
// enumerator dedups pairs that induce the same bipartition). Aug's
// coverage bookkeeping then works on dense cut indices (covered bitmaps,
// candidate cut-index lists) — no string keys on any hot path.
//
// # Output-sensitive candidate scans
//
// Both covering loops avoid rescanning their candidate pools. Aug keeps a
// cut→candidate transpose of the candidate cut lists: each cut that flips
// to covered decrements the cached cover count of exactly the candidates
// crossing it, so the per-iteration Lines 1–2 selection reads one cached
// integer per candidate and total maintenance is O(Σ|Ce|) over the run.
// The 3-ECSS loop goes further, since its cover counts live in the
// cycle-space labeling rather than an explicit cut list: a
// cycles.CoverIndex maintains every unselected candidate's |Ce| under
// label updates (a heavy-path Fenwick path sum minus a cached same-label
// pair count that the label hook keeps current, so a recompute is
// O(log² n); see that type's docs), reporting exactly the candidates
// whose count may have changed, and an exponent-bucket
// structure (expBuckets) turns "max rounded cost-effectiveness + pool
// attaining it" into an O(pool + stale) pop — iterations touch candidates
// proportional to what changed, not to m. The pool a bucket pop yields is
// re-sorted to ascending edge ID, so RNG consumption and results are
// bit-identical to a full scan of every candidate (the equivalence corpus
// checks the pool against that scan after every activation step).
//
// ThreeECSSOptions.Rebalance adds the §5 mitigation for Θ(n)-height
// labeling trees: when the tree grows past 4·⌈log n⌉ and a BFS probe of
// H ∪ A shows at least a 2x height reduction, the engine is rebuilt on the
// current selection, charging the measured rebuild rounds and emitting a
// "rebalance" PhaseEvent.
//
//kecss:deterministic
package core
