//! Fill-reducing orderings.
//!
//! Direct sparse solvers start with a symbolic step that permutes the matrix
//! to limit the fill-in created by Gaussian elimination (Remark 4 of the paper
//! — the factorization is the dominant cost of the multisplitting-direct
//! solvers, so reducing its fill matters).  Two classical orderings are
//! provided:
//!
//! * [`reverse_cuthill_mckee`] — bandwidth-reducing ordering driven by BFS
//!   from a pseudo-peripheral vertex.  Good default for the banded /
//!   discretized-PDE matrices used in the paper's experiments.
//! * [`minimum_degree`] — greedy minimum-degree ordering on the quotient
//!   graph (simplified variant without supervariable detection).  Usually
//!   lower fill for less structured patterns.

use crate::csr::CsrMatrix;
use crate::graph::AdjacencyGraph;
use crate::permutation::Permutation;

/// Reverse Cuthill–McKee ordering of the symmetrized pattern of `a`.
///
/// Returns a new-to-old permutation.  Disconnected components are each ordered
/// from their own pseudo-peripheral start vertex.
pub fn reverse_cuthill_mckee(a: &CsrMatrix) -> Permutation {
    let g = AdjacencyGraph::from_matrix(a);
    let n = g.order();
    let mut visited = vec![false; n];
    let mut order: Vec<usize> = Vec::with_capacity(n);

    for seed in 0..n {
        if visited[seed] {
            continue;
        }
        let start = component_pseudo_peripheral(&g, seed, &visited);
        // BFS, visiting neighbours in increasing-degree order (Cuthill–McKee).
        let mut queue = std::collections::VecDeque::new();
        queue.push_back(start);
        visited[start] = true;
        while let Some(v) = queue.pop_front() {
            order.push(v);
            let mut nbs: Vec<usize> = g
                .neighbours(v)
                .iter()
                .copied()
                .filter(|&w| !visited[w])
                .collect();
            nbs.sort_unstable_by_key(|&w| g.degree(w));
            for w in nbs {
                visited[w] = true;
                queue.push_back(w);
            }
        }
    }

    // Reverse the Cuthill–McKee order.
    order.reverse();
    Permutation::from_vec(order).expect("BFS order visits each vertex exactly once")
}

/// Pseudo-peripheral vertex restricted to the not-yet-visited component of
/// `seed`.
fn component_pseudo_peripheral(g: &AdjacencyGraph, seed: usize, visited: &[bool]) -> usize {
    // BFS within the unvisited component to find the farthest low-degree vertex.
    let mut best = seed;
    let mut current = vec![seed];
    let mut seen = vec![false; g.order()];
    seen[seed] = true;
    let mut last_level = vec![seed];
    while !current.is_empty() {
        last_level = current.clone();
        let mut next = Vec::new();
        for &v in &current {
            for &w in g.neighbours(v) {
                if !seen[w] && !visited[w] {
                    seen[w] = true;
                    next.push(w);
                }
            }
        }
        current = next;
    }
    if let Some(&v) = last_level.iter().min_by_key(|&&w| g.degree(w)) {
        best = v;
    }
    best
}

/// Greedy minimum-degree ordering of the symmetrized pattern of `a`.
///
/// At each step the vertex of minimum current degree is eliminated and its
/// neighbours are pairwise connected (clique formation), which mimics the
/// fill produced by Gaussian elimination.  The implementation uses explicit
/// neighbour sets; it is `O(n · d²)` in the worst case, which is fine for the
/// block sizes handed to the per-processor direct solver.
pub fn minimum_degree(a: &CsrMatrix) -> Permutation {
    let g = AdjacencyGraph::from_matrix(a);
    let n = g.order();
    let mut neighbours: Vec<std::collections::BTreeSet<usize>> = (0..n)
        .map(|v| g.neighbours(v).iter().copied().collect())
        .collect();
    let mut eliminated = vec![false; n];
    let mut order = Vec::with_capacity(n);

    for _ in 0..n {
        // Pick the minimum-degree uneliminated vertex (ties by index for determinism).
        let v = (0..n)
            .filter(|&v| !eliminated[v])
            .min_by_key(|&v| (neighbours[v].len(), v))
            .expect("at least one vertex remains");
        eliminated[v] = true;
        order.push(v);

        // Form the elimination clique among v's remaining neighbours.
        let nbs: Vec<usize> = neighbours[v]
            .iter()
            .copied()
            .filter(|&w| !eliminated[w])
            .collect();
        for (idx, &w) in nbs.iter().enumerate() {
            neighbours[w].remove(&v);
            for &u in &nbs[idx + 1..] {
                neighbours[w].insert(u);
                neighbours[u].insert(w);
            }
        }
        neighbours[v].clear();
    }

    Permutation::from_vec(order).expect("each vertex eliminated exactly once")
}

/// Bandwidth of the matrix: maximum `|i - j|` over stored entries.
pub fn bandwidth(a: &CsrMatrix) -> usize {
    let mut bw = 0usize;
    for (i, j, _) in a.iter() {
        bw = bw.max(i.abs_diff(j));
    }
    bw
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::TripletBuilder;
    use crate::generators;

    fn arrow_matrix(n: usize) -> CsrMatrix {
        // Arrowhead: dense first row/column + diagonal.  RCM/MD should reorder
        // the hub to the end, and minimum degree should give zero extra fill.
        let mut b = TripletBuilder::square(n);
        for i in 0..n {
            b.push(i, i, 10.0).unwrap();
            if i > 0 {
                b.push(0, i, 1.0).unwrap();
                b.push(i, 0, 1.0).unwrap();
            }
        }
        b.build_csr()
    }

    #[test]
    fn rcm_is_a_valid_permutation() {
        let a = generators::poisson_2d(6);
        let p = reverse_cuthill_mckee(&a);
        assert_eq!(p.len(), a.rows());
        // validity already checked by Permutation::from_vec; also check inverse round trip
        let v: Vec<f64> = (0..a.rows()).map(|i| i as f64).collect();
        let pv = p.apply(&v).unwrap();
        let back = p.apply_inverse(&pv).unwrap();
        assert_eq!(back, v);
    }

    #[test]
    fn rcm_reduces_bandwidth_of_shuffled_path() {
        // A path graph whose vertices are numbered badly has large bandwidth;
        // RCM should bring it back to ~1.
        let n = 40;
        let mut b = TripletBuilder::square(n);
        // vertex i of the path is placed at position (i*17) % n (a bijection as gcd(17,40)=1)
        let pos: Vec<usize> = (0..n).map(|i| (i * 17) % n).collect();
        for i in 0..n {
            b.push(pos[i], pos[i], 4.0).unwrap();
            if i + 1 < n {
                b.push(pos[i], pos[i + 1], -1.0).unwrap();
                b.push(pos[i + 1], pos[i], -1.0).unwrap();
            }
        }
        let a = b.build_csr();
        let before = bandwidth(&a);
        let p = reverse_cuthill_mckee(&a);
        let after = bandwidth(&a.permute_symmetric(p.as_slice()).unwrap());
        assert!(
            after < before,
            "RCM should reduce bandwidth ({before} -> {after})"
        );
        assert!(
            after <= 2,
            "a path should reorder to bandwidth <= 2, got {after}"
        );
    }

    #[test]
    fn rcm_handles_disconnected_graphs() {
        let mut b = TripletBuilder::square(6);
        for i in 0..6 {
            b.push(i, i, 1.0).unwrap();
        }
        // two separate edges
        b.push_symmetric(0, 1, -1.0).unwrap();
        b.push_symmetric(4, 5, -1.0).unwrap();
        let a = b.build_csr();
        let p = reverse_cuthill_mckee(&a);
        assert_eq!(p.len(), 6);
    }

    #[test]
    fn minimum_degree_orders_arrowhead_hub_late() {
        let a = arrow_matrix(10);
        let p = minimum_degree(&a);
        // The hub (vertex 0, degree 9) must not be eliminated before the
        // leaves: it can only appear among the last two positions (once all
        // but one leaf are gone, the hub's degree drops to 1 and ties are
        // broken by index).
        let hub_position = (0..10).find(|&k| p.old_of(k) == 0).unwrap();
        assert!(
            hub_position >= 8,
            "hub eliminated too early: {hub_position}"
        );
        // Every earlier elimination is a leaf.
        for k in 0..hub_position {
            assert_ne!(p.old_of(k), 0);
        }
    }

    #[test]
    fn minimum_degree_is_a_valid_permutation_on_poisson() {
        let a = generators::poisson_2d(5);
        let p = minimum_degree(&a);
        assert_eq!(p.len(), 25);
    }

    #[test]
    fn profile_and_bandwidth_of_tridiagonal() {
        let a = generators::tridiagonal(10, 4.0, -1.0);
        assert_eq!(bandwidth(&a), 1);
    }
}
