//! Structural graph analysis of sparse matrices.
//!
//! The adjacency graph of `A` (vertices = unknowns, edges = nonzero
//! off-diagonal couplings) drives:
//!
//! * the fill-reducing orderings in [`crate::ordering`] (neighbour lists
//!   and degrees for RCM and minimum degree),
//! * the irreducibility test needed by Proposition 1 of the paper
//!   ("irreducibly diagonally dominant"): `A` is irreducible iff its directed
//!   adjacency graph is strongly connected.

use crate::csr::CsrMatrix;

/// Undirected adjacency structure of the symmetrized pattern of a square
/// sparse matrix (pattern of `A + Aᵀ`, diagonal excluded).
#[derive(Debug, Clone)]
pub struct AdjacencyGraph {
    n: usize,
    adj_ptr: Vec<usize>,
    adj: Vec<usize>,
}

impl AdjacencyGraph {
    /// Builds the symmetrized adjacency graph of a square matrix.
    ///
    /// # Panics
    /// Panics if the matrix is not square.
    pub fn from_matrix(a: &CsrMatrix) -> Self {
        assert!(a.is_square(), "adjacency graph requires a square matrix");
        let n = a.rows();
        // Collect neighbour sets from the pattern of A and Aᵀ.
        let mut neighbours: Vec<Vec<usize>> = vec![Vec::new(); n];
        for i in 0..n {
            for (j, _) in a.row(i) {
                if i != j {
                    neighbours[i].push(j);
                    neighbours[j].push(i);
                }
            }
        }
        let mut adj_ptr = Vec::with_capacity(n + 1);
        let mut adj = Vec::new();
        adj_ptr.push(0);
        for nb in neighbours.iter_mut() {
            nb.sort_unstable();
            nb.dedup();
            adj.extend_from_slice(nb);
            adj_ptr.push(adj.len());
        }
        AdjacencyGraph { n, adj_ptr, adj }
    }

    /// Number of vertices.
    pub fn order(&self) -> usize {
        self.n
    }

    /// Neighbours of vertex `v`.
    pub fn neighbours(&self, v: usize) -> &[usize] {
        &self.adj[self.adj_ptr[v]..self.adj_ptr[v + 1]]
    }

    /// Degree of vertex `v`.
    pub fn degree(&self, v: usize) -> usize {
        self.adj_ptr[v + 1] - self.adj_ptr[v]
    }
}

/// Whether a square matrix is irreducible, i.e. its *directed* adjacency
/// graph is strongly connected (Tarjan's algorithm, iterative formulation).
///
/// Irreducibility combined with weak diagonal dominance plus at least one
/// strict row is the "irreducibly diagonally dominant" hypothesis of
/// Proposition 1.
pub fn is_irreducible(a: &CsrMatrix) -> bool {
    assert!(a.is_square(), "irreducibility requires a square matrix");
    let n = a.rows();
    if n == 0 {
        return true;
    }
    if n == 1 {
        return true;
    }

    // Build directed adjacency lists (off-diagonal pattern of A).
    let mut adj: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (i, neighbors) in adj.iter_mut().enumerate() {
        for (j, _) in a.row(i) {
            if i != j {
                neighbors.push(j);
            }
        }
    }

    // Iterative Tarjan SCC: count the strongly connected components.
    let mut index = vec![usize::MAX; n];
    let mut lowlink = vec![0usize; n];
    let mut on_stack = vec![false; n];
    let mut stack: Vec<usize> = Vec::new();
    let mut next_index = 0usize;
    let mut scc_count = 0usize;

    // Explicit DFS stack: (vertex, next child position).
    for root in 0..n {
        if index[root] != usize::MAX {
            continue;
        }
        let mut dfs: Vec<(usize, usize)> = vec![(root, 0)];
        while let Some(&mut (v, ref mut child)) = dfs.last_mut() {
            if *child == 0 {
                index[v] = next_index;
                lowlink[v] = next_index;
                next_index += 1;
                stack.push(v);
                on_stack[v] = true;
            }
            if *child < adj[v].len() {
                let w = adj[v][*child];
                *child += 1;
                if index[w] == usize::MAX {
                    dfs.push((w, 0));
                } else if on_stack[w] {
                    lowlink[v] = lowlink[v].min(index[w]);
                }
            } else {
                // Done with v: pop it, propagate the lowlink, emit an SCC if root.
                dfs.pop();
                if let Some(&(parent, _)) = dfs.last() {
                    lowlink[parent] = lowlink[parent].min(lowlink[v]);
                }
                if lowlink[v] == index[v] {
                    scc_count += 1;
                    while let Some(w) = stack.pop() {
                        on_stack[w] = false;
                        if w == v {
                            break;
                        }
                    }
                    if scc_count > 1 {
                        return false;
                    }
                }
            }
        }
    }
    scc_count == 1
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::TripletBuilder;

    fn path_matrix(n: usize) -> CsrMatrix {
        // Tridiagonal pattern: a path graph.
        let mut b = TripletBuilder::square(n);
        for i in 0..n {
            b.push(i, i, 4.0).unwrap();
            if i > 0 {
                b.push(i, i - 1, -1.0).unwrap();
            }
            if i + 1 < n {
                b.push(i, i + 1, -1.0).unwrap();
            }
        }
        b.build_csr()
    }

    #[test]
    fn adjacency_of_path() {
        let g = AdjacencyGraph::from_matrix(&path_matrix(5));
        assert_eq!(g.order(), 5);
        assert_eq!(g.neighbours(0), &[1]);
        assert_eq!(g.neighbours(2), &[1, 3]);
        assert_eq!(g.degree(4), 1);
    }

    #[test]
    fn path_is_irreducible() {
        assert!(is_irreducible(&path_matrix(6)));
    }

    #[test]
    fn one_directional_coupling_is_reducible() {
        // Upper triangular: 0 -> 1 only, not strongly connected.
        let mut b = TripletBuilder::square(2);
        b.push(0, 0, 1.0).unwrap();
        b.push(0, 1, 1.0).unwrap();
        b.push(1, 1, 1.0).unwrap();
        let m = b.build_csr();
        assert!(!is_irreducible(&m));
        // But the undirected (symmetrized) graph links both vertices.
        assert_eq!(AdjacencyGraph::from_matrix(&m).neighbours(0), &[1]);
    }

    #[test]
    fn single_vertex_is_irreducible() {
        let mut b = TripletBuilder::square(1);
        b.push(0, 0, 1.0).unwrap();
        assert!(is_irreducible(&b.build_csr()));
    }
}
