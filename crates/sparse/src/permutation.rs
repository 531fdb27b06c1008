//! Permutations of rows/columns/vectors.
//!
//! Remark 2 of the paper observes that a processor may own *non-adjacent*
//! bands of the matrix; a permutation brings that case back to the contiguous
//! band layout of Figure 1.  Fill-reducing orderings (RCM, minimum degree)
//! also produce permutations that are applied symmetrically before the
//! decomposition.

use crate::SparseError;

/// A permutation of `{0, …, n-1}`.
///
/// The convention throughout the workspace is **new-to-old**:
/// `perm[new_index] = old_index`, i.e. applying the permutation to a vector
/// computes `out[new] = input[perm[new]]`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Permutation {
    perm: Vec<usize>,
}

impl Permutation {
    /// Identity permutation of order `n`.
    pub fn identity(n: usize) -> Self {
        Permutation {
            perm: (0..n).collect(),
        }
    }

    /// Builds a permutation from a new-to-old index vector, validating that it
    /// is a bijection.
    pub fn from_vec(perm: Vec<usize>) -> Result<Self, SparseError> {
        let n = perm.len();
        let mut seen = vec![false; n];
        for &p in &perm {
            if p >= n {
                return Err(SparseError::Structure(format!(
                    "permutation entry {p} out of range 0..{n}"
                )));
            }
            if seen[p] {
                return Err(SparseError::Structure(format!(
                    "permutation entry {p} repeated"
                )));
            }
            seen[p] = true;
        }
        Ok(Permutation { perm })
    }

    /// Order of the permutation.
    pub fn len(&self) -> usize {
        self.perm.len()
    }

    /// Whether the permutation is empty.
    pub fn is_empty(&self) -> bool {
        self.perm.is_empty()
    }

    /// The new-to-old index slice.
    pub fn as_slice(&self) -> &[usize] {
        &self.perm
    }

    /// Old index placed at `new`.
    pub fn old_of(&self, new: usize) -> usize {
        self.perm[new]
    }

    /// Applies the permutation to a vector: `out[new] = v[perm[new]]`.
    pub fn apply(&self, v: &[f64]) -> Result<Vec<f64>, SparseError> {
        if v.len() != self.perm.len() {
            return Err(SparseError::ShapeMismatch {
                expected: (self.perm.len(), 1),
                found: (v.len(), 1),
            });
        }
        Ok(self.perm.iter().map(|&old| v[old]).collect())
    }

    /// Applies the *inverse* permutation: `out[perm[new]] = v[new]`, i.e.
    /// scatters a permuted vector back to the original ordering.
    pub fn apply_inverse(&self, v: &[f64]) -> Result<Vec<f64>, SparseError> {
        if v.len() != self.perm.len() {
            return Err(SparseError::ShapeMismatch {
                expected: (self.perm.len(), 1),
                found: (v.len(), 1),
            });
        }
        let mut out = vec![0.0; v.len()];
        for (new, &old) in self.perm.iter().enumerate() {
            out[old] = v[new];
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_vec_validates_bijection() {
        assert!(Permutation::from_vec(vec![0, 2, 1]).is_ok());
        assert!(Permutation::from_vec(vec![0, 0, 1]).is_err());
        assert!(Permutation::from_vec(vec![0, 3]).is_err());
    }

    #[test]
    fn apply_and_inverse_round_trip() {
        let p = Permutation::from_vec(vec![2, 0, 1]).unwrap();
        let v = [10.0, 20.0, 30.0];
        let pv = p.apply(&v).unwrap();
        assert_eq!(pv, vec![30.0, 10.0, 20.0]);
        let back = p.apply_inverse(&pv).unwrap();
        assert_eq!(back, v.to_vec());
    }

    #[test]
    fn apply_length_mismatch() {
        let p = Permutation::identity(3);
        assert!(p.apply(&[1.0, 2.0]).is_err());
        assert!(p.apply_inverse(&[1.0, 2.0]).is_err());
    }

    #[test]
    fn old_of_accessor() {
        assert_eq!(Permutation::identity(3).as_slice(), &[0, 1, 2]);
        let p = Permutation::from_vec(vec![2, 0, 1]).unwrap();
        assert_eq!(p.old_of(0), 2);
        assert_eq!(p.len(), 3);
        assert!(!p.is_empty());
    }
}
