//! MatrixMarket coordinate-format reader and writer.
//!
//! The paper's cage matrices come from the University of Florida collection
//! as MatrixMarket (`.mtx` / `.rua`-equivalent) files.  When those files are
//! available locally, [`read_matrix_market`] loads them directly so the
//! experiments can run on the genuine data instead of the synthetic
//! [`crate::generators::cage_like`] substitutes.

use crate::coo::CooMatrix;
use crate::csr::CsrMatrix;
use crate::SparseError;
use std::io::{BufRead, BufReader, Read, Write};
use std::path::Path;

/// Symmetry declared in a MatrixMarket header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MmSymmetry {
    /// All entries stored explicitly.
    General,
    /// Only the lower triangle stored; `(j, i, v)` is implied by `(i, j, v)`.
    Symmetric,
    /// Only the lower triangle stored; `(j, i, -v)` is implied.
    SkewSymmetric,
}

/// Parses a MatrixMarket *coordinate real* stream into a COO matrix.
pub fn parse_matrix_market<R: Read>(reader: R) -> Result<CooMatrix, SparseError> {
    let mut lines = BufReader::new(reader).lines();

    // Header line: %%MatrixMarket matrix coordinate real <symmetry>
    let header = loop {
        match lines.next() {
            Some(line) => {
                let line = line?;
                if !line.trim().is_empty() {
                    break line;
                }
            }
            None => return Err(SparseError::Parse("empty MatrixMarket stream".to_string())),
        }
    };
    let header_lc = header.to_lowercase();
    if !header_lc.starts_with("%%matrixmarket") {
        return Err(SparseError::Parse(format!(
            "missing %%MatrixMarket banner, found: {header}"
        )));
    }
    let tokens: Vec<&str> = header_lc.split_whitespace().collect();
    if tokens.len() < 5 || tokens[1] != "matrix" || tokens[2] != "coordinate" {
        return Err(SparseError::Parse(format!(
            "only 'matrix coordinate' MatrixMarket files are supported: {header}"
        )));
    }
    if tokens[3] != "real" && tokens[3] != "integer" {
        return Err(SparseError::Parse(format!(
            "only real/integer value types are supported, found {}",
            tokens[3]
        )));
    }
    let symmetry = match tokens[4] {
        "general" => MmSymmetry::General,
        "symmetric" => MmSymmetry::Symmetric,
        "skew-symmetric" => MmSymmetry::SkewSymmetric,
        other => {
            return Err(SparseError::Parse(format!(
                "unsupported symmetry '{other}'"
            )))
        }
    };

    // Size line: first non-comment line after the header.
    let size_line = loop {
        match lines.next() {
            Some(line) => {
                let line = line?;
                let t = line.trim();
                if t.is_empty() || t.starts_with('%') {
                    continue;
                }
                break line;
            }
            None => {
                return Err(SparseError::Parse(
                    "missing MatrixMarket size line".to_string(),
                ))
            }
        }
    };
    let dims: Vec<usize> = size_line
        .split_whitespace()
        .map(|t| {
            t.parse::<usize>()
                .map_err(|e| SparseError::Parse(format!("bad size entry '{t}': {e}")))
        })
        .collect::<Result<_, _>>()?;
    if dims.len() != 3 {
        return Err(SparseError::Parse(format!(
            "size line must have 3 entries, found {}",
            dims.len()
        )));
    }
    let (rows, cols, nnz) = (dims[0], dims[1], dims[2]);
    let mut coo = CooMatrix::with_capacity(rows, cols, nnz);

    let mut read_entries = 0usize;
    for line in lines {
        let line = line?;
        let t = line.trim();
        if t.is_empty() || t.starts_with('%') {
            continue;
        }
        let mut it = t.split_whitespace();
        let i: usize = it
            .next()
            .ok_or_else(|| SparseError::Parse(format!("truncated entry line: {t}")))?
            .parse()
            .map_err(|e| SparseError::Parse(format!("bad row index in '{t}': {e}")))?;
        let j: usize = it
            .next()
            .ok_or_else(|| SparseError::Parse(format!("truncated entry line: {t}")))?
            .parse()
            .map_err(|e| SparseError::Parse(format!("bad column index in '{t}': {e}")))?;
        let v: f64 = match it.next() {
            Some(tok) => tok
                .parse()
                .map_err(|e| SparseError::Parse(format!("bad value in '{t}': {e}")))?,
            // Pattern files have no value column; treat entries as 1.0.
            None => 1.0,
        };
        if i == 0 || j == 0 {
            return Err(SparseError::Parse(
                "MatrixMarket indices are 1-based; found a 0 index".to_string(),
            ));
        }
        coo.push(i - 1, j - 1, v)?;
        match symmetry {
            MmSymmetry::General => {}
            MmSymmetry::Symmetric => {
                if i != j {
                    coo.push(j - 1, i - 1, v)?;
                }
            }
            MmSymmetry::SkewSymmetric => {
                if i != j {
                    coo.push(j - 1, i - 1, -v)?;
                }
            }
        }
        read_entries += 1;
    }
    if read_entries != nnz {
        return Err(SparseError::Parse(format!(
            "header announced {nnz} entries but {read_entries} were read"
        )));
    }
    Ok(coo)
}

/// Reads a MatrixMarket file from disk into CSR.
pub fn read_matrix_market(path: impl AsRef<Path>) -> Result<CsrMatrix, SparseError> {
    let file = std::fs::File::open(path)?;
    Ok(parse_matrix_market(file)?.to_csr())
}

/// Writes a CSR matrix as a *general coordinate real* MatrixMarket stream.
pub fn write_matrix_market<W: Write>(matrix: &CsrMatrix, mut writer: W) -> Result<(), SparseError> {
    writeln!(writer, "%%MatrixMarket matrix coordinate real general")?;
    writeln!(
        writer,
        "% written by msplit-sparse (multisplitting-direct reproduction)"
    )?;
    writeln!(
        writer,
        "{} {} {}",
        matrix.rows(),
        matrix.cols(),
        matrix.nnz()
    )?;
    for (i, j, v) in matrix.iter() {
        writeln!(writer, "{} {} {:.17e}", i + 1, j + 1, v)?;
    }
    Ok(())
}

/// Writes a CSR matrix to a MatrixMarket file on disk.
pub fn write_matrix_market_file(
    matrix: &CsrMatrix,
    path: impl AsRef<Path>,
) -> Result<(), SparseError> {
    let file = std::fs::File::create(path)?;
    write_matrix_market(matrix, std::io::BufWriter::new(file))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    const SMALL_GENERAL: &str = "%%MatrixMarket matrix coordinate real general\n\
        % a comment\n\
        3 3 4\n\
        1 1 2.0\n\
        2 2 3.0\n\
        3 1 -1.5\n\
        3 3 4.0\n";

    #[test]
    fn parse_general_file() {
        let coo = parse_matrix_market(SMALL_GENERAL.as_bytes()).unwrap();
        let csr = coo.to_csr();
        assert_eq!(csr.rows(), 3);
        assert_eq!(csr.nnz(), 4);
        assert_eq!(csr.get(2, 0), -1.5);
    }

    #[test]
    fn parse_symmetric_mirrors_entries() {
        let text = "%%MatrixMarket matrix coordinate real symmetric\n\
            2 2 2\n\
            1 1 1.0\n\
            2 1 5.0\n";
        let csr = parse_matrix_market(text.as_bytes()).unwrap().to_csr();
        assert_eq!(csr.get(0, 1), 5.0);
        assert_eq!(csr.get(1, 0), 5.0);
        assert_eq!(csr.nnz(), 3);
    }

    #[test]
    fn parse_skew_symmetric_negates_mirror() {
        let text = "%%MatrixMarket matrix coordinate real skew-symmetric\n\
            2 2 1\n\
            2 1 3.0\n";
        let csr = parse_matrix_market(text.as_bytes()).unwrap().to_csr();
        assert_eq!(csr.get(1, 0), 3.0);
        assert_eq!(csr.get(0, 1), -3.0);
    }

    #[test]
    fn parse_rejects_bad_headers_and_counts() {
        assert!(parse_matrix_market("not a matrix\n1 1 0\n".as_bytes()).is_err());
        let wrong_count = "%%MatrixMarket matrix coordinate real general\n2 2 3\n1 1 1.0\n";
        assert!(parse_matrix_market(wrong_count.as_bytes()).is_err());
        let zero_index = "%%MatrixMarket matrix coordinate real general\n2 2 1\n0 1 1.0\n";
        assert!(parse_matrix_market(zero_index.as_bytes()).is_err());
        let unsupported = "%%MatrixMarket matrix array real general\n2 2\n";
        assert!(parse_matrix_market(unsupported.as_bytes()).is_err());
    }

    #[test]
    fn write_then_read_round_trip() {
        let a = generators::cage_like(40, 11);
        let mut buf = Vec::new();
        write_matrix_market(&a, &mut buf).unwrap();
        let back = parse_matrix_market(buf.as_slice()).unwrap().to_csr();
        assert_eq!(back.rows(), a.rows());
        assert_eq!(back.nnz(), a.nnz());
        for (i, j, v) in a.iter() {
            assert!((back.get(i, j) - v).abs() < 1e-12);
        }
    }

    #[test]
    fn file_round_trip() {
        let a = generators::tridiagonal(15, 3.0, -1.0);
        let dir = std::env::temp_dir().join("msplit_sparse_io_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("tri.mtx");
        write_matrix_market_file(&a, &path).unwrap();
        let back = read_matrix_market(&path).unwrap();
        assert_eq!(back, a);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn missing_file_is_io_error() {
        let err = read_matrix_market("/definitely/not/here.mtx").unwrap_err();
        assert!(matches!(err, SparseError::Io(_)));
    }
}
