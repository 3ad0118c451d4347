//! Dataset persistence as headerless CSV: one row per item, plain
//! `f64` columns, for interop with anything (the `alid detect` input
//! format).

use std::fs::File;
use std::io::{self, BufRead, BufReader, BufWriter, Write};
use std::path::Path;

use alid_affinity::vector::Dataset;

/// Writes `ds` as headerless CSV (one item per row).
pub fn write_csv(path: &Path, ds: &Dataset) -> io::Result<()> {
    let mut out = BufWriter::new(File::create(path)?);
    let mut line = String::new();
    for row in ds.iter() {
        line.clear();
        for (i, v) in row.iter().enumerate() {
            if i > 0 {
                line.push(',');
            }
            line.push_str(&format!("{v}"));
        }
        line.push('\n');
        out.write_all(line.as_bytes())?;
    }
    out.flush()
}

/// Reads a headerless CSV of `f64` columns.
///
/// # Errors
/// Fails on ragged rows, empty files or non-numeric cells.
pub fn read_csv(path: &Path) -> io::Result<Dataset> {
    let reader = BufReader::new(File::open(path)?);
    let mut ds: Option<Dataset> = None;
    let mut row: Vec<f64> = Vec::new();
    for (lineno, line) in reader.lines().enumerate() {
        let line = line?;
        if line.trim().is_empty() {
            continue;
        }
        row.clear();
        for cell in line.split(',') {
            let v: f64 = cell.trim().parse().map_err(|e| {
                io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("line {}: bad float {cell:?}: {e}", lineno + 1),
                )
            })?;
            row.push(v);
        }
        match &mut ds {
            None => {
                let mut d = Dataset::new(row.len());
                d.push(&row);
                ds = Some(d);
            }
            Some(d) => {
                if row.len() != d.dim() {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        format!("line {}: {} columns, expected {}", lineno + 1, row.len(), d.dim()),
                    ));
                }
                d.push(&row);
            }
        }
    }
    ds.ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "empty CSV"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("alid-io-test-{}-{name}", std::process::id()));
        p
    }

    #[test]
    fn csv_roundtrip_preserves_values() {
        let ds = Dataset::from_flat(3, vec![1.5, -2.25, 0.0, 1e-9, 4.0, 1e12]);
        let path = tmp("roundtrip.csv");
        write_csv(&path, &ds).expect("write");
        let back = read_csv(&path).expect("read");
        assert_eq!(back.dim(), 3);
        assert_eq!(back.len(), 2);
        for (a, b) in ds.as_flat().iter().zip(back.as_flat()) {
            assert!((a - b).abs() <= a.abs() * 1e-15);
        }
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn csv_rejects_ragged_rows() {
        let path = tmp("ragged.csv");
        std::fs::write(&path, "1,2,3\n4,5\n").expect("write");
        assert!(read_csv(&path).is_err());
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn csv_rejects_garbage() {
        let path = tmp("garbage.csv");
        std::fs::write(&path, "1,two,3\n").expect("write");
        assert!(read_csv(&path).is_err());
        let _ = std::fs::remove_file(path);
    }
}
