//! Loader for the MNIST IDX file format.
//!
//! If the real MNIST files are available on disk, a caller can run on them
//! instead of [`synth_digits`](crate::synth_digits); the
//! [`load_mnist_or_synthetic`] helper falls back transparently. No flow or
//! command calls it yet.

use crate::dataset::Dataset;
use crate::synth_digits::synth_digits;
use qsnc_tensor::{Tensor, TensorRng};
use std::fmt;
use std::fs;
use std::io::{self, Read};
use std::path::Path;

/// Errors raised while reading IDX files.
#[derive(Debug)]
pub enum LoadIdxError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// The magic number did not identify the expected record type.
    BadMagic(u32),
    /// Image and label files disagree on the example count.
    CountMismatch {
        /// Number of images read.
        images: usize,
        /// Number of labels read.
        labels: usize,
    },
    /// File ended before the promised payload.
    Truncated,
}

impl fmt::Display for LoadIdxError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LoadIdxError::Io(e) => write!(f, "i/o error reading idx file: {e}"),
            LoadIdxError::BadMagic(m) => write!(f, "unexpected idx magic number {m:#x}"),
            LoadIdxError::CountMismatch { images, labels } => {
                write!(f, "idx files disagree: {images} images vs {labels} labels")
            }
            LoadIdxError::Truncated => write!(f, "idx file truncated"),
        }
    }
}

impl std::error::Error for LoadIdxError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            LoadIdxError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for LoadIdxError {
    fn from(e: io::Error) -> Self {
        LoadIdxError::Io(e)
    }
}

fn read_u32(r: &mut impl Read) -> Result<u32, LoadIdxError> {
    let mut buf = [0u8; 4];
    r.read_exact(&mut buf).map_err(|_| LoadIdxError::Truncated)?;
    Ok(u32::from_be_bytes(buf))
}

/// Reads an IDX3 image file (`magic 0x803`) into `(pixels, n, rows, cols)`
/// with pixels scaled to `[0, 1]`.
///
/// # Errors
///
/// Returns [`LoadIdxError`] on I/O failure, bad magic, or truncation.
pub fn read_idx_images(path: &Path) -> Result<(Vec<f32>, usize, usize, usize), LoadIdxError> {
    let mut f = fs::File::open(path)?;
    let magic = read_u32(&mut f)?;
    if magic != 0x0000_0803 {
        return Err(LoadIdxError::BadMagic(magic));
    }
    let n = read_u32(&mut f)? as usize;
    let rows = read_u32(&mut f)? as usize;
    let cols = read_u32(&mut f)? as usize;
    let mut raw = vec![0u8; n * rows * cols];
    f.read_exact(&mut raw).map_err(|_| LoadIdxError::Truncated)?;
    let pixels = raw.iter().map(|&b| b as f32 / 255.0).collect();
    Ok((pixels, n, rows, cols))
}

/// Reads an IDX1 label file (`magic 0x801`).
///
/// # Errors
///
/// Returns [`LoadIdxError`] on I/O failure, bad magic, or truncation.
pub fn read_idx_labels(path: &Path) -> Result<Vec<usize>, LoadIdxError> {
    let mut f = fs::File::open(path)?;
    let magic = read_u32(&mut f)?;
    if magic != 0x0000_0801 {
        return Err(LoadIdxError::BadMagic(magic));
    }
    let n = read_u32(&mut f)? as usize;
    let mut raw = vec![0u8; n];
    f.read_exact(&mut raw).map_err(|_| LoadIdxError::Truncated)?;
    Ok(raw.iter().map(|&b| b as usize).collect())
}

/// Loads an MNIST-style pair of IDX files into a [`Dataset`].
///
/// # Errors
///
/// Returns [`LoadIdxError`] if either file is unreadable, malformed, or the
/// counts disagree.
pub fn load_idx_pair(images: &Path, labels: &Path) -> Result<Dataset, LoadIdxError> {
    let (pixels, n, rows, cols) = read_idx_images(images)?;
    let labels = read_idx_labels(labels)?;
    if labels.len() != n {
        return Err(LoadIdxError::CountMismatch {
            images: n,
            labels: labels.len(),
        });
    }
    let classes = labels.iter().copied().max().unwrap_or(0) + 1;
    Ok(Dataset::new(
        Tensor::from_vec(pixels, [n, 1, rows, cols]),
        labels,
        classes.max(10),
    ))
}

/// Loads MNIST training data from `dir` (expecting the standard
/// `train-images-idx3-ubyte` / `train-labels-idx1-ubyte` names); on any
/// failure, generates `fallback_n` examples of [`synth_digits`] instead.
///
/// Returns the dataset and `true` if real MNIST was used.
pub fn load_mnist_or_synthetic(
    dir: &Path,
    fallback_n: usize,
    rng: &mut TensorRng,
) -> (Dataset, bool) {
    let images = dir.join("train-images-idx3-ubyte");
    let labels = dir.join("train-labels-idx1-ubyte");
    match load_idx_pair(&images, &labels) {
        Ok(data) => (data, true),
        Err(_) => (synth_digits(fallback_n, rng), false),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;

    fn write_idx_images(path: &Path, n: usize, rows: usize, cols: usize) {
        let mut f = fs::File::create(path).unwrap();
        f.write_all(&0x0000_0803u32.to_be_bytes()).unwrap();
        f.write_all(&(n as u32).to_be_bytes()).unwrap();
        f.write_all(&(rows as u32).to_be_bytes()).unwrap();
        f.write_all(&(cols as u32).to_be_bytes()).unwrap();
        let payload: Vec<u8> = (0..n * rows * cols).map(|i| (i % 256) as u8).collect();
        f.write_all(&payload).unwrap();
    }

    fn write_idx_labels(path: &Path, labels: &[u8]) {
        let mut f = fs::File::create(path).unwrap();
        f.write_all(&0x0000_0801u32.to_be_bytes()).unwrap();
        f.write_all(&(labels.len() as u32).to_be_bytes()).unwrap();
        f.write_all(labels).unwrap();
    }

    #[test]
    fn round_trip_synthetic_idx() {
        let dir = std::env::temp_dir().join("qsnc_idx_test");
        fs::create_dir_all(&dir).unwrap();
        let img = dir.join("imgs");
        let lbl = dir.join("lbls");
        write_idx_images(&img, 3, 4, 4);
        write_idx_labels(&lbl, &[0, 5, 9]);
        let data = load_idx_pair(&img, &lbl).unwrap();
        assert_eq!(data.len(), 3);
        assert_eq!(data.example_dims(), [1, 4, 4]);
        assert_eq!(data.labels(), &[0, 5, 9]);
        // First pixel of second image: raw byte 16 → 16/255.
        assert!((data.example(1).0.as_slice()[0] - 16.0 / 255.0).abs() < 1e-6);
    }

    #[test]
    fn bad_magic_is_reported() {
        let dir = std::env::temp_dir().join("qsnc_idx_test2");
        fs::create_dir_all(&dir).unwrap();
        let img = dir.join("bad");
        fs::write(&img, 0xdeadbeefu32.to_be_bytes()).unwrap();
        match read_idx_images(&img) {
            Err(LoadIdxError::BadMagic(m)) => assert_eq!(m, 0xdeadbeef),
            other => panic!("expected BadMagic, got {other:?}"),
        }
    }

    #[test]
    fn count_mismatch_is_reported() {
        let dir = std::env::temp_dir().join("qsnc_idx_test3");
        fs::create_dir_all(&dir).unwrap();
        let img = dir.join("imgs");
        let lbl = dir.join("lbls");
        write_idx_images(&img, 2, 2, 2);
        write_idx_labels(&lbl, &[1]);
        assert!(matches!(
            load_idx_pair(&img, &lbl),
            Err(LoadIdxError::CountMismatch { images: 2, labels: 1 })
        ));
    }

    #[test]
    fn fallback_to_synthetic() {
        let mut rng = TensorRng::seed(0);
        let (data, real) =
            load_mnist_or_synthetic(Path::new("/nonexistent-dir"), 30, &mut rng);
        assert!(!real);
        assert_eq!(data.len(), 30);
    }
}
