//! The dense row-major `f32` tensor at the heart of qsnc.

use crate::shape::Shape;
use std::fmt;

/// A dense, row-major, heap-allocated `f32` tensor.
///
/// All qsnc substrates (layers, quantizers, crossbar mappers) exchange data
/// through this type. It is deliberately simple: contiguous storage, no
/// views, no broadcasting beyond scalar ops — which keeps the numerical code
/// in the simulator easy to audit.
///
/// # Examples
///
/// ```
/// use qsnc_tensor::Tensor;
///
/// let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], [2, 2]);
/// assert_eq!(t.at(&[1, 0]), 3.0);
/// assert_eq!(t.sum(), 10.0);
/// ```
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct Tensor {
    shape: Shape,
    data: Vec<f32>,
}

impl Tensor {
    /// Creates a tensor filled with zeros.
    pub fn zeros(shape: impl Into<Shape>) -> Self {
        let shape = shape.into();
        let data = vec![0.0; shape.len()];
        Tensor { shape, data }
    }

    /// Creates a tensor filled with ones.
    pub fn ones(shape: impl Into<Shape>) -> Self {
        Tensor::full(shape, 1.0)
    }

    /// Creates a tensor filled with `value`.
    pub fn full(shape: impl Into<Shape>, value: f32) -> Self {
        let shape = shape.into();
        let data = vec![value; shape.len()];
        Tensor { shape, data }
    }

    /// Creates a tensor from existing data.
    ///
    /// # Panics
    ///
    /// Panics if `data.len()` does not match the element count of `shape`.
    pub fn from_vec(data: Vec<f32>, shape: impl Into<Shape>) -> Self {
        let shape = shape.into();
        assert_eq!(
            data.len(),
            shape.len(),
            "data length {} does not match shape {} ({} elements)",
            data.len(),
            shape,
            shape.len()
        );
        Tensor { shape, data }
    }

    /// Creates a rank-1 tensor from a slice.
    pub fn from_slice(data: &[f32]) -> Self {
        Tensor {
            shape: Shape::from(vec![data.len()]),
            data: data.to_vec(),
        }
    }

    /// Creates a scalar tensor.
    pub fn scalar(value: f32) -> Self {
        Tensor {
            shape: Shape::scalar(),
            data: vec![value],
        }
    }

    /// The tensor's shape.
    pub fn shape(&self) -> &Shape {
        &self.shape
    }

    /// The dimension sizes, as a slice.
    pub fn dims(&self) -> &[usize] {
        self.shape.dims()
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Returns `true` if the tensor holds no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Immutable view of the underlying row-major buffer.
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the underlying row-major buffer.
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the tensor and returns its buffer.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Element at a multi-dimensional index.
    ///
    /// # Panics
    ///
    /// Panics if the index rank or any coordinate is out of bounds.
    pub fn at(&self, index: &[usize]) -> f32 {
        self.data[self.shape.offset(index)]
    }

    /// Returns a tensor with the same data and a new shape.
    ///
    /// # Panics
    ///
    /// Panics if the new shape has a different element count.
    pub fn reshape(&self, shape: impl Into<Shape>) -> Tensor {
        let shape = shape.into();
        assert!(
            self.shape.same_len(&shape),
            "cannot reshape {} ({} elements) to {} ({} elements)",
            self.shape,
            self.shape.len(),
            shape,
            shape.len()
        );
        Tensor {
            shape,
            data: self.data.clone(),
        }
    }

    /// Consuming variant of [`reshape`](Self::reshape) that avoids a copy.
    ///
    /// # Panics
    ///
    /// Panics if the new shape has a different element count.
    pub fn into_reshaped(self, shape: impl Into<Shape>) -> Tensor {
        let shape = shape.into();
        assert!(
            self.shape.same_len(&shape),
            "cannot reshape {} to {}",
            self.shape,
            shape
        );
        Tensor {
            shape,
            data: self.data,
        }
    }

    /// Applies `f` to every element, returning a new tensor.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Tensor {
        Tensor {
            shape: self.shape.clone(),
            data: self.data.iter().map(|&x| f(x)).collect(),
        }
    }

    /// Applies `f` to every element in place.
    pub fn map_inplace(&mut self, f: impl Fn(f32) -> f32) {
        for x in &mut self.data {
            *x = f(*x);
        }
    }

    /// Combines two tensors element-wise with `f`.
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    pub fn zip_map(&self, other: &Tensor, f: impl Fn(f32, f32) -> f32) -> Tensor {
        assert_eq!(
            self.shape, other.shape,
            "shape mismatch: {} vs {}",
            self.shape, other.shape
        );
        Tensor {
            shape: self.shape.clone(),
            data: self
                .data
                .iter()
                .zip(other.data.iter())
                .map(|(&a, &b)| f(a, b))
                .collect(),
        }
    }

    /// Iterates over elements in row-major order.
    pub fn iter(&self) -> std::slice::Iter<'_, f32> {
        self.data.iter()
    }

    /// Mutably iterates over elements in row-major order.
    pub fn iter_mut(&mut self) -> std::slice::IterMut<'_, f32> {
        self.data.iter_mut()
    }
}

impl fmt::Display for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Tensor{} ", self.shape)?;
        let preview: Vec<String> = self
            .data
            .iter()
            .take(8)
            .map(|x| format!("{x:.4}"))
            .collect();
        write!(f, "[{}{}]", preview.join(", "), if self.len() > 8 { ", …" } else { "" })
    }
}

impl Default for Tensor {
    fn default() -> Self {
        Tensor::scalar(0.0)
    }
}

impl FromIterator<f32> for Tensor {
    fn from_iter<I: IntoIterator<Item = f32>>(iter: I) -> Self {
        let data: Vec<f32> = iter.into_iter().collect();
        Tensor::from_slice(&data)
    }
}

impl<'a> IntoIterator for &'a Tensor {
    type Item = &'a f32;
    type IntoIter = std::slice::Iter<'a, f32>;
    fn into_iter(self) -> Self::IntoIter {
        self.data.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_ones_full() {
        assert!(Tensor::zeros([2, 2]).iter().all(|&x| x == 0.0));
        assert!(Tensor::ones([3]).iter().all(|&x| x == 1.0));
        assert!(Tensor::full([4], 2.5).iter().all(|&x| x == 2.5));
    }

    #[test]
    fn from_vec_checks_len() {
        let t = Tensor::from_vec(vec![1.0, 2.0], [2]);
        assert_eq!(t.len(), 2);
    }

    #[test]
    #[should_panic(expected = "does not match shape")]
    fn from_vec_wrong_len_panics() {
        Tensor::from_vec(vec![1.0], [2]);
    }

    #[test]
    fn indexing() {
        let t = Tensor::from_vec((0..24).map(|x| x as f32).collect(), [2, 3, 4]);
        assert_eq!(t.at(&[0, 0, 0]), 0.0);
        assert_eq!(t.at(&[1, 2, 3]), 23.0);
        assert_eq!(t.at(&[1, 0, 2]), 14.0);
    }

    #[test]
    fn reshape_preserves_data() {
        let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], [2, 2]);
        let r = t.reshape([4]);
        assert_eq!(r.as_slice(), &[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(r.dims(), &[4]);
    }

    #[test]
    #[should_panic(expected = "cannot reshape")]
    fn reshape_wrong_len_panics() {
        Tensor::zeros([2, 2]).reshape([3]);
    }

    #[test]
    fn map_and_zip_map() {
        let a = Tensor::from_slice(&[1.0, -2.0]);
        let b = Tensor::from_slice(&[3.0, 4.0]);
        assert_eq!(a.map(f32::abs).as_slice(), &[1.0, 2.0]);
        assert_eq!(a.zip_map(&b, |x, y| x * y).as_slice(), &[3.0, -8.0]);
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn zip_map_shape_mismatch_panics() {
        let a = Tensor::zeros([2]);
        let b = Tensor::zeros([3]);
        a.zip_map(&b, |x, _| x);
    }

    #[test]
    fn collect_from_iterator() {
        let t: Tensor = (0..4).map(|x| x as f32).collect();
        assert_eq!(t.dims(), &[4]);
    }

    #[test]
    fn display_preview() {
        let t = Tensor::zeros([16]);
        let s = t.to_string();
        assert!(s.contains("…"));
    }

    #[test]
    fn scalar_tensor() {
        let t = Tensor::scalar(5.0);
        assert_eq!(t.len(), 1);
        assert_eq!(t.at(&[]), 5.0);
    }
}
