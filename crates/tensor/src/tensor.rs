//! The dense row-major tensor type.
//!
//! ## Sharing and ownership
//!
//! Tensor data lives in a shared immutable buffer (`Arc<Vec<T>>`), so
//! `Tensor::clone` — and therefore `Value::clone`, cross-cluster channel
//! sends, and initializer-table fetches — is a refcount bump, not a deep
//! copy. Kernels read through [`Tensor::data`] (`&[T]`) exactly as before.
//! Mutation goes through [`Tensor::data_mut`], which is copy-on-write: it
//! clones the buffer only when another handle still shares it, so no clone
//! can ever observe another handle's writes. [`Tensor::reshaped`] shares the
//! buffer outright (same data, new shape).

use crate::{exec_err, Result};
use std::sync::Arc;

/// A dense, row-major (C-order) tensor over element type `T`.
///
/// A rank-0 tensor (empty shape) is a scalar holding exactly one element.
#[derive(Debug, Clone, PartialEq)]
pub struct Tensor<T> {
    shape: Vec<usize>,
    data: Arc<Vec<T>>,
}

/// `shape` must describe exactly `len` elements. Shapes arrive from the
/// serve socket, so the product is checked: a wrapped element count must not
/// match a short buffer.
fn check_len(shape: &[usize], len: usize) -> Result<()> {
    match ramiel_ir::shape::checked_numel(shape) {
        Some(numel) if numel == len => Ok(()),
        Some(numel) => exec_err(format!(
            "tensor shape {shape:?} wants {numel} elements, got {len}"
        )),
        None => exec_err(format!(
            "tensor shape {shape:?} overflows the element count, got {len}"
        )),
    }
}

impl<T: Copy + Default> Tensor<T> {
    /// Build a tensor from shape and data; errors on a size mismatch.
    pub fn new(shape: Vec<usize>, data: Vec<T>) -> Result<Self> {
        check_len(&shape, data.len())?;
        Ok(Tensor {
            shape,
            data: Arc::new(data),
        })
    }

    /// Build a tensor that shares an existing buffer; errors on a size
    /// mismatch. The zero-copy counterpart of [`Tensor::new`].
    pub fn from_shared(shape: Vec<usize>, data: Arc<Vec<T>>) -> Result<Self> {
        check_len(&shape, data.len())?;
        Ok(Tensor { shape, data })
    }

    /// A tensor filled with `T::default()` (zeros for numeric types).
    pub fn zeros(shape: Vec<usize>) -> Self {
        let numel = shape.iter().product();
        Tensor {
            shape,
            data: Arc::new(vec![T::default(); numel]),
        }
    }

    /// A tensor filled with a constant.
    pub fn full(shape: Vec<usize>, v: T) -> Self {
        let numel = shape.iter().product();
        Tensor {
            shape,
            data: Arc::new(vec![v; numel]),
        }
    }

    /// A rank-0 scalar.
    pub fn scalar(v: T) -> Self {
        Tensor {
            shape: vec![],
            data: Arc::new(vec![v]),
        }
    }

    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    pub fn rank(&self) -> usize {
        self.shape.len()
    }

    pub fn numel(&self) -> usize {
        self.data.len()
    }

    pub fn data(&self) -> &[T] {
        &self.data
    }

    /// Mutable view of the elements — copy-on-write. If other handles share
    /// this buffer, they keep the old data and this tensor gets a private
    /// copy; a uniquely-owned buffer is mutated in place with no copy.
    pub fn data_mut(&mut self) -> &mut [T] {
        let v: &mut Vec<T> = Arc::make_mut(&mut self.data);
        v.as_mut_slice()
    }

    /// Mutable view of the elements, **only** when this is the sole handle
    /// to the buffer (`Arc::get_mut`). Unlike [`Tensor::data_mut`] this never
    /// copies: a shared buffer yields `None` and the caller must fall back to
    /// an allocating path. The in-place executor rewrite relies on this as
    /// its safety gate — any surviving alias (initializer table, channel
    /// message, reshape view, caller-held handle) keeps the refcount above
    /// one and forces the copy path, so no other handle can observe a write.
    pub fn try_data_mut(&mut self) -> Option<&mut [T]> {
        Arc::get_mut(&mut self.data).map(|v| v.as_mut_slice())
    }

    /// The shared buffer itself — for zero-copy reuse ([`Tensor::from_shared`])
    /// and for keying caches by buffer identity.
    pub fn data_arc(&self) -> &Arc<Vec<T>> {
        &self.data
    }

    /// Stable identity of the underlying buffer while any handle is alive.
    /// Two tensors with equal `data_ptr` share storage. Only meaningful as a
    /// cache key if the keyed entry also keeps the buffer alive (otherwise
    /// the address can be reused by a later allocation).
    pub fn data_ptr(&self) -> usize {
        Arc::as_ptr(&self.data) as usize
    }

    /// True if `self` and `other` share one underlying buffer.
    pub fn shares_data(&self, other: &Tensor<T>) -> bool {
        Arc::ptr_eq(&self.data, &other.data)
    }

    /// Consume into the raw parts. Unwraps the buffer without copying when
    /// this is the last handle; otherwise clones it once.
    pub fn into_parts(self) -> (Vec<usize>, Vec<T>) {
        let data = Arc::try_unwrap(self.data).unwrap_or_else(|shared| (*shared).clone());
        (self.shape, data)
    }

    /// Reinterpret with a new shape of equal element count. Shares the
    /// buffer — reshapes are free.
    pub fn reshaped(&self, shape: Vec<usize>) -> Result<Self> {
        Tensor::from_shared(shape, Arc::clone(&self.data))
    }

    /// Row-major strides for the current shape.
    pub fn strides(&self) -> Vec<usize> {
        strides_of(&self.shape)
    }

    /// The single element of a scalar / one-element tensor.
    pub fn item(&self) -> Result<T> {
        if self.data.len() != 1 {
            return exec_err(format!(
                "item() on tensor with {} elements",
                self.data.len()
            ));
        }
        Ok(self.data[0])
    }
}

/// Row-major strides for a shape.
pub fn strides_of(shape: &[usize]) -> Vec<usize> {
    let mut strides = vec![1usize; shape.len()];
    for i in (0..shape.len().saturating_sub(1)).rev() {
        strides[i] = strides[i + 1] * shape[i + 1];
    }
    strides
}

/// Strides that read a tensor of `shape` at coordinates of a `rank`-axis
/// index space it broadcasts into: right-aligned, and 0 on every axis the
/// tensor does not have or has with extent 1.
pub fn broadcast_strides(shape: &[usize], rank: usize) -> Vec<usize> {
    let lead = rank - shape.len();
    let mut out = vec![0usize; rank];
    for ((o, &d), st) in out[lead..].iter_mut().zip(shape).zip(strides_of(shape)) {
        if d != 1 {
            *o = st;
        }
    }
    out
}

/// Row-major walk of the index space `shape` that carries `N` linear
/// offsets along, one per stride set — an odometer: stepping an axis is one
/// add per offset and a carry one subtract, so no element pays a div/mod
/// per axis.
///
/// `row(offsets, len, steps)` is called once per index of the outer axes
/// (all but the last), in row-major order. The caller runs the innermost
/// axis itself: element `i < len` of the row sits at
/// `offsets[s] + i * steps[s]`. A rank-0 shape is one row of one element; a
/// shape with a zero extent has no rows.
pub fn walk_rows<const N: usize>(
    shape: &[usize],
    strides: [&[usize]; N],
    mut row: impl FnMut([usize; N], usize, [usize; N]),
) {
    let Some((&len, outer)) = shape.split_last() else {
        return row([0; N], 1, [0; N]);
    };
    if shape.contains(&0) {
        return;
    }
    let steps = strides.map(|s| s[outer.len()]);
    let mut coords = vec![0usize; outer.len()];
    let mut offs = [0usize; N];
    loop {
        row(offs, len, steps);
        let mut ax = outer.len();
        loop {
            if ax == 0 {
                return;
            }
            ax -= 1;
            coords[ax] += 1;
            for (o, s) in offs.iter_mut().zip(&strides) {
                *o += s[ax];
            }
            if coords[ax] < outer[ax] {
                break;
            }
            coords[ax] = 0;
            for (o, s) in offs.iter_mut().zip(&strides) {
                *o -= s[ax] * outer[ax];
            }
        }
    }
}

/// The per-element index arithmetic [`walk_rows`] replaced, kept as the
/// reference the walker-based kernels are unit-tested against.
#[cfg(test)]
pub(crate) mod reference {
    /// Convert a linear index into per-axis coordinates for `shape`.
    pub fn unravel(mut idx: usize, shape: &[usize], coords: &mut [usize]) {
        for i in (0..shape.len()).rev() {
            coords[i] = idx % shape[i];
            idx /= shape[i];
        }
    }

    /// Linear offset of `coords` within a tensor of the given strides, where
    /// `coords` may be longer than `strides` (leading axes are broadcast
    /// away) and any axis with extent 1 contributes 0.
    pub fn broadcast_offset(coords: &[usize], shape: &[usize], strides: &[usize]) -> usize {
        let lead = coords.len() - shape.len();
        let mut off = 0;
        for (i, (&s, &st)) in shape.iter().zip(strides).enumerate() {
            let c = if s == 1 { 0 } else { coords[lead + i] };
            off += c * st;
        }
        off
    }
}

#[cfg(test)]
mod tests {
    use super::reference::{broadcast_offset, unravel};
    use super::*;

    #[test]
    fn construction_and_shape_checks() {
        let t = Tensor::new(vec![2, 3], vec![1.0f32; 6]).unwrap();
        assert_eq!(t.numel(), 6);
        assert_eq!(t.strides(), vec![3, 1]);
        assert!(Tensor::<f32>::new(vec![2, 3], vec![0.0; 5]).is_err());
        // (2^62 + 1) * 4 wraps to 4: a wrapped count must not match 4 elements.
        let wrapping = vec![(1usize << 62) + 1, 4];
        assert!(Tensor::<f32>::new(wrapping.clone(), vec![0.0; 4]).is_err());
        assert!(Tensor::<f32>::from_shared(wrapping, Arc::new(vec![0.0; 4])).is_err());
        let s = Tensor::scalar(7i64);
        assert_eq!(s.rank(), 0);
        assert_eq!(s.item().unwrap(), 7);
    }

    #[test]
    fn strides_and_unravel_roundtrip() {
        let shape = [2usize, 3, 4];
        let strides = strides_of(&shape);
        assert_eq!(strides, vec![12, 4, 1]);
        let mut coords = [0usize; 3];
        for idx in 0..24 {
            unravel(idx, &shape, &mut coords);
            let lin: usize = coords.iter().zip(&strides).map(|(c, s)| c * s).sum();
            assert_eq!(lin, idx);
        }
    }

    #[test]
    fn broadcast_offset_ignores_unit_axes() {
        // tensor of shape [1, 3] broadcast over coords in [2, 3]
        let shape = [1usize, 3];
        let strides = strides_of(&shape);
        assert_eq!(broadcast_offset(&[1, 2], &shape, &strides), 2);
        // lower-rank tensor [3] against coords [2,3]
        let shape2 = [3usize];
        let st2 = strides_of(&shape2);
        assert_eq!(broadcast_offset(&[1, 2], &shape2, &st2), 2);
    }

    #[test]
    fn walk_rows_tracks_every_offset_in_row_major_order() {
        // A transposed view and a broadcast operand walked together.
        let shape = [2usize, 3, 4];
        let transposed = [1usize, 8, 2]; // strides of a [3, 4, 2]-ish layout
        let small = [1usize, 4];
        let bcast = broadcast_strides(&small, 3);
        assert_eq!(bcast, vec![0, 0, 1]);
        let mut seen = Vec::new();
        walk_rows(&shape, [&transposed, &bcast], |offs, len, steps| {
            for i in 0..len {
                seen.push([offs[0] + i * steps[0], offs[1] + i * steps[1]]);
            }
        });
        let mut coords = [0usize; 3];
        let want: Vec<[usize; 2]> = (0..24)
            .map(|idx| {
                unravel(idx, &shape, &mut coords);
                [
                    coords.iter().zip(&transposed).map(|(c, s)| c * s).sum(),
                    broadcast_offset(&coords, &small, &strides_of(&small)),
                ]
            })
            .collect();
        assert_eq!(seen, want);
    }

    #[test]
    fn walk_rows_rank_zero_is_one_element_and_empty_shapes_have_no_rows() {
        let mut rows = Vec::new();
        walk_rows(&[], [&[]], |offs, len, steps| rows.push((offs, len, steps)));
        assert_eq!(rows, vec![([0], 1, [0])]);
        for shape in [&[0usize][..], &[3, 0], &[0, 3]] {
            let strides = strides_of(shape);
            walk_rows(shape, [&strides], |_, _, _| panic!("{shape:?} has no rows"));
        }
    }

    #[test]
    fn reshaped_checks_numel() {
        let t = Tensor::new(vec![2, 3], vec![0i64; 6]).unwrap();
        assert!(t.reshaped(vec![3, 2]).is_ok());
        assert!(t.reshaped(vec![4, 2]).is_err());
    }

    #[test]
    fn clone_shares_reshape_shares_into_parts_unwraps() {
        let t = Tensor::new(vec![2, 3], vec![1.0f32; 6]).unwrap();
        let c = t.clone();
        assert!(t.shares_data(&c));
        assert_eq!(t.data_ptr(), c.data_ptr());
        let r = t.reshaped(vec![3, 2]).unwrap();
        assert!(t.shares_data(&r));
        drop((c, r));
        // last handle: into_parts must not copy (element pointer preserved)
        let elems_before = t.data().as_ptr();
        let (_, data) = t.into_parts();
        assert_eq!(data.as_ptr(), elems_before);
        assert_eq!(data.len(), 6);
    }

    #[test]
    fn try_data_mut_requires_unique_ownership() {
        let mut a = Tensor::new(vec![2], vec![1.0f32, 2.0]).unwrap();
        let b = a.clone();
        assert!(a.try_data_mut().is_none(), "shared buffer must refuse");
        drop(b);
        let p = a.data_ptr();
        a.try_data_mut().unwrap()[0] = 9.0;
        assert_eq!(a.data(), &[9.0, 2.0]);
        assert_eq!(a.data_ptr(), p, "unique mutation must be in place");
    }

    #[test]
    fn data_mut_is_copy_on_write() {
        let a = Tensor::new(vec![3], vec![1.0f32, 2.0, 3.0]).unwrap();
        let mut b = a.clone();
        b.data_mut()[0] = 99.0;
        assert_eq!(a.data(), &[1.0, 2.0, 3.0], "original must be untouched");
        assert_eq!(b.data(), &[99.0, 2.0, 3.0]);
        assert!(!a.shares_data(&b), "write must have unshared the buffer");
        // uniquely-owned: mutation is in place, no new allocation
        let p = b.data_ptr();
        b.data_mut()[1] = 5.0;
        assert_eq!(b.data_ptr(), p);
    }
}
