//! Constant tensor payloads stored in a graph's initializer table.
//!
//! Initializers hold model weights and the small integer tensors (shapes,
//! slice bounds, gather indices) that ONNX exporters embed in the graph and
//! that the constant-propagation pass folds.

use crate::op::DType;
use serde::{Deserialize, Serialize};

/// A constant tensor: static shape plus a typed payload.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TensorData {
    /// Static shape; empty means a scalar.
    pub shape: Vec<usize>,
    /// Element payload.
    pub payload: Payload,
}

/// Typed element storage for [`TensorData`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Payload {
    F32(Vec<f32>),
    I64(Vec<i64>),
    Bool(Vec<bool>),
}

impl TensorData {
    /// Construct an f32 tensor, checking that `shape` and `data` agree.
    pub fn f32(shape: Vec<usize>, data: Vec<f32>) -> Self {
        assert_eq!(
            shape.iter().product::<usize>(),
            data.len(),
            "f32 tensor shape/data mismatch"
        );
        TensorData {
            shape,
            payload: Payload::F32(data),
        }
    }

    /// Construct an i64 tensor, checking that `shape` and `data` agree.
    pub fn i64(shape: Vec<usize>, data: Vec<i64>) -> Self {
        assert_eq!(
            shape.iter().product::<usize>(),
            data.len(),
            "i64 tensor shape/data mismatch"
        );
        TensorData {
            shape,
            payload: Payload::I64(data),
        }
    }

    /// A scalar f32 constant.
    pub fn scalar_f32(v: f32) -> Self {
        TensorData::f32(vec![], vec![v])
    }

    /// A 1-D i64 vector (the usual encoding of shapes and axes).
    pub fn vec_i64(v: Vec<i64>) -> Self {
        TensorData::i64(vec![v.len()], v)
    }

    /// Element type of the payload.
    pub fn dtype(&self) -> DType {
        match self.payload {
            Payload::F32(_) => DType::F32,
            Payload::I64(_) => DType::I64,
            Payload::Bool(_) => DType::Bool,
        }
    }

    /// Total number of elements (saturating; equals the payload length for
    /// every tensor built through a checked constructor).
    pub fn numel(&self) -> usize {
        crate::shape::saturating_numel(&self.shape)
    }

    /// Borrow the i64 payload, if this is an integer tensor.
    pub fn as_i64(&self) -> Option<&[i64]> {
        match &self.payload {
            Payload::I64(v) => Some(v),
            _ => None,
        }
    }

    /// Borrow the f32 payload, if this is a float tensor.
    pub fn as_f32(&self) -> Option<&[f32]> {
        match &self.payload {
            Payload::F32(v) => Some(v),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_accessors() {
        let t = TensorData::f32(vec![2, 3], vec![0.0; 6]);
        assert_eq!(t.numel(), 6);
        assert_eq!(t.dtype(), DType::F32);
        assert!(t.as_f32().is_some());
        assert!(t.as_i64().is_none());

        let s = TensorData::vec_i64(vec![1, 2, 3, 4]);
        assert_eq!(s.shape, vec![4]);
        assert_eq!(s.as_i64().unwrap(), &[1, 2, 3, 4]);

        let c = TensorData::scalar_f32(2.5);
        assert_eq!(c.numel(), 1);
        assert!(c.shape.is_empty());
    }

    /// The serve wire carries tensors in this JSON shape (see `ramiel-serve`
    /// `tcp.rs`); the derives are what keep it stable.
    #[test]
    fn wire_json_shape_is_pinned() {
        let json = r#"{"shape":[2],"payload":{"F32":[1.0,2.5]}}"#;
        let t: TensorData = serde_json::from_str(json).unwrap();
        assert_eq!(t, TensorData::f32(vec![2], vec![1.0, 2.5]));
        assert_eq!(serde_json::to_string(&t).unwrap(), json);
    }

    #[test]
    #[should_panic(expected = "shape/data mismatch")]
    fn mismatched_shape_panics() {
        let _ = TensorData::f32(vec![2, 2], vec![1.0; 3]);
    }
}
