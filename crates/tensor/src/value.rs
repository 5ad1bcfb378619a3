//! Runtime values: a tensor of one of the IR's element types.

use crate::tensor::Tensor;
use crate::{exec_err, Result};
use ramiel_ir::tensor_data::Payload;
use ramiel_ir::{DType, TensorData};

/// A runtime tensor value of any supported dtype.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    F32(Tensor<f32>),
    I64(Tensor<i64>),
    Bool(Tensor<bool>),
}

impl Value {
    pub fn dtype(&self) -> DType {
        match self {
            Value::F32(_) => DType::F32,
            Value::I64(_) => DType::I64,
            Value::Bool(_) => DType::Bool,
        }
    }

    pub fn shape(&self) -> &[usize] {
        match self {
            Value::F32(t) => t.shape(),
            Value::I64(t) => t.shape(),
            Value::Bool(t) => t.shape(),
        }
    }

    pub fn numel(&self) -> usize {
        self.shape().iter().product()
    }

    /// Borrow as f32, or error with the op context.
    pub fn f32(&self) -> Result<&Tensor<f32>> {
        match self {
            Value::F32(t) => Ok(t),
            other => exec_err(format!("expected f32 tensor, got {:?}", other.dtype())),
        }
    }

    pub fn i64(&self) -> Result<&Tensor<i64>> {
        match self {
            Value::I64(t) => Ok(t),
            other => exec_err(format!("expected i64 tensor, got {:?}", other.dtype())),
        }
    }

    pub fn bool(&self) -> Result<&Tensor<bool>> {
        match self {
            Value::Bool(t) => Ok(t),
            other => exec_err(format!("expected bool tensor, got {:?}", other.dtype())),
        }
    }

    /// Build from an IR initializer payload (a copy of it).
    pub fn from_tensor_data(td: &TensorData) -> Result<Value> {
        Value::from_owned_tensor_data(td.clone())
    }

    /// [`Value::from_tensor_data`] that takes the payload instead of copying
    /// it: the element buffer becomes the tensor's shared buffer as is.
    pub fn from_owned_tensor_data(td: TensorData) -> Result<Value> {
        Ok(match td.payload {
            Payload::F32(v) => Value::F32(Tensor::new(td.shape, v)?),
            Payload::I64(v) => Value::I64(Tensor::new(td.shape, v)?),
            Payload::Bool(v) => Value::Bool(Tensor::new(td.shape, v)?),
        })
    }

    /// Convert back into an IR constant payload (used by constant folding).
    pub fn to_tensor_data(&self) -> TensorData {
        match self {
            Value::F32(t) => TensorData {
                shape: t.shape().to_vec(),
                payload: Payload::F32(t.data().to_vec()),
            },
            Value::I64(t) => TensorData {
                shape: t.shape().to_vec(),
                payload: Payload::I64(t.data().to_vec()),
            },
            Value::Bool(t) => TensorData {
                shape: t.shape().to_vec(),
                payload: Payload::Bool(t.data().to_vec()),
            },
        }
    }

    /// Deterministic pseudo-random f32 value for a given shape — used by
    /// tests and example drivers to fabricate inputs.
    pub fn random_f32(shape: Vec<usize>, seed: u64) -> Value {
        let numel: usize = shape.iter().product();
        let mut state = seed ^ 0x5DEE_CE66_D1CE_4E5B;
        let data = (0..numel)
            .map(|_| {
                state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut z = state;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                z ^= z >> 31;
                ((z >> 40) as f32 / (1u64 << 24) as f32) * 2.0 - 1.0
            })
            .collect();
        Value::F32(Tensor::new(shape, data).expect("numel matches by construction"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_through_tensor_data() {
        let v = Value::random_f32(vec![2, 3], 42);
        let td = v.to_tensor_data();
        let v2 = Value::from_tensor_data(&td).unwrap();
        assert_eq!(v, v2);
    }

    #[test]
    fn owned_conversion_keeps_the_buffer() {
        let bits = |v: &Value| -> Vec<u32> {
            v.f32()
                .unwrap()
                .data()
                .iter()
                .map(|x| x.to_bits())
                .collect()
        };
        let td = TensorData::f32(vec![2, 2], vec![1.0, -0.0, f32::NAN, 4.5]);
        let copied = bits(&Value::from_tensor_data(&td).unwrap());
        let ptr = td.as_f32().unwrap().as_ptr();
        let v = Value::from_owned_tensor_data(td).unwrap();
        assert_eq!(v.f32().unwrap().data().as_ptr(), ptr);
        assert_eq!(bits(&v), copied);
        let short = TensorData {
            shape: vec![3],
            payload: Payload::I64(vec![1, 2]),
        };
        assert!(Value::from_owned_tensor_data(short).is_err());
    }

    #[test]
    fn dtype_accessors_enforced() {
        let v = Value::I64(Tensor::new(vec![2], vec![1, 2]).unwrap());
        assert!(v.i64().is_ok());
        assert!(v.f32().is_err());
        assert_eq!(v.dtype(), DType::I64);
        assert_eq!(v.numel(), 2);
    }

    #[test]
    fn random_is_deterministic_and_seed_sensitive() {
        let a = Value::random_f32(vec![8], 1);
        let b = Value::random_f32(vec![8], 1);
        let c = Value::random_f32(vec![8], 2);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }
}
