//! Seeded inputs, pre-serialized request lines and output digests.
//!
//! Nothing here touches the repo's crates: the tensors are the benchmark's
//! own neutral type, the request lines are written straight in the wire
//! format, and replies are digested from the parsed JSON. The server only
//! ever sees what this file generates.

use std::fmt::Write as _;

/// Requests per model, serialized before timing starts.
pub const POOL: usize = 64;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dtype {
    F32,
    I64,
    Bool,
}

/// One graph input as the benchmark needs it: enough to generate a tensor.
#[derive(Debug, Clone)]
pub struct InputSpec {
    pub name: String,
    pub dtype: Dtype,
    pub shape: Vec<usize>,
}

#[derive(Debug, Clone, PartialEq)]
pub enum Elems {
    F32(Vec<f32>),
    I64(Vec<i64>),
    Bool(Vec<bool>),
}

#[derive(Debug, Clone, PartialEq)]
pub struct Tensor {
    pub name: String,
    pub shape: Vec<usize>,
    pub elems: Elems,
}

/// splitmix64: small, seedable, and not shared with the code under test.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in [-1, 1) on a 2^-23 grid, so every value, and every power
    /// of two times it, is an exact f32.
    fn unit_f32(&mut self) -> f32 {
        (self.next_u64() >> 40) as f32 / (1u32 << 23) as f32 - 1.0
    }

    /// Fisher-Yates permutation of `0..n`.
    pub fn permutation(&mut self, n: usize) -> Vec<usize> {
        let mut p: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            p.swap(i, (self.next_u64() % (i as u64 + 1)) as usize);
        }
        p
    }
}

/// Ids stay in the range `ramiel_runtime::synth_inputs` uses, so embedding
/// gathers stay in bounds.
const ID_RANGE: u64 = 64;

/// Per zoo model, log2 of the amplitude of its f32 inputs. Under the zoo's
/// synthetic weights the classifiers attenuate an input in [-1,1) until the
/// logits differ by less than f32 resolution, and every request gets the
/// same softmax; the correctness gate could then not see an ignored or
/// mis-decoded input, a stale cached output or swapped batch entries. Each
/// amplitude is the middle of the range of powers of two (at least 2^24
/// wide) over which all 64 pool entries of the model give distinct outputs:
/// below it the outputs coincide, above it the softmax saturates. A model's
/// position here also salts its inputs.
const AMPLITUDE_LOG2: [(&str, i32); 8] = [
    ("squeezenet", 60),
    ("googlenet", 36),
    ("inception-v3", 44),
    ("inception-v4", 64),
    ("yolo-v5", 16),
    ("retinanet", 0),
    ("bert", 0),
    ("nasnet", 54),
];

/// The `index`-th input set of `model`: f32 uniform in [-a, a) with `a` the
/// model's amplitude, ids in [0,64), bools fair. A pure function of
/// `(seed, model, index)`.
pub fn inputs(specs: &[InputSpec], seed: u64, model: &str, index: usize) -> Vec<Tensor> {
    let (salt, &(_, log2)) = AMPLITUDE_LOG2
        .iter()
        .enumerate()
        .find(|(_, (m, _))| *m == model)
        .unwrap_or_else(|| panic!("`{model}` is not one of the eight zoo models"));
    let amplitude = 2f32.powi(log2);
    let mut rng = Rng::new(
        seed.wrapping_mul(0x2545_f491_4f6c_dd1d)
            ^ (salt as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15)
            ^ (index as u64).wrapping_mul(0xd6e8_feb8_6659_fd93),
    );
    specs
        .iter()
        .map(|s| {
            let n: usize = s.shape.iter().product();
            let elems = match s.dtype {
                Dtype::F32 => Elems::F32((0..n).map(|_| rng.unit_f32() * amplitude).collect()),
                Dtype::I64 => {
                    Elems::I64((0..n).map(|_| (rng.next_u64() % ID_RANGE) as i64).collect())
                }
                Dtype::Bool => Elems::Bool((0..n).map(|_| rng.next_u64() & 1 == 1).collect()),
            };
            Tensor {
                name: s.name.clone(),
                shape: s.shape.clone(),
                elems,
            }
        })
        .collect()
}

fn write_json_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

fn write_list<T>(out: &mut String, items: &[T], mut one: impl FnMut(&mut String, &T)) {
    out.push('[');
    for (i, x) in items.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        one(out, x);
    }
    out.push(']');
}

/// One `infer` request in the wire format, newline-terminated. `model` is
/// left out for the server's default model. f32s are printed as the exact
/// decimal of their f64 widening, which is what the server's own encoder
/// emits, so request sizes match what a `ramiel` client would send.
pub fn infer_line(id: u64, model: Option<&str>, tensors: &[Tensor]) -> Vec<u8> {
    let mut s = String::new();
    let _ = write!(s, "{{\"id\":{id},\"op\":\"infer\",");
    if let Some(m) = model {
        s.push_str("\"model\":");
        write_json_string(&mut s, m);
        s.push(',');
    }
    s.push_str("\"inputs\":{");
    for (i, t) in tensors.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        write_json_string(&mut s, &t.name);
        s.push_str(":{\"shape\":");
        write_list(&mut s, &t.shape, |o, d| {
            let _ = write!(o, "{d}");
        });
        s.push_str(",\"payload\":{");
        match &t.elems {
            Elems::F32(v) => {
                s.push_str("\"F32\":");
                write_list(&mut s, v, |o, x| {
                    let _ = write!(o, "{:?}", f64::from(*x));
                });
            }
            Elems::I64(v) => {
                s.push_str("\"I64\":");
                write_list(&mut s, v, |o, x| {
                    let _ = write!(o, "{x}");
                });
            }
            Elems::Bool(v) => {
                s.push_str("\"Bool\":");
                write_list(&mut s, v, |o, x| {
                    let _ = write!(o, "{x}");
                });
            }
        }
        s.push_str("}}");
    }
    s.push_str("}}\n");
    s.into_bytes()
}

/// One pinned `load` request, newline-terminated.
pub fn load_line(id: u64, model: &str, source: &str, sha256: &str) -> Vec<u8> {
    let mut s = String::new();
    let _ = write!(s, "{{\"id\":{id},\"op\":\"load\",\"model\":");
    write_json_string(&mut s, model);
    s.push_str(",\"source\":");
    write_json_string(&mut s, source);
    s.push_str(",\"sha256\":");
    write_json_string(&mut s, sha256);
    s.push_str("}\n");
    s.into_bytes()
}

/// FNV-1a over output names, shapes and element bit patterns. Non-finite
/// f32s hash as one token: JSON carries them as `null`, so their payload
/// bits cannot survive the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(u64);

impl Digest {
    pub fn new() -> Digest {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, b: &[u8]) {
        for &x in b {
            self.0 = (self.0 ^ u64::from(x)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn word(&mut self, w: u64) {
        self.bytes(&w.to_le_bytes());
    }

    pub fn f32(&mut self, x: f32) {
        self.word(if x.is_finite() {
            u64::from(x.to_bits())
        } else {
            u64::MAX
        });
    }

    pub fn i64(&mut self, x: i64) {
        self.word(x as u64);
    }

    pub fn bool(&mut self, x: bool) {
        self.word(u64::from(x));
    }

    /// Start one tensor; its elements follow through `f32`/`i64`/`bool`.
    pub fn tensor_header(&mut self, name: &str, shape: &[usize], dtype: Dtype) {
        self.bytes(name.as_bytes());
        self.word(shape.len() as u64);
        for &d in shape {
            self.word(d as u64);
        }
        self.word(dtype as u64);
    }

    pub fn hex(self) -> String {
        format!("{:016x}", self.0)
    }
}

/// Digest of named tensors, visited in name order (the wire's order).
pub fn digest_tensors(tensors: &[Tensor]) -> String {
    let mut sorted: Vec<&Tensor> = tensors.iter().collect();
    sorted.sort_by(|a, b| a.name.cmp(&b.name));
    let mut d = Digest::new();
    for t in sorted {
        match &t.elems {
            Elems::F32(v) => {
                d.tensor_header(&t.name, &t.shape, Dtype::F32);
                v.iter().for_each(|&x| d.f32(x));
            }
            Elems::I64(v) => {
                d.tensor_header(&t.name, &t.shape, Dtype::I64);
                v.iter().for_each(|&x| d.i64(x));
            }
            Elems::Bool(v) => {
                d.tensor_header(&t.name, &t.shape, Dtype::Bool);
                v.iter().for_each(|&x| d.bool(x));
            }
        }
    }
    d.hex()
}

/// Digest of the `outputs` object of a parsed reply. `Err` names what is
/// malformed; a malformed reply is a failed operation.
pub fn digest_reply_outputs(outputs: &serde_json::Value) -> Result<String, String> {
    let entries = outputs
        .as_object()
        .ok_or_else(|| "`outputs` is not an object".to_string())?;
    let mut sorted: Vec<&(String, serde_json::Value)> = entries.iter().collect();
    sorted.sort_by(|a, b| a.0.cmp(&b.0));
    let mut d = Digest::new();
    for (name, t) in sorted {
        let shape: Vec<usize> = t
            .get("shape")
            .and_then(|s| s.as_array())
            .ok_or_else(|| format!("output `{name}` has no shape"))?
            .iter()
            .map(|x| x.as_u64().map(|v| v as usize))
            .collect::<Option<_>>()
            .ok_or_else(|| format!("output `{name}` has a non-integer dim"))?;
        let payload = t
            .get("payload")
            .and_then(|p| p.as_object())
            .and_then(|p| p.first())
            .ok_or_else(|| format!("output `{name}` has no payload"))?;
        let items = payload
            .1
            .as_array()
            .ok_or_else(|| format!("output `{name}` payload is not an array"))?;
        if items.len() != shape.iter().product::<usize>() {
            return Err(format!(
                "output `{name}`: element count disagrees with shape"
            ));
        }
        let bad = || format!("output `{name}` has a malformed element");
        match payload.0.as_str() {
            "F32" => {
                d.tensor_header(name, &shape, Dtype::F32);
                for x in items {
                    // `null` is how the wire spells a non-finite float.
                    let v = if x.is_null() {
                        f32::NAN
                    } else {
                        x.as_f64().ok_or_else(bad)? as f32
                    };
                    d.f32(v);
                }
            }
            "I64" => {
                d.tensor_header(name, &shape, Dtype::I64);
                for x in items {
                    d.i64(x.as_i64().ok_or_else(bad)?);
                }
            }
            "Bool" => {
                d.tensor_header(name, &shape, Dtype::Bool);
                for x in items {
                    d.bool(x.as_bool().ok_or_else(bad)?);
                }
            }
            other => return Err(format!("output `{name}` has unknown payload `{other}`")),
        }
    }
    Ok(d.hex())
}
