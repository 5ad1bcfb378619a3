//! The unified model loader: one entry point for every on-disk model
//! encoding the pipeline understands.
//!
//! Dispatch is by content, with the file extension as a tie-breaker:
//!
//! - `.onnx` extension → protobuf import, regardless of content;
//! - a leading `0x08` byte (the protobuf key of `ModelProto.ir_version`,
//!   always the first field serializers emit, and a control character no
//!   text encoding starts with) → protobuf import;
//! - content that is valid UTF-8 starting with `{` → the JSON graph format;
//! - other valid UTF-8 → the human-readable text format;
//! - binary content → protobuf import (an `.onnx` file under any name).
//!
//! This is what lets `ramiel run/check/analyze/profile/serve` take a real
//! `.onnx` path anywhere they previously took a native model file.

use crate::{import_model, OnnxError};
use ramiel_ir::{Graph, IrError};
use std::path::Path;

/// A failure from [`load_model`], tagged by which decoder ran.
#[derive(Debug)]
pub enum LoadError {
    /// The file could not be read at all.
    Io { path: String, reason: String },
    /// The content dispatched to the ONNX importer and failed there
    /// (carries the structured `ONNX-*` code).
    Onnx(OnnxError),
    /// The content dispatched to the native JSON / text decoder and
    /// failed there.
    Native(IrError),
}

impl std::fmt::Display for LoadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LoadError::Io { path, reason } => write!(f, "cannot read `{path}`: {reason}"),
            LoadError::Onnx(e) => write!(f, "{e}"),
            LoadError::Native(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for LoadError {}

impl From<OnnxError> for LoadError {
    fn from(e: OnnxError) -> Self {
        LoadError::Onnx(e)
    }
}

/// Load a model file of any supported encoding (see module docs for the
/// dispatch rules). ONNX imports come back validated, shape-inferred and
/// verifier-clean; JSON/text graphs are returned as stored, matching the
/// previous `model_file::load` contract (callers that distrust the source
/// run `ramiel check`).
pub fn load_model(path: impl AsRef<Path>) -> Result<Graph, LoadError> {
    let path = path.as_ref();
    decode_model_file(path, &read_model_file(path)?)
}

/// The read half of [`load_model`], for callers that time the read and the
/// decode apart.
pub fn read_model_file(path: impl AsRef<Path>) -> Result<Vec<u8>, LoadError> {
    let path = path.as_ref();
    std::fs::read(path).map_err(|e| LoadError::Io {
        path: path.display().to_string(),
        reason: e.to_string(),
    })
}

/// The decode half of [`load_model`]: `bytes` as read from `path`, whose
/// `.onnx` extension routes them to the protobuf importer whatever they
/// hold; any other name dispatches by content ([`load_model_bytes`]).
pub fn decode_model_file(path: impl AsRef<Path>, bytes: &[u8]) -> Result<Graph, LoadError> {
    let is_onnx_ext = path
        .as_ref()
        .extension()
        .is_some_and(|e| e.eq_ignore_ascii_case("onnx"));
    if is_onnx_ext {
        return Ok(import_model(bytes)?);
    }
    load_model_bytes(bytes)
}

/// [`load_model`] for content already in memory (the registry hands over the
/// bytes it fetched and hashed, so nothing is read twice): dispatch by
/// content alone, as for a file without the `.onnx` extension.
pub fn load_model_bytes(bytes: &[u8]) -> Result<Graph, LoadError> {
    // 0x08 is the `ir_version` field key — the ONNX magic in practice, and
    // a control byte no JSON/text model starts with.
    if bytes.first() == Some(&0x08) {
        return Ok(import_model(bytes)?);
    }
    match std::str::from_utf8(bytes) {
        Ok(text) if text.trim_start().starts_with('{') => {
            ramiel_ir::model_file::from_json(text).map_err(LoadError::Native)
        }
        Ok(text) => ramiel_ir::text_format::from_text(text).map_err(LoadError::Native),
        // Binary under a non-.onnx name: protobuf is the only binary
        // encoding we have, so route it to the importer (whose ONNX-WIRE
        // errors identify junk files precisely).
        Err(_) => Ok(import_model(bytes)?),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ramiel_ir::{DType, GraphBuilder};

    fn tiny() -> Graph {
        let mut b = GraphBuilder::new("tiny");
        let x = b.input("x", DType::F32, vec![1, 4]);
        let y = b.op("act", ramiel_ir::OpKind::Relu, vec![x]);
        b.output(&y);
        b.finish().unwrap()
    }

    #[test]
    fn dispatches_all_three_encodings() {
        let g = tiny();
        let dir = std::env::temp_dir();
        let pid = std::process::id();
        let json = dir.join(format!("ramiel_loader_{pid}.json"));
        let text = dir.join(format!("ramiel_loader_{pid}.rmodel"));
        let onnx = dir.join(format!("ramiel_loader_{pid}.onnx"));
        ramiel_ir::model_file::save(&g, &json).unwrap();
        ramiel_ir::model_file::save(&g, &text).unwrap();
        crate::save_onnx(&g, &onnx).unwrap();
        assert_eq!(load_model(&json).unwrap(), g);
        assert_eq!(load_model(&text).unwrap(), g);
        assert_eq!(load_model(&onnx).unwrap(), g);
        for p in [json, text, onnx] {
            std::fs::remove_file(p).ok();
        }
    }

    #[test]
    fn binary_without_extension_routes_to_onnx() {
        let g = tiny();
        let path = std::env::temp_dir().join(format!("ramiel_loader_noext_{}", std::process::id()));
        std::fs::write(&path, crate::export_model(&g)).unwrap();
        assert_eq!(load_model(&path).unwrap(), g);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn missing_file_is_io_error() {
        assert!(matches!(
            load_model("/nonexistent/ramiel/model.onnx"),
            Err(LoadError::Io { .. })
        ));
    }
}
