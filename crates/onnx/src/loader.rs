//! The model-file loader: read a file, then import it as ONNX.
//!
//! ONNX is the only model encoding, so every path from bytes to a
//! [`Graph`] — a CLI file argument, `ramiel serve <file|url>`, a TCP `load`
//! and autoload — ends in [`import_model`]: decode, validate, shape
//! inference and lints. This is what lets `ramiel
//! run/check/analyze/profile/serve` take an `.onnx` path anywhere they take
//! a built-in model name; a file that is not ONNX fails with an `ONNX-*`
//! code whatever its name.

use crate::{import_model, OnnxError};
use ramiel_ir::Graph;
use std::path::Path;

/// A failure from [`load_model`]: the read or the import.
#[derive(Debug)]
pub enum LoadError {
    /// The file could not be read at all.
    Io { path: String, reason: String },
    /// The importer refused the content (carries the structured `ONNX-*`
    /// code).
    Onnx(OnnxError),
}

impl std::fmt::Display for LoadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LoadError::Io { path, reason } => write!(f, "cannot read `{path}`: {reason}"),
            LoadError::Onnx(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for LoadError {}

impl From<OnnxError> for LoadError {
    fn from(e: OnnxError) -> Self {
        LoadError::Onnx(e)
    }
}

/// Load an ONNX model file: [`read_model_file`] then [`import_model`], so
/// the graph comes back validated, shape-inferred and verifier-clean.
pub fn load_model(path: impl AsRef<Path>) -> Result<Graph, LoadError> {
    Ok(import_model(&read_model_file(path)?)?)
}

/// The read half of [`load_model`], for callers that time the read and the
/// import apart.
pub fn read_model_file(path: impl AsRef<Path>) -> Result<Vec<u8>, LoadError> {
    let path = path.as_ref();
    std::fs::read(path).map_err(|e| LoadError::Io {
        path: path.display().to_string(),
        reason: e.to_string(),
    })
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
    fn loads_onnx_under_any_name_and_refuses_text() {
        let g = tiny();
        let dir = std::env::temp_dir();
        let pid = std::process::id();
        let onnx = dir.join(format!("ramiel_loader_{pid}.onnx"));
        let json = dir.join(format!("ramiel_loader_{pid}.json"));
        crate::save_onnx(&g, &onnx).unwrap();
        std::fs::write(&json, crate::export_model(&g)).unwrap();
        assert_eq!(load_model(&onnx).unwrap(), g);
        assert_eq!(load_model(&json).unwrap(), g);
        // Text is not a model encoding, whatever the file is called.
        std::fs::write(&onnx, r#"{"name":"x","nodes":[]}"#).unwrap();
        match load_model(&onnx) {
            Err(LoadError::Onnx(e)) => assert_eq!(e.code(), "ONNX-WIRE", "{e}"),
            other => panic!("expected ONNX-WIRE, got {other:?}"),
        }
        for p in [onnx, json] {
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
