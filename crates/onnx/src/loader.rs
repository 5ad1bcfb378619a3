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
use ramiel_ir::runtime_model::MODEL_MAX_BYTES;
use ramiel_ir::Graph;
use std::fs::File;
use std::io::Read;
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
/// import apart: the one model-file reader, bounded by
/// [`MODEL_MAX_BYTES`].
pub fn read_model_file(path: impl AsRef<Path>) -> Result<Vec<u8>, LoadError> {
    read_model_file_within(path, MODEL_MAX_BYTES)
}

/// [`read_model_file`] with an explicit ceiling of `max` bytes. A regular
/// file longer than `max` is refused before any byte is read; any other
/// file is read to at most `max + 1` bytes instead of trusting its length,
/// which a special file such as `/dev/zero` reports as 0.
pub fn read_model_file_within(path: impl AsRef<Path>, max: usize) -> Result<Vec<u8>, LoadError> {
    let path = path.as_ref();
    let err = |reason: String| LoadError::Io {
        path: path.display().to_string(),
        reason,
    };
    let past = || err(format!("file runs past the {max} byte ceiling"));
    let file = File::open(path).map_err(|e| err(e.to_string()))?;
    let len = match file.metadata() {
        Ok(m) if m.is_file() && m.len() > max as u64 => return Err(past()),
        Ok(m) => m.len(),
        Err(_) => 0,
    };
    let mut data = Vec::with_capacity(len.min(max as u64) as usize);
    file.take(max as u64 + 1)
        .read_to_end(&mut data)
        .map_err(|e| err(e.to_string()))?;
    if data.len() > max {
        return Err(past());
    }
    Ok(data)
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

    /// A `len`-byte file under the temp dir, removed on drop.
    struct ScratchFile(std::path::PathBuf);

    impl ScratchFile {
        fn new(len: u64) -> ScratchFile {
            let path = std::env::temp_dir()
                .join(format!("ramiel_loader_len{len}_{}.bin", std::process::id()));
            std::fs::write(&path, vec![7u8; len as usize]).unwrap();
            ScratchFile(path)
        }
    }

    impl Drop for ScratchFile {
        fn drop(&mut self) {
            let _ = std::fs::remove_file(&self.0);
        }
    }

    #[test]
    fn a_file_up_to_the_ceiling_is_read_and_one_byte_more_is_refused() {
        for len in [63, 64] {
            let f = ScratchFile::new(len);
            assert_eq!(read_model_file_within(&f.0, 64).unwrap().len() as u64, len);
        }
        let past = ScratchFile::new(65);
        match read_model_file_within(&past.0, 64) {
            Err(e @ LoadError::Io { .. }) => {
                assert!(e.to_string().contains("past the 64 byte ceiling"), "{e}")
            }
            other => panic!("expected an Io error, got {other:?}"),
        }
    }

    #[test]
    fn an_endless_file_is_refused_at_the_ceiling() {
        let e = read_model_file_within("/dev/zero", 4096).unwrap_err();
        assert!(e.to_string().contains("past the 4096 byte ceiling"), "{e}");
    }

    #[test]
    fn missing_file_is_io_error() {
        assert!(matches!(
            load_model("/nonexistent/ramiel/model.onnx"),
            Err(LoadError::Io { .. })
        ));
    }
}
