//! Remote model registry: resolve `file://` / `http://` model references
//! into an on-disk content-addressed cache with sha256 checksum pinning.
//!
//! Layout under the registry root:
//!
//! ```text
//! <root>/sha256/<hex-digest>    # the model bytes, named by their digest
//! <root>/manifest.json          # digest → {source, bytes, fetched_unix}
//! ```
//!
//! Files are immutable once written (a content address never changes
//! meaning), writes go through a temp-file + rename so a crashed pull never
//! leaves a half-written entry under a valid digest, and a pinned pull that
//! finds its digest already cached is served without touching the network.
//! A checksum mismatch refuses the pull *before* anything is written: the
//! cache only ever holds bytes that hashed to their own name.
//!
//! Errors carry stable `RG-*` codes, mirroring the `SV-*`/`ONNX-*`
//! conventions elsewhere in the stack.

use crate::sha256;
use ramiel_runtime::limits;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Structured registry failure; `code()` is the stable machine-readable
/// class.
#[derive(Debug, Clone, PartialEq)]
pub enum RegistryError {
    /// Unsupported or malformed reference scheme (e.g. `https://` — no TLS
    /// stack is available in this build).
    Scheme { reference: String, reason: String },
    /// HTTP fetch failure (connect, malformed response, non-200 status).
    Http { url: String, reason: String },
    /// Local filesystem failure (read of a `file://` source, cache write).
    Io { path: String, reason: String },
    /// The fetched bytes do not hash to the pinned digest. Nothing was
    /// cached.
    Checksum { expected: String, actual: String },
    /// The manifest exists but cannot be parsed.
    Manifest { path: String, reason: String },
}

impl RegistryError {
    pub fn code(&self) -> &'static str {
        match self {
            RegistryError::Scheme { .. } => "RG-SCHEME",
            RegistryError::Http { .. } => "RG-HTTP",
            RegistryError::Io { .. } => "RG-IO",
            RegistryError::Checksum { .. } => "RG-CHECKSUM",
            RegistryError::Manifest { .. } => "RG-MANIFEST",
        }
    }
}

impl std::fmt::Display for RegistryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{}] ", self.code())?;
        match self {
            RegistryError::Scheme { reference, reason } => {
                write!(f, "cannot resolve `{reference}`: {reason}")
            }
            RegistryError::Http { url, reason } => write!(f, "GET {url} failed: {reason}"),
            RegistryError::Io { path, reason } => write!(f, "{path}: {reason}"),
            RegistryError::Checksum { expected, actual } => write!(
                f,
                "checksum mismatch: pinned sha256 {expected}, fetched bytes hash to {actual}; \
                 refusing to cache or load"
            ),
            RegistryError::Manifest { path, reason } => {
                write!(f, "corrupt manifest {path}: {reason}")
            }
        }
    }
}

impl std::error::Error for RegistryError {}

/// One manifest row: provenance for a cached digest.
#[derive(Debug, Clone, Serialize, Deserialize, PartialEq)]
pub struct ManifestEntry {
    /// Where the bytes came from (`file://…`, `http://…`, or a plain path).
    pub source: String,
    /// Size in bytes.
    pub bytes: u64,
    /// Unix seconds at fetch time (provenance only; never used for cache
    /// validity — content addresses don't expire).
    pub fetched_unix: u64,
}

#[derive(Debug, Default, Serialize, Deserialize)]
struct Manifest {
    models: BTreeMap<String, ManifestEntry>,
}

/// A successfully resolved model reference.
#[derive(Debug, Clone)]
pub struct Pulled {
    /// Lowercase hex sha256 of the bytes — the content address.
    pub sha256: String,
    /// Cache path holding the bytes (`<root>/sha256/<digest>`).
    pub path: PathBuf,
    /// The reference that was resolved.
    pub source: String,
    /// Size in bytes.
    pub bytes: u64,
    /// True when the pinned digest was already cached and no fetch ran.
    pub cache_hit: bool,
    /// Time spent hashing the bytes (zero on a cache hit: a content address
    /// is trusted, not re-hashed).
    pub hash: Duration,
    /// Time spent writing the blob and its manifest row (zero on a hit).
    pub store: Duration,
}

impl Pulled {
    fn hit(pin: &str, path: PathBuf, reference: &str, bytes: u64) -> Pulled {
        Pulled {
            sha256: pin.to_string(),
            path,
            source: reference.to_string(),
            bytes,
            cache_hit: true,
            hash: Duration::ZERO,
            store: Duration::ZERO,
        }
    }
}

/// The bytes behind a reference, in memory once: what [`Registry::fetch`]
/// read and [`Registry::admit`] hashes and stores, so a caller that goes on
/// to decode the model never reads the file a second time.
///
/// Fields are private: `admit` trusts `cache_hit`, so only `fetch` may set it.
pub struct Fetched {
    data: Vec<u8>,
    source: String,
    cache_hit: bool,
    fetch: Duration,
    /// The validated, lowercased pin.
    pin: Option<String>,
}

impl Fetched {
    pub fn data(&self) -> &[u8] {
        &self.data
    }

    pub fn into_data(self) -> Vec<u8> {
        self.data
    }

    /// True when the bytes are the cached blob of the pinned digest
    /// (admitted when first stored, so [`Registry::admit`] has nothing left
    /// to do).
    pub fn cache_hit(&self) -> bool {
        self.cache_hit
    }

    /// Time spent reading the blob or fetching the source.
    pub fn fetch_time(&self) -> Duration {
        self.fetch
    }
}

/// Serialises manifest read-modify-write cycles. Process-wide rather than
/// per [`Registry`], so two registries opened on one root are covered too.
static MANIFEST_LOCK: Mutex<()> = Mutex::new(());

/// Makes temp-file names unique per call, not just per process: connection
/// threads pull concurrently.
static TMP_SEQ: AtomicU64 = AtomicU64::new(0);

fn tmp_name(stem: &str) -> String {
    format!(
        ".tmp-{}-{}-{stem}",
        std::process::id(),
        TMP_SEQ.fetch_add(1, Ordering::Relaxed)
    )
}

fn io_err(path: &Path, e: std::io::Error) -> RegistryError {
    RegistryError::Io {
        path: path.display().to_string(),
        reason: e.to_string(),
    }
}

/// The on-disk content-addressed model cache.
#[derive(Debug, Clone)]
pub struct Registry {
    root: PathBuf,
}

impl Registry {
    /// A registry rooted at `root` (created lazily on first pull).
    pub fn new(root: impl Into<PathBuf>) -> Registry {
        Registry { root: root.into() }
    }

    /// Default cache root: `$RAMIEL_CACHE`, else `~/.cache/ramiel`, else
    /// `./.ramiel-cache`.
    pub fn default_root() -> PathBuf {
        if let Ok(dir) = std::env::var("RAMIEL_CACHE") {
            return PathBuf::from(dir);
        }
        if let Ok(home) = std::env::var("HOME") {
            return Path::new(&home).join(".cache").join("ramiel");
        }
        PathBuf::from(".ramiel-cache")
    }

    pub fn root(&self) -> &Path {
        &self.root
    }

    /// Cache path for a digest, whether or not it exists yet.
    pub fn blob_path(&self, sha256_hex: &str) -> PathBuf {
        self.root.join("sha256").join(sha256_hex)
    }

    /// The cached blob for `sha256_hex`, if present.
    pub fn lookup(&self, sha256_hex: &str) -> Option<PathBuf> {
        let p = self.blob_path(sha256_hex);
        p.is_file().then_some(p)
    }

    /// Resolve `reference` into the cache, verifying against `pin` when
    /// given. `file://<path>` and plain paths read the local filesystem;
    /// `http://host[:port]/path` fetches over TCP. A pinned pull whose
    /// digest is already cached returns without fetching — or reading the
    /// blob: callers that want the bytes use [`fetch`](Self::fetch) and
    /// [`admit`](Self::admit).
    pub fn pull(&self, reference: &str, pin: Option<&str>) -> Result<Pulled, RegistryError> {
        let pin = checked_pin(reference, pin)?;
        if let Some(pin) = &pin {
            if let Some(path) = self.lookup(pin) {
                let bytes = std::fs::metadata(&path).map(|m| m.len()).unwrap_or(0);
                return Ok(Pulled::hit(pin, path, reference, bytes));
            }
        }
        self.admit(&self.fetch_uncached(reference, pin)?)
    }

    /// The bytes behind `reference`, read exactly once: the cached blob when
    /// `pin` is already cached, the source otherwise. Nothing is trusted or
    /// written yet — that is [`admit`](Self::admit).
    pub fn fetch(&self, reference: &str, pin: Option<&str>) -> Result<Fetched, RegistryError> {
        let pin = checked_pin(reference, pin)?;
        let start = Instant::now();
        if let Some(path) = pin.as_ref().and_then(|p| self.lookup(p)) {
            let data = std::fs::read(&path).map_err(|e| io_err(&path, e))?;
            return Ok(Fetched {
                data,
                source: reference.to_string(),
                cache_hit: true,
                fetch: start.elapsed(),
                pin,
            });
        }
        self.fetch_uncached(reference, pin)
    }

    fn fetch_uncached(
        &self,
        reference: &str,
        pin: Option<String>,
    ) -> Result<Fetched, RegistryError> {
        let start = Instant::now();
        let data = fetch_source(reference)?;
        Ok(Fetched {
            data,
            source: reference.to_string(),
            cache_hit: false,
            fetch: start.elapsed(),
            pin,
        })
    }

    /// Hash fetched bytes, refuse them if they miss the pin — *before*
    /// anything is written — and otherwise store them under their digest and
    /// record the manifest row. A cache hit was admitted when it was first
    /// stored and passes straight through.
    pub fn admit(&self, fetched: &Fetched) -> Result<Pulled, RegistryError> {
        let bytes = fetched.data.len() as u64;
        if let (true, Some(pin)) = (fetched.cache_hit, &fetched.pin) {
            return Ok(Pulled::hit(
                pin,
                self.blob_path(pin),
                &fetched.source,
                bytes,
            ));
        }
        let start = Instant::now();
        let digest = sha256::hex_digest(&fetched.data);
        let hash = start.elapsed();
        if let Some(pin) = &fetched.pin {
            if *pin != digest {
                return Err(RegistryError::Checksum {
                    expected: pin.clone(),
                    actual: digest,
                });
            }
        }
        let start = Instant::now();
        let path = self.store(&digest, &fetched.data)?;
        self.record(&digest, &fetched.source, bytes)?;
        Ok(Pulled {
            sha256: digest,
            path,
            source: fetched.source.clone(),
            bytes,
            cache_hit: false,
            hash,
            store: start.elapsed(),
        })
    }

    /// Write `data` under its digest via temp-file + rename.
    fn store(&self, digest: &str, data: &[u8]) -> Result<PathBuf, RegistryError> {
        let blob_dir = self.root.join("sha256");
        std::fs::create_dir_all(&blob_dir).map_err(|e| io_err(&blob_dir, e))?;
        let dest = blob_dir.join(digest);
        if dest.is_file() {
            return Ok(dest); // immutable by construction: same digest, same bytes
        }
        let tmp = blob_dir.join(tmp_name(digest));
        std::fs::write(&tmp, data).map_err(|e| io_err(&tmp, e))?;
        std::fs::rename(&tmp, &dest).map_err(|e| io_err(&dest, e))?;
        Ok(dest)
    }

    /// Merge one entry into the manifest. The whole read-modify-write runs
    /// under [`MANIFEST_LOCK`]: two concurrent pulls would otherwise both
    /// read the old manifest and the later rename would drop the other's row.
    fn record(&self, digest: &str, source: &str, bytes: u64) -> Result<(), RegistryError> {
        // The guarded data is `()`: a panic while holding the lock cannot
        // leave it inconsistent, so a poisoned lock is still usable.
        let _guard = MANIFEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let mut manifest = self.manifest()?;
        let fetched_unix = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_secs())
            .unwrap_or(0);
        manifest.insert(
            digest.to_string(),
            ManifestEntry {
                source: source.to_string(),
                bytes,
                fetched_unix,
            },
        );
        let path = self.root.join("manifest.json");
        let body = serde_json::to_string_pretty(&Manifest { models: manifest }).map_err(|e| {
            RegistryError::Manifest {
                path: path.display().to_string(),
                reason: e.to_string(),
            }
        })?;
        let tmp = self.root.join(tmp_name("manifest"));
        std::fs::write(&tmp, body).map_err(|e| io_err(&tmp, e))?;
        std::fs::rename(&tmp, &path).map_err(|e| io_err(&path, e))?;
        Ok(())
    }

    /// The manifest contents (empty when no pull has run yet).
    pub fn manifest(&self) -> Result<BTreeMap<String, ManifestEntry>, RegistryError> {
        let path = self.root.join("manifest.json");
        let body = match std::fs::read_to_string(&path) {
            Ok(b) => b,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(BTreeMap::new()),
            Err(e) => return Err(io_err(&path, e)),
        };
        serde_json::from_str::<Manifest>(&body)
            .map(|m| m.models)
            .map_err(|e| RegistryError::Manifest {
                path: path.display().to_string(),
                reason: e.to_string(),
            })
    }
}

/// A pin as the cache keys it: 64 lowercase hex digits. A malformed pin is
/// a bad argument (`RG-SCHEME`), not a digest mismatch.
fn checked_pin(reference: &str, pin: Option<&str>) -> Result<Option<String>, RegistryError> {
    let Some(pin) = pin else { return Ok(None) };
    let pin = pin.to_ascii_lowercase();
    if pin.len() != 64 || !pin.bytes().all(|b| b.is_ascii_hexdigit()) {
        return Err(RegistryError::Scheme {
            reference: reference.to_string(),
            reason: format!("`{pin}` is not a 64-hex-digit sha256"),
        });
    }
    Ok(Some(pin))
}

/// Fetch the raw bytes behind a reference.
fn fetch_source(reference: &str) -> Result<Vec<u8>, RegistryError> {
    if let Some(rest) = reference.strip_prefix("file://") {
        return read_file(rest);
    }
    if reference.starts_with("http://") {
        return http_get(reference);
    }
    if let Some((scheme, _)) = reference.split_once("://") {
        return Err(RegistryError::Scheme {
            reference: reference.to_string(),
            reason: format!(
                "scheme `{scheme}://` is not supported (no TLS stack in this build); \
                 use http:// or file://"
            ),
        });
    }
    // No scheme: a plain local path.
    read_file(reference)
}

/// Read a local model file of at most [`limits::FETCH_MAX_BYTES`]: the one
/// reader of `file://` and plain-path sources, for the registry and for
/// [`Server::fetch`](crate::Server::fetch).
pub(crate) fn read_file(path: &str) -> Result<Vec<u8>, RegistryError> {
    read_file_within(path, limits::FETCH_MAX_BYTES)
}

/// [`read_file`] with an explicit ceiling. It reads at most `max + 1` bytes
/// instead of trusting the file's length, which a special file such as
/// `/dev/zero` reports as 0; the length only sizes the buffer.
fn read_file_within(path: &str, max: usize) -> Result<Vec<u8>, RegistryError> {
    let err = |reason: String| RegistryError::Io {
        path: path.to_string(),
        reason,
    };
    let file = std::fs::File::open(path).map_err(|e| err(e.to_string()))?;
    let hint = file.metadata().map_or(0, |m| m.len()).min(max as u64);
    let mut data = Vec::with_capacity(hint as usize);
    file.take(max as u64 + 1)
        .read_to_end(&mut data)
        .map_err(|e| err(e.to_string()))?;
    if data.len() > max {
        return Err(err(format!("file runs past the {max} byte ceiling")));
    }
    Ok(data)
}

/// Minimal HTTP/1.0 GET over `std::net` (`Connection: close`, body read to
/// EOF — no chunked encoding to handle). Enough for the loopback fixture
/// server and any plain static file host. Connecting and every read are
/// bounded by [`limits::FETCH_TIMEOUT_MS`], the body by
/// [`limits::FETCH_MAX_BYTES`].
fn http_get(url: &str) -> Result<Vec<u8>, RegistryError> {
    http_get_within(
        url,
        limits::FETCH_MAX_BYTES,
        Duration::from_millis(limits::FETCH_TIMEOUT_MS),
    )
}

/// [`http_get`] with an explicit body ceiling and per-operation timeout.
fn http_get_within(
    url: &str,
    max_body: usize,
    timeout: Duration,
) -> Result<Vec<u8>, RegistryError> {
    let err = |reason: String| RegistryError::Http {
        url: url.to_string(),
        reason,
    };
    let rest = url.strip_prefix("http://").expect("caller checked scheme");
    let (host_port, path) = match rest.split_once('/') {
        Some((hp, p)) => (hp, format!("/{p}")),
        None => (rest, "/".to_string()),
    };
    let host_port = if host_port.contains(':') {
        host_port.to_string()
    } else {
        format!("{host_port}:80")
    };
    let connect_err = |e: std::io::Error| err(format!("connect {host_port}: {e}"));
    let mut last = None;
    let mut stream = None;
    for addr in host_port.to_socket_addrs().map_err(connect_err)? {
        match TcpStream::connect_timeout(&addr, timeout) {
            Ok(s) => {
                stream = Some(s);
                break;
            }
            Err(e) => last = Some(e),
        }
    }
    let mut stream = stream
        .ok_or_else(|| connect_err(last.unwrap_or_else(|| std::io::ErrorKind::NotFound.into())))?;
    let io_err = |what: &str, e: std::io::Error| match e.kind() {
        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut => {
            err(format!("{what}: timed out after {timeout:?}"))
        }
        _ => err(format!("{what}: {e}")),
    };
    stream
        .set_read_timeout(Some(timeout))
        .and_then(|()| stream.set_write_timeout(Some(timeout)))
        .map_err(|e| io_err("set socket timeouts", e))?;
    let host = host_port
        .rsplit_once(':')
        .map(|(h, _)| h)
        .unwrap_or(&host_port);
    stream
        .write_all(
            format!("GET {path} HTTP/1.0\r\nHost: {host}\r\nConnection: close\r\n\r\n").as_bytes(),
        )
        .map_err(|e| io_err("send request", e))?;

    // The head, read in chunks until its terminator; it may not run past
    // the body ceiling either.
    let mut response = Vec::new();
    let mut chunk = [0u8; 8192];
    let header_end = loop {
        if response.len() > max_body {
            return Err(err(format!(
                "response head runs past the {max_body} byte ceiling"
            )));
        }
        let from = response.len().saturating_sub(3);
        match stream.read(&mut chunk) {
            Ok(0) => return Err(err("malformed response (no header terminator)".into())),
            Ok(n) => response.extend_from_slice(&chunk[..n]),
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(io_err("read response", e)),
        }
        if let Some(i) = response[from..].windows(4).position(|w| w == b"\r\n\r\n") {
            break from + i;
        }
    };
    let head = String::from_utf8_lossy(&response[..header_end]).into_owned();
    let status_line = head.lines().next().unwrap_or_default();
    let status = status_line
        .split_whitespace()
        .nth(1)
        .ok_or_else(|| err(format!("malformed status line `{status_line}`")))?;
    if status != "200" {
        return Err(err(format!("status {status}")));
    }
    let expected = match head
        .lines()
        .find(|l| l.to_ascii_lowercase().starts_with("content-length:"))
    {
        Some(len_line) => {
            let value = len_line[15..].trim();
            let n: usize = value
                .parse()
                .map_err(|_| err(format!("unparsable Content-Length `{value}`")))?;
            if n > max_body {
                return Err(err(format!(
                    "Content-Length {n} exceeds the {max_body} byte ceiling"
                )));
            }
            Some(n)
        }
        None => None,
    };

    // The body, in place behind the head's bytes: one byte past what may
    // arrive is enough to tell an overlong body.
    let limit = expected.unwrap_or(max_body);
    let mut body = response;
    body.drain(..header_end + 4);
    body.reserve(expected.map_or(0, |n| (n + 1).saturating_sub(body.len())));
    let unread = (limit + 1).saturating_sub(body.len()) as u64;
    stream
        .take(unread)
        .read_to_end(&mut body)
        .map_err(|e| io_err("read response", e))?;
    match expected {
        Some(n) if body.len() < n => Err(err(format!(
            "truncated body: Content-Length {n}, got {} bytes",
            body.len()
        ))),
        Some(n) if body.len() > n => Err(err(format!("body longer than its Content-Length {n}"))),
        None if body.len() > max_body => {
            Err(err(format!("body exceeds the {max_body} byte ceiling")))
        }
        _ => Ok(body),
    }
}

/// A loopback static-file HTTP server for tests and the CI registry
/// round-trip: serves files under `root` with `Content-Length`, 404 for
/// anything missing or escaping the root. Blocks the calling thread; one
/// thread per connection. Prints `fileserver on ADDR` for port discovery.
pub fn serve_dir(listener: std::net::TcpListener, root: PathBuf) -> std::io::Result<()> {
    let addr = listener.local_addr()?;
    println!("fileserver on {addr}");
    for stream in listener.incoming() {
        let Ok(stream) = stream else { continue };
        let root = root.clone();
        std::thread::Builder::new()
            .name("ramiel-fileserver-conn".into())
            .spawn(move || serve_file_conn(stream, &root))
            .expect("spawn fileserver connection thread");
    }
    Ok(())
}

fn serve_file_conn(mut stream: TcpStream, root: &Path) {
    use std::io::BufRead;
    let mut reader = std::io::BufReader::new(match stream.try_clone() {
        Ok(s) => s,
        Err(_) => return,
    });
    let mut request_line = String::new();
    if reader.read_line(&mut request_line).is_err() {
        return;
    }
    // Drain headers so well-behaved clients aren't reset mid-send.
    let mut line = String::new();
    while reader.read_line(&mut line).is_ok() && line.trim() != "" {
        line.clear();
    }
    let path = request_line.split_whitespace().nth(1).unwrap_or("/");
    let rel = path.trim_start_matches('/');
    let safe = !rel.split('/').any(|seg| seg == "..") && !rel.is_empty();
    let body = if safe {
        std::fs::read(root.join(rel)).ok()
    } else {
        None
    };
    let response = match body {
        Some(data) => {
            let mut r = format!(
                "HTTP/1.0 200 OK\r\nContent-Length: {}\r\nContent-Type: application/octet-stream\r\n\r\n",
                data.len()
            )
            .into_bytes();
            r.extend_from_slice(&data);
            r
        }
        None => b"HTTP/1.0 404 Not Found\r\nContent-Length: 0\r\n\r\n".to_vec(),
    };
    let _ = stream.write_all(&response);
    let _ = stream.flush();
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufRead;

    /// `http_get_within` against a listener that answers one request with
    /// `response`, whatever was asked (`None`: it answers nothing and holds
    /// the connection open until the client leaves).
    fn get_from_stub_within(
        response: Option<&'static [u8]>,
        max_body: usize,
        timeout: Duration,
    ) -> Result<Vec<u8>, RegistryError> {
        let listener = std::net::TcpListener::bind(("127.0.0.1", 0)).unwrap();
        let addr = listener.local_addr().unwrap();
        let stub = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            let mut reader = std::io::BufReader::new(stream.try_clone().unwrap());
            let mut line = String::new();
            while reader.read_line(&mut line).is_ok_and(|n| n > 0) && line.trim() != "" {
                line.clear();
            }
            match response {
                // The client may hang up before reading all of it.
                Some(response) => {
                    let _ = stream.write_all(response);
                }
                None => while reader.read_line(&mut line).is_ok_and(|n| n > 0) {},
            }
        });
        let got = http_get_within(&format!("http://{addr}/model.onnx"), max_body, timeout);
        stub.join().unwrap();
        got
    }

    /// [`get_from_stub_within`] under the shipped ceiling and timeout.
    fn get_from_stub(response: &'static [u8]) -> Result<Vec<u8>, RegistryError> {
        get_from_stub_within(
            Some(response),
            limits::FETCH_MAX_BYTES,
            Duration::from_millis(limits::FETCH_TIMEOUT_MS),
        )
    }

    #[test]
    fn a_silent_server_fails_within_the_timeout() {
        let timeout = Duration::from_millis(200);
        let (tx, rx) = std::sync::mpsc::channel();
        let client = std::thread::spawn(move || tx.send(get_from_stub_within(None, 16, timeout)));
        let e = (rx.recv_timeout(10 * timeout))
            .expect("a silent server must fail the fetch within its timeout")
            .unwrap_err();
        client.join().unwrap().unwrap();
        assert_eq!(e.code(), "RG-HTTP");
        assert!(e.to_string().contains("timed out"), "{e}");
    }

    #[test]
    fn a_body_at_the_ceiling_passes_and_one_byte_more_fails() {
        let short = Duration::from_secs(5);
        let at = get_from_stub_within(Some(b"HTTP/1.0 200 OK\r\n\r\nwhole"), 5, short);
        assert_eq!(at.unwrap(), b"whole");
        let e = get_from_stub_within(Some(b"HTTP/1.0 200 OK\r\n\r\nwholes"), 5, short).unwrap_err();
        assert_eq!(e.code(), "RG-HTTP");
        assert!(e.to_string().contains("5 byte ceiling"), "{e}");
    }

    #[test]
    fn a_content_length_past_the_ceiling_is_refused_unread() {
        let response = b"HTTP/1.0 200 OK\r\nContent-Length: 6\r\n\r\nwholes";
        let e = get_from_stub_within(Some(response), 5, Duration::from_secs(5)).unwrap_err();
        assert_eq!(e.code(), "RG-HTTP");
        assert!(e.to_string().contains("Content-Length 6 exceeds"), "{e}");
    }

    #[test]
    fn a_body_shorter_than_its_content_length_is_refused() {
        let e = get_from_stub(b"HTTP/1.0 200 OK\r\nContent-Length: 12\r\n\r\nshort").unwrap_err();
        assert_eq!(e.code(), "RG-HTTP");
        assert!(e.to_string().contains("truncated body"), "{e}");
    }

    #[test]
    fn an_unparsable_content_length_is_refused() {
        let e = get_from_stub(b"HTTP/1.0 200 OK\r\nContent-Length: 12x\r\n\r\nshort").unwrap_err();
        assert_eq!(e.code(), "RG-HTTP");
        assert!(e.to_string().contains("Content-Length `12x`"), "{e}");
    }

    /// A scratch file of `len` bytes, removed when the guard drops.
    struct ScratchFile(PathBuf);

    impl ScratchFile {
        fn of_len(tag: &str, len: usize) -> ScratchFile {
            let path = std::env::temp_dir().join(format!(
                "ramiel_read_within_{tag}_{}.bin",
                std::process::id()
            ));
            std::fs::write(&path, vec![7u8; len]).unwrap();
            ScratchFile(path)
        }

        fn path(&self) -> &str {
            self.0.to_str().unwrap()
        }
    }

    impl Drop for ScratchFile {
        fn drop(&mut self) {
            let _ = std::fs::remove_file(&self.0);
        }
    }

    #[test]
    fn a_file_at_the_ceiling_loads_and_one_byte_more_fails() {
        let at = ScratchFile::of_len("at", 64);
        assert_eq!(read_file_within(at.path(), 64).unwrap(), vec![7u8; 64]);
        let past = ScratchFile::of_len("past", 65);
        let e = read_file_within(past.path(), 64).unwrap_err();
        assert_eq!(e.code(), "RG-IO");
        assert!(e.to_string().contains("64 byte ceiling"), "{e}");
        // `file://` and plain paths both go through the shipped ceiling.
        assert_eq!(fetch_source(at.path()).unwrap().len(), 64);
        let url = format!("file://{}", past.path());
        assert_eq!(fetch_source(&url).unwrap().len(), 65);
    }

    #[test]
    fn an_endless_file_fails_at_the_ceiling() {
        let e = read_file_within("/dev/zero", 4096).unwrap_err();
        assert_eq!(e.code(), "RG-IO");
        assert!(e.to_string().contains("4096 byte ceiling"), "{e}");
    }

    #[test]
    fn a_body_matching_its_content_length_is_returned() {
        let body = get_from_stub(b"HTTP/1.0 200 OK\r\nContent-Length: 5\r\n\r\nwhole").unwrap();
        assert_eq!(body, b"whole");
    }
}
