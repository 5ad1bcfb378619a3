//! `ramiel pull <url>` fetches a model into the content-addressed cache;
//! flags: `--sha256 H` (refuse other bytes, caching nothing) and `--cache
//! DIR` (default `$RAMIEL_CACHE`, `~/.cache/ramiel`, `./.ramiel-cache`).
//! `ramiel fileserver <dir>` serves a directory on loopback HTTP (for the
//! registry CI gate) until killed; flag: `--port N` (default 7878).

use ramiel_serve::Registry;
use std::path::PathBuf;

/// The registry `pull` and `serve` share, rooted at `--cache DIR` if given.
pub fn open(cache: Option<&str>) -> Registry {
    Registry::new(cache.map_or_else(Registry::default_root, PathBuf::from))
}

args!(PullArgs "pull";
    sha256: Option<String> = None, "--sha256";
    cache: Option<String> = None, "--cache";
);

args!(FileserverArgs "fileserver"; port: u16 = 7878, "--port";);

pub fn pull(source: &str, flags: &[String]) -> Result<(), String> {
    let a = PullArgs::parse(flags)?;
    let pulled = open(a.cache.as_deref())
        .pull(source, a.sha256.as_deref())
        .map_err(|e| format!("[{}] {e}", e.code()))?;
    let hit = if pulled.cache_hit { ", cache hit" } else { "" };
    println!("pulled {} ({} bytes{hit})", pulled.source, pulled.bytes);
    println!("sha256 {}", pulled.sha256);
    println!("cached {}", pulled.path.display());
    Ok(())
}

pub fn fileserver(dir: &str, flags: &[String]) -> Result<(), String> {
    let a = FileserverArgs::parse(flags)?;
    let root = PathBuf::from(dir);
    if !root.is_dir() {
        return Err(format!("`{dir}` is not a directory"));
    }
    let listener = std::net::TcpListener::bind(("127.0.0.1", a.port))
        .map_err(|e| format!("bind 127.0.0.1:{}: {e}", a.port))?;
    ramiel_serve::registry::serve_dir(listener, root).map_err(|e| e.to_string())
}
