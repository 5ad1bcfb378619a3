//! The process boundary: spawning and reaping `ramiel serve`, one
//! newline-JSON connection, and the child's `/proc` accounting. The
//! end-to-end metrics depend on nothing but what is in this file:
//!
//! * the invocation `ramiel serve <file.onnx> --port 0 --cache <dir>`, with
//!   every other flag left at the CLI's default;
//! * the `listening on ADDR` line on the child's stdout;
//! * the wire ops `ping`, `infer`, `load`, `stats`, `metrics`, `shutdown`.

use std::fs::File;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::mpsc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// A reply that takes longer than this is a failed operation.
pub const READ_TIMEOUT: Duration = Duration::from_secs(20);
const START_TIMEOUT: Duration = Duration::from_secs(60);
const EXIT_TIMEOUT: Duration = Duration::from_secs(10);

/// The running server child. Killed and reaped on drop, whatever happens.
pub struct ServerChild {
    child: Child,
    pub addr: SocketAddr,
    /// What the server printed before `listening on`: its resolved flags.
    pub banner: Vec<String>,
    stdout: Option<JoinHandle<()>>,
    stderr_log: PathBuf,
}

impl ServerChild {
    /// Spawn `ramiel serve <model_file> --port 0 --cache <cache>` and wait
    /// for its `listening on ADDR` line.
    pub fn spawn(ramiel: &Path, model_file: &Path, cache: &Path) -> Result<ServerChild, String> {
        let stderr_log = cache.with_extension("stderr");
        let stderr =
            File::create(&stderr_log).map_err(|e| format!("{}: {e}", stderr_log.display()))?;
        let mut child = Command::new(ramiel)
            .arg("serve")
            .arg(model_file)
            .args(["--port", "0", "--cache"])
            .arg(cache)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(stderr)
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", ramiel.display()))?;

        // A reader thread owns stdout for the child's whole life, so the
        // child can never block on a full pipe; lines come back on a channel
        // so the wait for `listening on` can time out.
        let out = child.stdout.take().expect("stdout was piped");
        let (tx, rx) = mpsc::channel::<String>();
        let reader = std::thread::spawn(move || {
            for line in BufReader::new(out).lines().map_while(Result::ok) {
                let _ = tx.send(line);
            }
        });
        let mut server = ServerChild {
            child,
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
            banner: Vec::new(),
            stdout: Some(reader),
            stderr_log,
        };
        let deadline = Instant::now() + START_TIMEOUT;
        loop {
            let left = deadline.saturating_duration_since(Instant::now());
            match rx.recv_timeout(left) {
                Ok(line) => match line.strip_prefix("listening on ") {
                    Some(addr) => {
                        server.addr = addr
                            .trim()
                            .parse()
                            .map_err(|e| format!("bad address in `{line}`: {e}"))?;
                        return Ok(server);
                    }
                    None => server.banner.push(line),
                },
                // Disconnected = the child closed stdout, i.e. exited.
                Err(_) => {
                    let log = std::fs::read_to_string(&server.stderr_log).unwrap_or_default();
                    return Err(format!(
                        "`ramiel serve {}` did not start listening: {}",
                        model_file.display(),
                        log.trim()
                    ));
                }
            }
        }
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Ask for a graceful drain, then make sure the process is gone.
    pub fn shutdown(mut self) {
        if let Ok(mut conn) = Conn::connect(self.addr) {
            let mut reply = Vec::new();
            let _ = conn.roundtrip(b"{\"op\":\"shutdown\"}\n", &mut reply);
        }
        let deadline = Instant::now() + EXIT_TIMEOUT;
        while Instant::now() < deadline {
            if matches!(self.child.try_wait(), Ok(Some(_))) {
                break;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        // Drop kills whatever is left and reaps it.
    }
}

impl Drop for ServerChild {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        if let Some(reader) = self.stdout.take() {
            let _ = reader.join();
        }
    }
}

/// When each part of one round trip happened.
#[derive(Debug, Clone, Copy)]
pub struct Stamps {
    /// Before the first byte is written.
    pub start: Instant,
    /// The request is fully written.
    pub sent: Instant,
    /// The first reply byte is readable.
    pub first_byte: Instant,
    /// The reply's newline has been read.
    pub done: Instant,
}

/// One connection speaking newline-delimited JSON. Every read is bounded by
/// [`READ_TIMEOUT`]; after an error the connection is out of step with the
/// server and must be dropped.
pub struct Conn {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Conn {
    pub fn connect(addr: SocketAddr) -> std::io::Result<Conn> {
        let writer = TcpStream::connect_timeout(&addr, READ_TIMEOUT)?;
        writer.set_nodelay(true)?;
        writer.set_read_timeout(Some(READ_TIMEOUT))?;
        writer.set_write_timeout(Some(READ_TIMEOUT))?;
        let reader = BufReader::with_capacity(1 << 16, writer.try_clone()?);
        Ok(Conn { writer, reader })
    }

    /// Write `line` (newline included) and read one reply line into `reply`
    /// (newline excluded).
    pub fn roundtrip(&mut self, line: &[u8], reply: &mut Vec<u8>) -> std::io::Result<Stamps> {
        reply.clear();
        let start = Instant::now();
        self.writer.write_all(line)?;
        let sent = Instant::now();
        if self.reader.fill_buf()?.is_empty() {
            return Err(std::io::ErrorKind::UnexpectedEof.into());
        }
        let first_byte = Instant::now();
        self.reader.read_until(b'\n', reply)?;
        let done = Instant::now();
        if reply.pop() != Some(b'\n') {
            return Err(std::io::ErrorKind::UnexpectedEof.into());
        }
        Ok(Stamps {
            start,
            sent,
            first_byte,
            done,
        })
    }

    /// A control-plane op (`ping`, `stats`, `metrics`): send it, parse the
    /// reply, insist on `ok`.
    pub fn call(&mut self, op: &str) -> Result<(serde_json::Value, Duration), String> {
        let mut reply = Vec::new();
        let stamps = self
            .roundtrip(format!("{{\"op\":\"{op}\"}}\n").as_bytes(), &mut reply)
            .map_err(|e| format!("`{op}`: {e}"))?;
        let value = parse_reply(&reply).map_err(|e| format!("`{op}`: {e}"))?;
        Ok((value, stamps.done - stamps.start))
    }
}

/// Parse a reply line and insist on `"ok": true`.
pub fn parse_reply(reply: &[u8]) -> Result<serde_json::Value, String> {
    let text = std::str::from_utf8(reply).map_err(|e| format!("reply is not UTF-8: {e}"))?;
    let value: serde_json::Value =
        serde_json::from_str(text).map_err(|e| format!("reply is not JSON: {e}"))?;
    if value.get("ok").and_then(|v| v.as_bool()) != Some(true) {
        let field = |k: &str| {
            value
                .get(k)
                .and_then(|v| v.as_str())
                .unwrap_or("?")
                .to_string()
        };
        return Err(format!(
            "server refused: [{}] {}",
            field("code"),
            field("error")
        ));
    }
    Ok(value)
}

fn read_proc(pid: u32, file: &str) -> Result<String, String> {
    let path = format!("/proc/{pid}/{file}");
    let mut text = String::new();
    File::open(&path)
        .and_then(|mut f| f.read_to_string(&mut text))
        .map_err(|e| format!("{path}: {e}"))?;
    Ok(text)
}

/// `utime + stime` of a process in milliseconds. Linux counts both in
/// clock ticks of 1/100 s (`USER_HZ`, fixed by the ABI).
pub fn cpu_ms(pid: u32) -> Result<f64, String> {
    let stat = read_proc(pid, "stat")?;
    // The command name may hold spaces; fields are counted after its `)`.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let ticks: Vec<u64> = rest
        .split_whitespace()
        .skip(11)
        .take(2)
        .filter_map(|f| f.parse().ok())
        .collect();
    match ticks[..] {
        [utime, stime] => Ok((utime + stime) as f64 * 10.0),
        _ => Err(format!("/proc/{pid}/stat: cannot find utime and stime")),
    }
}

/// Peak resident set (`VmHWM`) of a process in MiB.
pub fn peak_rss_mib(pid: u32) -> Result<f64, String> {
    read_proc(pid, "status")?
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| format!("/proc/{pid}/status: no VmHWM"))
}
