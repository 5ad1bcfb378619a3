//! `ramiel request`: a client for a running `ramiel serve` that sends
//! `--count` ops over one connection and prints each response. `metrics`
//! and `trace` print their payload once it validates (Prometheus samples
//! parse; the Chrome trace passes `validate_chrome_trace`): CI gates.
//! Flags: `--port N` (default 7878), `--op
//! <ping|infer_synth|stats|metrics|trace|load|shutdown>` (default
//! `infer_synth`), `--seed N`, `--count N` (default 1), `--deadline-ms N`;
//! `--op load` hot-swaps in `--source <ref>` (optional `--sha256` pin).

use serde_json::json;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;

args!(Args "request";
    port: u16 = 7878, "--port";
    op: String = "infer_synth".into(), "--op";
    seed: u64 = 0, "--seed";
    count: usize = 1, "--count";
    deadline_ms: Option<u64> = None, "--deadline-ms";
    source: Option<String> = None, "--source";
    sha256: Option<String> = None, "--sha256";
);

/// A connection to a running `ramiel serve` on loopback.
pub struct Conn {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Conn {
    pub fn open(port: u16) -> Result<Conn, String> {
        let stream = TcpStream::connect(("127.0.0.1", port))
            .map_err(|e| format!("connect 127.0.0.1:{port}: {e}"))?;
        Ok(Conn {
            writer: stream.try_clone().map_err(|e| e.to_string())?,
            reader: BufReader::new(stream),
        })
    }

    /// One round trip: send `req` (no trailing newline needed) and return
    /// the response line with its parse.
    pub fn call(&mut self, req: &str) -> Result<(String, serde_json::Value), String> {
        self.writer
            .write_all(format!("{req}\n").as_bytes())
            .map_err(|e| e.to_string())?;
        let mut resp = String::new();
        self.reader
            .read_line(&mut resp)
            .map_err(|e| e.to_string())?;
        if resp.is_empty() {
            return Err("server closed the connection".into());
        }
        let v = serde_json::from_str(&resp).map_err(|e| e.to_string())?;
        Ok((resp, v))
    }
}

pub fn main(flags: &[String]) -> Result<(), String> {
    let a = Args::parse(flags)?;
    let mut conn = Conn::open(a.port)?;
    for i in 0..a.count.max(1) {
        let req = match a.op.as_str() {
            "infer_synth" => json!({
                "id": i, "op": "infer_synth", "seed": a.seed + i as u64,
                "deadline_ms": a.deadline_ms,
            }),
            op @ ("ping" | "stats" | "shutdown" | "metrics" | "trace") => {
                json!({"id": i, "op": op})
            }
            "load" => {
                let source = a.source.as_deref();
                let source = source.ok_or("--op load needs --source <model reference>")?;
                json!({"id": i, "op": "load", "source": source, "sha256": a.sha256})
            }
            other => {
                return Err(format!(
                    "unknown op `{other}` (ping|infer_synth|stats|metrics|trace|load|shutdown)"
                ))
            }
        };
        let (resp, v) = conn.call(&req.to_string())?;
        match a.op.as_str() {
            "metrics" => {
                let text = v
                    .get("metrics")
                    .and_then(|m| m.as_str())
                    .ok_or("metrics response has no `metrics` field")?;
                let samples = ramiel::obs::parse_prometheus(text);
                if samples.is_empty() {
                    return Err("metrics exposition parsed to zero samples".into());
                }
                print!("{text}");
                eprintln!("# {} samples parsed", samples.len());
            }
            "trace" => {
                let trace = v
                    .get("trace")
                    .ok_or("trace response has no `trace` field")?;
                let stats = ramiel::obs::validate_chrome_trace(&trace.to_string())
                    .map_err(|e| format!("trace is not a valid Chrome trace: {e}"))?;
                println!("{trace}");
                eprintln!(
                    "# valid Chrome trace: {} events, {} spans",
                    stats.total_events, stats.complete_spans
                );
            }
            _ => print!("{resp}"),
        }
        if v.get("ok").and_then(|b| b.as_bool()) != Some(true) {
            return Err(format!("request {i} failed"));
        }
    }
    Ok(())
}
