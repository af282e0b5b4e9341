//! The live observatory: an in-process hub fed with run-ledger lines and
//! a dependency-free HTTP server exposing them.
//!
//! The bench runner's `LedgerSink` (and `rfnoc-cli serve-obs`, which
//! tails a ledger file) pushes every JSONL line into an [`ObsHub`]. The
//! hub keeps two things: an incremental [`LedgerReader`] reduction (so
//! `/metrics` answers from aggregates, never by re-reading a file) and a
//! bounded ring of the raw lines (so `/events` can replay the stream
//! from the beginning to late subscribers). [`spawn_server`] binds a
//! `std::net::TcpListener` on localhost and serves, one thread per
//! connection, at most [`MAX_CONNECTIONS`] at once (a connection over the
//! cap is answered `503` from the accept loop), with request heads bounded
//! at [`MAX_HEADER_BYTES`] (`431` beyond it):
//!
//! * `GET /healthz` — `ok`, always 200 while the process lives.
//! * `GET /metrics` — Prometheus text exposition (format 0.0.4) of the
//!   running reduction: heartbeat throughput (kcycles/s last/mean/max),
//!   in-flight flits, shard imbalance and barrier-wait share, per-shard
//!   sweep/barrier counters, point lifecycle progress, event counts.
//! * `GET /events` — Server-Sent Events: every ledger line as one
//!   `data:` frame, replayed from the start of the ring, then followed
//!   live; the stream ends with an `end` event once the hub is closed
//!   and the subscriber has caught up.
//!
//! Everything here is observation-side only: the hub consumes the same
//! rendered lines the ledger file gets (a fan-out tee in the sink), so
//! the engine and its golden hashes are untouched.

use crate::ledger::{LedgerReader, LedgerSummary};
use std::collections::VecDeque;
use std::fmt::Write as _;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Raw ledger lines retained for `/events` replay. At the bench ledger's
/// record sizes this is a few tens of MB at worst; beyond it the ring
/// drops its oldest lines and late subscribers see a truncated replay.
const RING_CAP: usize = 65_536;

/// How long a blocked `/events` subscriber waits before emitting an SSE
/// keepalive comment (which doubles as dead-client detection).
const SSE_KEEPALIVE: Duration = Duration::from_millis(1_000);

/// Connections served at once; each holds one thread, and an `/events`
/// subscriber holds its thread until the stream ends.
pub const MAX_CONNECTIONS: usize = 32;

/// Bytes of request line plus headers read before a request is refused
/// with `431`.
pub const MAX_HEADER_BYTES: u64 = 16 * 1024;

struct HubInner {
    reader: LedgerReader,
    /// Ring of raw lines; `lines[i]` has sequence `base_seq + i`.
    lines: VecDeque<String>,
    /// Sequence number of the oldest retained line.
    base_seq: u64,
    /// No further lines will arrive; subscribers should finish.
    closed: bool,
    /// Live `/events` subscriber handlers.
    subscribers: usize,
    /// Lines that failed JSON reduction (still replayed verbatim).
    malformed: u64,
}

/// The shared state between a ledger producer and the HTTP handlers.
pub struct ObsHub {
    inner: Mutex<HubInner>,
    cv: Condvar,
}

impl Default for ObsHub {
    fn default() -> Self {
        Self::new()
    }
}

impl ObsHub {
    /// An empty hub.
    pub fn new() -> Self {
        Self {
            inner: Mutex::new(HubInner {
                reader: LedgerReader::new(),
                lines: VecDeque::new(),
                base_seq: 0,
                closed: false,
                subscribers: 0,
                malformed: 0,
            }),
            cv: Condvar::new(),
        }
    }

    /// Feeds one ledger line (without trailing newline; one is trimmed if
    /// present). The line lands in the replay ring verbatim — `/events`
    /// mirrors the file exactly — and in the running reduction when it
    /// parses. Empty lines are ignored.
    pub fn push_line(&self, line: &str) {
        let line = line.trim_end_matches(['\n', '\r']);
        if line.trim().is_empty() {
            return;
        }
        let mut g = self.inner.lock().expect("obs hub");
        if g.reader.push_line(line).is_err() {
            g.malformed += 1;
        }
        if g.lines.len() == RING_CAP {
            g.lines.pop_front();
            g.base_seq += 1;
        }
        g.lines.push_back(line.to_string());
        drop(g);
        self.cv.notify_all();
    }

    /// Marks the stream finished: `/events` subscribers drain and end.
    pub fn close(&self) {
        self.inner.lock().expect("obs hub").closed = true;
        self.cv.notify_all();
    }

    /// Whether [`Self::close`] has been called.
    pub fn is_closed(&self) -> bool {
        self.inner.lock().expect("obs hub").closed
    }

    /// Total lines pushed (including any the ring has since dropped).
    pub fn lines_pushed(&self) -> u64 {
        let g = self.inner.lock().expect("obs hub");
        g.base_seq + g.lines.len() as u64
    }

    /// A snapshot of the running ledger reduction.
    pub fn summary(&self) -> LedgerSummary {
        self.inner.lock().expect("obs hub").reader.summary().clone()
    }

    /// Blocks until every `/events` subscriber has disconnected, or the
    /// timeout elapses; returns whether the hub fully drained. Producers
    /// call this after [`Self::close`] so a process exit does not cut
    /// off a subscriber mid-replay.
    pub fn wait_drained(&self, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        let mut g = self.inner.lock().expect("obs hub");
        while g.subscribers > 0 {
            let now = Instant::now();
            if now >= deadline {
                return false;
            }
            let (g2, _) = self
                .cv
                .wait_timeout(g, deadline - now)
                .expect("obs hub");
            g = g2;
        }
        true
    }

    /// Fetches lines from `from_seq` on. Blocks up to [`SSE_KEEPALIVE`]
    /// when nothing new is available. Returns the batch (possibly
    /// empty), the next sequence to ask for, and whether the stream is
    /// finished (closed and caught up).
    fn next_lines(&self, from_seq: u64) -> (Vec<String>, u64, bool) {
        let mut g = self.inner.lock().expect("obs hub");
        loop {
            let end = g.base_seq + g.lines.len() as u64;
            if from_seq < end {
                // A subscriber older than the ring restarts at its head.
                let start = from_seq.max(g.base_seq);
                let batch: Vec<String> = g
                    .lines
                    .iter()
                    .skip((start - g.base_seq) as usize)
                    .cloned()
                    .collect();
                return (batch, end, false);
            }
            if g.closed {
                return (Vec::new(), end, true);
            }
            let (g2, res) = self
                .cv
                .wait_timeout(g, SSE_KEEPALIVE)
                .expect("obs hub");
            g = g2;
            if res.timed_out() {
                return (Vec::new(), g.base_seq + g.lines.len() as u64, false);
            }
        }
    }

    /// Renders the Prometheus text exposition (format 0.0.4).
    pub fn metrics_text(&self) -> String {
        let (summary, pushed, malformed, closed) = {
            let g = self.inner.lock().expect("obs hub");
            (
                g.reader.summary().clone(),
                g.base_seq + g.lines.len() as u64,
                g.malformed,
                g.closed,
            )
        };
        let mut out = String::new();
        let mut gauge = |name: &str, help: &str, v: f64| {
            if v.is_finite() {
                let _ = writeln!(out, "# HELP {name} {help}");
                let _ = writeln!(out, "# TYPE {name} gauge");
                let _ = writeln!(out, "{name} {v}");
            }
        };
        gauge(
            "rfnoc_ledger_records",
            "Well-formed ledger records reduced so far.",
            summary.records as f64,
        );
        gauge(
            "rfnoc_ledger_lines",
            "Raw ledger lines received (including malformed).",
            pushed as f64,
        );
        gauge(
            "rfnoc_ledger_malformed_lines",
            "Ledger lines that failed JSON reduction.",
            malformed as f64,
        );
        gauge(
            "rfnoc_heartbeats",
            "Engine heartbeat records seen.",
            summary.heartbeats as f64,
        );
        gauge(
            "rfnoc_total_kcycles",
            "Simulated kilocycles covered by heartbeats.",
            summary.total_cycles / 1e3,
        );
        gauge(
            "rfnoc_kcycles_per_sec",
            "Engine throughput of the most recent heartbeat (kcycles/s).",
            summary.kcps.last().copied().unwrap_or(0.0),
        );
        gauge(
            "rfnoc_kcycles_per_sec_mean",
            "Mean per-heartbeat engine throughput (kcycles/s).",
            summary.kcps_mean(),
        );
        gauge(
            "rfnoc_kcycles_per_sec_max",
            "Peak per-heartbeat engine throughput (kcycles/s).",
            summary.kcps_max(),
        );
        gauge(
            "rfnoc_in_flight",
            "In-flight flits at the most recent heartbeat.",
            summary.in_flight_last,
        );
        gauge(
            "rfnoc_completed_messages",
            "Cumulative completed messages at the most recent heartbeat.",
            summary.completed_last,
        );
        if let Some(v) = summary.shard_imbalance() {
            gauge(
                "rfnoc_shard_imbalance",
                "Max-over-mean per-shard total sweep time (1.0 = balanced).",
                v,
            );
        }
        if let Some(v) = summary.barrier_wait_frac() {
            gauge(
                "rfnoc_barrier_wait_frac",
                "Barrier-wait share of the sharded sweep wall time.",
                v,
            );
        }
        if let Some(p) = summary.points_planned {
            gauge("rfnoc_points_planned", "Unique plan points announced.", p);
        }
        gauge(
            "rfnoc_points_started",
            "Plan points that have started.",
            summary.points_started as f64,
        );
        gauge(
            "rfnoc_points_finished",
            "Plan points that have finished.",
            summary.points_finished as f64,
        );
        gauge(
            "rfnoc_plan_finished",
            "1 once the producer closed the stream.",
            if closed { 1.0 } else { 0.0 },
        );
        gauge(
            "rfnoc_schema_problems",
            "Ledger schema violations detected by the reduction.",
            summary.problems.len() as f64,
        );
        if !summary.shards.is_empty() {
            let _ = writeln!(
                out,
                "# HELP rfnoc_shard_sweep_ms Total sweep wall milliseconds per engine shard."
            );
            let _ = writeln!(out, "# TYPE rfnoc_shard_sweep_ms gauge");
            for (id, t) in &summary.shards {
                let _ =
                    writeln!(out, "rfnoc_shard_sweep_ms{{shard=\"{id}\"}} {}", t.sweep_ms);
            }
            let _ = writeln!(
                out,
                "# HELP rfnoc_shard_barrier_ms Total barrier wall milliseconds per engine shard."
            );
            let _ = writeln!(out, "# TYPE rfnoc_shard_barrier_ms gauge");
            for (id, t) in &summary.shards {
                let _ = writeln!(
                    out,
                    "rfnoc_shard_barrier_ms{{shard=\"{id}\"}} {}",
                    t.barrier_ms
                );
            }
        }
        if !summary.events.is_empty() {
            let _ = writeln!(
                out,
                "# HELP rfnoc_events Timeline event records seen, by event name."
            );
            let _ = writeln!(out, "# TYPE rfnoc_events gauge");
            for (name, count) in &summary.events {
                let escaped: String = name
                    .chars()
                    .map(|c| if c == '"' || c == '\\' || c == '\n' { '_' } else { c })
                    .collect();
                let _ = writeln!(out, "rfnoc_events{{event=\"{escaped}\"}} {count}");
            }
        }
        out
    }
}

/// The Prometheus text-format faults in an exposition; empty when it is
/// well-formed. Every non-blank line is either a 4-field `# HELP name
/// text` / `# TYPE name gauge|counter` comment or a sample
/// `name[{labels}] value` with a decimal, `NaN` or `±Inf` value, and
/// every sampled series has a `TYPE` line. The obs tests hold both the
/// hub's rendering and a real run's `/metrics` body to this.
pub fn exposition_problems(text: &str) -> Vec<String> {
    let mut problems = Vec::new();
    let mut typed = std::collections::BTreeSet::new();
    let mut sampled = std::collections::BTreeSet::new();
    let lines: Vec<&str> = text.lines().filter(|l| !l.trim().is_empty()).collect();
    if lines.is_empty() {
        problems.push("empty exposition".to_string());
    }
    for line in lines {
        if line.starts_with("# HELP ") || line.starts_with("# TYPE ") {
            let parts: Vec<&str> = line.split_whitespace().collect();
            if parts.len() < 4 {
                problems.push(format!("malformed comment line: {line}"));
            } else if parts[1] == "TYPE" {
                if parts.len() != 4 || !matches!(parts[3], "gauge" | "counter") {
                    problems.push(format!("unsupported TYPE line: {line}"));
                }
                typed.insert(parts[2]);
            }
            continue;
        }
        match sample_name(line) {
            Some(name) => {
                sampled.insert(name);
            }
            None => problems.push(format!("invalid exposition line: {line:?}")),
        }
    }
    for name in sampled.difference(&typed) {
        problems.push(format!("samples without TYPE: {name}"));
    }
    problems
}

/// The series name of a well-formed sample line, else `None`.
fn sample_name(line: &str) -> Option<&str> {
    let end = line
        .find(|c: char| !(c.is_ascii_alphanumeric() || c == '_' || c == ':'))
        .unwrap_or(line.len());
    let name = &line[..end];
    if name.is_empty() || name.starts_with(|c: char| c.is_ascii_digit()) {
        return None;
    }
    let mut rest = &line[end..];
    if let Some(labels) = rest.strip_prefix('{') {
        let close = labels.find(['{', '}'])?;
        rest = labels[close..].strip_prefix('}')?;
    }
    let value = rest.strip_prefix(' ')?;
    if matches!(value, "NaN" | "Inf" | "+Inf" | "-Inf") {
        return Some(name);
    }
    let digits = |s: &str| !s.is_empty() && s.bytes().all(|b| b.is_ascii_digit());
    let unsigned = value.strip_prefix('-').unwrap_or(value);
    let (mantissa, exp) = match unsigned.split_once(['e', 'E']) {
        Some((m, e)) => (m, Some(e.strip_prefix(['+', '-']).unwrap_or(e))),
        None => (unsigned, None),
    };
    let mantissa_ok = match mantissa.split_once('.') {
        Some((int, frac)) => digits(int) && digits(frac),
        None => digits(mantissa),
    };
    (mantissa_ok && exp.is_none_or(digits)).then_some(name)
}

/// Binds `127.0.0.1:port` (0 = OS-assigned) and serves the hub on a
/// detached accept-loop thread. Returns the bound address.
///
/// # Errors
///
/// The bind failure, if any — the caller decides whether that is fatal.
pub fn spawn_server(hub: Arc<ObsHub>, port: u16) -> std::io::Result<SocketAddr> {
    spawn_capped(hub, port, MAX_CONNECTIONS)
}

/// [`spawn_server`] serving at most `cap` connections at once.
fn spawn_capped(hub: Arc<ObsHub>, port: u16, cap: usize) -> std::io::Result<SocketAddr> {
    let listener = TcpListener::bind(("127.0.0.1", port))?;
    let addr = listener.local_addr()?;
    let live = Arc::new(AtomicUsize::new(0));
    std::thread::Builder::new()
        .name("rfnoc-obs-accept".into())
        .spawn(move || {
            for stream in listener.incoming() {
                let Ok(stream) = stream else { continue };
                // Only this thread increments, so the check cannot race
                // past the cap.
                if live.load(Ordering::Acquire) >= cap {
                    refuse_busy(stream);
                    continue;
                }
                live.fetch_add(1, Ordering::AcqRel);
                let slot = ConnectionSlot(Arc::clone(&live));
                let hub = Arc::clone(&hub);
                // A failed spawn drops the closure, and its slot with it.
                let _ = std::thread::Builder::new()
                    .name("rfnoc-obs-conn".into())
                    .spawn(move || {
                        let _slot = slot;
                        handle_connection(stream, &hub);
                    });
            }
        })?;
    Ok(addr)
}

/// One served connection's share of the cap, released on drop (also when
/// a handler panics).
struct ConnectionSlot(Arc<AtomicUsize>);

impl Drop for ConnectionSlot {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::AcqRel);
    }
}

/// Answers a connection over the cap with `503` without blocking the
/// accept loop: whatever part of the request has already arrived is
/// discarded first, so closing does not reset the connection under the
/// response.
fn refuse_busy(mut stream: TcpStream) {
    if stream.set_nonblocking(true).is_ok() {
        let _ = std::io::copy(&mut (&stream).take(MAX_HEADER_BYTES), &mut std::io::sink());
    }
    write_response(&mut stream, "503 Service Unavailable", "text/plain", "busy\n");
    let _ = stream.shutdown(Shutdown::Write);
}

/// Why a request head was refused.
enum BadRequest {
    /// Unreadable, not a `GET`, or no request line: `400`.
    Malformed,
    /// No end of headers within [`MAX_HEADER_BYTES`]: `431`.
    TooLarge,
}

/// Reads the request line + headers of one HTTP/1.x request; returns the
/// request path. Bounded at [`MAX_HEADER_BYTES`].
fn read_request(stream: &mut TcpStream) -> Result<String, BadRequest> {
    let source = stream.try_clone().map_err(|_| BadRequest::Malformed)?;
    let mut reader = BufReader::new(source).take(MAX_HEADER_BYTES);
    // Reads one line; `false` at end of stream. A line cut off by the
    // byte bound means the head does not fit.
    let mut next_line = |line: &mut String| {
        line.clear();
        let read = reader.read_line(line).map_err(|_| BadRequest::Malformed)?;
        if !line.ends_with('\n') && reader.limit() == 0 {
            return Err(BadRequest::TooLarge);
        }
        Ok(read > 0)
    };
    let mut line = String::new();
    next_line(&mut line)?;
    let mut parts = line.split_whitespace();
    let (Some("GET"), Some(path)) = (parts.next(), parts.next()) else {
        return Err(BadRequest::Malformed);
    };
    let path = path.to_string();
    // Drain headers up to the blank line; the bodies of GETs are empty.
    while next_line(&mut line)? && line != "\r\n" && line != "\n" {}
    Ok(path)
}

fn write_response(stream: &mut TcpStream, status: &str, content_type: &str, body: &str) {
    let _ = write!(
        stream,
        "HTTP/1.1 {status}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\n\
         Connection: close\r\n\r\n{body}",
        body.len(),
    );
    let _ = stream.flush();
}

fn handle_connection(mut stream: TcpStream, hub: &Arc<ObsHub>) {
    let _ = stream.set_read_timeout(Some(Duration::from_secs(10)));
    let _ = stream.set_write_timeout(Some(Duration::from_secs(10)));
    let path = match read_request(&mut stream) {
        Ok(path) => path,
        Err(BadRequest::Malformed) => {
            write_response(&mut stream, "400 Bad Request", "text/plain", "bad request\n");
            return;
        }
        Err(BadRequest::TooLarge) => {
            write_response(
                &mut stream,
                "431 Request Header Fields Too Large",
                "text/plain",
                "request header fields too large\n",
            );
            // Let the client finish sending before the close, so the
            // unread rest of its head does not reset the response away.
            let _ = stream.shutdown(Shutdown::Write);
            let _ = std::io::copy(&mut (&stream).take(4 * MAX_HEADER_BYTES), &mut std::io::sink());
            return;
        }
    };
    match path.split('?').next().unwrap_or("") {
        "/healthz" => write_response(&mut stream, "200 OK", "text/plain", "ok\n"),
        "/metrics" => write_response(
            &mut stream,
            "200 OK",
            "text/plain; version=0.0.4",
            &hub.metrics_text(),
        ),
        "/events" => serve_events(stream, hub),
        _ => write_response(&mut stream, "404 Not Found", "text/plain", "not found\n"),
    }
}

/// Streams the ledger as Server-Sent Events: full replay from the ring's
/// head, then live until the hub closes and the subscriber is caught up.
fn serve_events(mut stream: TcpStream, hub: &Arc<ObsHub>) {
    let header = "HTTP/1.1 200 OK\r\nContent-Type: text/event-stream\r\n\
                  Cache-Control: no-cache\r\nConnection: close\r\n\r\n";
    if stream.write_all(header.as_bytes()).and_then(|()| stream.flush()).is_err() {
        return;
    }
    hub.inner.lock().expect("obs hub").subscribers += 1;
    let mut seq = 0u64;
    loop {
        let (batch, next_seq, finished) = hub.next_lines(seq);
        let mut chunk = String::new();
        for line in &batch {
            let _ = writeln!(chunk, "data: {line}\n");
        }
        if batch.is_empty() && !finished {
            // Keepalive comment: detects dead clients while idle.
            chunk.push_str(": keepalive\n\n");
        }
        if finished {
            chunk.push_str("event: end\ndata: stream closed\n\n");
        }
        let ok = stream.write_all(chunk.as_bytes()).and_then(|()| stream.flush()).is_ok();
        seq = next_seq;
        if finished || !ok {
            break;
        }
    }
    hub.inner.lock().expect("obs hub").subscribers -= 1;
    hub.cv.notify_all();
}

/// Follows a ledger file into a hub for `rfnoc-cli serve-obs`: pushes
/// every complete line, then polls for growth every `poll`.
///
/// If the file already ends in a `plan_finish` record when first read
/// (i.e. it is a finished run, not a live one), the hub is closed right
/// away so `/events` subscribers get a bounded replay. A live file is
/// followed indefinitely — the server runs until interrupted.
///
/// # Errors
///
/// The initial read failing. Later read failures are tolerated (the file
/// may be mid-rotation); the hub simply stops growing until it heals.
pub fn tail_file_into_hub(
    path: &str,
    hub: &ObsHub,
    poll: Duration,
) -> Result<(), String> {
    let mut consumed = 0usize;
    let mut first = true;
    loop {
        match std::fs::read_to_string(path) {
            Ok(data) => {
                // A shrunk (rotated/truncated) file restarts the tail.
                if data.len() < consumed {
                    consumed = 0;
                }
                let fresh = &data[consumed..];
                // Only complete lines; a partial tail stays unconsumed.
                if let Some(last_nl) = fresh.rfind('\n') {
                    for line in fresh[..=last_nl].lines() {
                        hub.push_line(line);
                    }
                    consumed += last_nl + 1;
                }
                if first {
                    first = false;
                    if hub.summary().plan_wall_ms.is_some() {
                        hub.close();
                    }
                }
            }
            Err(e) if first => return Err(format!("{path}: {e}")),
            Err(_) => {}
        }
        std::thread::sleep(poll);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hub_reduces_and_replays() {
        let hub = ObsHub::new();
        hub.push_line(
            "{\"t_ms\": 1.0, \"kind\": \"heartbeat\", \"cycle\": 2000, \"cycles\": 2000, \
             \"wall_ms\": 0.5, \"kcycles_per_sec\": 100.0, \"in_flight\": 5, \
             \"completed\": 10, \"active_routers\": 16}",
        );
        hub.push_line("not json at all");
        hub.push_line("");
        assert_eq!(hub.lines_pushed(), 2, "blank dropped, malformed retained");
        let s = hub.summary();
        assert_eq!(s.heartbeats, 1);
        assert_eq!(s.records, 1);
        let (batch, next, finished) = hub.next_lines(0);
        assert_eq!(batch.len(), 2);
        assert_eq!(next, 2);
        assert!(!finished);
        hub.close();
        let (batch, _, finished) = hub.next_lines(2);
        assert!(batch.is_empty());
        assert!(finished);
    }

    #[test]
    fn metrics_text_is_prometheus_shaped() {
        let hub = ObsHub::new();
        hub.push_line(
            "{\"t_ms\": 1.0, \"kind\": \"heartbeat\", \"cycle\": 2000, \"cycles\": 2000, \
             \"wall_ms\": 0.5, \"kcycles_per_sec\": 250.0, \"in_flight\": 7, \
             \"completed\": 10, \"active_routers\": 16}",
        );
        hub.push_line(
            "{\"t_ms\": 2.0, \"kind\": \"shard\", \"cycle\": 2000, \"shard\": 0, \
             \"swept_routers\": 900, \"sweep_ms\": 3.0, \"barrier_ms\": 1.0, \
             \"replay_ops\": 40}",
        );
        hub.push_line(
            "{\"t_ms\": 2.1, \"kind\": \"shard\", \"cycle\": 2000, \"shard\": 1, \
             \"swept_routers\": 700, \"sweep_ms\": 1.0, \"barrier_ms\": 3.0, \
             \"replay_ops\": 20}",
        );
        hub.push_line(
            "{\"t_ms\": 2.5, \"kind\": \"event\", \"event\": \"fault\", \
             \"detail\": \"x\"}",
        );
        let text = hub.metrics_text();
        assert!(text.contains("rfnoc_kcycles_per_sec 250"), "{text}");
        assert!(text.contains("rfnoc_in_flight 7"), "{text}");
        assert!(text.contains("rfnoc_shard_imbalance 1.5"), "{text}");
        assert!(text.contains("rfnoc_shard_sweep_ms{shard=\"0\"} 3"), "{text}");
        assert!(text.contains("rfnoc_events{event=\"fault\"} 1"), "{text}");
        assert_eq!(exposition_problems(&text), Vec::<String>::new(), "{text}");
    }

    #[test]
    fn exposition_grammar_rejects_malformed_lines() {
        let ok = "# HELP a_b help text\n# TYPE a_b gauge\na_b 1\na_b{x=\"1 2\"} -2.5e+3\n\
                  # TYPE c counter\nc NaN\nc{y=\"z\"} +Inf\n";
        assert_eq!(exposition_problems(ok), Vec::<String>::new());
        for bad in [
            "",
            "# HELP a_b\n# TYPE a_b gauge\na_b 1\n",
            "# TYPE a_b histogram\na_b 1\n",
            "# TYPE a_b gauge extra\na_b 1\n",
            "a_b 1\n",
            "# TYPE a_b gauge\na_b  1\n",
            "# TYPE a_b gauge\na_b 1.5.2\n",
            "# TYPE a_b gauge\na_b 1.\n",
            "# TYPE a_b gauge\na_b{x=\"1\" 2\n",
            "# TYPE a_b gauge\na_b{x={}} 2\n",
            "# TYPE 9a gauge\n9a 1\n",
            "# comment\n",
        ] {
            assert_eq!(exposition_problems(bad).len(), 1, "{bad:?}: {:?}", exposition_problems(bad));
        }
    }

    #[test]
    fn http_endpoints_respond() {
        let hub = Arc::new(ObsHub::new());
        hub.push_line(
            "{\"t_ms\": 1.0, \"kind\": \"heartbeat\", \"cycle\": 2000, \"cycles\": 2000, \
             \"wall_ms\": 0.5, \"kcycles_per_sec\": 100.0, \"in_flight\": 5, \
             \"completed\": 10, \"active_routers\": 16}",
        );
        let addr = spawn_server(Arc::clone(&hub), 0).expect("bind ephemeral port");
        let get = |path: &str| -> String {
            let mut s = TcpStream::connect(addr).unwrap();
            write!(s, "GET {path} HTTP/1.1\r\nHost: localhost\r\n\r\n").unwrap();
            let mut out = String::new();
            s.read_to_string(&mut out).unwrap();
            out
        };
        let health = get("/healthz");
        assert!(health.starts_with("HTTP/1.1 200 OK"), "{health}");
        assert!(health.ends_with("ok\n"), "{health}");
        let metrics = get("/metrics");
        assert!(metrics.contains("rfnoc_kcycles_per_sec 100"), "{metrics}");
        assert!(metrics.contains("text/plain; version=0.0.4"), "{metrics}");
        let missing = get("/nope");
        assert!(missing.starts_with("HTTP/1.1 404"), "{missing}");
    }

    /// Sends `request` (then closes the write half) and returns the whole
    /// response.
    fn exchange(addr: SocketAddr, request: &str) -> String {
        let mut s = TcpStream::connect(addr).unwrap();
        // The server may answer and close before reading everything.
        let _ = s.write_all(request.as_bytes());
        let _ = s.shutdown(Shutdown::Write);
        let mut out = Vec::new();
        let _ = s.read_to_end(&mut out);
        String::from_utf8_lossy(&out).into_owned()
    }

    #[test]
    fn connections_over_the_cap_get_503_until_one_ends() {
        let hub = Arc::new(ObsHub::new());
        let addr = spawn_capped(Arc::clone(&hub), 0, 2).expect("bind ephemeral port");
        // Two live `/events` subscribers hold both slots.
        let subscribers: Vec<TcpStream> = (0..2)
            .map(|_| {
                let mut s = TcpStream::connect(addr).unwrap();
                write!(s, "GET /events HTTP/1.1\r\n\r\n").unwrap();
                let mut head = [0u8; 15];
                s.read_exact(&mut head).unwrap();
                assert_eq!(&head, b"HTTP/1.1 200 OK");
                s
            })
            .collect();
        let busy = exchange(addr, "GET /healthz HTTP/1.1\r\n\r\n");
        assert!(busy.starts_with("HTTP/1.1 503 Service Unavailable"), "{busy}");
        // Ending the streams frees the slots.
        hub.close();
        assert!(hub.wait_drained(Duration::from_secs(10)), "subscribers must finish");
        drop(subscribers);
        let served = (0..200).find_map(|_| {
            let reply = exchange(addr, "GET /healthz HTTP/1.1\r\n\r\n");
            if reply.starts_with("HTTP/1.1 200 OK") {
                return Some(reply);
            }
            std::thread::sleep(Duration::from_millis(10));
            None
        });
        assert!(served.is_some_and(|r| r.ends_with("ok\n")), "a freed slot serves again");
    }

    #[test]
    fn request_heads_beyond_the_bound_get_431() {
        let hub = Arc::new(ObsHub::new());
        let addr = spawn_server(Arc::clone(&hub), 0).expect("bind ephemeral port");
        let head = |pad: usize| {
            format!("GET /healthz HTTP/1.1\r\nX-Pad: {}\r\n\r\n", "a".repeat(pad))
        };
        let bound = MAX_HEADER_BYTES as usize;
        let fits = head(bound - 64);
        assert!(fits.len() < bound);
        let ok = exchange(addr, &fits);
        assert!(ok.starts_with("HTTP/1.1 200 OK"), "{ok}");
        let too_large = exchange(addr, &head(bound + 4096));
        assert!(
            too_large.starts_with("HTTP/1.1 431 Request Header Fields Too Large"),
            "{too_large}"
        );
        // A head that ends exactly at the bound still fits; one byte more
        // leaves the blank line outside it.
        let exact = head(bound - head(0).len());
        assert_eq!(exact.len(), bound);
        assert!(exchange(addr, &exact).starts_with("HTTP/1.1 200 OK"));
        let over = head(bound - head(0).len() + 1);
        assert!(exchange(addr, &over).starts_with("HTTP/1.1 431"));
    }

    #[test]
    fn sse_replays_then_ends_and_drains() {
        let hub = Arc::new(ObsHub::new());
        hub.push_line("{\"t_ms\": 1.0, \"kind\": \"point_queued\", \"point\": \"a\"}");
        let addr = spawn_server(Arc::clone(&hub), 0).expect("bind ephemeral port");
        let mut s = TcpStream::connect(addr).unwrap();
        write!(s, "GET /events HTTP/1.1\r\nHost: localhost\r\n\r\n").unwrap();
        // Push one more line live, then close: the subscriber must see
        // both frames and the end event, and the hub must drain.
        hub.push_line("{\"t_ms\": 2.0, \"kind\": \"plan_finish\", \"wall_ms\": 5.0}");
        hub.close();
        assert!(hub.wait_drained(Duration::from_secs(10)), "subscriber must finish");
        let mut out = String::new();
        s.read_to_string(&mut out).unwrap();
        assert!(out.contains("text/event-stream"), "{out}");
        assert!(out.contains("data: {\"t_ms\": 1.0"), "{out}");
        assert!(out.contains("data: {\"t_ms\": 2.0"), "{out}");
        assert!(out.contains("event: end"), "{out}");
        // The data frames replay the pushed lines in order.
        let frames: Vec<&str> = out
            .lines()
            .filter_map(|l| l.strip_prefix("data: "))
            .collect();
        assert_eq!(frames[0], "{\"t_ms\": 1.0, \"kind\": \"point_queued\", \"point\": \"a\"}");
    }

    #[test]
    fn wait_drained_without_subscribers_is_immediate() {
        let hub = ObsHub::new();
        hub.close();
        assert!(hub.wait_drained(Duration::from_millis(1)));
        assert!(hub.is_closed());
    }

    #[test]
    fn tail_reads_finished_file_and_closes() {
        let dir = std::env::temp_dir().join("rfnoc_obs_tail_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("done.jsonl");
        std::fs::write(
            &path,
            "{\"t_ms\": 1.0, \"kind\": \"point_queued\", \"point\": \"a\"}\n\
             {\"t_ms\": 2.0, \"kind\": \"plan_finish\", \"wall_ms\": 5.0}\n",
        )
        .unwrap();
        let hub = Arc::new(ObsHub::new());
        let h2 = Arc::clone(&hub);
        let p = path.to_str().unwrap().to_string();
        // The tail loop never returns on success; give it a thread and
        // watch the hub instead.
        std::thread::spawn(move || {
            let _ = tail_file_into_hub(&p, &h2, Duration::from_millis(10));
        });
        let t0 = Instant::now();
        while !hub.is_closed() && t0.elapsed() < Duration::from_secs(10) {
            std::thread::sleep(Duration::from_millis(10));
        }
        assert!(hub.is_closed(), "finished file must close the hub");
        assert_eq!(hub.lines_pushed(), 2);
        assert!(
            tail_file_into_hub("/nonexistent/x.jsonl", &ObsHub::new(), Duration::ZERO)
                .is_err()
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
