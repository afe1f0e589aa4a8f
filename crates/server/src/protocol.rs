//! Wire protocol: newline-delimited JSON over TCP.
//!
//! One request line yields exactly one response line (unless a
//! `client-disconnect` fault drops the connection first — clients must treat
//! a vanished connection as "resubmit and wait again"). Submission is
//! asynchronous: `submit` returns an id immediately, and one `wait` line
//! then blocks that connection's handler, never a worker, until the request
//! is terminal or the wait's timeout passes. So a request costs a fixed two
//! lines however long it runs, and a slow client can never wedge a worker.

use std::io::{BufRead, Read, Write};

use pb_faults::PbError;
use serde::{Deserialize, Serialize};

/// A client request (one JSON value per line, externally tagged: unit ops
/// are bare strings — `"Ping"` — and payload ops single-key objects —
/// `{"Submit":{...}}`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Request {
    /// Liveness probe.
    Ping,
    /// Enqueue a bouquet execution. `fractions` give the true query
    /// location per ESS axis in `[0,1]` (the same convention as `pbq run`).
    Submit {
        tenant: String,
        workload: String,
        fractions: Vec<f64>,
        /// Run the optimized (Figure 13) driver instead of the basic one.
        #[serde(default)]
        optimized: bool,
        /// Enable checkpoint/resume; a cancelled request's checkpoints are
        /// retained so an identical resubmission resumes.
        #[serde(default)]
        resume: bool,
        /// Per-request deadline; the run is cooperatively cancelled once it
        /// passes. `None` uses the server default.
        #[serde(default)]
        deadline_ms: Option<u64>,
    },
    /// A submitted request's current phase.
    Status { id: u64 },
    /// Block until the request is terminal or `timeout_ms` passes, then
    /// answer as `Status` does: `Done` with the result, or the phase it is
    /// still in.
    Wait { id: u64, timeout_ms: u64 },
    /// Cooperatively cancel a queued or running request. The request still
    /// reaches a terminal state (observable via `status`).
    Cancel { id: u64 },
    /// Server-wide counters and latency quantiles.
    Stats,
    /// Graceful drain: stop admitting, finish everything queued and in
    /// flight, then shut down. The response carries the final stats.
    Drain,
}

/// Terminal outcome of a served request, flattened for the wire.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct QueryResult {
    /// `completed` | `degraded` | `budget-exhausted` | `cancelled` |
    /// `failed`.
    pub outcome: String,
    /// Cost units actually paid by this run.
    pub total_cost: f64,
    /// Cost units fast-forwarded from retained checkpoints.
    pub reused_cost: f64,
    /// Plan that produced the result, when one did.
    pub final_plan: Option<usize>,
    /// The run's sub-optimality, `(reused_cost + total_cost) /
    /// run_native_at(qa)`: what it cost, checkpoint reuse included, over
    /// the cost of the optimizer's own plan at the run's true location `qa`
    /// (`C_opt(qa)`). Only `completed` runs report it.
    pub subopt: Option<f64>,
    /// Robustness events (retries, abandons, cap hits, …) the run logged.
    pub events: usize,
    /// Terminal error for `failed` (typed `PbError` rendering).
    pub error: Option<String>,
}

/// Lifecycle phase reported by `status` and `wait`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ReqPhase {
    Queued,
    Running,
    Done(QueryResult),
}

/// Server-wide counters, all read at one moment. Every snapshot holds
///
/// ```text
/// submitted == accepted + rejected
/// accepted − (completed + degraded + budget_exhausted + cancelled + failed)
///     == queue_depth + inflight
/// ```
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ServerStats {
    /// Submissions that reached admission: `accepted + rejected`. One that
    /// names an unknown workload or a wrong location is answered `Error`
    /// and counts nowhere.
    pub submitted: u64,
    /// Admitted requests; each is queued, in flight, or counted in exactly
    /// one of the five outcome counters below.
    pub accepted: u64,
    /// Backpressure rejections (queue full) + drain rejections.
    pub rejected: u64,
    pub completed: u64,
    pub degraded: u64,
    pub budget_exhausted: u64,
    pub cancelled: u64,
    pub failed: u64,
    /// Requests whose run panicked: each is counted in `failed` too, and
    /// its worker went on to the next request.
    pub worker_panics: u64,
    /// Accepted requests waiting for a worker.
    pub queue_depth: usize,
    /// Accepted requests a worker has dispatched and not yet finished.
    pub inflight: usize,
    /// Latency quantiles, submission to terminal state, over the latest
    /// [`LATENCY_WINDOW`](crate::server::LATENCY_WINDOW) requests.
    pub p50_ms: f64,
    pub p99_ms: f64,
    /// Max sub-optimality over completed runs — MSO observed so far.
    pub max_subopt: f64,
    /// Per-tenant `(spent, cap)` cost-unit accounting.
    pub tenants: Vec<(String, f64, f64)>,
}

/// A server response (one JSON value per line, externally tagged).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Response {
    Pong,
    /// The request was admitted at the given queue depth.
    Accepted {
        id: u64,
        queue_depth: usize,
    },
    /// Backpressure: the bounded queue is full (or the server is draining).
    /// The client should retry after `retry_after_ms`.
    Rejected {
        reason: String,
        retry_after_ms: u64,
    },
    Status {
        id: u64,
        phase: ReqPhase,
    },
    Stats {
        stats: ServerStats,
    },
    /// Drain finished; final stats attached.
    Drained {
        stats: ServerStats,
    },
    /// Malformed request, unknown id/workload, … — the connection survives.
    Error {
        message: String,
    },
}

/// Write one protocol value as a JSON line.
pub fn write_line<T: Serialize, W: Write>(w: &mut W, v: &T) -> Result<(), PbError> {
    let s = serde_json::to_string(v).map_err(|e| PbError::Internal(format!("encode: {e}")))?;
    w.write_all(s.as_bytes())
        .and_then(|()| w.write_all(b"\n"))
        .and_then(|()| w.flush())
        .map_err(|e| PbError::Internal(format!("write: {e}")))
}

/// Longest line, newline included, either end reads. A request is a few
/// hundred bytes; a `Stats` reply for thousands of tenants still fits.
pub const MAX_LINE_BYTES: usize = 1 << 20;

/// Read one protocol value from the next non-blank JSON line; `Ok(None)`
/// at EOF only.
///
/// A line longer than [`MAX_LINE_BYTES`] is refused as
/// [`PbError::Corrupt`] after reading that many bytes of it and one more,
/// never buffered whole. The stream is then mid-line, so the reader cannot
/// go on; every other error leaves it at the next line.
pub fn read_line<T: Deserialize, R: BufRead>(r: &mut R) -> Result<Option<T>, PbError> {
    let decode = |e: &dyn std::fmt::Display| PbError::Internal(format!("decode: {e}"));
    let mut line = Vec::new();
    loop {
        line.clear();
        let n = r
            .by_ref()
            .take(MAX_LINE_BYTES as u64 + 1)
            .read_until(b'\n', &mut line)
            .map_err(|e| PbError::Internal(format!("read: {e}")))?;
        if n == 0 {
            return Ok(None);
        }
        if n > MAX_LINE_BYTES {
            return Err(PbError::Corrupt {
                path: "protocol line".into(),
                message: format!("longer than {MAX_LINE_BYTES} bytes"),
            });
        }
        let t = std::str::from_utf8(&line).map_err(|e| decode(&e))?.trim();
        if !t.is_empty() {
            return serde_json::from_str(t).map(Some).map_err(|e| decode(&e));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn requests_roundtrip() {
        let reqs = vec![
            Request::Ping,
            Request::Submit {
                tenant: "t0".into(),
                workload: "EQ_1D".into(),
                fractions: vec![0.5],
                optimized: true,
                resume: false,
                deadline_ms: Some(250),
            },
            Request::Status { id: 7 },
            Request::Wait {
                id: 7,
                timeout_ms: 30_000,
            },
            Request::Cancel { id: 7 },
            Request::Stats,
            Request::Drain,
        ];
        for r in reqs {
            let mut buf = Vec::new();
            write_line(&mut buf, &r).unwrap();
            let back: Request = read_line(&mut buf.as_slice()).unwrap().unwrap();
            assert_eq!(back, r);
        }
    }

    #[test]
    fn submit_defaults_are_optional_on_the_wire() {
        let line = r#"{"Submit":{"tenant":"t","workload":"EQ_1D","fractions":[0.5]}}"#;
        let r: Request = serde_json::from_str(line).unwrap();
        assert_eq!(
            r,
            Request::Submit {
                tenant: "t".into(),
                workload: "EQ_1D".into(),
                fractions: vec![0.5],
                optimized: false,
                resume: false,
                deadline_ms: None,
            }
        );
    }

    #[test]
    fn an_over_long_line_is_refused_unread() {
        let mut wire = vec![b' '; MAX_LINE_BYTES];
        wire.extend_from_slice(b"\"Ping\"\n\"Ping\"\n");
        let mut r = wire.as_slice();
        assert!(matches!(
            read_line::<Request, _>(&mut r),
            Err(PbError::Corrupt { .. })
        ));
        // Only the cap and one byte more were read.
        assert_eq!(r.len(), wire.len() - MAX_LINE_BYTES - 1);
        let at_cap = " ".repeat(MAX_LINE_BYTES - 7) + "\"Ping\"\n";
        let ping: Option<Request> = read_line(&mut at_cap.as_bytes()).unwrap();
        assert_eq!(ping, Some(Request::Ping));
    }

    #[test]
    fn eof_reads_as_none() {
        let empty: Option<Request> = read_line(&mut "".as_bytes()).unwrap();
        assert!(empty.is_none());
    }
}
