//! A small blocking client for the NDJSON protocol — used by `pbq serve`
//! smoke mode, the serving benchmark and the chaos campaign.

use std::io::BufReader;
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

use pb_faults::PbError;

use crate::protocol::{read_line, write_line, QueryResult, ReqPhase, Request, Response};

/// One TCP connection speaking the line protocol.
pub struct PbClient {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl PbClient {
    pub fn connect(addr: SocketAddr) -> Result<PbClient, PbError> {
        let stream = TcpStream::connect(addr)
            .map_err(|e| PbError::Internal(format!("connect {addr}: {e}")))?;
        let read_half = stream
            .try_clone()
            .map_err(|e| PbError::Internal(format!("clone stream: {e}")))?;
        Ok(PbClient {
            reader: BufReader::new(read_half),
            writer: stream,
        })
    }

    /// One request, one response. A dropped connection (e.g. the
    /// `client-disconnect` fault) surfaces as an error.
    pub fn request(&mut self, req: &Request) -> Result<Response, PbError> {
        write_line(&mut self.writer, req)?;
        read_line(&mut self.reader)?
            .ok_or_else(|| PbError::Internal("connection closed by server".into()))
    }

    /// Submit and return the assigned id, or the rejection.
    pub fn submit(&mut self, req: &Request) -> Result<Result<u64, Response>, PbError> {
        match self.request(req)? {
            Response::Accepted { id, .. } => Ok(Ok(id)),
            other => Ok(Err(other)),
        }
    }

    /// Block until the request is terminal or `timeout` passes: one `Wait`
    /// line, one reply.
    pub fn wait(&mut self, id: u64, timeout: Duration) -> Result<QueryResult, PbError> {
        let timeout_ms = u64::try_from(timeout.as_millis()).unwrap_or(u64::MAX);
        match self.request(&Request::Wait { id, timeout_ms })? {
            Response::Status {
                phase: ReqPhase::Done(result),
                ..
            } => Ok(result),
            Response::Status { .. } => Err(PbError::Internal(format!("request {id} timed out"))),
            other => Err(PbError::Internal(format!(
                "unexpected wait reply: {other:?}"
            ))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    /// However long the request runs, a wait is one line out and one back,
    /// so the server's line-counted faults see a fixed count per request.
    #[test]
    fn a_wait_is_one_request_line() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let result = QueryResult {
            outcome: "completed".into(),
            total_cost: 1.0,
            reused_cost: 0.0,
            final_plan: Some(0),
            subopt: Some(1.0),
            events: 0,
            error: None,
        };
        let reply = Response::Status {
            id: 7,
            phase: ReqPhase::Done(result.clone()),
        };
        let server = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            let mut reader = BufReader::new(stream.try_clone().unwrap());
            let mut writer = stream;
            let mut lines = Vec::new();
            while let Some(req) = read_line::<Request, _>(&mut reader).unwrap() {
                lines.push(req);
                write_line(&mut writer, &reply).unwrap();
            }
            lines
        });
        let mut c = PbClient::connect(addr).unwrap();
        assert_eq!(c.wait(7, Duration::from_secs(30)).unwrap(), result);
        drop(c);
        let wait = Request::Wait {
            id: 7,
            timeout_ms: 30_000,
        };
        assert_eq!(server.join().unwrap(), vec![wait]);
    }
}
