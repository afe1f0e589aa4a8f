//! Seeded byte mutation of real protocol lines — the bytes every `pb-server`
//! connection reads from a client. Each case takes the wire line of one
//! `Request` variant, mutates it (a bit flip, a byte set to a JSON
//! delimiter, a truncation, a splice of another variant's line, or a run of
//! `[` or `{` up to 200,000 long) and reads it with `read_line::<Request>`.
//! The corpus also holds a blank line, which a reader skips.
//! The read must end in a request, in end of input, or in a typed error:
//! nothing may panic, and no nesting may exhaust the stack. Then a real
//! server: the line of 200,000 `[` gets an error, a line past the length cap
//! gets an error and a closed connection, a blank line is skipped, and the
//! server keeps serving.

use std::io::{BufReader, Write};
use std::net::TcpStream;
use std::panic::{catch_unwind, AssertUnwindSafe};

use proptest::prelude::*;

use pb_server::protocol::{read_line, write_line, MAX_LINE_BYTES};
use pb_server::{PbClient, PbServer, Request, Response, ServerConfig};

/// A line of whitespace only: no request, and not the end of input.
const BLANK: &[u8] = b" \t\r\n";

/// One wire line per `Request` variant, newline included, then [`BLANK`].
fn lines() -> Vec<Vec<u8>> {
    let reqs = [
        Request::Ping,
        Request::Submit {
            tenant: "tenant-0".into(),
            workload: "2D_H_Q8A".into(),
            fractions: vec![0.25, 0.75],
            optimized: true,
            resume: true,
            deadline_ms: Some(250),
        },
        Request::Status { id: 17 },
        Request::Wait {
            id: 17,
            timeout_ms: 30_000,
        },
        Request::Cancel { id: 17 },
        Request::Stats,
        Request::Drain,
    ];
    let mut lines: Vec<Vec<u8>> = reqs
        .iter()
        .map(|r| {
            let mut line = Vec::new();
            write_line(&mut line, r).unwrap();
            line
        })
        .collect();
    lines.push(BLANK.to_vec());
    lines
}

/// One seeded mutation of `line`; `x` and `y` are uniform draws in [0, 1).
fn mutate(line: &[u8], other: &[u8], kind: usize, x: f64, y: f64) -> Vec<u8> {
    let mut out = line.to_vec();
    let at = |len: usize, u: f64| ((len as f64 * u) as usize).min(len.saturating_sub(1));
    match kind {
        // A bit anywhere.
        0 => out[at(line.len(), x)] ^= 1 << at(8, y),
        // A byte replaced by a delimiter, a quote, an escape or a control
        // byte.
        1 => {
            let bytes = b"[]{}\",:\\\n\0-e.";
            out[at(line.len(), x)] = bytes[at(bytes.len(), y)];
        }
        // Truncation.
        2 => out.truncate(at(line.len(), x)),
        // A run of the other line over this one.
        3 => {
            let len = 1 + at(32, y).min(other.len() - 1);
            let from = at(other.len() - len + 1, y);
            let to = at(out.len(), x);
            out.splice(
                to..(to + len).min(out.len()),
                other[from..from + len].iter().copied(),
            );
        }
        // A run of `[` or `{`, from one to 200,000 long.
        _ => {
            let len = 1 + (200_000.0 * y * y * y) as usize;
            let open = if x < 0.5 { b'[' } else { b'{' };
            let to = at(out.len(), x);
            out.splice(to..to, std::iter::repeat_n(open, len));
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1000))]

    #[test]
    fn a_mutated_request_line_is_read_or_refused(
        which in 0usize..8,
        kind in 0usize..5,
        x in 0.0f64..1.0,
        y in 0.0f64..1.0,
    ) {
        let lines = lines();
        let bytes = mutate(&lines[which], &lines[(which + 1) % lines.len()], kind, x, y);
        let read = catch_unwind(AssertUnwindSafe(|| read_line::<Request, _>(&mut bytes.as_slice())));
        prop_assert!(read.is_ok(), "line {which}, mutation {kind} at ({x}, {y}) panicked");
    }
}

/// The property is not vacuous: unmutated lines read back as themselves,
/// past a blank line before them; the blank line alone is end of input.
#[test]
fn the_pristine_lines_read_back() {
    for line in lines() {
        let wire = [BLANK, &line].concat();
        let read: Option<Request> = read_line(&mut wire.as_slice()).unwrap();
        let Some(req) = read else {
            assert_eq!(line, BLANK);
            continue;
        };
        let mut again = Vec::new();
        write_line(&mut again, &req).unwrap();
        assert_eq!(again, line);
    }
}

/// Send `line` on a fresh connection and read what comes back: the reply,
/// then whether the connection is still open.
fn send_raw(server: &PbServer, line: &[u8]) -> (Response, bool) {
    let mut stream = TcpStream::connect(server.addr()).unwrap();
    // The server may stop reading (and close) before the whole line is in.
    let _ = stream.write_all(line);
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let reply: Response = read_line(&mut reader).unwrap().unwrap();
    let _ = stream.write_all(b"\"Ping\"\n");
    let open = matches!(
        read_line::<Response, _>(&mut reader),
        Ok(Some(Response::Pong))
    );
    (reply, open)
}

#[test]
fn a_hostile_line_gets_an_error_and_the_server_keeps_serving() {
    let server = PbServer::start(ServerConfig::default()).unwrap();

    // Nested past the parser's depth cap: an error, and the line is done.
    let mut deep = vec![b'['; 200_000];
    deep.push(b'\n');
    let (reply, open) = send_raw(&server, &deep);
    assert!(matches!(reply, Response::Error { .. }), "{reply:?}");
    assert!(open, "a malformed line must not end the connection");

    // Past the length cap: an error, and the connection closes.
    let mut long = vec![b' '; MAX_LINE_BYTES];
    long.extend_from_slice(b"\"Ping\"\n");
    let (reply, open) = send_raw(&server, &long);
    assert!(matches!(reply, Response::Error { .. }), "{reply:?}");
    assert!(
        !open,
        "the rest of an over-long line must not be read as a line"
    );

    let mut client = PbClient::connect(server.addr()).unwrap();
    assert_eq!(client.request(&Request::Ping).unwrap(), Response::Pong);
    server.stop();
}

/// A blank line before a request is no request and no end of input: the
/// request after it is answered, and the connection stays open.
#[test]
fn a_blank_line_is_skipped_and_the_connection_serves_on() {
    let server = PbServer::start(ServerConfig::default()).unwrap();
    let (reply, open) = send_raw(&server, b"\n\"Ping\"\n");
    assert_eq!(reply, Response::Pong);
    assert!(open, "a blank line must not end the connection");
    server.stop();
}
