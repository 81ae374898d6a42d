//! Hand-rolled HTTP/1.1 + JSON front end over `std::net`.
//!
//! The service is an experiment-orchestration control plane, not a data
//! plane: requests are small, responses are small (telemetry is the one
//! exception and is still bounded), and connections are one-shot
//! (`Connection: close`). A blocking accept loop with one thread per
//! connection covers that comfortably with zero dependencies.
//!
//! Routes (all JSON unless noted):
//!
//! | Method & path                  | Meaning                                     |
//! |--------------------------------|---------------------------------------------|
//! | `POST /jobs`                   | Submit a [`JobRequest`]; cached by fingerprint |
//! | `GET /jobs`                    | List all jobs                               |
//! | `GET /jobs/:id`                | One job's status                            |
//! | `POST /jobs/:id/advance`       | Run up to `{"rounds":k}` rounds (default 1) |
//! | `GET /jobs/:id/telemetry`      | JSONL event stream; `?from=N` tails         |
//! | `POST /jobs/:id/snapshot`      | Persist and return a resume point           |
//! | `POST /jobs/:id/crash`         | Test hook: `{"mode":"panic"|"die"}`         |
//! | `DELETE /jobs/:id`             | Stop the worker, drop job and state         |
//! | `GET /healthz`                 | Liveness probe                              |
//!
//! Errors use one body shape everywhere:
//! `{"error":{"cause":"<code>","message":"..."}}`, where `cause` for
//! config problems is the exact in-process
//! [`ConfigError::cause_code`](fedsched_fl::ConfigError::cause_code)
//! string — the wire never renames an error.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::Arc;
use std::thread;

use fedsched_core::json::{self, JsonValue};

use crate::job::JobRequest;
use crate::supervisor::{AdvanceReply, CrashMode, JobInfo, Supervisor, SupervisorError};

/// Maximum accepted request-body size; a [`JobRequest`] is a few KB.
const MAX_BODY: usize = 1 << 20;

/// Longest request line or header line accepted, in bytes, line ending
/// included.
const MAX_HEAD_LINE: usize = 8 << 10;

/// Most header lines accepted in one request.
const MAX_HEADERS: usize = 64;

/// A bound, not-yet-serving HTTP server.
pub struct Server {
    listener: TcpListener,
    supervisor: Arc<Supervisor>,
}

impl Server {
    /// Bind `addr` (use port 0 for an ephemeral port) over `supervisor`.
    pub fn bind(addr: impl ToSocketAddrs, supervisor: Arc<Supervisor>) -> io::Result<Self> {
        Ok(Server {
            listener: TcpListener::bind(addr)?,
            supervisor,
        })
    }

    /// The bound address (reports the real port after binding port 0).
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Accept connections forever, one handler thread per connection.
    /// Per-connection I/O errors are swallowed: a client that hangs up
    /// mid-request must not take the service down.
    pub fn serve_forever(&self) -> io::Result<()> {
        loop {
            let (stream, _) = self.listener.accept()?;
            let supervisor = self.supervisor.clone();
            thread::spawn(move || {
                let _ = handle_connection(stream, &supervisor);
            });
        }
    }

    /// Move the accept loop onto a background thread (for tests and
    /// embedded use).
    pub fn spawn(self) -> thread::JoinHandle<()> {
        thread::spawn(move || {
            let _ = self.serve_forever();
        })
    }
}

struct Request {
    method: String,
    /// Path with the query string split off.
    path: String,
    /// Decoded `?key=value` pairs, in order.
    query: Vec<(String, String)>,
    body: String,
}

struct Response {
    status: u16,
    content_type: &'static str,
    body: String,
}

impl Response {
    fn json(status: u16, v: &JsonValue) -> Self {
        Response {
            status,
            content_type: "application/json",
            body: v.encode(),
        }
    }

    fn error(status: u16, cause: &str, message: &str) -> Self {
        Self::json(
            status,
            &json::obj(vec![(
                "error",
                json::obj(vec![
                    ("cause", json::str(cause)),
                    ("message", json::str(message)),
                ]),
            )]),
        )
    }
}

fn status_text(status: u16) -> &'static str {
    match status {
        200 => "OK",
        201 => "Created",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        409 => "Conflict",
        413 => "Payload Too Large",
        431 => "Request Header Fields Too Large",
        _ => "Internal Server Error",
    }
}

fn handle_connection(stream: TcpStream, supervisor: &Supervisor) -> io::Result<()> {
    let mut reader = BufReader::new(stream);
    let response = match read_request(&mut reader) {
        Ok(request) => route(&request, supervisor),
        Err(bad) => bad,
    };
    let mut stream = reader.into_inner();
    write!(
        stream,
        "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{}",
        response.status,
        status_text(response.status),
        response.content_type,
        response.body.len(),
        response.body
    )?;
    stream.flush()
}

/// Read one line of the request head, at most [`MAX_HEAD_LINE`] bytes; a
/// longer line is a ready-made 431 response.
fn read_head_line(reader: &mut impl BufRead) -> Result<String, Response> {
    let mut line = Vec::new();
    reader
        .by_ref()
        .take(MAX_HEAD_LINE as u64)
        .read_until(b'\n', &mut line)
        .map_err(|_| Response::error(400, "bad_request", "connection error mid-request"))?;
    if line.len() == MAX_HEAD_LINE && !line.ends_with(b"\n") {
        return Err(Response::error(
            431,
            "bad_request",
            "request head line too long",
        ));
    }
    String::from_utf8(line)
        .map_err(|_| Response::error(400, "bad_request", "request head is not UTF-8"))
}

/// Parse one request off the wire; malformed input becomes a ready-made
/// 400/413/431 response.
fn read_request(reader: &mut impl BufRead) -> Result<Request, Response> {
    let io_err = |_| Response::error(400, "bad_request", "connection error mid-request");
    let line = read_head_line(reader)?;
    let mut parts = line.split_whitespace();
    let (method, target) = match (parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(t), Some(v)) if v.starts_with("HTTP/1.") => (m.to_string(), t.to_string()),
        _ => {
            return Err(Response::error(
                400,
                "bad_request",
                "malformed HTTP request line",
            ))
        }
    };

    let mut content_length = 0usize;
    for count in 0.. {
        let header = read_head_line(reader)?;
        let header = header.trim_end();
        if header.is_empty() {
            break;
        }
        if count == MAX_HEADERS {
            return Err(Response::error(
                431,
                "bad_request",
                "too many request headers",
            ));
        }
        if let Some((name, value)) = header.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                content_length = value
                    .trim()
                    .parse()
                    .map_err(|_| Response::error(400, "bad_request", "bad Content-Length"))?;
            }
        }
    }
    if content_length > MAX_BODY {
        return Err(Response::error(
            413,
            "bad_request",
            "request body too large",
        ));
    }
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body).map_err(io_err)?;
    let body = String::from_utf8(body)
        .map_err(|_| Response::error(400, "bad_request", "request body is not UTF-8"))?;

    let (path, query_text) = match target.split_once('?') {
        Some((p, q)) => (p.to_string(), q),
        None => (target.clone(), ""),
    };
    let query = query_text
        .split('&')
        .filter(|kv| !kv.is_empty())
        .map(|kv| match kv.split_once('=') {
            Some((k, v)) => (k.to_string(), v.to_string()),
            None => (kv.to_string(), String::new()),
        })
        .collect();

    Ok(Request {
        method,
        path,
        query,
        body,
    })
}

fn supervisor_error(e: SupervisorError) -> Response {
    match e {
        SupervisorError::NotFound(id) => {
            Response::error(404, "not_found", &format!("no job `{id}`"))
        }
        SupervisorError::Config(cfg) => Response::error(400, cfg.cause_code(), &format!("{cfg}")),
        SupervisorError::Io(io) => {
            Response::error(500, "io_error", &format!("state store error: {io}"))
        }
        SupervisorError::JobFailed(why) => Response::error(409, "job_failed", &why),
    }
}

fn info_json(info: &JobInfo) -> JsonValue {
    json::obj(vec![
        ("job_id", json::str(&info.job_id)),
        ("status", json::str(info.status.name())),
        ("completed_rounds", json::num(info.completed_rounds as f64)),
        ("rounds_total", json::num(info.rounds_total as f64)),
        ("restarts", json::num(info.restarts as f64)),
        ("telemetry_events", json::num(info.telemetry_events as f64)),
    ])
}

fn advance_json(reply: &AdvanceReply) -> JsonValue {
    let mut fields = vec![
        ("executed", json::num(reply.executed as f64)),
        ("completed_rounds", json::num(reply.completed_rounds as f64)),
        ("status", json::str(reply.status.name())),
    ];
    if let Some(makespan) = reply.last_makespan_s {
        fields.push(("last_makespan_s", json::num(makespan)));
    }
    json::obj(fields)
}

fn route(request: &Request, supervisor: &Supervisor) -> Response {
    let segments: Vec<&str> = request.path.split('/').filter(|s| !s.is_empty()).collect();
    match (request.method.as_str(), segments.as_slice()) {
        ("GET", ["healthz"]) => {
            Response::json(200, &json::obj(vec![("ok", JsonValue::Bool(true))]))
        }

        ("POST", ["jobs"]) => match JobRequest::parse(&request.body) {
            Ok(job_request) => match supervisor.create_job(job_request) {
                Ok((info, cached)) => Response::json(
                    if cached { 200 } else { 201 },
                    &json::obj(vec![
                        ("job", info_json(&info)),
                        ("cached", JsonValue::Bool(cached)),
                    ]),
                ),
                Err(e) => supervisor_error(e),
            },
            Err(cfg) => Response::error(400, cfg.cause_code(), &format!("{cfg}")),
        },

        ("GET", ["jobs"]) => {
            let jobs: Vec<JsonValue> = supervisor.list().iter().map(info_json).collect();
            Response::json(200, &json::obj(vec![("jobs", JsonValue::Arr(jobs))]))
        }

        ("GET", ["jobs", id]) => match supervisor.info(id) {
            Ok(info) => Response::json(200, &info_json(&info)),
            Err(e) => supervisor_error(e),
        },

        ("POST", ["jobs", id, "advance"]) => {
            let rounds = if request.body.trim().is_empty() {
                Ok(1)
            } else {
                JsonValue::parse(&request.body)
                    .ok()
                    .and_then(|v| v.get("rounds").and_then(|x| x.as_usize().ok()))
                    .ok_or(())
            };
            match rounds {
                Ok(rounds) => match supervisor.advance(id, rounds) {
                    Ok(reply) => Response::json(200, &advance_json(&reply)),
                    Err(e) => supervisor_error(e),
                },
                Err(()) => Response::error(
                    400,
                    "bad_request",
                    "advance body must be `{\"rounds\": <positive integer>}` or empty",
                ),
            }
        }

        ("GET", ["jobs", id, "telemetry"]) => {
            let from = request
                .query
                .iter()
                .find(|(k, _)| k == "from")
                .and_then(|(_, v)| v.parse().ok())
                .unwrap_or(0usize);
            match supervisor.telemetry(id, from) {
                Ok(jsonl) => Response {
                    status: 200,
                    content_type: "application/x-ndjson",
                    body: jsonl,
                },
                Err(e) => supervisor_error(e),
            }
        }

        ("POST", ["jobs", id, "snapshot"]) => match supervisor.snapshot(id) {
            Ok(snapshot) => Response::json(200, &snapshot.to_json()),
            Err(e) => supervisor_error(e),
        },

        ("POST", ["jobs", id, "crash"]) => {
            let mode = JsonValue::parse(&request.body).ok().and_then(|v| {
                v.get("mode")
                    .and_then(|m| m.as_str().ok().map(String::from))
            });
            let mode = match mode.as_deref() {
                None | Some("panic") => CrashMode::Panic,
                Some("die") => CrashMode::Die,
                Some(other) => {
                    return Response::error(
                        400,
                        "bad_request",
                        &format!("unknown crash mode `{other}` (want `panic` or `die`)"),
                    )
                }
            };
            match supervisor.inject_crash(id, mode) {
                Ok(()) => Response::json(200, &json::obj(vec![("ok", JsonValue::Bool(true))])),
                Err(e) => supervisor_error(e),
            }
        }

        ("DELETE", ["jobs", id]) => match supervisor.delete(id) {
            Ok(()) => Response::json(200, &json::obj(vec![("deleted", json::str(*id))])),
            Err(e) => supervisor_error(e),
        },

        (_, ["jobs", ..]) | (_, ["healthz"]) => {
            Response::error(405, "bad_request", "method not allowed on this path")
        }
        _ => Response::error(404, "not_found", "no such route"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn status_of(head: String) -> u16 {
        match read_request(&mut io::Cursor::new(head.into_bytes())) {
            Ok(_) => 200,
            Err(response) => response.status,
        }
    }

    fn with_headers(n: usize) -> String {
        let headers: String = (0..n).map(|i| format!("X-H{i}: v\r\n")).collect();
        format!("GET /healthz HTTP/1.1\r\n{headers}\r\n")
    }

    #[test]
    fn request_head_is_bounded() {
        let long = "a".repeat(9 << 10);
        assert_eq!(status_of(format!("GET /{long} HTTP/1.1\r\n\r\n")), 431);
        assert_eq!(
            status_of(format!("GET / HTTP/1.1\r\nX-Long: {long}\r\n\r\n")),
            431
        );
        assert_eq!(status_of(with_headers(MAX_HEADERS + 1)), 431);
        assert_eq!(status_of(with_headers(MAX_HEADERS)), 200);
        assert_eq!(status_text(431), "Request Header Fields Too Large");
    }
}
