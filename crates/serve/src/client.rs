//! A blocking HTTP/1.1 client shared by `loadgen` and the end-to-end
//! tests: keep-alive request/response over one `TcpStream`
//! ([`Client`]), plus the retry substrate `loadgen` needs — a
//! seeded-jitter exponential [`Backoff`] schedule and a
//! [`RetryClient`] that reconnects on transport errors and retries
//! `503` rejections honoring `Retry-After`, counting every recovery it
//! performed.

use csd_telemetry::SplitMix64;
use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::time::Duration;

/// One parsed HTTP response.
#[derive(Debug, Clone)]
pub struct ClientResponse {
    /// Status code.
    pub status: u16,
    /// Header `(name, value)` pairs; names lower-cased.
    pub headers: Vec<(String, String)>,
    /// Response body.
    pub body: Vec<u8>,
}

impl ClientResponse {
    /// First header with this (case-insensitive) name.
    pub fn header(&self, name: &str) -> Option<&str> {
        let name = name.to_ascii_lowercase();
        self.headers
            .iter()
            .find(|(k, _)| *k == name)
            .map(|(_, v)| v.as_str())
    }

    /// Body as UTF-8 text (lossy).
    pub fn text(&self) -> String {
        String::from_utf8_lossy(&self.body).into_owned()
    }
}

/// A keep-alive connection to the daemon.
pub struct Client {
    stream: TcpStream,
}

impl Client {
    /// Connects with a generous read timeout (experiments are slow).
    pub fn connect(addr: &str) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_read_timeout(Some(Duration::from_secs(600)))?;
        Ok(Client { stream })
    }

    /// Sends one request and reads the full response. `target` includes
    /// the query string. Returns an error if the server closed early.
    pub fn request(
        &mut self,
        method: &str,
        target: &str,
        body: &[u8],
    ) -> io::Result<ClientResponse> {
        let mut head = format!("{method} {target} HTTP/1.1\r\nHost: csd-serve\r\n");
        if !body.is_empty() || method == "POST" {
            head.push_str(&format!("Content-Length: {}\r\n", body.len()));
        }
        head.push_str("\r\n");
        self.stream.write_all(head.as_bytes())?;
        self.stream.write_all(body)?;
        self.stream.flush()?;
        self.read_response()
    }

    /// Convenience: `GET`.
    pub fn get(&mut self, target: &str) -> io::Result<ClientResponse> {
        self.request("GET", target, b"")
    }

    /// Convenience: `POST` with a JSON body.
    pub fn post_json(&mut self, target: &str, json: &str) -> io::Result<ClientResponse> {
        self.request("POST", target, json.as_bytes())
    }

    fn read_response(&mut self) -> io::Result<ClientResponse> {
        let mut buf = Vec::new();
        let head_end = loop {
            if let Some(i) = buf.windows(4).position(|w| w == b"\r\n\r\n") {
                break i;
            }
            let mut chunk = [0u8; 4096];
            match self.stream.read(&mut chunk) {
                Ok(0) => {
                    return Err(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        "connection closed before response head",
                    ))
                }
                Ok(n) => buf.extend_from_slice(&chunk[..n]),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        };
        let head = std::str::from_utf8(&buf[..head_end])
            .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "non-utf8 response head"))?;
        let mut lines = head.split("\r\n");
        let status_line = lines.next().unwrap_or("");
        let status: u16 = status_line
            .split(' ')
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| {
                io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("bad status line {status_line:?}"),
                )
            })?;
        let headers: Vec<(String, String)> = lines
            .filter_map(|l| l.split_once(':'))
            .map(|(k, v)| (k.trim().to_ascii_lowercase(), v.trim().to_string()))
            .collect();

        let mut body = buf.split_off(head_end + 4);
        let content_length = headers
            .iter()
            .find(|(k, _)| k == "content-length")
            .and_then(|(_, v)| v.parse::<usize>().ok());
        match content_length {
            Some(len) => {
                while body.len() < len {
                    let mut chunk = vec![0u8; len - body.len()];
                    match self.stream.read(&mut chunk) {
                        Ok(0) => {
                            return Err(io::Error::new(
                                io::ErrorKind::UnexpectedEof,
                                "connection closed mid-body",
                            ))
                        }
                        Ok(n) => body.extend_from_slice(&chunk[..n]),
                        Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                        Err(e) => return Err(e),
                    }
                }
                body.truncate(len);
            }
            None => {
                // Delimited by connection close (the NDJSON stream).
                let mut rest = Vec::new();
                self.stream.read_to_end(&mut rest)?;
                body.extend_from_slice(&rest);
            }
        }
        Ok(ClientResponse {
            status,
            headers,
            body,
        })
    }
}

/// A deterministic exponential-backoff schedule with seeded jitter.
///
/// Attempt `k` draws a delay uniformly from the upper half of
/// `[0, min(cap, base << k)]` ("equal jitter"): enough randomness to
/// decorrelate a thundering herd, enough floor to actually back off.
/// The draw comes from a [`SplitMix64`] seeded at construction, so the
/// whole schedule is a pure function of `(base, cap, seed)` — a
/// client's retry behavior is replayable from its seed.
#[derive(Debug, Clone)]
pub struct Backoff {
    base: Duration,
    cap: Duration,
    attempt: u32,
    rng: SplitMix64,
}

impl Backoff {
    /// A schedule starting at `base` and saturating at `cap`.
    pub fn new(base: Duration, cap: Duration, seed: u64) -> Backoff {
        Backoff {
            base: base.max(Duration::from_millis(1)),
            cap: cap.max(base),
            attempt: 0,
            rng: SplitMix64::new(seed),
        }
    }

    /// The delay for the next attempt (and advances the schedule).
    pub fn next_delay(&mut self) -> Duration {
        let ceil = self
            .base
            .saturating_mul(1u32.checked_shl(self.attempt).unwrap_or(u32::MAX))
            .min(self.cap);
        self.attempt = self.attempt.saturating_add(1);
        let half = ceil.as_millis().min(u128::from(u64::MAX)) as u64 / 2;
        let jitter = if half == 0 {
            0
        } else {
            self.rng.range_u64(0, half)
        };
        Duration::from_millis(half + jitter)
    }

    /// Resets the exponential ramp after a success (the jitter stream
    /// keeps advancing — resets do not replay old delays).
    pub fn reset(&mut self) {
        self.attempt = 0;
    }
}

/// Recovery counters a [`RetryClient`] accumulated.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RetryStats {
    /// Successful TCP connects (the first one included).
    pub connects: u64,
    /// Connects after the first — each one replaced a dead connection.
    pub reconnects: u64,
    /// Requests re-sent after a `503` admission rejection.
    pub retries_503: u64,
    /// Requests re-sent after a transport error (reset, timeout, EOF).
    pub transport_retries: u64,
}

/// A [`Client`] wrapper that owns reconnection and retry policy: on a
/// transport error it drops the connection, backs off, reconnects, and
/// re-sends; on `503` it honors the server's `Retry-After` hint (capped
/// by the backoff ceiling, so a saturated test daemon cannot stall the
/// caller for whole seconds).
pub struct RetryClient {
    addr: String,
    client: Option<Client>,
    backoff: Backoff,
    stats: RetryStats,
}

impl RetryClient {
    /// A retrying client for `addr`; `seed` drives the jitter schedule.
    pub fn new(addr: &str, seed: u64) -> RetryClient {
        RetryClient {
            addr: addr.to_string(),
            client: None,
            backoff: Backoff::new(Duration::from_millis(10), Duration::from_millis(500), seed),
            stats: RetryStats::default(),
        }
    }

    /// The counters accumulated so far.
    pub fn stats(&self) -> RetryStats {
        self.stats
    }

    /// Sends one request, reconnecting and retrying for up to
    /// `max_attempts` tries. Returns the first non-`503` response; if
    /// the budget runs out while the server still answers `503`, that
    /// final `503` is returned (callers treat any non-200 as failure).
    /// Transport errors past the budget surface as the last `io::Error`.
    pub fn request_with_retry(
        &mut self,
        method: &str,
        target: &str,
        body: &[u8],
        max_attempts: u32,
    ) -> io::Result<ClientResponse> {
        let mut last_err: Option<io::Error> = None;
        let mut last_503: Option<ClientResponse> = None;
        for attempt in 0..max_attempts.max(1) {
            let client = match self.client.as_mut() {
                Some(c) => c,
                None => match Client::connect(&self.addr) {
                    Ok(c) => {
                        self.stats.connects += 1;
                        if self.stats.connects > 1 {
                            self.stats.reconnects += 1;
                        }
                        self.client.insert(c)
                    }
                    Err(e) => {
                        last_err = Some(e);
                        std::thread::sleep(self.backoff.next_delay());
                        continue;
                    }
                },
            };
            match client.request(method, target, body) {
                Ok(resp) if resp.status == 503 => {
                    self.stats.retries_503 += 1;
                    let delay = self.backoff.next_delay().max(retry_after(&resp, 1));
                    last_503 = Some(resp);
                    std::thread::sleep(delay);
                }
                Ok(resp) => {
                    self.backoff.reset();
                    return Ok(resp);
                }
                Err(e) => {
                    // The connection is in an unknown state (a timed-out
                    // response may still arrive) — never reuse it.
                    self.client = None;
                    last_err = Some(e);
                    if attempt + 1 < max_attempts {
                        self.stats.transport_retries += 1;
                        std::thread::sleep(self.backoff.next_delay());
                    }
                }
            }
        }
        match last_503 {
            Some(resp) => Ok(resp),
            None => Err(last_err
                .unwrap_or_else(|| io::Error::other("retry budget exhausted with no attempt"))),
        }
    }

    /// Convenience: `GET` with retries.
    pub fn get(&mut self, target: &str, max_attempts: u32) -> io::Result<ClientResponse> {
        self.request_with_retry("GET", target, b"", max_attempts)
    }

    /// Convenience: `POST` a JSON body with retries.
    pub fn post_json(
        &mut self,
        target: &str,
        json: &str,
        max_attempts: u32,
    ) -> io::Result<ClientResponse> {
        self.request_with_retry("POST", target, json.as_bytes(), max_attempts)
    }
}

/// The server's `Retry-After` hint in seconds, capped so a polite hint
/// cannot stall a fast retry loop; `default_secs` when absent/garbled.
fn retry_after(resp: &ClientResponse, default_secs: u64) -> Duration {
    let secs = resp
        .header("retry-after")
        .and_then(|v| v.parse::<u64>().ok())
        .unwrap_or(default_secs);
    Duration::from_millis((secs.saturating_mul(1000)).min(500))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_schedule_is_deterministic_per_seed() {
        let schedule = |seed: u64| -> Vec<Duration> {
            let mut b = Backoff::new(Duration::from_millis(10), Duration::from_millis(500), seed);
            (0..8).map(|_| b.next_delay()).collect()
        };
        assert_eq!(schedule(42), schedule(42), "same seed, same schedule");
        assert_ne!(schedule(42), schedule(43), "different seed, new jitter");
    }

    #[test]
    fn backoff_ramps_exponentially_and_saturates() {
        let mut b = Backoff::new(Duration::from_millis(10), Duration::from_millis(80), 7);
        let delays: Vec<Duration> = (0..10).map(|_| b.next_delay()).collect();
        // Attempt k draws from [ceil/2, ceil] with ceil = min(80, 10<<k).
        for (k, d) in delays.iter().enumerate() {
            let ceil = Duration::from_millis((10u64 << k.min(16)).min(80));
            assert!(*d >= ceil / 2, "attempt {k}: {d:?} below floor");
            assert!(*d <= ceil, "attempt {k}: {d:?} above ceiling");
        }
        // Once saturated, every delay is within the cap band.
        assert!(delays[9] >= Duration::from_millis(40));
        assert!(delays[9] <= Duration::from_millis(80));
    }

    #[test]
    fn backoff_reset_restarts_the_ramp() {
        let mut b = Backoff::new(Duration::from_millis(16), Duration::from_millis(1024), 1);
        for _ in 0..5 {
            b.next_delay();
        }
        b.reset();
        assert!(b.next_delay() <= Duration::from_millis(16));
    }

    #[test]
    fn retry_after_parses_and_caps() {
        let resp = |headers: Vec<(String, String)>| ClientResponse {
            status: 503,
            headers,
            body: Vec::new(),
        };
        let with = resp(vec![("retry-after".to_string(), "1".to_string())]);
        assert_eq!(retry_after(&with, 0), Duration::from_millis(500));
        let without = resp(Vec::new());
        assert_eq!(retry_after(&without, 0), Duration::ZERO);
        let garbled = resp(vec![("retry-after".to_string(), "soon".to_string())]);
        assert_eq!(retry_after(&garbled, 2), Duration::from_millis(500));
    }

    #[test]
    fn retry_client_surfaces_connect_failure() {
        // Nothing listens on this port (reserved, unroutable in tests);
        // the client must give up with the connect error, not hang.
        let mut c = RetryClient::new("127.0.0.1:1", 3);
        let err = c.request_with_retry("GET", "/healthz", b"", 2);
        assert!(err.is_err());
        assert_eq!(c.stats().connects, 0);
    }
}
