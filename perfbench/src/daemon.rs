//! The daemon path: a real `vstar_serve::Daemon` on loopback, driven as a
//! closed loop by two client connections.
//!
//! The loop's connections send each frame in one `write` on a `TCP_NODELAY`
//! socket ([`FrameConn`]). `vstar_serve::Client` writes the frame header and
//! the payload separately without `TCP_NODELAY`, so every request it sends
//! waits about 40 ms for the daemon's delayed ACK; a loop on it would time
//! that kernel timer instead of the daemon. Its round trip is reported as
//! the per-layer `client.q_ms`. The daemon has the mirror image of that
//! stall: a reply larger than its 8 KiB `BufWriter` (an `A /metrics` body)
//! leaves as the 4-byte length and then the payload, and the payload waits
//! for the client's ACK of the length. [`FrameConn::scrape`] asks for that
//! ACK at once; the stall itself is reported as `admin_metrics.stall_ms`.

use std::io::Write;
use std::net::{SocketAddr, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::Arc;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use vstar_serve::{encode_named, op, read_frame, write_frame, AccessLog, Daemon, GrammarRegistry};
use vstar_telemetry::MetricsRegistry;

use crate::corpus::{stream_seed, LangCorpus, Stream};
use crate::host;
use crate::serving::Labels;
use crate::stats::percentile;

/// Client connections of the closed loop.
pub const CLIENTS: usize = 2;
/// `P` republishes per slice of the loop, all sent by the first connection so
/// that two reloads never parse at once: about one request in 2000 at
/// today's speed. The count is fixed per slice, not per request, so a faster
/// `Q` path does not buy more reloads (and the memory and time they cost).
const PUBLISHES_PER_SLICE: u32 = 4;

/// How many of a slice's republishes connection `index` sends.
fn publishes(index: usize) -> u32 {
    if index == 0 {
        PUBLISHES_PER_SLICE
    } else {
        0
    }
}
/// Every this many requests of a connection, one is an `A /metrics` scrape
/// (unless it is a `P`).
const SCRAPE_EVERY: u64 = 200;

/// A started daemon with every artifact published and the loop's
/// connections open.
pub struct Served {
    /// The daemon.
    pub daemon: Daemon,
    /// Connected, labelled loop connections.
    pub conns: Vec<FrameConn>,
}

impl Served {
    /// Hangs up every connection, then stops the daemon.
    pub fn stop(mut self) {
        self.conns.clear();
        self.daemon.shutdown();
    }
}

/// Starts a daemon on an ephemeral loopback port, connects [`CLIENTS`]
/// connections and publishes every artifact with `P` frames.
///
/// # Errors
///
/// Bind, connect or publish failures, rendered.
pub fn start(artifacts: &[(&str, String)]) -> Result<Served, String> {
    let access_log = AccessLog::new(Box::new(std::io::sink()));
    let daemon = Daemon::start(
        "127.0.0.1:0",
        Arc::new(GrammarRegistry::new()),
        Arc::new(MetricsRegistry::new()),
        access_log,
    )
    .map_err(|e| format!("daemon start: {e}"))?;
    let mut conns = (0..CLIENTS)
        .map(|c| FrameConn::connect(daemon.addr(), &format!("bench-{c}")))
        .collect::<Result<Vec<_>, _>>()?;
    for (name, json) in artifacts {
        if !conns[0].publish(name, json)? {
            return Err(format!("publish {name}: not acknowledged"));
        }
    }
    Ok(Served { daemon, conns })
}

/// Length of one slice of the closed loop. Between slices both connections
/// pause while the host slowdown is measured.
const LOOP_SLICE: Duration = Duration::from_millis(500);

/// What one connection saw in one slice of the closed loop.
#[derive(Debug, Default)]
struct ClientLog {
    query_ns: Vec<u64>,
    publish_ns: Vec<u64>,
    scrape_ns: Vec<u64>,
    wrong_queries: Vec<(usize, usize)>,
    failed_requests: u64,
    completed: u64,
}

/// What the closed loop saw over both connections.
#[derive(Debug, Default)]
pub struct LoopRun {
    /// `Q` round trips, nanoseconds.
    pub query_ns: Vec<u64>,
    /// `Q` round trips, each divided by the host slowdown measured right
    /// after its slice.
    pub scaled_query_ns: Vec<u64>,
    /// The 99th percentile of each slice's scaled `Q` round trips. Its median
    /// over slices is `q_p99_us`: the tail comes from the `Q` requests that
    /// share the CPU with a reload, and a few slices hit by the host's own
    /// hiccups would otherwise set it.
    pub slice_p99_ns: Vec<f64>,
    /// `P` round trips, nanoseconds.
    pub publish_ns: Vec<u64>,
    /// `A /metrics` round trips, nanoseconds.
    pub scrape_ns: Vec<u64>,
    /// `(language, short input)` of every `Q` answered with a verdict that
    /// differs from the reference.
    pub wrong_queries: Vec<(usize, usize)>,
    /// Error replies, broken connections, unacknowledged `P` and empty `A`.
    pub failed_requests: u64,
    /// Requests answered (correctly or not).
    pub completed: u64,
    /// Wall time of the loop's slices.
    pub wall_s: f64,
    /// Per slice, requests answered over its wall time divided by the
    /// slowdown after it. Their median is `daemon_req_per_s`.
    pub slice_rates: Vec<f64>,
}

/// Where one connection is in its request schedule.
struct ClientState {
    rng: StdRng,
    next_artifact: usize,
    sent: u64,
}

/// Runs the closed loop for `budget` on every connection of `served`, in
/// equal slices of about [`LOOP_SLICE`]. The speed of a shared host drifts within
/// seconds, so each slice's round trips and wall time are also divided by
/// the [`host::slowdown`] measured right after it.
#[must_use]
pub fn run_loop(
    served: &mut Served,
    corpora: &[LangCorpus],
    labels: &[Labels],
    artifacts: &[(&str, String)],
    budget: Duration,
    seed: u64,
) -> LoopRun {
    let addr = served.daemon.addr();
    let mut states: Vec<ClientState> = (0..served.conns.len())
        .map(|c| ClientState {
            rng: StdRng::seed_from_u64(stream_seed(seed, Stream::Requests) ^ c as u64),
            next_artifact: c,
            sent: 0,
        })
        .collect();
    let mut run = LoopRun::default();
    let slices = budget.as_nanos().div_ceil(LOOP_SLICE.as_nanos()).max(1);
    let slice = budget / u32::try_from(slices).expect("a run has few slices");
    for _ in 0..slices {
        let t = Instant::now();
        let logs: Vec<ClientLog> = std::thread::scope(|scope| {
            let handles: Vec<_> = served
                .conns
                .iter_mut()
                .zip(&mut states)
                .enumerate()
                .map(|(c, (conn, state))| {
                    scope.spawn(move || {
                        client_slice(conn, state, addr, c, corpora, labels, artifacts, slice)
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("client threads do not panic")).collect()
        });
        let wall = t.elapsed().as_secs_f64();
        let slowdown = host::slowdown();
        run.wall_s += wall;
        let completed: u64 = logs.iter().map(|log| log.completed).sum();
        run.slice_rates.push(completed as f64 * slowdown / wall);
        let scaled: Vec<u64> = logs
            .iter()
            .flat_map(|log| &log.query_ns)
            .map(|&ns| (ns as f64 / slowdown) as u64)
            .collect();
        run.slice_p99_ns.push(percentile(&scaled, 99.0) as f64);
        run.scaled_query_ns.extend(scaled);
        for log in logs {
            run.query_ns.extend(log.query_ns);
            run.publish_ns.extend(log.publish_ns);
            run.scrape_ns.extend(log.scrape_ns);
            run.wrong_queries.extend(log.wrong_queries);
            run.failed_requests += log.failed_requests;
            run.completed += log.completed;
        }
    }
    run
}

/// One request of the loop.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Request {
    Publish,
    Scrape,
    Query,
}

/// What the `n`-th request (from 1) of connection `index` is, `elapsed` into
/// a slice of length `slice` in which it has sent `published` republishes.
/// The `k`-th `P` of a slice is due at `k / PUBLISHES_PER_SLICE` of the
/// slice; the ones still due when the slice ends are sent before it closes,
/// so every slice has exactly [`PUBLISHES_PER_SLICE`] of them.
fn schedule(index: usize, n: u64, published: u32, elapsed: Duration, slice: Duration) -> Request {
    if published < publishes(index) && elapsed >= slice * published / PUBLISHES_PER_SLICE {
        Request::Publish
    } else if n % SCRAPE_EVERY == 0 {
        Request::Scrape
    } else {
        Request::Query
    }
}

#[allow(clippy::too_many_arguments)]
fn client_slice(
    conn: &mut FrameConn,
    state: &mut ClientState,
    addr: SocketAddr,
    index: usize,
    corpora: &[LangCorpus],
    labels: &[Labels],
    artifacts: &[(&str, String)],
    slice: Duration,
) -> ClientLog {
    let mut log = ClientLog::default();
    let mut published = 0;
    let start = Instant::now();
    loop {
        let elapsed = start.elapsed();
        if elapsed >= slice && published == publishes(index) {
            break;
        }
        state.sent += 1;
        let mut query = None;
        let request = schedule(index, state.sent, published, elapsed, slice);
        let t = Instant::now();
        let outcome = match request {
            Request::Publish => {
                let (name, json) = &artifacts[state.next_artifact % artifacts.len()];
                state.next_artifact += 1;
                published += 1;
                conn.publish(name, json)
            }
            Request::Scrape => conn.scrape(true).map(|body| !body.is_empty()),
            Request::Query => {
                let l = state.rng.gen_range(0..corpora.len());
                let i = state.rng.gen_range(0..corpora[l].short.len());
                query = Some((l, i));
                conn.query(corpora[l].name, &corpora[l].short[i])
                    .map(|verdict| verdict == labels[l].short[i])
            }
        };
        let ns = t.elapsed().as_nanos() as u64;
        match request {
            Request::Publish => log.publish_ns.push(ns),
            Request::Scrape => log.scrape_ns.push(ns),
            Request::Query => log.query_ns.push(ns),
        }
        match outcome {
            Ok(ok) => {
                log.completed += 1;
                if !ok {
                    match query {
                        Some(input) => log.wrong_queries.push(input),
                        None => log.failed_requests += 1,
                    }
                }
            }
            Err(_) => {
                log.failed_requests += 1;
                match FrameConn::connect(addr, &format!("bench-{index}")) {
                    Ok(fresh) => *conn = fresh,
                    Err(_) => break,
                }
            }
        }
    }
    log
}

/// A protocol connection over `vstar_serve`'s public framing: each frame
/// leaves in one `write` on a `TCP_NODELAY` socket.
pub struct FrameConn {
    stream: TcpStream,
}

impl FrameConn {
    /// Connects to `addr` with Nagle's algorithm off and, unless `label` is
    /// empty, names the connection with a `HELLO` frame.
    ///
    /// # Errors
    ///
    /// Connect or `HELLO` failures, rendered.
    pub fn connect(addr: SocketAddr, label: &str) -> Result<Self, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
        stream.set_nodelay(true).map_err(|e| format!("nodelay: {e}"))?;
        let mut conn = FrameConn { stream };
        if !label.is_empty() {
            let mut hello = vec![op::HELLO];
            hello.extend_from_slice(label.as_bytes());
            conn.call(&hello)?;
        }
        Ok(conn)
    }

    /// Sends one frame without waiting for a reply.
    ///
    /// # Errors
    ///
    /// Wire failures, rendered.
    pub fn send(&mut self, payload: &[u8]) -> Result<(), String> {
        let mut frame = Vec::with_capacity(payload.len() + 4);
        write_frame(&mut frame, payload).map_err(|e| format!("frame: {e}"))?;
        self.stream.write_all(&frame).map_err(|e| format!("send: {e}"))
    }

    /// Sends one frame and returns the text of its `+` reply.
    ///
    /// # Errors
    ///
    /// Wire failures and `-` replies, rendered.
    pub fn call(&mut self, payload: &[u8]) -> Result<String, String> {
        self.send(payload)?;
        self.reply()
    }

    /// Reads one reply frame and returns the text of a `+` reply.
    fn reply(&mut self) -> Result<String, String> {
        let reply = read_frame(&mut self.stream)
            .map_err(|e| format!("reply: {e}"))?
            .ok_or("the daemon hung up")?;
        let text = String::from_utf8_lossy(&reply).into_owned();
        match text.strip_prefix('+') {
            Some(body) => Ok(body.to_string()),
            None => Err(format!("error reply: {text}")),
        }
    }

    /// One-shot `Q` verdict.
    ///
    /// # Errors
    ///
    /// As [`FrameConn::call`], or a reply that is not a verdict.
    pub fn query(&mut self, grammar: &str, input: &str) -> Result<bool, String> {
        match self.call(&encode_named(op::QUERY, grammar, input.as_bytes()))?.as_str() {
            "accept" => Ok(true),
            "reject" => Ok(false),
            other => Err(format!("unexpected verdict {other:?}")),
        }
    }

    /// `P` republish of one artifact; whether the daemon acknowledged it.
    ///
    /// # Errors
    ///
    /// As [`FrameConn::call`].
    pub fn publish(&mut self, grammar: &str, json: &str) -> Result<bool, String> {
        let reply = self.call(&encode_named(op::PUBLISH, grammar, json.as_bytes()))?;
        Ok(reply.starts_with("ok "))
    }

    /// The `A /metrics` body. With `quick_ack`, the reply's length is
    /// acknowledged at once, so the daemon sends the body without waiting
    /// for the delayed-ACK timer.
    ///
    /// # Errors
    ///
    /// As [`FrameConn::call`], or a failed `setsockopt`.
    pub fn scrape(&mut self, quick_ack: bool) -> Result<String, String> {
        let mut admin = vec![op::ADMIN];
        admin.extend_from_slice(b"/metrics");
        self.send(&admin)?;
        if quick_ack {
            self.quick_ack()?;
        }
        self.reply()
    }

    /// Switches the socket to quick-ACK mode (`TCP_QUICKACK`), which also
    /// sends an ACK that is already pending. The kernel leaves the mode again
    /// on its own, so it is set per request.
    fn quick_ack(&self) -> Result<(), String> {
        const IPPROTO_TCP: i32 = 6;
        const TCP_QUICKACK: i32 = 12;
        extern "C" {
            fn setsockopt(fd: i32, level: i32, name: i32, value: *const i32, len: u32) -> i32;
        }
        let on: i32 = 1;
        // SAFETY: the descriptor is this connection's open socket, and `on`
        // is a live `int` of the length passed.
        let rc = unsafe { setsockopt(self.stream.as_raw_fd(), IPPROTO_TCP, TCP_QUICKACK, &on, 4) };
        if rc == 0 {
            Ok(())
        } else {
            Err(format!("TCP_QUICKACK: {}", std::io::Error::last_os_error()))
        }
    }
}

/// Streams every `short` input through `B`/`D`/`E` in seeded chunks (which
/// may split UTF-8 sequences) and counts the `END` verdicts that differ from
/// the `Q` verdict for the same input.
///
/// # Errors
///
/// Wire failures, rendered.
pub fn stream_disagreements(
    conn: &mut FrameConn,
    corpora: &[LangCorpus],
    seed: u64,
) -> Result<u64, String> {
    let mut rng = StdRng::seed_from_u64(stream_seed(seed, Stream::Chunks));
    let mut disagree = 0;
    for c in corpora {
        let mut begin = vec![op::BEGIN];
        begin.extend_from_slice(c.name.as_bytes());
        conn.call(&begin)?;
        for s in &c.short {
            let bytes = s.as_bytes();
            let mut at = 0;
            while at < bytes.len() {
                let end = (at + rng.gen_range(1..=8usize)).min(bytes.len());
                let mut data = vec![op::DATA];
                data.extend_from_slice(&bytes[at..end]);
                conn.send(&data)?;
                at = end;
            }
            let streamed = match conn.call(&[op::END])?.as_str() {
                "accept" => true,
                "reject" => false,
                other => return Err(format!("unexpected verdict {other:?}")),
            };
            disagree += u64::from(streamed != conn.query(c.name, s)?);
        }
    }
    Ok(disagree)
}

/// Median in-process `recognize` time, in nanoseconds, over the inputs the
/// loop draws from (every `short` input of every grammar), `reps` times each.
#[must_use]
pub fn local_recognize_ns(
    grammars: &[vstar_parser::CompiledGrammar],
    corpora: &[LangCorpus],
    reps: usize,
) -> f64 {
    let mut samples = Vec::new();
    for _ in 0..reps {
        for (g, c) in grammars.iter().zip(corpora) {
            for s in &c.short {
                let t = Instant::now();
                std::hint::black_box(g.recognize(std::hint::black_box(s)));
                samples.push(t.elapsed().as_nanos() as f64);
            }
        }
    }
    crate::stats::median(&samples)
}

/// Times `reps` sequential calls of `request`, in milliseconds.
///
/// # Errors
///
/// The first failed call.
pub fn round_trips_ms(
    reps: usize,
    mut request: impl FnMut(usize) -> Result<(), String>,
) -> Result<Vec<f64>, String> {
    (0..reps)
        .map(|i| {
            let t = Instant::now();
            request(i)?;
            Ok(t.elapsed().as_secs_f64() * 1e3)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_slice_has_a_fixed_number_of_publishes() {
        let slice = Duration::from_millis(500);
        for index in 0..CLIENTS {
            // Walk a slice at 1 ms per request, then drain what is still due.
            let (mut published, mut scrapes, mut n) = (0, 0, 0);
            let mut elapsed = Duration::ZERO;
            while elapsed < slice || published < publishes(index) {
                n += 1;
                match schedule(index, n, published, elapsed, slice) {
                    Request::Publish => published += 1,
                    Request::Scrape => scrapes += 1,
                    Request::Query => {}
                }
                elapsed += Duration::from_millis(1);
            }
            assert_eq!(published, publishes(index), "connection {index}");
            assert_eq!(scrapes, 2, "connection {index}");
        }
        assert_eq!((0..CLIENTS).map(publishes).sum::<u32>(), PUBLISHES_PER_SLICE);
        assert_eq!(schedule(0, 1, 0, Duration::ZERO, slice), Request::Publish);
        assert_eq!(schedule(0, 2, 1, Duration::ZERO, slice), Request::Query);
        assert_eq!(schedule(0, 2, 1, slice / 4, slice), Request::Publish);
        // Republishes still due when the slice ends come first.
        assert_eq!(schedule(0, SCRAPE_EVERY, 2, slice, slice), Request::Publish);
    }
}
