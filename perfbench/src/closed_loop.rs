//! The checker workloads' load generator: plays the nodes' role toward the
//! checker process over loopback TCP, closed loop. Each simulated node
//! owns one connection and keeps exactly one submission in flight; it
//! submits its next recorded state when the install push for the
//! previous one arrives. All submissions come from the calling thread;
//! one reader thread per connection only timestamps incoming pushes.

use std::io::Write;
use std::net::TcpStream;
use std::sync::mpsc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use cb_live::{CtrlMsg, InstallBody, SubmitBody};
use cb_mc::EventFilter;
use cb_model::{Decode, FrameKind, NodeId, Protocol, WireFrame, MAX_FRAME_LEN};
use cb_snapshot::DeltaEncoder;

use crate::streams::Stream;

/// How long a submission may wait for its install push once the measured
/// window has closed before it counts as failed.
pub const INSTALL_DEADLINE: Duration = Duration::from_secs(30);

enum Incoming {
    Install(usize, Instant, Vec<u8>),
    Closed(usize),
}

/// A connected set of simulated nodes (the set-up half of a run).
pub struct Conns {
    streams: Vec<TcpStream>,
    readers: Vec<JoinHandle<()>>,
    rx: mpsc::Receiver<Incoming>,
}

/// Connects one socket per stream to the checker at `addr`, sends each
/// node's Hello, and starts the reader threads.
pub fn connect<P: Protocol>(
    addr: std::net::SocketAddr,
    streams: &[Stream<P>],
) -> std::io::Result<Conns> {
    let (tx, rx) = mpsc::channel();
    let mut socks = Vec::new();
    let mut readers = Vec::new();
    for (ix, s) in streams.iter().enumerate() {
        let mut sock = TcpStream::connect(addr)?;
        sock.set_nodelay(true)?;
        let hello = cb_live::wire::frame_of(
            s.node,
            NodeId::DUMMY,
            0,
            FrameKind::Control,
            &CtrlMsg::Hello { node: s.node },
        );
        cb_model::write_frame(&mut sock, &hello)?;
        let mut read_half = sock.try_clone()?;
        let tx = tx.clone();
        readers.push(
            std::thread::Builder::new()
                .name(format!("bench-reader-{ix}"))
                .spawn(move || loop {
                    match cb_model::read_frame(&mut read_half, MAX_FRAME_LEN) {
                        Ok(Some(payload)) => {
                            let at = Instant::now();
                            if tx.send(Incoming::Install(ix, at, payload)).is_err() {
                                return;
                            }
                        }
                        _ => {
                            let _ = tx.send(Incoming::Closed(ix));
                            return;
                        }
                    }
                })?,
        );
        socks.push(sock);
    }
    Ok(Conns {
        streams: socks,
        readers,
        rx,
    })
}

impl Conns {
    /// Closes every socket and joins the reader threads.
    pub fn close(self) {
        for s in &self.streams {
            let _ = s.shutdown(std::net::Shutdown::Both);
        }
        for r in self.readers {
            let _ = r.join();
        }
    }
}

/// What one closed-loop run observed.
#[derive(Default)]
pub struct LoopOutcome {
    /// Submit→install latency of every round answered inside the window, µs.
    pub latencies_us: Vec<f64>,
    /// Rounds answered in each whole second of the window (a level
    /// series shows the inputs are stationary).
    pub bins: Vec<u64>,
    /// Rounds answered inside the window.
    pub rounds: u64,
    /// Measured window, seconds.
    pub wall_s: f64,
    /// Process CPU seconds spent inside the window.
    pub cpu_s: f64,
    /// Submissions sent (inside the window plus the ones outstanding at
    /// its end).
    pub attempted: u64,
    /// Submissions never answered by the deadline.
    pub unanswered: u64,
    /// Pushes that did not match the node's outstanding submission
    /// (answered twice, out of order, or unsolicited).
    pub order_errors: u64,
    /// Install bodies whose filter list failed to decode.
    pub decode_errors: u64,
    /// Pushes carrying at least one filter.
    pub nonempty_installs: u64,
    /// Frames written plus frames read by the client.
    pub frames: u64,
    /// Stream wrap-arounds (0 when the recorded streams were long enough).
    pub wraps: u64,
    /// Every submit frame the client wrote (kept for the codec layer
    /// numbers when `keep_frames` is set).
    pub frames_sent: Vec<Vec<u8>>,
}

/// Runs the closed loop for `window` over `conns`, then waits for the
/// outstanding pushes. With the `cb-obs` recorder on, client spans wrap
/// each call into a layer. `limit` caps each node's submissions (the
/// run then ends when every node is done); `keep_frames` retains every
/// submit frame.
pub fn run<P: Protocol>(
    proto: &P,
    streams: &[Stream<P>],
    conns: &mut Conns,
    window: Duration,
    limit: Option<u64>,
    keep_frames: bool,
) -> LoopOutcome {
    let mut out = LoopOutcome::default();
    let mut nodes: Vec<NodeState> = streams.iter().map(|_| NodeState::default()).collect();
    let cpu0 = crate::util::cpu_seconds();
    let t0 = Instant::now();
    let end = t0 + window;
    for ix in 0..streams.len() {
        submit(streams, conns, &mut nodes, ix, t0, &mut out, keep_frames);
    }
    let mut window_open = true;
    let mut drain_deadline = end + INSTALL_DEADLINE;
    // Whole seconds only: a trailing partial second is not a bin.
    out.bins = vec![0; window.as_secs() as usize];
    loop {
        let now = Instant::now();
        if window_open && now >= end {
            window_open = false;
            out.wall_s = t0.elapsed().as_secs_f64();
            out.cpu_s = crate::util::cpu_seconds() - cpu0;
            drain_deadline = now + INSTALL_DEADLINE;
        }
        if nodes.iter().all(|n| n.inflight.is_none()) {
            break;
        }
        let wait = if window_open {
            end.saturating_duration_since(now)
        } else {
            drain_deadline.saturating_duration_since(now)
        };
        if !window_open && wait.is_zero() {
            break;
        }
        let msg = match conns.rx.recv_timeout(wait.max(Duration::from_micros(50))) {
            Ok(m) => m,
            Err(mpsc::RecvTimeoutError::Timeout) => continue,
            Err(mpsc::RecvTimeoutError::Disconnected) => break,
        };
        let (ix, at, payload) = match msg {
            Incoming::Install(ix, at, payload) => (ix, at, payload),
            Incoming::Closed(ix) => {
                // A closed connection answers nothing more.
                if nodes[ix].inflight.take().is_some() {
                    out.unanswered += 1;
                }
                nodes[ix].closed = true;
                continue;
            }
        };
        out.frames += 1;
        let span_start = if cb_obs::enabled() {
            cb_obs::now_us()
        } else {
            0
        };
        let body = WireFrame::from_bytes(&payload)
            .ok()
            .filter(|f| f.kind == FrameKind::FilterInstall)
            .and_then(|f| InstallBody::from_bytes(&f.body).ok());
        let Some(body) = body else {
            out.order_errors += 1;
            continue;
        };
        match nodes[ix].inflight.take() {
            Some((at_us, round, sent, sent_obs)) if body.at_us == at_us && body.round == round => {
                match EventFilter::decode_list(
                    &body.filters,
                    proto.message_kinds(),
                    proto.action_kinds(),
                ) {
                    Ok(list) if !list.is_empty() => out.nonempty_installs += 1,
                    Ok(_) => {}
                    Err(_) => out.decode_errors += 1,
                }
                if cb_obs::enabled() {
                    cb_obs::complete_span("live.decode_install", "bench", round, span_start);
                    cb_obs::complete_span("live.wait_install", "bench", round, sent_obs);
                }
                if window_open {
                    let bin = at.saturating_duration_since(t0).as_secs() as usize;
                    if let Some(b) = out.bins.get_mut(bin) {
                        *b += 1;
                    }
                    out.rounds += 1;
                    out.latencies_us
                        .push(at.duration_since(sent).as_secs_f64() * 1e6);
                }
            }
            other => {
                nodes[ix].inflight = other;
                out.order_errors += 1;
                continue;
            }
        }
        let more = limit.is_none_or(|l| nodes[ix].submitted < l);
        if more && window_open && Instant::now() < end {
            submit(streams, conns, &mut nodes, ix, t0, &mut out, keep_frames);
        }
    }
    if window_open {
        out.wall_s = t0.elapsed().as_secs_f64();
        out.cpu_s = crate::util::cpu_seconds() - cpu0;
    }
    out.unanswered += nodes.iter().filter(|n| n.inflight.is_some()).count() as u64;
    out.wraps = nodes.iter().map(|n| n.wraps).sum();
    out
}

#[derive(Default)]
struct NodeState {
    enc: DeltaEncoder,
    next: usize,
    wraps: u64,
    /// The submission awaiting its push: (at_us, round id, sent at,
    /// trace clock at send).
    inflight: Option<(u64, u64, Instant, u64)>,
    submitted: u64,
    closed: bool,
}

fn submit<P: Protocol>(
    streams: &[Stream<P>],
    conns: &mut Conns,
    nodes: &mut [NodeState],
    ix: usize,
    epoch: Instant,
    out: &mut LoopOutcome,
    keep_frames: bool,
) {
    let stream = &streams[ix];
    let node = &mut nodes[ix];
    if node.closed {
        return;
    }
    if node.next >= stream.states.len() {
        node.next = 0;
        node.wraps += 1;
    }
    let state = &stream.states[node.next];
    node.next += 1;
    node.submitted += 1;
    let sent = Instant::now();
    let sent_obs = if cb_obs::enabled() {
        cb_obs::now_us()
    } else {
        0
    };
    let at_us = sent.duration_since(epoch).as_micros() as u64;
    let round = (u64::from(stream.node.0) << 32) | node.submitted;
    let delta = {
        let _s = cb_obs::span_id("snapshot.encode", "bench", round);
        node.enc.encode_state(state)
    };
    let body = SubmitBody {
        node: stream.node,
        at_us,
        speculative: false,
        round,
        delta,
    };
    let frame = {
        let _s = cb_obs::span_id("model.frame", "bench", round);
        cb_live::wire::frame_of(stream.node, NodeId::DUMMY, 0, FrameKind::Submit, &body)
    };
    let wrote = {
        let _s = cb_obs::span_id("live.write", "bench", round);
        let mut buf = Vec::with_capacity(frame.len() + 4);
        cb_model::push_frame(&mut buf, &frame);
        conns.streams[ix].write_all(&buf)
    };
    out.attempted += 1;
    out.frames += 1;
    if keep_frames {
        out.frames_sent.push(frame);
    }
    if wrote.is_ok() {
        node.inflight = Some((at_us, round, sent, sent_obs));
    } else {
        out.unanswered += 1;
        node.closed = true;
    }
}
