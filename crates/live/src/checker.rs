//! The checker *process*: a TCP server wrapping
//! [`crystalball::WireChecker`].
//!
//! "We run the model checker as a separate thread that communicates
//! future inconsistencies to the runtime" (§4) — here it is separate in
//! the strongest sense the workspace can express: live nodes reach it
//! only through sockets. Nodes ship diff-encoded neighborhood states
//! ([`crate::wire::SubmitBody`]); completed rounds travel back as
//! filter-install pushes on the same connection. Every round still runs
//! on the sharded `CheckerPool`/`CheckerHost` machinery, so the live
//! deployment shares its checking capacity exactly the way the fleet
//! harness does.

use std::collections::HashMap;
use std::io::Read;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use cb_model::{
    push_frame, Decode, Encode, FrameBuffer, FrameKind, NodeId, PropertySet, Protocol, SimTime,
    WireFrame,
};
use crystalball::{ControllerConfig, WireChecker};

use crate::stats::CheckerProcessStats;
use crate::wire::{frame_of, CtrlMsg, InstallBody, SubmitBody};

static M_SUBMITS: cb_obs::metrics::Counter = cb_obs::metrics::Counter::new(
    "cb_checker_submits_total",
    "full-snapshot submissions accepted by the checker process",
);
static M_ROUNDS: cb_obs::metrics::Counter = cb_obs::metrics::Counter::new(
    "cb_checker_rounds_total",
    "checking rounds completed by the checker process",
);
static M_PREDICTIONS: cb_obs::metrics::Counter = cb_obs::metrics::Counter::new(
    "cb_checker_predictions_total",
    "completed rounds that predicted a future inconsistency",
);
static M_BACKLOG: cb_obs::metrics::Gauge = cb_obs::metrics::Gauge::new(
    "cb_checker_backlog",
    "rounds submitted to the checker but not yet completed",
);

/// The driver-side handle of the checker process.
pub struct CheckerHandle {
    /// Listener address (nodes discover it via the registry).
    pub addr: SocketAddr,
    stop: Arc<AtomicBool>,
    join: JoinHandle<CheckerProcessStats>,
    probe_tx: mpsc::Sender<mpsc::Sender<CheckerProcessStats>>,
}

impl CheckerHandle {
    /// Current counters without stopping the process.
    pub fn probe(&self, timeout: Duration) -> Option<CheckerProcessStats> {
        let (tx, rx) = mpsc::channel();
        self.probe_tx.send(tx).ok()?;
        rx.recv_timeout(timeout).ok()
    }

    /// Stops the process: drains in-flight rounds (bounded), pushes their
    /// installs, joins the thread, and returns the final counters.
    pub fn shutdown(self) -> CheckerProcessStats {
        self.stop.store(true, Ordering::Relaxed);
        self.join.join().unwrap_or_default()
    }
}

/// Boots the checker server on a loopback port.
pub fn spawn_checker<P: Protocol>(
    protocol: P,
    props: PropertySet<P>,
    config: ControllerConfig,
    drain_timeout: Duration,
) -> std::io::Result<CheckerHandle> {
    let listener = TcpListener::bind(("127.0.0.1", 0))?;
    listener.set_nonblocking(true)?;
    let addr = listener.local_addr()?;
    let stop = Arc::new(AtomicBool::new(false));
    let stop2 = stop.clone();
    let (probe_tx, probe_rx) = mpsc::channel::<mpsc::Sender<CheckerProcessStats>>();
    let join = thread::Builder::new()
        .name("cb-live-checker".into())
        .spawn(move || {
            let mut srv = CheckerSrv::<P>::new(protocol, props, config, listener, drain_timeout);
            srv.run(&stop2, &probe_rx)
        })
        .expect("spawn checker thread");
    Ok(CheckerHandle {
        addr,
        stop,
        join,
        probe_tx,
    })
}

struct CheckerConn {
    stream: TcpStream,
    inbuf: FrameBuffer,
    out: Vec<u8>,
    node: Option<NodeId>,
    dead: bool,
}

struct CheckerSrv<P: Protocol> {
    checker: WireChecker<P>,
    listener: TcpListener,
    conns: Vec<CheckerConn>,
    /// seq → (receipt instant, node, node-clock submission stamp,
    /// observability round id).
    inflight: HashMap<u64, (Instant, NodeId, u64, u64)>,
    stats: CheckerProcessStats,
    drain_timeout: Duration,
}

impl<P: Protocol> CheckerSrv<P> {
    fn new(
        protocol: P,
        props: PropertySet<P>,
        config: ControllerConfig,
        listener: TcpListener,
        drain_timeout: Duration,
    ) -> Self {
        let checker = WireChecker::new(protocol, props, config, cb_mc::WorkerPool::new(1), None);
        M_SUBMITS.touch();
        M_ROUNDS.touch();
        M_PREDICTIONS.touch();
        M_BACKLOG.touch();
        CheckerSrv {
            checker,
            listener,
            conns: Vec::new(),
            inflight: HashMap::new(),
            stats: CheckerProcessStats::default(),
            drain_timeout,
        }
    }

    fn run(
        &mut self,
        stop: &AtomicBool,
        probe_rx: &mpsc::Receiver<mpsc::Sender<CheckerProcessStats>>,
    ) -> CheckerProcessStats {
        while !stop.load(Ordering::Relaxed) {
            let mut worked = self.accept_new();
            worked |= self.pump_reads();
            worked |= self.push_completed(false);
            worked |= self.pump_writes();
            self.reap_dead();
            M_BACKLOG.set(self.checker.pending());
            while let Ok(tx) = probe_rx.try_recv() {
                let _ = tx.send(self.snapshot_stats());
            }
            if !worked {
                thread::sleep(Duration::from_millis(1));
            }
        }
        // Graceful drain: finish in-flight rounds (bounded) and flush the
        // resulting installs so a shutting-down deployment still observes
        // every prediction it paid for. Keep pumping until every live
        // connection's queue is empty (a pass can write zero bytes on a
        // momentarily full send buffer without being done).
        self.push_completed(true);
        let deadline = Instant::now() + Duration::from_millis(500);
        while Instant::now() < deadline {
            let flushed = self.pump_writes();
            if !flushed && self.conns.iter().all(|c| c.out.is_empty() || c.dead) {
                break;
            }
            thread::sleep(Duration::from_micros(200));
        }
        self.snapshot_stats()
    }

    fn snapshot_stats(&self) -> CheckerProcessStats {
        let mut s = self.stats.clone();
        let ws = self.checker.wire_stats();
        s.wire_shipped_bytes = ws.shipped_bytes;
        s.wire_raw_bytes = ws.raw_bytes;
        s.cache = self.checker.cache_stats();
        s
    }

    fn accept_new(&mut self) -> bool {
        let mut any = false;
        loop {
            match self.listener.accept() {
                Ok((stream, _)) => {
                    let _ = stream.set_nodelay(true);
                    let _ = stream.set_nonblocking(true);
                    self.conns.push(CheckerConn {
                        stream,
                        inbuf: FrameBuffer::new(cb_model::MAX_FRAME_LEN),
                        out: Vec::new(),
                        node: None,
                        dead: false,
                    });
                    any = true;
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(_) => break,
            }
        }
        any
    }

    fn pump_reads(&mut self) -> bool {
        let mut any = false;
        let mut buf = [0u8; 4096];
        let mut frames: Vec<(usize, WireFrame)> = Vec::new();
        for (ix, conn) in self.conns.iter_mut().enumerate() {
            if conn.dead {
                continue;
            }
            loop {
                match conn.stream.read(&mut buf) {
                    Ok(0) => {
                        conn.dead = true;
                        break;
                    }
                    Ok(n) => {
                        any = true;
                        conn.inbuf.feed(&buf[..n]);
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                    Err(_) => {
                        conn.dead = true;
                        break;
                    }
                }
            }
            loop {
                match conn.inbuf.next_frame() {
                    Ok(Some(payload)) => {
                        if let Ok(frame) = WireFrame::from_bytes(&payload) {
                            frames.push((ix, frame));
                        }
                    }
                    Ok(None) => break,
                    Err(_) => {
                        conn.dead = true;
                        break;
                    }
                }
            }
        }
        for (ix, frame) in frames {
            self.on_frame(ix, frame);
        }
        any
    }

    fn on_frame(&mut self, conn_ix: usize, frame: WireFrame) {
        match frame.kind {
            FrameKind::Control => {
                if let Ok(CtrlMsg::Hello { node }) = CtrlMsg::from_bytes(&frame.body) {
                    if let Some(c) = self.conns.get_mut(conn_ix) {
                        c.node = Some(node);
                    }
                }
                // Goodbye: the EOF that follows does the cleanup.
            }
            FrameKind::Submit => {
                let Ok(body) = SubmitBody::from_bytes(&frame.body) else {
                    self.stats.submits_rejected += 1;
                    return;
                };
                if let Some(c) = self.conns.get_mut(conn_ix) {
                    c.node = Some(body.node);
                }
                if body.speculative {
                    // Optimistic execution: a partial-gather pre-warm. No
                    // install push ever answers it, so it never enters
                    // `inflight`; the outcome lands in the shared
                    // prediction cache where the full-snapshot round finds
                    // (or cancels) it.
                    match self.checker.submit_speculative_delta_tagged(
                        SimTime(body.at_us),
                        body.node,
                        &body.delta,
                        body.round,
                    ) {
                        Ok(()) => self.stats.spec_submits_received += 1,
                        Err(_) => {
                            self.stats.submits_rejected += 1;
                            if let Some(c) = self.conns.get_mut(conn_ix) {
                                c.dead = true;
                            }
                        }
                    }
                    return;
                }
                match self.checker.submit_delta_tagged(
                    SimTime(body.at_us),
                    body.node,
                    &body.delta,
                    body.round,
                ) {
                    Ok(seq) => {
                        cb_obs::instant_id("checker.submit_received", "checker", body.round);
                        M_SUBMITS.inc();
                        self.stats.submits_received += 1;
                        self.inflight
                            .insert(seq, (Instant::now(), body.node, body.at_us, body.round));
                    }
                    Err(_) => {
                        // Out-of-order / corrupt lineage: protocol error
                        // on this connection. Drop it; the node redials
                        // with a fresh encoder.
                        self.stats.submits_rejected += 1;
                        if let Some(c) = self.conns.get_mut(conn_ix) {
                            c.dead = true;
                        }
                    }
                }
            }
            // Nodes never send these to the checker.
            FrameKind::Service | FrameKind::Snap | FrameKind::FilterInstall => {}
        }
    }

    /// Folds completed rounds into install pushes. With `drain`, blocks
    /// (bounded) until every submitted round has finished.
    fn push_completed(&mut self, drain: bool) -> bool {
        let rounds = if drain {
            self.checker.drain(self.drain_timeout)
        } else {
            self.checker.try_rounds()
        };
        let mut any = false;
        for round in rounds {
            any = true;
            M_ROUNDS.inc();
            self.stats.rounds_completed += 1;
            if round.violation.is_some() {
                M_PREDICTIONS.inc();
                self.stats.predictions += 1;
            }
            let (node, at_us, obs_round) = match self.inflight.remove(&round.seq) {
                Some((recv, node, at_us, obs_round)) => {
                    self.stats
                        .round_latency
                        .record(recv.elapsed().as_micros() as u64);
                    (node, at_us, obs_round)
                }
                None => (round.node, 0, 0),
            };
            cb_obs::instant_id("checker.install_push", "checker", obs_round);
            // §2's operator notification, as a first-class alert: a
            // predicted (not yet occurred) violation, joinable to the
            // chrome trace by the shared round id.
            if let Some(v) = round.violation.as_ref() {
                cb_obs::health::predicted_violation(
                    obs_round,
                    node.0,
                    &v.property,
                    round.depth.map(|d| d as u64),
                );
            }
            // Push the round's outcome — including an empty filter set,
            // which tells the node to expire the previous round's filters
            // (§3.3).
            let body = InstallBody {
                seq: round.seq,
                at_us,
                round: obs_round,
                filters: round.filters.to_bytes(),
            };
            let frame = frame_of(NodeId::DUMMY, node, 0, FrameKind::FilterInstall, &body);
            if let Some(conn) = self
                .conns
                .iter_mut()
                .find(|c| c.node == Some(node) && !c.dead)
            {
                push_frame(&mut conn.out, &frame);
                // Counted only when the push was actually queued to a live
                // connection — a churned-away node's install is dropped.
                if !round.filters.is_empty() {
                    self.stats.installs_sent += 1;
                }
            }
        }
        any
    }

    fn pump_writes(&mut self) -> bool {
        let mut any = false;
        for conn in &mut self.conns {
            if conn.dead || conn.out.is_empty() {
                continue;
            }
            loop {
                if conn.out.is_empty() {
                    break;
                }
                use std::io::Write;
                match conn.stream.write(&conn.out) {
                    Ok(0) => {
                        conn.dead = true;
                        break;
                    }
                    Ok(n) => {
                        any = true;
                        conn.out.drain(..n);
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                    Err(_) => {
                        conn.dead = true;
                        break;
                    }
                }
            }
        }
        any
    }

    fn reap_dead(&mut self) {
        let mut ix = 0;
        while ix < self.conns.len() {
            if self.conns[ix].dead {
                let conn = self.conns.remove(ix);
                if let Some(node) = conn.node {
                    // A reconnecting node starts a fresh delta lineage;
                    // drop ours so the streams stay in lockstep. Only if
                    // no other live conn claims the node (reconnects can
                    // briefly overlap).
                    let still = self.conns.iter().any(|c| c.node == Some(node) && !c.dead);
                    if !still {
                        self.checker.forget_node(node);
                    }
                }
            } else {
                ix += 1;
            }
        }
    }
}
