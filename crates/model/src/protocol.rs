//! The node state machine abstraction.
//!
//! CrystalBall "concentrate\[s\] on distributed systems implemented as state
//! machines" (§3). A [`Protocol`] implementation corresponds to one Mace
//! service: a deterministic state machine with message handlers (*H_M*) and
//! internal-action handlers (*H_A*, covering timers and application calls).
//!
//! The crucial design point is that the **same handler code** is executed by
//! the live runtime (`cb-runtime`) and by the model checker (`cb-mc`): the
//! checker "is executing real code in the event and the message handlers"
//! (§4). Handlers must therefore be pure functions of `(state, input)` —
//! all nondeterminism (who delivers what, when timers fire, who resets)
//! lives in the event schedule, which the live runtime draws from the
//! simulated network and the checker enumerates exhaustively.

use std::fmt::Debug;
use std::hash::Hash;

use crate::codec::{Decode, Encode};
use crate::node::NodeId;
use crate::time::SimDuration;

/// How the live runtime fires an internal action (the checker ignores this
/// and explores every enabled action nondeterministically).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Schedule {
    /// Re-fires every interval while the action stays enabled (e.g. Chord's
    /// stabilize timer, RandTree's recovery timer).
    Periodic(SimDuration),
    /// Fires once, `delay` after the action first becomes enabled (e.g. a
    /// join retry backoff).
    After(SimDuration),
    /// Never fired by the runtime itself; injected by scenario scripts or
    /// the application (e.g. "join the overlay", "start download").
    External,
}

/// Messages and connection operations emitted by a handler execution.
///
/// This is the set *c* of Fig. 4, extended with explicit connection closes
/// (protocols tear down TCP connections, and execution steering's corrective
/// action "break\[s\] the TCP connection", §3.3).
#[derive(Debug)]
pub struct Outbox<M> {
    /// `(destination, message)` pairs, in emission order.
    sends: Vec<(NodeId, M)>,
    /// Peers whose connection the handler asked to close/reset; the peer
    /// observes a transport error.
    closes: Vec<NodeId>,
}

impl<M> Default for Outbox<M> {
    fn default() -> Self {
        Outbox {
            sends: Vec::new(),
            closes: Vec::new(),
        }
    }
}

impl<M> Outbox<M> {
    /// Creates an empty outbox.
    pub fn new() -> Self {
        Self::default()
    }

    /// Queues `msg` for delivery to `dst`.
    pub fn send(&mut self, dst: NodeId, msg: M) {
        self.sends.push((dst, msg));
    }

    /// Requests a close/reset of the connection with `peer`; the peer's
    /// `on_error` handler will run when the notification arrives.
    pub fn close(&mut self, peer: NodeId) {
        self.closes.push(peer);
    }

    /// Messages emitted so far.
    pub fn sends(&self) -> &[(NodeId, M)] {
        &self.sends
    }

    /// Connection closes emitted so far.
    pub fn closes(&self) -> &[NodeId] {
        &self.closes
    }

    /// Consumes the outbox, yielding `(sends, closes)`.
    pub fn into_parts(self) -> (Vec<(NodeId, M)>, Vec<NodeId>) {
        (self.sends, self.closes)
    }

    /// True if the handler emitted nothing.
    pub fn is_empty(&self) -> bool {
        self.sends.is_empty() && self.closes.is_empty()
    }
}

/// A distributed-system protocol: one state machine replicated on every
/// node, plus its configuration.
///
/// The implementing type is the *configuration* (bug flags, fan-out limits,
/// timer intervals, bootstrap addresses); it is cloned freely and shared
/// between the live runtime and checker.
///
/// `Send + Sync` bounds (on the configuration and every associated type)
/// let global states cross threads: checker shards and their worker pool
/// run searches off the submitting thread, and the asynchronous checker
/// service runs consequence prediction on a background thread
/// while the live system keeps executing — the deployment model of §4
/// ("we run the model checker as a separate thread"). Handlers are pure
/// state-machine transitions, so the bounds cost implementations nothing.
pub trait Protocol: Clone + Debug + Send + Sync + 'static {
    /// Per-node local state (the paper's *S*). `Hash` feeds the checker's
    /// explored sets; `Encode`/`Decode` make it checkpointable.
    type State: Clone + Eq + Hash + Debug + Encode + Decode + Send + Sync + 'static;
    /// Network message content (the paper's *M*).
    type Message: Clone + Eq + Hash + Debug + Encode + Decode + Send + Sync + 'static;
    /// Internal node actions (the paper's *A*): timers and application
    /// calls, enumerable from the state.
    type Action: Clone + Eq + Hash + Debug + Send + Sync + 'static;

    /// Human-readable protocol name (used in reports and benches).
    fn name(&self) -> &'static str;

    /// The initial local state of `node` (also the post-reset state).
    fn init(&self, node: NodeId) -> Self::State;

    /// Handles delivery of `msg` from `from` (an *H_M* transition).
    fn on_message(
        &self,
        node: NodeId,
        state: &mut Self::State,
        from: NodeId,
        msg: &Self::Message,
        out: &mut Outbox<Self::Message>,
    );

    /// Handles a transport error: the connection with `peer` broke (TCP
    /// RST / broken-pipe signal). "Distributed systems that use TCP
    /// typically include failure handling code that deals with broken TCP
    /// connections" (§3.3) — this is that code.
    fn on_error(
        &self,
        node: NodeId,
        state: &mut Self::State,
        peer: NodeId,
        out: &mut Outbox<Self::Message>,
    );

    /// Appends every internal action currently enabled in `state` to `acts`.
    ///
    /// The live runtime fires these according to [`Protocol::schedule`]; the
    /// checker explores each one (subject to consequence prediction's
    /// `localExplored` pruning).
    fn enabled_actions(&self, node: NodeId, state: &Self::State, acts: &mut Vec<Self::Action>);

    /// Executes an internal action (an *H_A* transition).
    fn on_action(
        &self,
        node: NodeId,
        state: &mut Self::State,
        action: &Self::Action,
        out: &mut Outbox<Self::Message>,
    );

    /// How the live runtime schedules `action`. Defaults to `External`.
    fn schedule(&self, _action: &Self::Action) -> Schedule {
        Schedule::External
    }

    /// The developer-provided snapshot neighborhood of `node` (§3.1:
    /// "we ask the developer to implement a method that will return the list
    /// of neighbors"). Returning `None` makes the checkpoint manager fall
    /// back to the connection-clustering heuristic.
    fn neighborhood(&self, _node: NodeId, _state: &Self::State) -> Option<Vec<NodeId>> {
        None
    }

    /// Bytes this message occupies on the wire, used by the network
    /// simulator's bandwidth model. Defaults to the encoded size; protocols
    /// whose messages stand in for bulk payloads (e.g. Bullet' data blocks)
    /// override this so the model state stays small while the bandwidth
    /// accounting stays realistic.
    fn wire_size(&self, msg: &Self::Message) -> usize {
        msg.encoded_len()
    }

    /// Short classifier for a message, used by event filters ("this filter
    /// contains a message type, message source and the destination", §4).
    fn message_kind(msg: &Self::Message) -> &'static str;

    /// Short classifier for an action, used by event filters on timer and
    /// application events.
    fn action_kind(action: &Self::Action) -> &'static str;

    /// Every string [`Protocol::message_kind`] can return. Receivers of
    /// wire-shipped event filters use this table to resolve a decoded kind
    /// string back to the `'static` kind the filter machinery compares
    /// against (and to reject kinds the protocol never produces). The
    /// default empty table means "this protocol cannot receive filters
    /// over the wire".
    fn message_kinds(&self) -> &'static [&'static str] {
        &[]
    }

    /// Every string [`Protocol::action_kind`] can return (see
    /// [`Protocol::message_kinds`]).
    fn action_kinds(&self) -> &'static [&'static str] {
        &[]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn outbox_collects_in_order() {
        let mut out: Outbox<&'static str> = Outbox::new();
        assert!(out.is_empty());
        out.send(NodeId(1), "a");
        out.send(NodeId(2), "b");
        out.close(NodeId(3));
        assert!(!out.is_empty());
        assert_eq!(out.sends(), &[(NodeId(1), "a"), (NodeId(2), "b")]);
        assert_eq!(out.closes(), &[NodeId(3)]);
        let (sends, closes) = out.into_parts();
        assert_eq!(sends.len(), 2);
        assert_eq!(closes, vec![NodeId(3)]);
    }

    #[test]
    fn schedule_kinds() {
        let p = Schedule::Periodic(SimDuration::from_secs(1));
        assert_eq!(p, Schedule::Periodic(SimDuration::from_secs(1)));
        assert_ne!(p, Schedule::External);
        assert_ne!(Schedule::After(SimDuration::ZERO), Schedule::External);
    }
}
