//! The benchmark's `NetworkLink` wrapper around each replica transport.
//!
//! Every replica's `TcpTransport` is wrapped in a [`BenchLink`]; all the
//! wrappers of one cluster share a [`Fabric`]. The fabric does two jobs:
//!
//! * **Faults.** [`Fabric::cut`] / [`Fabric::heal`] drop messages in both
//!   directions between two replicas and synthesize `SessionDropped` /
//!   `SessionEstablished`, the way `SimHub::cut`/`heal` do in the
//!   simulator. The real TCP sessions stay up underneath (their
//!   heartbeats are internal to the transport), so a cut is exactly a
//!   lossy period followed by a new session — what `qloss` needs.
//! * **Tracing.** With tracing on, the time spent inside the transport's
//!   `send` and `poll` is summed per call site; every `Prepare` a replica
//!   sends is logged with its time, which is how election latency is
//!   observed from outside the program.

use kvstore::KvCommand;
use net::{LinkCounters, LinkEvent, NetworkLink};
use omnipaxos::{NodeId, OmniMessage, PaxosMsg, ServiceMsg};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

pub type Msg = ServiceMsg<KvCommand>;

/// Session numbers the fabric synthesizes start far above anything a
/// real transport reaches, so they stay monotone per pair.
const SYNTHETIC_SESSION_BASE: u64 = 1 << 40;

fn pair(a: NodeId, b: NodeId) -> (NodeId, NodeId) {
    (a.min(b), a.max(b))
}

/// Is `msg` a Sequence Paxos `Prepare` (bare or inside a group envelope)?
fn is_prepare(msg: &Msg) -> bool {
    match msg {
        ServiceMsg::Group { msg, .. } => is_prepare(msg),
        ServiceMsg::Omni {
            msg: OmniMessage::Paxos(m),
            ..
        } => matches!(m.msg, PaxosMsg::Prepare(_)),
        _ => false,
    }
}

#[derive(Default)]
struct FabricState {
    cut: BTreeSet<(NodeId, NodeId)>,
    /// Synthesized session events not yet polled, per receiving node.
    notes: BTreeMap<NodeId, Vec<LinkEvent<Msg>>>,
    next_session: u64,
    /// `(when, sender)` of every `Prepare` sent.
    prepares: Vec<(Instant, NodeId)>,
}

/// State shared by the wrappers of one cluster.
pub struct Fabric {
    state: Mutex<FabricState>,
    /// Fast path: no cut and no pending note means `poll` needs no lock.
    busy: AtomicBool,
    traced: bool,
    send_ns: AtomicU64,
    send_calls: AtomicU64,
    poll_ns: AtomicU64,
    poll_calls: AtomicU64,
    dropped: AtomicU64,
}

/// Summed transport time seen by the wrappers (traced runs only).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LinkSpans {
    pub send_ns: u64,
    pub send_calls: u64,
    pub poll_ns: u64,
    pub poll_calls: u64,
}

impl Fabric {
    pub fn new(traced: bool) -> Arc<Fabric> {
        Arc::new(Fabric {
            state: Mutex::new(FabricState {
                next_session: SYNTHETIC_SESSION_BASE,
                ..FabricState::default()
            }),
            busy: AtomicBool::new(false),
            traced,
            send_ns: AtomicU64::new(0),
            send_calls: AtomicU64::new(0),
            poll_ns: AtomicU64::new(0),
            poll_calls: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
        })
    }

    fn lock(&self) -> MutexGuard<'_, FabricState> {
        self.state
            .lock()
            .expect("fabric lock poisoned by a panicked replica thread")
    }

    fn refresh_busy(&self, st: &FabricState) {
        let busy = !st.cut.is_empty() || st.notes.values().any(|v| !v.is_empty());
        self.busy.store(busy, Ordering::SeqCst);
    }

    /// Cut the link `a`–`b`: both ends see `SessionDropped` and every
    /// message between them is lost until [`Fabric::heal`].
    pub fn cut(&self, a: NodeId, b: NodeId) {
        let mut st = self.lock();
        if !st.cut.insert(pair(a, b)) {
            return;
        }
        let session = st.next_session;
        for (me, peer) in [(a, b), (b, a)] {
            st.notes
                .entry(me)
                .or_default()
                .push(LinkEvent::SessionDropped { peer, session });
        }
        self.refresh_busy(&st);
    }

    /// Heal the link `a`–`b`: both ends see a new `SessionEstablished`,
    /// which drives the replicas' `PrepareReq` re-sync.
    pub fn heal(&self, a: NodeId, b: NodeId) {
        let mut st = self.lock();
        if !st.cut.remove(&pair(a, b)) {
            return;
        }
        st.next_session += 1;
        let session = st.next_session;
        for (me, peer) in [(a, b), (b, a)] {
            st.notes
                .entry(me)
                .or_default()
                .push(LinkEvent::SessionEstablished { peer, session });
        }
        self.refresh_busy(&st);
    }

    /// Heal every cut link.
    pub fn heal_all(&self) {
        let cut: Vec<_> = self.lock().cut.iter().copied().collect();
        for (a, b) in cut {
            self.heal(a, b);
        }
    }

    fn is_cut(&self, a: NodeId, b: NodeId) -> bool {
        self.busy.load(Ordering::SeqCst) && self.lock().cut.contains(&pair(a, b))
    }

    /// Every `Prepare` sent so far: `(when, sender)`, in send order.
    pub fn prepares(&self) -> Vec<(Instant, NodeId)> {
        self.lock().prepares.clone()
    }

    /// Messages dropped because their link was cut.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    pub fn spans(&self) -> LinkSpans {
        LinkSpans {
            send_ns: self.send_ns.load(Ordering::Relaxed),
            send_calls: self.send_calls.load(Ordering::Relaxed),
            poll_ns: self.poll_ns.load(Ordering::Relaxed),
            poll_calls: self.poll_calls.load(Ordering::Relaxed),
        }
    }
}

/// One replica's link: the real transport behind the shared [`Fabric`].
pub struct BenchLink<L> {
    pid: NodeId,
    inner: L,
    fabric: Arc<Fabric>,
}

impl<L: NetworkLink<Msg>> BenchLink<L> {
    pub fn new(inner: L, fabric: Arc<Fabric>) -> Self {
        BenchLink {
            pid: inner.pid(),
            inner,
            fabric,
        }
    }
}

impl<L: NetworkLink<Msg>> NetworkLink<Msg> for BenchLink<L> {
    fn pid(&self) -> NodeId {
        self.pid
    }

    fn send(&mut self, to: NodeId, msg: Msg) {
        let t0 = self.fabric.traced.then(Instant::now);
        if is_prepare(&msg) {
            self.fabric.lock().prepares.push((Instant::now(), self.pid));
        }
        if self.fabric.is_cut(self.pid, to) {
            self.fabric.dropped.fetch_add(1, Ordering::Relaxed);
        } else {
            self.inner.send(to, msg);
        }
        if let Some(t0) = t0 {
            let ns = t0.elapsed().as_nanos() as u64;
            self.fabric.send_ns.fetch_add(ns, Ordering::Relaxed);
            self.fabric.send_calls.fetch_add(1, Ordering::Relaxed);
        }
    }

    fn poll(&mut self) -> Vec<LinkEvent<Msg>> {
        let t0 = self.fabric.traced.then(Instant::now);
        let mut events = self.inner.poll();
        if self.fabric.busy.load(Ordering::SeqCst) {
            let mut st = self.fabric.lock();
            let me = self.pid;
            let before = events.len();
            events.retain(|ev| match ev {
                LinkEvent::Message { from, .. } => !st.cut.contains(&pair(me, *from)),
                // A real session change on a cut pair stays hidden: the
                // fabric owns that pair's session view until the heal.
                LinkEvent::SessionEstablished { peer, .. }
                | LinkEvent::SessionDropped { peer, .. } => !st.cut.contains(&pair(me, *peer)),
            });
            let lost = (before - events.len()) as u64;
            self.fabric.dropped.fetch_add(lost, Ordering::Relaxed);
            if let Some(notes) = st.notes.get_mut(&me) {
                if !notes.is_empty() {
                    let mut all = std::mem::take(notes);
                    all.append(&mut events);
                    events = all;
                }
            }
            self.fabric.refresh_busy(&st);
        }
        if let Some(t0) = t0 {
            let ns = t0.elapsed().as_nanos() as u64;
            self.fabric.poll_ns.fetch_add(ns, Ordering::Relaxed);
            self.fabric.poll_calls.fetch_add(1, Ordering::Relaxed);
        }
        events
    }

    fn counters(&self) -> LinkCounters {
        self.inner.counters()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::VecDeque;

    /// A loopback stand-in for a transport: whatever is sent to it is
    /// delivered back on the next poll as if the peer had sent it.
    struct Echo {
        pid: NodeId,
        inbox: VecDeque<LinkEvent<Msg>>,
        sent: u64,
    }

    impl NetworkLink<Msg> for Echo {
        fn pid(&self) -> NodeId {
            self.pid
        }
        fn send(&mut self, to: NodeId, msg: Msg) {
            self.sent += 1;
            self.inbox.push_back(LinkEvent::Message { from: to, msg });
        }
        fn poll(&mut self) -> Vec<LinkEvent<Msg>> {
            self.inbox.drain(..).collect()
        }
        fn counters(&self) -> LinkCounters {
            LinkCounters::default()
        }
    }

    fn echo(pid: NodeId) -> Echo {
        Echo {
            pid,
            inbox: VecDeque::new(),
            sent: 0,
        }
    }

    fn ping() -> Msg {
        ServiceMsg::ConfigStarted { config_id: 1 }
    }

    #[test]
    fn cut_drops_both_directions_and_heal_raises_a_new_session() {
        let fabric = Fabric::new(false);
        let mut a = BenchLink::new(echo(1), Arc::clone(&fabric));
        let mut c = BenchLink::new(echo(3), Arc::clone(&fabric));

        a.send(2, ping());
        assert_eq!(a.poll().len(), 1, "uncut traffic flows");

        fabric.cut(1, 2);
        // Outbound to the cut peer never reaches the transport.
        a.send(2, ping());
        assert_eq!(a.inner.sent, 1);
        // Inbound from the cut peer is dropped on poll; the synthesized
        // drop event is delivered instead.
        a.inner.inbox.push_back(LinkEvent::Message {
            from: 2,
            msg: ping(),
        });
        let evs = a.poll();
        assert!(matches!(
            evs.as_slice(),
            [LinkEvent::SessionDropped { peer: 2, .. }]
        ));
        // Other links are untouched by the cut.
        c.send(1, ping());
        assert!(matches!(
            c.poll().as_slice(),
            [LinkEvent::Message { from: 1, .. }]
        ));
        assert_eq!(fabric.dropped(), 2);

        fabric.heal(1, 2);
        let evs = a.poll();
        let LinkEvent::SessionEstablished { peer: 2, session } = evs[0] else {
            panic!("heal must raise a new session event, got {evs:?}");
        };
        assert!(session > SYNTHETIC_SESSION_BASE);
        a.send(2, ping());
        assert_eq!(a.poll().len(), 1, "healed traffic flows again");

        // A second episode gets a strictly newer session number.
        fabric.cut(1, 2);
        fabric.heal(1, 2);
        let evs = a.poll();
        let LinkEvent::SessionEstablished { session: s2, .. } = evs[1] else {
            panic!("expected drop then establish, got {evs:?}");
        };
        assert!(s2 > session);
    }

    #[test]
    fn traced_link_sums_spans_and_logs_prepares() {
        let fabric = Fabric::new(true);
        let mut a = BenchLink::new(echo(1), Arc::clone(&fabric));
        a.send(2, ping());
        a.poll();
        let s = fabric.spans();
        assert_eq!((s.send_calls, s.poll_calls), (1, 1));
        assert!(fabric.prepares().is_empty(), "a non-Prepare is not logged");
    }
}
