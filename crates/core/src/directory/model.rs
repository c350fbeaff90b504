//! A closed, finite-state model of the DEX ownership protocol.
//!
//! This module turns the pure directory logic in [`super`] into an
//! *executable world model*: one origin-side [`Directory`], one simulated
//! page table per node, a multiset of in-flight protocol messages, and a
//! small set of client threads that may, at any moment, fault on any page
//! (read or write) or unmap it. Exploring every interleaving of the
//! enabled [`ModelEvent`]s enumerates every behavior the protocol can
//! exhibit for a small configuration — exactly what the `dex-check`
//! model checker does by breadth-first search over canonicalized states.
//!
//! Why a closed model instead of fixed per-thread programs: the protocol
//! state (owner sets, writers, transactions, PTEs, in-flight messages)
//! is finite, so letting idle threads issue *any* operation at *any*
//! time yields a finite transition system whose reachable set covers
//! every interleaving of every operation sequence at once. Liveness is
//! then co-reachability of quiescent states ("from every reachable
//! state some fair schedule drains all in-flight work"), which detects
//! both lost-message deadlocks and retry livelocks without modeling
//! retry counters.
//!
//! The model also reproduces the two mechanisms layered over the raw
//! directory in `thread.rs`:
//!
//! * **leader–follower fault coalescing** (§III-C): a thread faulting on
//!   a `(page, access-class)` that a same-node sibling is already
//!   negotiating becomes a *follower* and completes only when its leader
//!   does;
//! * **retry-on-busy** (§III-B): a `Retry` answer parks the requester in
//!   a back-off state from which it re-issues the same request.
//!
//! Node-side handling is not re-implemented here: directory actions,
//! revocations, owner forwards and flushes run through the same steps
//! (`crate::protocol`) the runtime drives, over a bare [`PageTable`] per
//! node; this module only maps their outputs onto its message multiset.
//!
//! [`ProtocolMutation`]s inject protocol bugs (skipped invalidation,
//! dropped ack, skipped downgrade, kept origin PTE, lost wakeup,
//! follower bypass) so the checker can prove its own teeth: each
//! mutation must produce a printed, minimal counterexample.

use super::{DirAction, Directory, NodeSet, Requester};
use crate::msg::DexMsg;
use crate::mutation::ProtocolMutation;
use crate::protocol::{self, Outbound, Revocation, Rules};
use dex_net::NodeId;
use dex_os::{Access, PageTable, Pid, Pte, Vpn};

/// The modeled world runs one process.
const MODEL_PID: Pid = Pid(0);

/// A point-in-time view of one page's directory record (untracked pages
/// report the origin-exclusive default).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PageModel {
    /// Nodes the directory believes hold a valid copy.
    pub owners: NodeSet,
    /// The exclusive writer, if any.
    pub writer: Option<NodeId>,
    /// The in-flight transaction, if any.
    pub txn: Option<TxnModel>,
}

/// A point-in-time view of an in-flight directory transaction.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TxnModel {
    /// Access the requester asked for.
    pub access: Access,
    /// Who is waiting for the transaction to complete.
    pub requester: Requester,
    /// Owners that have not yet acknowledged revocation/flush.
    pub pending: NodeSet,
    /// The requester already held a valid copy (data transfer skipped).
    pub requester_had_copy: bool,
}

impl Directory {
    /// Introspects the directory record for `vpn` (model/checker hook).
    pub fn page_model(&self, vpn: Vpn) -> PageModel {
        match self.pages.get(vpn.index()) {
            Some(info) => PageModel {
                owners: info.owners,
                writer: info.writer,
                txn: info.txn.as_ref().map(|t| TxnModel {
                    access: t.access,
                    requester: t.requester,
                    pending: t.pending,
                    requester_had_copy: t.requester_had_copy,
                }),
            },
            None => PageModel {
                owners: NodeSet::single(self.origin),
                writer: Some(self.origin),
                txn: None,
            },
        }
    }

    /// Whether `vpn` has an in-flight transaction.
    pub fn has_txn(&self, vpn: Vpn) -> bool {
        self.pages
            .get(vpn.index())
            .is_some_and(|info| info.txn.is_some())
    }

    /// A canonical, order-independent encoding of the full directory
    /// state, suitable for seen-set keys in explicit-state exploration.
    pub fn canonical(&self) -> Vec<u64> {
        let mut out = Vec::with_capacity(self.pages.len() * 4);
        for (key, info) in self.pages.iter() {
            out.push(key);
            out.push(info.owners.0);
            out.push(match info.writer {
                Some(w) => w.0 as u64 + 1,
                None => 0,
            });
            out.push(match &info.txn {
                None => 0,
                Some(t) => {
                    // Pack: bit0 = present, bit1 = write, bit2 = had_copy,
                    // bits 3..5 = requester kind, then node/req id bytes.
                    let mut word = 1u64;
                    if t.access.is_write() {
                        word |= 2;
                    }
                    if t.requester_had_copy {
                        word |= 4;
                    }
                    match t.requester {
                        Requester::Remote { node, req_id } => {
                            word |= (node.0 as u64 + 1) << 8;
                            word |= (req_id & 0xffff) << 24;
                        }
                        Requester::Local { req_id } => {
                            word |= (req_id & 0xffff) << 24;
                            word |= 1 << 40;
                        }
                    }
                    word | (t.pending.0 << 41)
                }
            });
        }
        out
    }
}

/// One client operation a modeled thread can attempt.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Op {
    /// Fault the page for reading.
    Read(Vpn),
    /// Fault the page for writing.
    Write(Vpn),
    /// Unmap the page at the origin (synchronous VMA broadcast).
    Evict(Vpn),
}

impl Op {
    /// The page this operation touches.
    pub fn vpn(self) -> Vpn {
        match self {
            Op::Read(v) | Op::Write(v) | Op::Evict(v) => v,
        }
    }
}

impl std::fmt::Display for Op {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Op::Read(v) => write!(f, "read page {}", v.index()),
            Op::Write(v) => write!(f, "write page {}", v.index()),
            Op::Evict(v) => write!(f, "evict page {}", v.index()),
        }
    }
}

/// What a modeled thread is currently doing.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum ThreadState {
    /// Ready to issue any operation.
    Idle,
    /// Request sent; waiting for `Grant` or `Retry`.
    Waiting {
        /// Requested page.
        vpn: Vpn,
        /// Requested access.
        access: Access,
    },
    /// Told to retry; will re-issue the same request.
    Backoff {
        /// Requested page.
        vpn: Vpn,
        /// Requested access.
        access: Access,
    },
    /// Coalesced behind a same-node leader negotiating the same fault.
    Follower {
        /// Requested page.
        vpn: Vpn,
        /// Requested access.
        access: Access,
        /// Index of the leader thread.
        leader: usize,
    },
}

/// An in-flight protocol message.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Msg {
    /// A page request traveling to the origin directory.
    Request {
        /// Issuing thread.
        thread: usize,
        /// Requested page.
        vpn: Vpn,
        /// Requested access.
        access: Access,
    },
    /// Revocation traveling to an owner.
    Invalidate {
        /// Target owner.
        to: NodeId,
        /// Page being revoked.
        vpn: Vpn,
        /// Target must ship page contents back.
        needs_data: bool,
    },
    /// Revocation acknowledgment traveling back to the origin.
    InvAck {
        /// Acknowledged page.
        vpn: Vpn,
        /// Acknowledging node.
        from: NodeId,
        /// Ack carries the only up-to-date copy.
        carried_data: bool,
    },
    /// Downgrade-and-flush traveling to the exclusive writer.
    Flush {
        /// The writer node.
        to: NodeId,
        /// Page to flush.
        vpn: Vpn,
    },
    /// Flush acknowledgment traveling back to the origin.
    FlushAck {
        /// Flushed page.
        vpn: Vpn,
        /// The downgraded writer.
        from: NodeId,
    },
    /// A grant traveling to a remote requester. `from` is the sending
    /// node: the home classically, possibly a forwarding owner in
    /// sharded mode — grants from different senders ride different
    /// FIFO channels, which is exactly the reordering the sharded
    /// protocol must survive.
    Grant {
        /// Sending node (home or forwarding owner).
        from: NodeId,
        /// Thread being granted.
        thread: usize,
        /// Granted page.
        vpn: Vpn,
        /// Granted access.
        access: Access,
        /// Page contents accompany the grant.
        with_data: bool,
    },
    /// A retry notice traveling to a remote requester.
    Retry {
        /// Sending node.
        from: NodeId,
        /// Thread being bounced.
        thread: usize,
        /// Requested page.
        vpn: Vpn,
        /// Requested access.
        access: Access,
    },
    /// Sharded mode: the home hands a request to the current owner,
    /// which will grant straight to the requester (two-hop path).
    Forward {
        /// The owner being asked to grant.
        to: NodeId,
        /// The requesting thread.
        thread: usize,
        /// Requested page.
        vpn: Vpn,
        /// Requested access.
        access: Access,
    },
    /// Sharded mode: the forwarding owner's asynchronous ownership
    /// acknowledgment traveling back to the home.
    OwnerAck {
        /// Acknowledged page.
        vpn: Vpn,
        /// The owner that serviced the forward.
        from: NodeId,
        /// Access that was granted.
        access: Access,
    },
    /// Sharded mode: a batched revocation traveling to an owner (one
    /// page per entry here — the model's directory emits singleton
    /// batches, which the runtime aggregates per destination).
    InvBatch {
        /// Target owner.
        to: NodeId,
        /// Page being revoked.
        vpn: Vpn,
        /// Target must ship page contents back.
        needs_data: bool,
    },
    /// Sharded mode: the aggregated revocation acknowledgment.
    InvBatchAck {
        /// Acknowledged page.
        vpn: Vpn,
        /// Acknowledging node.
        from: NodeId,
        /// Ack carries the only up-to-date copy.
        carried_data: bool,
    },
}

impl Msg {
    /// The page this message concerns.
    pub fn vpn(self) -> Vpn {
        match self {
            Msg::Request { vpn, .. }
            | Msg::Invalidate { vpn, .. }
            | Msg::InvAck { vpn, .. }
            | Msg::Flush { vpn, .. }
            | Msg::FlushAck { vpn, .. }
            | Msg::Grant { vpn, .. }
            | Msg::Retry { vpn, .. }
            | Msg::Forward { vpn, .. }
            | Msg::OwnerAck { vpn, .. }
            | Msg::InvBatch { vpn, .. }
            | Msg::InvBatchAck { vpn, .. } => vpn,
        }
    }

    fn canonical(self) -> [u64; 4] {
        match self {
            Msg::Request {
                thread,
                vpn,
                access,
            } => [1, thread as u64, vpn.index(), access.is_write() as u64],
            Msg::Invalidate {
                to,
                vpn,
                needs_data,
            } => [2, to.0 as u64, vpn.index(), needs_data as u64],
            Msg::InvAck {
                vpn,
                from,
                carried_data,
            } => [3, from.0 as u64, vpn.index(), carried_data as u64],
            Msg::Flush { to, vpn } => [4, to.0 as u64, vpn.index(), 0],
            Msg::FlushAck { vpn, from } => [5, from.0 as u64, vpn.index(), 0],
            Msg::Grant {
                from,
                thread,
                vpn,
                access,
                with_data,
            } => [
                6,
                thread as u64 | (from.0 as u64) << 32,
                vpn.index(),
                access.is_write() as u64 | (with_data as u64) << 1,
            ],
            Msg::Retry {
                from,
                thread,
                vpn,
                access,
            } => [
                7,
                thread as u64 | (from.0 as u64) << 32,
                vpn.index(),
                access.is_write() as u64,
            ],
            Msg::Forward {
                to,
                thread,
                vpn,
                access,
            } => [
                8,
                thread as u64 | (to.0 as u64) << 32,
                vpn.index(),
                access.is_write() as u64,
            ],
            Msg::OwnerAck { vpn, from, access } => {
                [9, from.0 as u64, vpn.index(), access.is_write() as u64]
            }
            Msg::InvBatch {
                to,
                vpn,
                needs_data,
            } => [10, to.0 as u64, vpn.index(), needs_data as u64],
            Msg::InvBatchAck {
                vpn,
                from,
                carried_data,
            } => [11, from.0 as u64, vpn.index(), carried_data as u64],
        }
    }
}

/// Configuration of a model instance.
#[derive(Clone, Debug)]
pub struct ModelConfig {
    /// Number of nodes (node 0 is the origin).
    pub nodes: u16,
    /// Number of pages (vpns `0..pages`).
    pub pages: u64,
    /// Home node of each modeled thread (`threads[i]` = node of thread
    /// `i`). Two threads on one node exercise fault coalescing.
    pub threads: Vec<u16>,
    /// Injected protocol bug.
    pub mutation: ProtocolMutation,
    /// Model the sharded-directory variant: the directory lives at a
    /// non-origin home node (node 1 when the world has one) and runs
    /// the two-hop protocol — owner-forwarded grants and batched
    /// invalidations — instead of the classic origin-centric one.
    pub sharded: bool,
}

impl ModelConfig {
    /// One thread per node, no mutation, classic (unsharded) directory.
    pub fn new(nodes: u16, pages: u64) -> Self {
        ModelConfig {
            nodes,
            pages,
            threads: (0..nodes).collect(),
            mutation: ProtocolMutation::None,
            sharded: false,
        }
    }

    /// Adds a second thread on node `node` (enables coalescing paths).
    pub fn with_extra_thread(mut self, node: u16) -> Self {
        assert!(node < self.nodes);
        self.threads.push(node);
        self
    }

    /// Sets the injected mutation.
    pub fn with_mutation(mut self, mutation: ProtocolMutation) -> Self {
        self.mutation = mutation;
        self
    }

    /// Switches the model to the sharded-directory (two-hop) variant.
    pub fn with_sharding(mut self) -> Self {
        self.sharded = true;
        self
    }

    /// The node hosting the directory: the origin classically; node 1
    /// in the sharded variant (so home ≠ origin paths are exercised)
    /// when the world has more than one node.
    pub fn home(&self) -> NodeId {
        NodeId(if self.sharded && self.nodes > 1 { 1 } else { 0 })
    }
}

/// One transition of the model.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum ModelEvent {
    /// An idle thread begins an operation.
    Issue {
        /// The acting thread.
        thread: usize,
        /// The operation.
        op: Op,
    },
    /// A backed-off thread re-sends its request.
    ReIssue {
        /// The retrying thread.
        thread: usize,
    },
    /// The in-flight message at `msg` (current insertion order) arrives.
    Deliver {
        /// Index into the state's message list.
        msg: usize,
    },
}

/// A safety violation detected while applying an event.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Violation {
    /// Which invariant broke.
    pub invariant: &'static str,
    /// Human-readable details.
    pub detail: String,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.invariant, self.detail)
    }
}

/// The full world state: directory + per-node page tables + in-flight
/// messages + thread states.
#[derive(Clone)]
pub struct ModelState {
    config: ModelConfig,
    dir: Directory,
    ptes: Vec<PageTable>,
    msgs: Vec<Msg>,
    threads: Vec<ThreadState>,
    /// Sharded mode: protocol messages a node has parked because a
    /// grant for the same page is still in flight to it (the runtime's
    /// requester-side deferral). Released when the grant (or retry)
    /// lands.
    deferred: Vec<(NodeId, Msg)>,
}

impl ModelState {
    /// The initial state: every page mapped read-write at the origin,
    /// nothing in flight, every thread idle.
    pub fn new(config: ModelConfig) -> Self {
        assert!(config.nodes >= 1 && config.nodes <= 64);
        assert!(config.threads.iter().all(|&n| n < config.nodes));
        let mut ptes: Vec<PageTable> = (0..config.nodes).map(|_| PageTable::new()).collect();
        for vpn in 0..config.pages {
            ptes[0].set(Vpn::new(vpn), Pte::READ_WRITE);
        }
        let threads = vec![ThreadState::Idle; config.threads.len()];
        let dir = if config.sharded {
            Directory::forwarded(config.home(), NodeId(0))
        } else {
            Directory::new(NodeId(0))
        };
        ModelState {
            dir,
            ptes,
            msgs: Vec::new(),
            threads,
            deferred: Vec::new(),
            config,
        }
    }

    /// The model's configuration.
    pub fn config(&self) -> &ModelConfig {
        &self.config
    }

    /// The origin directory (checker introspection).
    pub fn directory(&self) -> &Directory {
        &self.dir
    }

    /// The page table of `node`.
    pub fn page_table(&self, node: NodeId) -> &PageTable {
        &self.ptes[node.0 as usize]
    }

    /// In-flight messages in insertion order.
    pub fn messages(&self) -> &[Msg] {
        &self.msgs
    }

    /// Number of parked messages awaiting an in-flight grant (sharded
    /// mode's requester-side deferral).
    pub fn deferred_len(&self) -> usize {
        self.deferred.len()
    }

    /// Thread states, indexed by thread id.
    pub fn threads(&self) -> &[ThreadState] {
        &self.threads
    }

    /// The home node of thread `t`.
    pub fn thread_node(&self, t: usize) -> NodeId {
        NodeId(self.config.threads[t])
    }

    fn requester_for(&self, thread: usize) -> Requester {
        let node = self.thread_node(thread);
        if node == self.config.home() {
            Requester::Local {
                req_id: thread as u64,
            }
        } else {
            Requester::Remote {
                node,
                req_id: thread as u64,
            }
        }
    }

    /// The ordered fabric channel `(src, dst)` a message travels on.
    ///
    /// DEX runs over RDMA reliable connections, which deliver in order
    /// per connection; the single-writer invariant *depends* on that
    /// ordering (a read `Grant` overtaken by a later `Invalidate` to the
    /// same node would resurrect a revoked mapping). The model therefore
    /// only enables delivery of the *oldest* in-flight message on each
    /// channel; messages on distinct channels still interleave freely.
    fn channel_of(&self, m: &Msg) -> (NodeId, NodeId) {
        let home = self.config.home();
        match *m {
            Msg::Request { thread, .. } => (self.thread_node(thread), home),
            Msg::Invalidate { to, .. } | Msg::Flush { to, .. } | Msg::InvBatch { to, .. } => {
                (home, to)
            }
            Msg::InvAck { from, .. }
            | Msg::FlushAck { from, .. }
            | Msg::OwnerAck { from, .. }
            | Msg::InvBatchAck { from, .. } => (from, home),
            // Grants/retries travel from their actual sender: a
            // forwarded grant (owner → requester) rides a different
            // channel than the home's own traffic, so the two reorder
            // freely — the hazard requester-side deferral absorbs.
            Msg::Grant { from, thread, .. } | Msg::Retry { from, thread, .. } => {
                (from, self.thread_node(thread))
            }
            Msg::Forward { to, .. } => (home, to),
        }
    }

    /// Whether in-flight message `m` is at the head of its FIFO channel.
    fn is_channel_head(&self, m: usize) -> bool {
        let chan = self.channel_of(&self.msgs[m]);
        !self.msgs[..m].iter().any(|e| self.channel_of(e) == chan)
    }

    /// True when no message is in flight, no transaction is open, and
    /// every thread is idle — the drained states liveness requires to be
    /// co-reachable from every reachable state.
    pub fn is_quiescent(&self) -> bool {
        self.msgs.is_empty()
            && self.deferred.is_empty()
            && self.threads.iter().all(|t| *t == ThreadState::Idle)
            && (0..self.config.pages).all(|v| !self.dir.has_txn(Vpn::new(v)))
    }

    /// Whether any in-flight message or open transaction concerns `vpn`.
    fn page_in_flight(&self, vpn: Vpn) -> bool {
        self.dir.has_txn(vpn)
            || self.msgs.iter().any(|m| m.vpn() == vpn)
            || self.deferred.iter().any(|(_, m)| m.vpn() == vpn)
            || self.threads.iter().any(|t| match *t {
                ThreadState::Idle => false,
                ThreadState::Waiting { vpn: v, .. }
                | ThreadState::Backoff { vpn: v, .. }
                | ThreadState::Follower { vpn: v, .. } => v == vpn,
            })
    }

    /// Every event enabled in this state.
    pub fn enabled_events(&self) -> Vec<ModelEvent> {
        let mut events = Vec::new();
        for (t, state) in self.threads.iter().enumerate() {
            match *state {
                ThreadState::Idle => {
                    let node = self.thread_node(t);
                    for v in 0..self.config.pages {
                        let vpn = Vpn::new(v);
                        let pte = self.ptes[node.0 as usize].entry(vpn);
                        // A thread only enters the protocol on a fault.
                        if !pte.permits(Access::Read) {
                            events.push(ModelEvent::Issue {
                                thread: t,
                                op: Op::Read(vpn),
                            });
                        }
                        if !pte.permits(Access::Write) {
                            events.push(ModelEvent::Issue {
                                thread: t,
                                op: Op::Write(vpn),
                            });
                        }
                        // Unmap models a synchronous VMA broadcast; the
                        // caller guarantees the page is quiescent.
                        if !self.page_in_flight(vpn) {
                            events.push(ModelEvent::Issue {
                                thread: t,
                                op: Op::Evict(vpn),
                            });
                        }
                    }
                }
                ThreadState::Backoff { .. } => events.push(ModelEvent::ReIssue { thread: t }),
                ThreadState::Waiting { .. } | ThreadState::Follower { .. } => {}
            }
        }
        for m in 0..self.msgs.len() {
            // Per-channel FIFO: the fabric (RDMA RC) delivers in order,
            // so only the oldest message on each (src, dst) channel is
            // deliverable. See [`Self::channel_of`].
            if self.is_channel_head(m) {
                events.push(ModelEvent::Deliver { msg: m });
            }
        }
        events
    }

    /// Applies `event`, returning the safety violations it exposes.
    ///
    /// # Panics
    ///
    /// Panics if `event` is not enabled in this state (checker bug).
    pub fn apply(&mut self, event: ModelEvent) -> Vec<Violation> {
        let mut violations = Vec::new();
        match event {
            ModelEvent::Issue { thread, op } => match op {
                Op::Read(vpn) => self.issue_fault(thread, vpn, Access::Read),
                Op::Write(vpn) => self.issue_fault(thread, vpn, Access::Write),
                Op::Evict(vpn) => self.evict(vpn),
            },
            ModelEvent::ReIssue { thread } => {
                let (vpn, access) = match self.threads[thread] {
                    ThreadState::Backoff { vpn, access } => (vpn, access),
                    other => panic!("re-issue from non-backoff state {other:?}"),
                };
                self.threads[thread] = ThreadState::Waiting { vpn, access };
                self.msgs.push(Msg::Request {
                    thread,
                    vpn,
                    access,
                });
            }
            ModelEvent::Deliver { msg } => {
                let m = self.msgs.remove(msg);
                self.deliver(m, &mut violations);
            }
        }
        self.check_safety(&mut violations);
        violations
    }

    fn issue_fault(&mut self, thread: usize, vpn: Vpn, access: Access) {
        // Leader–follower coalescing: join a same-node sibling already
        // negotiating the same (page, access-class) fault.
        let node = self.thread_node(thread);
        let leader = self.threads.iter().enumerate().find_map(|(u, s)| {
            if u == thread || self.thread_node(u) != node {
                return None;
            }
            match *s {
                ThreadState::Waiting { vpn: v, access: a }
                | ThreadState::Backoff { vpn: v, access: a }
                    if v == vpn && a.is_write() == access.is_write() =>
                {
                    Some(u)
                }
                _ => None,
            }
        });
        if let Some(leader) = leader {
            self.threads[thread] = ThreadState::Follower {
                vpn,
                access,
                leader,
            };
            if self.config.mutation == ProtocolMutation::FollowerBypass {
                // Bug: the follower races its own request to the origin.
                self.msgs.push(Msg::Request {
                    thread,
                    vpn,
                    access,
                });
            }
            return;
        }
        self.threads[thread] = ThreadState::Waiting { vpn, access };
        self.msgs.push(Msg::Request {
            thread,
            vpn,
            access,
        });
    }

    fn evict(&mut self, vpn: Vpn) {
        // Synchronous origin-side unmap: revoke every remote copy, then
        // forget the page; re-touching it re-creates the origin-exclusive
        // default, so the origin mapping resets to read-write.
        let revokes = self.dir.drop_pages(&[vpn]);
        for (node, v) in revokes {
            self.ptes[node.0 as usize].clear(v);
        }
        self.ptes[0].set(vpn, Pte::READ_WRITE);
    }

    fn deliver(&mut self, m: Msg, violations: &mut Vec<Violation>) {
        let home = self.config.home();
        match m {
            Msg::Request {
                thread,
                vpn,
                access,
            } => {
                let requester = self.requester_for(thread);
                let actions = self.dir.request(vpn, access, requester);
                self.run_home(vpn, actions, violations);
            }
            Msg::Invalidate {
                to,
                vpn,
                needs_data,
            } => self.revoke(to, Revocation::Page { vpn, needs_data }, violations),
            Msg::InvAck {
                vpn,
                from,
                carried_data,
            }
            | Msg::InvBatchAck {
                vpn,
                from,
                carried_data,
            } => {
                let actions = self.dir.invalidate_ack(vpn, from, carried_data);
                self.run_home(vpn, actions, violations);
            }
            Msg::Flush { to, vpn } => {
                let ack = protocol::flush(&mut self.ptes[to.0 as usize], MODEL_PID, home, vpn);
                self.post(to, ack, violations);
            }
            Msg::FlushAck { vpn, from } => {
                let actions = self.dir.flush_ack(vpn, from);
                self.run_home(vpn, actions, violations);
            }
            Msg::Grant {
                thread,
                vpn,
                access,
                ..
            } => {
                let node = self.thread_node(thread);
                protocol::map(&mut self.ptes[node.0 as usize], vpn, access);
                self.complete_grant(thread, vpn, violations);
                self.maybe_release_deferred(node, vpn, violations);
            }
            Msg::Retry {
                thread,
                vpn,
                access,
                ..
            } => {
                self.threads[thread] = ThreadState::Backoff { vpn, access };
                self.maybe_release_deferred(self.thread_node(thread), vpn, violations);
            }
            Msg::OwnerAck { vpn, from, .. } => {
                let actions = self.dir.owner_ack(vpn, from);
                self.run_home(vpn, actions, violations);
            }
            // A grant for this page is still in flight to the target:
            // servicing a forward (or revocation, which overtook the
            // grant on a different channel) now would act on a copy the
            // node does not hold yet. Park it until the grant lands.
            Msg::Forward { to, vpn, .. } | Msg::InvBatch { to, vpn, .. }
                if self.node_waiting_on(to, vpn) =>
            {
                self.deferred.push((to, m));
            }
            m => self.service(m, violations),
        }
    }

    /// Services a forward or a batched revocation at its target node.
    fn service(&mut self, m: Msg, violations: &mut Vec<Violation>) {
        match m {
            Msg::Forward {
                to,
                thread,
                vpn,
                access,
            } => {
                let (rules, home, requester) =
                    (self.rules(), self.config.home(), self.thread_node(thread));
                let grant = protocol::owner_forward(
                    &mut self.ptes[to.0 as usize],
                    rules,
                    home,
                    vpn,
                    access,
                    requester,
                    thread as u64,
                );
                for out in grant {
                    self.post(to, out, violations);
                }
            }
            Msg::InvBatch {
                to,
                vpn,
                needs_data,
            } => self.revoke(to, Revocation::Batch(vec![(vpn, needs_data)]), violations),
            other => panic!("non-deferrable message parked: {other:?}"),
        }
    }

    /// Whether some thread homed at `node` still awaits a grant for
    /// `vpn` — the model analogue of the runtime's in-flight mark.
    fn node_waiting_on(&self, node: NodeId, vpn: Vpn) -> bool {
        self.threads.iter().enumerate().any(|(t, s)| {
            self.thread_node(t) == node
                && matches!(*s, ThreadState::Waiting { vpn: v, .. } if v == vpn)
        })
    }

    /// Releases work parked at `(node, vpn)` once no grant is in flight
    /// to that node for that page anymore.
    fn maybe_release_deferred(&mut self, node: NodeId, vpn: Vpn, violations: &mut Vec<Violation>) {
        if self.node_waiting_on(node, vpn) {
            return; // another same-page grant is still outstanding
        }
        let mut i = 0;
        while i < self.deferred.len() {
            if self.deferred[i].0 == node && self.deferred[i].1.vpn() == vpn {
                let (_, m) = self.deferred.remove(i);
                self.service(m, violations);
            } else {
                i += 1;
            }
        }
    }

    fn rules(&self) -> Rules {
        Rules {
            pid: MODEL_PID,
            mutation: self.config.mutation,
            zero_fill: false,
        }
    }

    /// The revoke step at node `to`, acking the home.
    fn revoke(&mut self, to: NodeId, revocation: Revocation, violations: &mut Vec<Violation>) {
        let home = self.config.home();
        let rules = self.rules();
        if let Some(ack) = protocol::revoke(&mut self.ptes[to.0 as usize], rules, home, revocation)
        {
            self.post(to, ack, violations);
        }
    }

    /// The home step: applies directory actions at the home, completes
    /// home-local waiters, and puts the outgoing messages in flight.
    fn run_home(&mut self, vpn: Vpn, actions: Vec<DirAction>, violations: &mut Vec<Violation>) {
        let home = self.config.home();
        let rules = self.rules();
        let out = protocol::home_step(
            &mut self.ptes[home.0 as usize],
            rules,
            home,
            vpn,
            actions,
            None,
        );
        for (req_id, retry) in out.local {
            let thread = req_id as usize;
            if !retry {
                self.complete_grant(thread, vpn, violations);
            } else if let Some(access) = self.retry_access(thread, vpn, violations) {
                self.threads[thread] = ThreadState::Backoff { vpn, access };
            }
        }
        for send in out.sends {
            self.post(home, send, violations);
        }
    }

    /// The access a retry bounces. A retry addressed to a thread with no
    /// outstanding request is a violation: the faithful protocol never
    /// does this, so surface it instead of crashing the checker (mutated
    /// protocols do reach this state).
    fn retry_access(
        &self,
        thread: usize,
        vpn: Vpn,
        violations: &mut Vec<Violation>,
    ) -> Option<Access> {
        match self.threads[thread] {
            ThreadState::Waiting { access, .. }
            | ThreadState::Backoff { access, .. }
            | ThreadState::Follower { access, .. } => Some(access),
            ThreadState::Idle => {
                violations.push(Violation {
                    invariant: "request/response pairing",
                    detail: format!(
                        "retry for page {} addressed to idle thread T{thread}",
                        vpn.index()
                    ),
                });
                None
            }
        }
    }

    /// Puts a message sent by node `from` to node `to` in flight.
    fn post(&mut self, from: NodeId, (to, msg): Outbound<()>, violations: &mut Vec<Violation>) {
        let m = match msg {
            DexMsg::PageGrant {
                vpn,
                access,
                data,
                retry: false,
                req_id,
                ..
            } => Msg::Grant {
                from,
                thread: req_id as usize,
                vpn,
                access,
                with_data: data.is_some(),
            },
            DexMsg::PageGrant {
                vpn,
                retry: true,
                req_id,
                ..
            } => {
                let thread = req_id as usize;
                let Some(access) = self.retry_access(thread, vpn, violations) else {
                    return;
                };
                Msg::Retry {
                    from,
                    thread,
                    vpn,
                    access,
                }
            }
            DexMsg::Flush { vpn, .. } => Msg::Flush { to, vpn },
            DexMsg::FlushAck { vpn, .. } => Msg::FlushAck { vpn, from },
            DexMsg::Invalidate {
                vpn, needs_data, ..
            } => Msg::Invalidate {
                to,
                vpn,
                needs_data,
            },
            DexMsg::InvalidateAck { vpn, data, .. } => Msg::InvAck {
                vpn,
                from,
                carried_data: data.is_some(),
            },
            DexMsg::InvalidateBatch { entries, .. } => {
                for (vpn, needs_data) in entries {
                    self.msgs.push(Msg::InvBatch {
                        to,
                        vpn,
                        needs_data,
                    });
                }
                return;
            }
            DexMsg::InvalidateBatchAck { entries, .. } => {
                for (vpn, data) in entries {
                    self.msgs.push(Msg::InvBatchAck {
                        vpn,
                        from,
                        carried_data: data.is_some(),
                    });
                }
                return;
            }
            DexMsg::OwnerForward {
                vpn,
                access,
                req_id,
                ..
            } => Msg::Forward {
                to,
                thread: req_id as usize,
                vpn,
                access,
            },
            DexMsg::OwnerAck { vpn, access, .. } => Msg::OwnerAck { vpn, from, access },
            other => unreachable!("protocol steps never emit {other:?}"),
        };
        self.msgs.push(m);
    }

    /// Completes `thread`'s fault (its node's mapping is already
    /// installed) and releases its coalesced followers.
    fn complete_grant(&mut self, thread: usize, vpn: Vpn, violations: &mut Vec<Violation>) {
        if let ThreadState::Follower { leader, access, .. } = self.threads[thread] {
            violations.push(Violation {
                invariant: "leader-follower ordering",
                detail: format!(
                    "follower T{thread} (leader T{leader}) granted {access} on page {} \
                     before its leader completed",
                    vpn.index()
                ),
            });
        }
        self.threads[thread] = ThreadState::Idle;
        // Release coalesced followers: the leader installed the mapping
        // on behalf of the whole node.
        if self.config.mutation != ProtocolMutation::DropWakeup {
            for u in 0..self.threads.len() {
                if let ThreadState::Follower { leader, .. } = self.threads[u] {
                    if leader == thread {
                        self.threads[u] = ThreadState::Idle;
                    }
                }
            }
        }
    }

    /// Checks every state-level safety invariant, appending violations.
    pub fn check_safety(&self, violations: &mut Vec<Violation>) {
        for v in 0..self.config.pages {
            let vpn = Vpn::new(v);
            // (1) Single-writer exclusivity over the PTE views: a
            // writable mapping anywhere precludes the page being present
            // anywhere else. This must hold in EVERY reachable state.
            let present: Vec<NodeId> = (0..self.config.nodes)
                .map(NodeId)
                .filter(|n| self.ptes[n.0 as usize].entry(vpn).present)
                .collect();
            let writable: Vec<NodeId> = present
                .iter()
                .copied()
                .filter(|n| self.ptes[n.0 as usize].entry(vpn).writable)
                .collect();
            if !writable.is_empty() && present.len() > 1 {
                violations.push(Violation {
                    invariant: "single-writer exclusivity",
                    detail: format!(
                        "page {v}: node {} maps it writable while nodes {:?} also map it",
                        writable[0],
                        present
                            .iter()
                            .filter(|n| **n != writable[0])
                            .collect::<Vec<_>>()
                    ),
                });
            }
            if writable.len() > 1 {
                violations.push(Violation {
                    invariant: "single-writer exclusivity",
                    detail: format!("page {v}: multiple writable mappings on nodes {writable:?}"),
                });
            }
            // (2)+(3) Owner-set/PTE agreement and no lost invalidations:
            // once a page is quiescent (no transaction, no in-flight
            // message, no waiting thread), the nodes that map it must be
            // exactly the directory's owner set, and the writable node
            // must be the registered writer.
            if !self.page_in_flight(vpn) {
                let model = self.dir.page_model(vpn);
                let mapped: NodeSet = present.iter().copied().collect();
                if mapped != model.owners {
                    violations.push(Violation {
                        invariant: "owner-set/PTE agreement",
                        detail: format!(
                            "page {v}: directory owners {:?} but mapped on {:?} \
                             (stale or lost invalidation)",
                            model.owners, mapped
                        ),
                    });
                }
                match model.writer {
                    Some(w) if !self.ptes[w.0 as usize].entry(vpn).writable => {
                        violations.push(Violation {
                            invariant: "owner-set/PTE agreement",
                            detail: format!(
                                "page {v}: directory writer {w} lacks a writable mapping"
                            ),
                        });
                    }
                    None if !writable.is_empty() => {
                        violations.push(Violation {
                            invariant: "owner-set/PTE agreement",
                            detail: format!(
                                "page {v}: no directory writer but node {} maps it writable",
                                writable[0]
                            ),
                        });
                    }
                    _ => {}
                }
            }
        }
        // The directory's own internal consistency.
        if let Err(err) = self.dir.check_invariants() {
            violations.push(Violation {
                invariant: "directory internal consistency",
                detail: err,
            });
        }
    }

    /// A canonical, order-independent encoding of the whole world state
    /// for seen-set deduplication.
    pub fn canonical_key(&self) -> Vec<u64> {
        let mut key = self.dir.canonical();
        key.push(u64::MAX); // Section separator.
        for pt in &self.ptes {
            for (vpn, pte) in pt.iter() {
                key.push(vpn.index() << 2 | (pte.present as u64) << 1 | pte.writable as u64);
            }
            key.push(u64::MAX - 1);
        }
        let mut msgs: Vec<[u64; 4]> = self.msgs.iter().map(|m| m.canonical()).collect();
        msgs.sort_unstable();
        for m in msgs {
            key.extend_from_slice(&m);
        }
        key.push(u64::MAX);
        let mut parked: Vec<[u64; 5]> = self
            .deferred
            .iter()
            .map(|(n, m)| {
                let c = m.canonical();
                [n.0 as u64, c[0], c[1], c[2], c[3]]
            })
            .collect();
        parked.sort_unstable();
        for p in parked {
            key.extend_from_slice(&p);
        }
        key.push(u64::MAX);
        for t in &self.threads {
            key.push(match *t {
                ThreadState::Idle => 0,
                ThreadState::Waiting { vpn, access } => {
                    1 | vpn.index() << 8 | (access.is_write() as u64) << 4
                }
                ThreadState::Backoff { vpn, access } => {
                    2 | vpn.index() << 8 | (access.is_write() as u64) << 4
                }
                ThreadState::Follower {
                    vpn,
                    access,
                    leader,
                } => 3 | vpn.index() << 8 | (access.is_write() as u64) << 4 | (leader as u64) << 32,
            });
        }
        key
    }

    /// Renders the state compactly (counterexample traces).
    pub fn describe(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for v in 0..self.config.pages {
            let vpn = Vpn::new(v);
            let model = self.dir.page_model(vpn);
            let mapped: Vec<String> = (0..self.config.nodes)
                .filter_map(|n| {
                    let pte = self.ptes[n as usize].entry(vpn);
                    if pte.present {
                        Some(format!("{n}{}", if pte.writable { "w" } else { "r" }))
                    } else {
                        None
                    }
                })
                .collect();
            let _ = write!(
                out,
                "page {v}: owners={:?} writer={:?} txn={} mapped=[{}]  ",
                model.owners,
                model.writer.map(|w| w.0),
                if model.txn.is_some() { "yes" } else { "no" },
                mapped.join(",")
            );
        }
        let _ = write!(
            out,
            "msgs={} deferred={} threads={:?}",
            self.msgs.len(),
            self.deferred.len(),
            self.threads
        );
        out
    }
}

impl std::fmt::Debug for ModelState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.describe())
    }
}

impl std::fmt::Display for ModelEvent {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ModelEvent::Issue { thread, op } => write!(f, "T{thread}: {op}"),
            ModelEvent::ReIssue { thread } => write!(f, "T{thread}: re-issue after retry"),
            ModelEvent::Deliver { msg } => write!(f, "deliver message #{msg}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain(state: &mut ModelState) -> Vec<Violation> {
        // Deliver messages (FIFO) until quiescent; no new ops issued.
        let mut violations = Vec::new();
        let mut budget = 10_000;
        while !state.msgs.is_empty() {
            budget -= 1;
            assert!(budget > 0, "model failed to drain");
            violations.extend(state.apply(ModelEvent::Deliver { msg: 0 }));
        }
        violations
    }

    #[test]
    fn initial_state_is_quiescent_and_clean() {
        let state = ModelState::new(ModelConfig::new(3, 2));
        assert!(state.is_quiescent());
        let mut violations = Vec::new();
        state.check_safety(&mut violations);
        assert!(violations.is_empty(), "{violations:?}");
    }

    #[test]
    fn remote_write_transfers_ownership() {
        let mut state = ModelState::new(ModelConfig::new(2, 1));
        let vpn = Vpn::new(0);
        let mut violations = state.apply(ModelEvent::Issue {
            thread: 1,
            op: Op::Write(vpn),
        });
        violations.extend(drain(&mut state));
        assert!(violations.is_empty(), "{violations:?}");
        assert!(state.is_quiescent());
        assert_eq!(state.directory().current_writer(vpn), Some(NodeId(1)));
        assert!(state.page_table(NodeId(1)).entry(vpn).writable);
        assert!(!state.page_table(NodeId(0)).entry(vpn).present);
    }

    #[test]
    fn skip_invalidate_mutation_is_caught() {
        let cfg = ModelConfig::new(3, 1).with_mutation(ProtocolMutation::SkipInvalidate);
        let mut state = ModelState::new(cfg);
        let vpn = Vpn::new(0);
        // Node 1 reads (replica), then node 2 writes (revokes node 1).
        let mut violations = state.apply(ModelEvent::Issue {
            thread: 1,
            op: Op::Read(vpn),
        });
        violations.extend(drain(&mut state));
        violations.extend(state.apply(ModelEvent::Issue {
            thread: 2,
            op: Op::Write(vpn),
        }));
        violations.extend(drain(&mut state));
        assert!(
            violations
                .iter()
                .any(|v| v.invariant.contains("exclusivity") || v.invariant.contains("agreement")),
            "stale mapping must be detected: {violations:?}"
        );
    }

    #[test]
    fn drop_ack_mutation_prevents_drain() {
        let cfg = ModelConfig::new(3, 1).with_mutation(ProtocolMutation::DropInvAck);
        let mut state = ModelState::new(cfg);
        let vpn = Vpn::new(0);
        let mut v = state.apply(ModelEvent::Issue {
            thread: 1,
            op: Op::Read(vpn),
        });
        v.extend(drain(&mut state));
        v.extend(state.apply(ModelEvent::Issue {
            thread: 2,
            op: Op::Write(vpn),
        }));
        // Deliver everything deliverable; the transaction must stay open.
        let mut budget = 100;
        while !state.msgs.is_empty() && budget > 0 {
            state.apply(ModelEvent::Deliver { msg: 0 });
            budget -= 1;
        }
        assert!(state.directory().has_txn(vpn), "txn should never drain");
        assert!(!state.is_quiescent());
    }

    #[test]
    fn coalesced_follower_completes_with_leader() {
        let cfg = ModelConfig::new(2, 1).with_extra_thread(1);
        let mut state = ModelState::new(cfg);
        let vpn = Vpn::new(0);
        // Thread 1 (node 1) write-faults; thread 2 (node 1) coalesces.
        state.apply(ModelEvent::Issue {
            thread: 1,
            op: Op::Write(vpn),
        });
        state.apply(ModelEvent::Issue {
            thread: 2,
            op: Op::Write(vpn),
        });
        assert!(matches!(
            state.threads()[2],
            ThreadState::Follower { leader: 1, .. }
        ));
        let violations = drain(&mut state);
        assert!(violations.is_empty(), "{violations:?}");
        assert_eq!(state.threads()[1], ThreadState::Idle);
        assert_eq!(state.threads()[2], ThreadState::Idle, "follower released");
    }

    #[test]
    fn canonical_key_is_stable_under_message_reordering() {
        let mut a = ModelState::new(ModelConfig::new(3, 1));
        let mut b = a.clone();
        let vpn = Vpn::new(0);
        // Same requests issued in different orders; before any delivery
        // the in-flight multisets are equal.
        a.apply(ModelEvent::Issue {
            thread: 1,
            op: Op::Read(vpn),
        });
        a.apply(ModelEvent::Issue {
            thread: 2,
            op: Op::Write(vpn),
        });
        b.apply(ModelEvent::Issue {
            thread: 2,
            op: Op::Write(vpn),
        });
        b.apply(ModelEvent::Issue {
            thread: 1,
            op: Op::Read(vpn),
        });
        assert_eq!(a.canonical_key(), b.canonical_key());
    }

    #[test]
    fn write_request_from_current_writer_is_no_data_fast_path() {
        // Degenerate re-request: the exclusive owner asks to write again
        // (reachable when a coalesced sibling's request raced ahead).
        let mut dir = Directory::new(NodeId(0));
        let vpn = Vpn::new(0);
        let who = Requester::Remote {
            node: NodeId(1),
            req_id: 1,
        };
        for a in dir.request(vpn, Access::Write, who) {
            if let DirAction::SendInvalidate { to, needs_data } = a {
                dir.invalidate_ack(vpn, to, needs_data);
            }
        }
        assert_eq!(dir.page_model(vpn).writer, Some(NodeId(1)));
        let again = dir.request(vpn, Access::Write, who);
        assert_eq!(
            again,
            vec![DirAction::Grant {
                to: who,
                access: Access::Write,
                with_data: false,
            }],
            "re-request by the current writer must skip the data transfer"
        );
        let model = dir.page_model(vpn);
        assert_eq!(model.writer, Some(NodeId(1)));
        assert_eq!(model.owners, NodeSet::single(NodeId(1)));
        assert!(model.txn.is_none());
    }

    #[test]
    fn read_request_from_existing_owner_leaves_owner_set_unchanged() {
        let mut dir = Directory::new(NodeId(0));
        let vpn = Vpn::new(0);
        let who = Requester::Remote {
            node: NodeId(1),
            req_id: 1,
        };
        dir.request(vpn, Access::Read, who);
        let before = dir.page_model(vpn);
        assert!(before.owners.contains(NodeId(1)));
        // Second read from a node already in the owner set (reachable
        // after a raced coalesced fault): grant, owner set unchanged.
        let again = dir.request(vpn, Access::Read, who);
        assert_eq!(
            again,
            vec![DirAction::Grant {
                to: who,
                access: Access::Read,
                with_data: true,
            }]
        );
        let after = dir.page_model(vpn);
        assert_eq!(after.owners, before.owners);
        assert_eq!(after.writer, None);
        assert!(after.txn.is_none());
        dir.check_invariants().unwrap();
    }

    fn deliver_where(state: &mut ModelState, pred: impl Fn(&Msg) -> bool) -> Vec<Violation> {
        let idx = state
            .messages()
            .iter()
            .position(pred)
            .expect("expected message in flight");
        state.apply(ModelEvent::Deliver { msg: idx })
    }

    #[test]
    fn sharded_remote_write_transfers_ownership_via_forward() {
        // Home = node 1, origin = node 0: the write by node 2 must be
        // forwarded by the home to the origin, which grants directly.
        let mut state = ModelState::new(ModelConfig::new(3, 1).with_sharding());
        let vpn = Vpn::new(0);
        let mut violations = state.apply(ModelEvent::Issue {
            thread: 2,
            op: Op::Write(vpn),
        });
        violations.extend(drain(&mut state));
        assert!(violations.is_empty(), "{violations:?}");
        assert!(state.is_quiescent());
        assert_eq!(state.directory().current_writer(vpn), Some(NodeId(2)));
        assert!(state.page_table(NodeId(2)).entry(vpn).writable);
        assert!(!state.page_table(NodeId(0)).entry(vpn).present);
    }

    #[test]
    fn sharded_keep_origin_pte_mutation_is_caught() {
        let cfg = ModelConfig::new(3, 1)
            .with_sharding()
            .with_mutation(ProtocolMutation::KeepOriginPte);
        let mut state = ModelState::new(cfg);
        let vpn = Vpn::new(0);
        let mut violations = state.apply(ModelEvent::Issue {
            thread: 2,
            op: Op::Write(vpn),
        });
        violations.extend(drain(&mut state));
        assert!(
            violations
                .iter()
                .any(|v| v.invariant.contains("exclusivity") || v.invariant.contains("agreement")),
            "forwarding owner keeping its PTE must be detected: {violations:?}"
        );
    }

    #[test]
    fn sharded_invalidate_overtaking_forwarded_grant_is_deferred() {
        let mut state = ModelState::new(ModelConfig::new(3, 1).with_sharding());
        let vpn = Vpn::new(0);
        // Make node 2 the exclusive writer.
        let mut v = state.apply(ModelEvent::Issue {
            thread: 2,
            op: Op::Write(vpn),
        });
        v.extend(drain(&mut state));
        assert!(v.is_empty(), "{v:?}");
        // T0 (origin) read-faults; the home forwards to owner node 2,
        // which grants straight to node 0 and acks the home. Complete
        // the home's transaction first, leaving the grant in flight.
        v.extend(state.apply(ModelEvent::Issue {
            thread: 0,
            op: Op::Read(vpn),
        }));
        v.extend(deliver_where(&mut state, |m| {
            matches!(*m, Msg::Request { .. })
        }));
        v.extend(deliver_where(&mut state, |m| {
            matches!(*m, Msg::Forward { .. })
        }));
        v.extend(deliver_where(&mut state, |m| {
            matches!(*m, Msg::OwnerAck { .. })
        }));
        // The home's own thread write-faults: revocations fan out while
        // node 0's grant is still traveling on another channel.
        v.extend(state.apply(ModelEvent::Issue {
            thread: 1,
            op: Op::Write(vpn),
        }));
        v.extend(deliver_where(&mut state, |m| {
            matches!(*m, Msg::Request { .. })
        }));
        // Deliver the revocation aimed at node 0 ahead of its grant: it
        // must park instead of acking a copy that never arrived.
        v.extend(deliver_where(
            &mut state,
            |m| matches!(*m, Msg::InvBatch { to, .. } if to == NodeId(0)),
        ));
        assert_eq!(state.deferred_len(), 1, "revocation parked behind grant");
        // The grant lands; the parked revocation applies right after it.
        v.extend(deliver_where(&mut state, |m| {
            matches!(*m, Msg::Grant { thread: 0, .. })
        }));
        assert_eq!(state.deferred_len(), 0, "parked revocation released");
        v.extend(drain(&mut state));
        assert!(v.is_empty(), "{v:?}");
        assert!(state.is_quiescent());
        assert_eq!(state.directory().current_writer(vpn), Some(NodeId(1)));
        assert!(!state.page_table(NodeId(0)).entry(vpn).present);
        assert!(state.page_table(NodeId(1)).entry(vpn).writable);
    }

    #[test]
    fn evict_last_remote_owner_resets_to_origin() {
        let mut state = ModelState::new(ModelConfig::new(2, 1));
        let vpn = Vpn::new(0);
        state.apply(ModelEvent::Issue {
            thread: 1,
            op: Op::Write(vpn),
        });
        let violations = drain(&mut state);
        assert!(violations.is_empty(), "{violations:?}");
        // Node 1 is now the sole (remote) owner; evict the page.
        let violations = state.apply(ModelEvent::Issue {
            thread: 0,
            op: Op::Evict(vpn),
        });
        assert!(violations.is_empty(), "{violations:?}");
        assert!(state.is_quiescent());
        assert_eq!(state.directory().current_writer(vpn), Some(NodeId(0)));
        assert!(!state.page_table(NodeId(1)).entry(vpn).present);
        assert!(state.page_table(NodeId(0)).entry(vpn).writable);
    }
}
