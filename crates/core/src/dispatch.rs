//! Per-node message dispatchers and remote workers.
//!
//! Each node runs one dispatcher daemon that drains the node's fabric
//! inbox and handles DEX protocol messages: it is the simulated analogue
//! of the kernel message-handler context. The dispatcher never blocks on
//! another node — requests that need remote acknowledgments are turned
//! into directory transactions that later acks complete — so the protocol
//! cannot deadlock across dispatchers.
//!
//! The first migration of a process onto a node also creates the
//! *remote worker* (§III-A): a per-process daemon that applies node-wide
//! operations (eager VMA updates) in its own context.

use std::sync::Arc;

use parking_lot::Mutex;

use dex_net::{NodeId, SpanContext};
use dex_os::{Access, PageFrame, Pid, Pte, Tid, Vpn, PAGE_SIZE};
use dex_sim::{SimChannel, SimCtx, SimDuration};

use crate::directory::DirAction;
use crate::msg::{DexMsg, MigrationPhases, VmaOp};
use crate::process::{Counter, DeferredWork, DelegationJob, ProcessShared, Reply};
use crate::protocol::{self, HomeOutcome, Revocation};
use crate::span::{SpanId, SpanKind};
use crate::trace::{FaultEvent, FaultKind};

/// The task id span records use for protocol handlers (no app thread).
const PROTOCOL_TASK: Tid = Tid(u64::MAX);

/// The cluster-level registry the dispatchers consult to find process
/// state by pid.
#[derive(Default)]
pub(crate) struct ProcessRegistry {
    processes: Mutex<Vec<(Pid, Arc<ProcessShared>)>>,
}

impl ProcessRegistry {
    pub(crate) fn new() -> Arc<Self> {
        Arc::new(Self::default())
    }

    pub(crate) fn insert(&self, shared: Arc<ProcessShared>) {
        self.processes.lock().push((shared.pid, shared));
    }

    pub(crate) fn get(&self, pid: Pid) -> Arc<ProcessShared> {
        self.processes
            .lock()
            .iter()
            .find(|(p, _)| *p == pid)
            .map(|(_, s)| Arc::clone(s))
            .unwrap_or_else(|| panic!("message for unknown process {pid}"))
    }
}

/// Runs the dispatcher loop for `node`. Spawned as a daemon by the
/// cluster; exits when the engine drains.
pub(crate) fn dispatcher_loop(
    ctx: &SimCtx,
    node: NodeId,
    registry: Arc<ProcessRegistry>,
    endpoint: crate::process::Endpoint,
) {
    while let Some(delivery) = endpoint.recv(ctx) {
        let from = delivery.src;
        let span = delivery.span;
        match delivery.msg {
            DexMsg::PageRequest {
                pid,
                vpn,
                access,
                req_id,
            } => {
                let shared = registry.get(pid);
                handle_page_request(
                    ctx, &shared, &endpoint, node, from, vpn, access, req_id, span,
                );
            }
            DexMsg::PageGrant {
                pid,
                vpn,
                access,
                data,
                retry,
                req_id,
            } => {
                let shared = registry.get(pid);
                handle_page_grant(
                    ctx, &shared, &endpoint, node, vpn, access, data, retry, req_id, span,
                );
            }
            DexMsg::Invalidate {
                pid,
                vpn,
                needs_data,
            } => {
                let shared = registry.get(pid);
                handle_invalidate(ctx, &shared, &endpoint, node, from, vpn, needs_data, span);
            }
            DexMsg::InvalidateAck { pid, vpn, data } => {
                let shared = registry.get(pid);
                ctx.advance(shared.cost.protocol_handling);
                let actions =
                    shared
                        .directory_for(vpn)
                        .lock()
                        .invalidate_ack(vpn, from, data.is_some());
                // `span` is the original directory-handling span, echoed
                // back by the sharer so the deferred grant stays stitched.
                apply_origin_actions(ctx, &shared, &endpoint, node, vpn, actions, data, span);
            }
            DexMsg::OwnerForward {
                pid,
                vpn,
                access,
                requester,
                req_id,
            } => {
                let shared = registry.get(pid);
                if shared.inflight(node, vpn) {
                    // This node's own grant for the page is still in
                    // flight on another channel: it cannot service the
                    // forward until it actually owns the copy.
                    shared.defer_work(
                        node,
                        vpn,
                        DeferredWork::Forward {
                            home: from,
                            access,
                            requester,
                            req_id,
                            span,
                        },
                    );
                } else {
                    handle_owner_forward(
                        ctx, &shared, &endpoint, node, from, vpn, access, requester, req_id, span,
                    );
                }
            }
            DexMsg::OwnerAck { pid, vpn, .. } => {
                let shared = registry.get(pid);
                ctx.advance(shared.cost.protocol_handling);
                let actions = shared.directory_for(vpn).lock().owner_ack(vpn, from);
                apply_origin_actions(ctx, &shared, &endpoint, node, vpn, actions, None, span);
            }
            DexMsg::InvalidateBatch { pid, entries } => {
                let shared = registry.get(pid);
                handle_invalidate_batch(ctx, &shared, &endpoint, node, from, entries, span);
            }
            DexMsg::InvalidateBatchAck { pid, entries } => {
                let shared = registry.get(pid);
                ctx.advance(shared.cost.protocol_handling);
                for (vpn, data) in entries {
                    let carried = data.is_some();
                    if let Some(frame) = data {
                        // Stage the contents out of band: the home's own
                        // frame is not part of a forwarded transfer, and
                        // the grant may wait on further acks.
                        shared.stage_frame(node, vpn, frame);
                    }
                    let actions = shared
                        .directory_for(vpn)
                        .lock()
                        .invalidate_ack(vpn, from, carried);
                    if actions.is_empty() {
                        continue;
                    }
                    let staged = shared.take_staged(node, vpn);
                    apply_origin_actions(ctx, &shared, &endpoint, node, vpn, actions, staged, span);
                }
            }
            DexMsg::Flush { pid, vpn } => {
                let shared = registry.get(pid);
                ctx.advance(shared.cost.protocol_handling);
                let (to, ack) = protocol::flush(&mut *shared.space(node).lock(), pid, from, vpn);
                endpoint.send_traced(ctx, to, ack, span);
            }
            DexMsg::FlushAck { pid, vpn, data } => {
                let shared = registry.get(pid);
                ctx.advance(shared.cost.protocol_handling);
                let actions = shared.directory_for(vpn).lock().flush_ack(vpn, from);
                apply_origin_actions(
                    ctx,
                    &shared,
                    &endpoint,
                    node,
                    vpn,
                    actions,
                    Some(data),
                    span,
                );
            }
            DexMsg::VmaRequest { pid, addr, req_id } => {
                let shared = registry.get(pid);
                ctx.advance(shared.cost.protocol_handling);
                let vma = shared.space(shared.origin).lock().vmas.find(addr).cloned();
                endpoint.send(ctx, from, DexMsg::VmaReply { pid, vma, req_id });
            }
            DexMsg::VmaReply { pid, vma, req_id } => {
                let shared = registry.get(pid);
                shared.complete_pending(ctx, node, req_id, Reply::Vma(vma));
            }
            DexMsg::VmaUpdate { pid, op, req_id } => {
                let shared = registry.get(pid);
                // Node-wide operations are handed to the remote worker when
                // one exists; otherwise (no thread ever migrated here) the
                // dispatcher applies them directly.
                let chan = shared.remote_nodes[node.0 as usize]
                    .lock()
                    .worker_chan
                    .clone();
                match chan {
                    Some(chan) => {
                        // Queue the op for the remote worker; it applies the
                        // change in its own context and acks the origin
                        // itself, so the dispatcher never blocks. Ack
                        // routing is stashed before the op is queued.
                        shared.remote_nodes[node.0 as usize]
                            .lock()
                            .pending_acks
                            .push((req_id, from));
                        chan.send(ctx, op).expect("remote worker channel open");
                    }
                    None => {
                        apply_vma_op(&shared, node, &op);
                        endpoint.send(ctx, from, DexMsg::VmaUpdateAck { pid, req_id });
                    }
                }
            }
            DexMsg::VmaUpdateAck { pid, req_id } => {
                let shared = registry.get(pid);
                shared.complete_broadcast_ack(ctx, node, req_id, from);
            }
            DexMsg::MigrateRequest {
                pid,
                tid,
                context,
                req_id,
            } => {
                let shared = registry.get(pid);
                handle_migrate_request(
                    ctx, &shared, &endpoint, node, from, tid, context, req_id, span,
                );
            }
            DexMsg::MigrateAck {
                pid,
                phases,
                req_id,
                ..
            } => {
                let shared = registry.get(pid);
                shared.complete_pending(ctx, node, req_id, Reply::MigrateAck(phases));
            }
            DexMsg::MigrateBack { pid, req_id, .. } => {
                let shared = registry.get(pid);
                // Backward migration only updates the original thread's
                // state — two orders of magnitude cheaper than forward.
                let update = shared.spans.open(
                    SpanKind::MigrationPhase,
                    SpanId(span.0),
                    node,
                    PROTOCOL_TASK,
                    ctx.now(),
                );
                ctx.advance(shared.cost.backward_update);
                update.close(ctx.now(), "backward_update");
                endpoint.send_traced(
                    ctx,
                    from,
                    DexMsg::MigrateBackAck {
                        pid,
                        tid: Tid(0),
                        req_id,
                    },
                    span,
                );
            }
            DexMsg::MigrateBackAck { pid, req_id, .. } => {
                let shared = registry.get(pid);
                shared.complete_pending(ctx, node, req_id, Reply::MigrateBackAck);
            }
            DexMsg::Delegate {
                pid,
                tid,
                op,
                req_id,
            } => {
                let shared = registry.get(pid);
                let chan = shared.delegation.lock().get(&tid).cloned();
                let chan =
                    chan.unwrap_or_else(|| panic!("delegation for {tid} with no original thread"));
                chan.send(
                    ctx,
                    DelegationJob {
                        op,
                        from,
                        req_id,
                        span,
                    },
                )
                .expect("pair channel open");
            }
            DexMsg::DelegateReply {
                pid,
                result,
                req_id,
            } => {
                let shared = registry.get(pid);
                shared.complete_pending(ctx, node, req_id, Reply::Delegate(result));
            }
            DexMsg::FutexWoken { pid, req_id } => {
                let shared = registry.get(pid);
                shared.complete_pending(ctx, node, req_id, Reply::FutexWoken);
            }
        }
    }
}

/// Home-side handling of a remote page request: run the directory state
/// machine and apply/dispatch its actions. `node` is the handling node —
/// the origin classically, the page's home shard otherwise.
#[allow(clippy::too_many_arguments)]
fn handle_page_request(
    ctx: &SimCtx,
    shared: &Arc<ProcessShared>,
    endpoint: &crate::process::Endpoint,
    node: NodeId,
    from: NodeId,
    vpn: Vpn,
    access: Access,
    req_id: u64,
    span: SpanContext,
) {
    let handling = shared.spans.open(
        SpanKind::DirectoryHandling,
        SpanId(span.0),
        node,
        PROTOCOL_TASK,
        ctx.now(),
    );
    ctx.advance(shared.cost.protocol_handling);
    let actions = shared.directory_for(vpn).lock().request(
        vpn,
        access,
        crate::directory::Requester::Remote { node: from, req_id },
    );
    // Grants and invalidations stitch to the *handling* span so the
    // requester-side fixup becomes its child.
    let out = handling.context();
    apply_origin_actions(ctx, shared, endpoint, node, vpn, actions, None, out);
    let label = if access.is_write() {
        "page_request_write"
    } else {
        "page_request_read"
    };
    handling.close(ctx.now(), label);
}

/// Runs the home step at `home` under its address-space lock, so the
/// directory transition's local PTE/frame changes are atomic (no yield).
/// Contents staged for a grant that still waits on acks are kept until
/// the transaction's last ack. Shared by the inline fault path at the
/// home and the dispatcher.
pub(crate) fn home_step_at(
    shared: &ProcessShared,
    home: NodeId,
    vpn: Vpn,
    actions: Vec<DirAction>,
    staged: Option<PageFrame>,
) -> HomeOutcome<PageFrame> {
    let mut out = protocol::home_step(
        &mut *shared.space(home).lock(),
        shared.rules(),
        home,
        vpn,
        actions,
        staged,
    );
    for (_, msg) in &out.sends {
        if let DexMsg::OwnerForward { .. } = msg {
            shared.count(Counter::Forwards, home);
        }
    }
    if out.zero_fills > 0 {
        shared.count_by(Counter::ZeroPageGrants, home, out.zero_fills);
    }
    if let Some(frame) = out.staged.take() {
        shared.stage_frame(home, vpn, frame);
    }
    out
}

/// Applies directory actions at the handling node (`home`: the origin
/// classically, the page's home shard otherwise): the home step, then
/// local completions and sends. Also the engine behind crash recovery's
/// page reclamation (`handle_node_crash`).
///
/// `span` rides every outgoing message, so grants/invalidations carry the
/// directory-handling span of the transaction that produced them.
#[allow(clippy::too_many_arguments)]
pub(crate) fn apply_origin_actions(
    ctx: &SimCtx,
    shared: &Arc<ProcessShared>,
    endpoint: &crate::process::Endpoint,
    home: NodeId,
    vpn: Vpn,
    actions: Vec<DirAction>,
    staged: Option<PageFrame>,
    span: SpanContext,
) {
    let out = home_step_at(shared, home, vpn, actions, staged);
    // Local waiters were parked at the handling node: retry completions
    // must be delivered like grants.
    for (req_id, retry) in out.local {
        shared.complete_pending(ctx, home, req_id, Reply::PageGrant { retry });
    }
    for (to, msg) in out.sends {
        endpoint.send_traced(ctx, to, msg, span);
    }
}

/// Requester-side handling of a page grant: install data + PTE, run any
/// protocol work deferred behind the grant, then wake the leader.
#[allow(clippy::too_many_arguments)]
fn handle_page_grant(
    ctx: &SimCtx,
    shared: &Arc<ProcessShared>,
    endpoint: &crate::process::Endpoint,
    node: NodeId,
    vpn: Vpn,
    access: Access,
    data: Option<PageFrame>,
    retry: bool,
    req_id: u64,
    span: SpanContext,
) {
    let fixup = shared.spans.open(
        SpanKind::PageFixup,
        SpanId(span.0),
        node,
        PROTOCOL_TASK,
        ctx.now(),
    );
    let with_data = data.is_some();
    if !retry {
        let mut space = shared.space(node).lock();
        if let Some(frame) = data {
            shared.count_by(Counter::PageBytesReceived, node, PAGE_SIZE as u64);
            space.install_frame(vpn, frame);
        }
        space.page_table.set(
            vpn,
            if access.is_write() {
                Pte::READ_WRITE
            } else {
                Pte::READ_ONLY
            },
        );
        let _ = space.frame_mut(vpn);
    }
    let label = match (retry, with_data) {
        (true, _) => "grant_retry",
        (false, true) => "grant_with_data",
        (false, false) => "grant_no_transfer",
    };
    fixup.close(ctx.now(), label);
    // Sharded mode: the grant the deferred work was waiting for has
    // landed (or been turned into a retry) — run it before waking the
    // requester so the node's state is protocol-consistent.
    if let Some(work) = shared.unmark_inflight(node, vpn) {
        run_deferred(ctx, shared, endpoint, node, vpn, work);
    }
    shared.complete_pending(ctx, node, req_id, Reply::PageGrant { retry });
}

/// Runs protocol work a node deferred until its in-flight grant landed.
fn run_deferred(
    ctx: &SimCtx,
    shared: &Arc<ProcessShared>,
    endpoint: &crate::process::Endpoint,
    node: NodeId,
    vpn: Vpn,
    work: DeferredWork,
) {
    shared.count(Counter::DeferredWork, node);
    match work {
        DeferredWork::Invalidate {
            home,
            needs_data,
            span,
        } => {
            record_invalidation(ctx, shared, node, vpn, "protocol.invalidate_batch");
            let ack = protocol::revoke(
                &mut *shared.space(node).lock(),
                shared.rules(),
                home,
                Revocation::Batch(vec![(vpn, needs_data)]),
            );
            if let Some((to, ack)) = ack {
                endpoint.send_traced(ctx, to, ack, span);
            }
        }
        DeferredWork::Forward {
            home,
            access,
            requester,
            req_id,
            span,
        } => {
            handle_owner_forward(
                ctx, shared, endpoint, node, home, vpn, access, requester, req_id, span,
            );
        }
    }
}

/// Owner-side handling of a forwarded request (sharded mode): adjust the
/// local mapping, grant (with data) straight to the requester — the
/// two-hop critical path — and acknowledge the ownership change to the
/// home asynchronously.
#[allow(clippy::too_many_arguments)]
fn handle_owner_forward(
    ctx: &SimCtx,
    shared: &Arc<ProcessShared>,
    endpoint: &crate::process::Endpoint,
    node: NodeId,
    from: NodeId,
    vpn: Vpn,
    access: Access,
    requester: NodeId,
    req_id: u64,
    span: SpanContext,
) {
    let handling = shared.spans.open(
        SpanKind::OwnerForward,
        SpanId(span.0),
        node,
        PROTOCOL_TASK,
        ctx.now(),
    );
    ctx.advance(shared.cost.forward_handling);
    let out = protocol::owner_forward(
        &mut *shared.space(node).lock(),
        shared.rules(),
        from,
        vpn,
        access,
        requester,
        req_id,
    );
    shared.count(Counter::ForwardsServiced, node);
    for (to, msg) in out {
        endpoint.send_traced(ctx, to, msg, handling.context());
    }
    let label = if access.is_write() {
        "owner_forward_write"
    } else {
        "owner_forward_read"
    };
    handling.close(ctx.now(), label);
}

/// A node's handling of a batched ownership revocation (sharded mode):
/// every doomed replica the home condemned at this node is cleared in one
/// message, acknowledged with one aggregated ack, and accounted as one
/// span. Entries whose page has a grant still in flight are deferred and
/// acknowledged in a later partial ack.
fn handle_invalidate_batch(
    ctx: &SimCtx,
    shared: &Arc<ProcessShared>,
    endpoint: &crate::process::Endpoint,
    node: NodeId,
    from: NodeId,
    entries: Vec<(Vpn, bool)>,
    span: SpanContext,
) {
    let inval = shared.spans.open(
        SpanKind::InvalidateBatch,
        SpanId(span.0),
        node,
        PROTOCOL_TASK,
        ctx.now(),
    );
    ctx.advance(shared.cost.protocol_handling);
    // The grant for a deferred page is still in flight on another
    // channel: revoking now would ack a copy the node does not hold yet.
    // The ack follows the grant.
    let (deferred, now): (Vec<_>, Vec<_>) = entries
        .into_iter()
        .partition(|&(vpn, _)| shared.inflight(node, vpn));
    for (vpn, needs_data) in deferred {
        shared.defer_work(
            node,
            vpn,
            DeferredWork::Invalidate {
                home: from,
                needs_data,
                span,
            },
        );
    }
    let carried = now.iter().any(|&(_, needs_data)| needs_data);
    for &(vpn, _) in &now {
        record_invalidation(ctx, shared, node, vpn, "protocol.invalidate_batch");
    }
    // One aggregated ack for every entry applied now; deferred entries
    // follow in partial acks of their own.
    let ack = protocol::revoke(
        &mut *shared.space(node).lock(),
        shared.rules(),
        from,
        Revocation::Batch(now),
    );
    shared.count(Counter::InvalidateBatches, node);
    let label = if carried {
        "invalidate_batch_flush"
    } else {
        "invalidate_batch_drop"
    };
    inval.close(ctx.now(), label);
    // The ack echoes the incoming directory span so the home's deferred
    // grant stays stitched.
    if let Some((to, ack)) = ack {
        endpoint.send_traced(ctx, to, ack, span);
    }
}

/// Records one revocation applied at `node`: the invalidation counter
/// and the §IV-A trace event, from every path that revokes a page.
fn record_invalidation(
    ctx: &SimCtx,
    shared: &ProcessShared,
    node: NodeId,
    vpn: Vpn,
    site: &'static str,
) {
    shared.count(Counter::Invalidations, node);
    shared.trace.record_with(|| FaultEvent {
        time: ctx.now(),
        node,
        task: PROTOCOL_TASK,
        kind: FaultKind::Invalidate,
        site,
        addr: vpn.base(),
        tag: shared.tag_for(shared.origin, vpn.base()),
    });
}

/// A node's handling of an ownership revocation.
#[allow(clippy::too_many_arguments)]
fn handle_invalidate(
    ctx: &SimCtx,
    shared: &Arc<ProcessShared>,
    endpoint: &crate::process::Endpoint,
    node: NodeId,
    from: NodeId,
    vpn: Vpn,
    needs_data: bool,
    span: SpanContext,
) {
    let inval = shared.spans.open(
        SpanKind::Invalidation,
        SpanId(span.0),
        node,
        PROTOCOL_TASK,
        ctx.now(),
    );
    ctx.advance(shared.cost.protocol_handling);
    let ack = protocol::revoke(
        &mut *shared.space(node).lock(),
        shared.rules(),
        from,
        Revocation::Page { vpn, needs_data },
    );
    record_invalidation(ctx, shared, node, vpn, "protocol.invalidate");
    let label = if needs_data {
        "invalidate_flush"
    } else {
        "invalidate_drop"
    };
    inval.close(ctx.now(), label);
    // The ack echoes the *incoming* (directory) span, not the local
    // invalidation span, so the origin's deferred grant stays parented to
    // the directory transaction that caused the fan-out.
    if let Some((to, ack)) = ack {
        endpoint.send_traced(ctx, to, ack, span);
    }
}

/// Remote-node handling of a forward migration: create the per-process
/// remote worker on first contact, fork a remote thread, install the
/// context, and ack with the phase breakdown (Figure 3).
#[allow(clippy::too_many_arguments)]
fn handle_migrate_request(
    ctx: &SimCtx,
    shared: &Arc<ProcessShared>,
    endpoint: &crate::process::Endpoint,
    node: NodeId,
    from: NodeId,
    tid: Tid,
    context: dex_os::ExecutionContext,
    req_id: u64,
    span: SpanContext,
) {
    // Times one remote-side phase and records it as a child of the
    // origin's migration span when spans are on.
    let record_phase = |label: &'static str, start, end| {
        shared
            .spans
            .open(SpanKind::MigrationPhase, SpanId(span.0), node, tid, start)
            .close(end, label);
    };
    // Verify the context transferred intact (serialization round-trip).
    let roundtrip =
        dex_os::ExecutionContext::from_bytes(&context.to_bytes()).expect("context deserializes");
    assert_eq!(roundtrip, context, "execution context corrupted in transit");

    let mut phases: MigrationPhases = Vec::new();
    let first = {
        let mut state = shared.remote_nodes[node.0 as usize].lock();
        if state.worker_started {
            false
        } else {
            state.worker_started = true;
            let chan: SimChannel<VmaOp> = SimChannel::unbounded();
            state.worker_chan = Some(chan.clone());
            let shared2 = Arc::clone(shared);
            let endpoint2 = endpoint.clone();
            ctx.spawn_daemon(format!("remote-worker-{}-{node}", shared.pid), move |ctx| {
                remote_worker_loop(ctx, shared2, endpoint2, node, chan);
            });
            true
        }
    };
    let t0 = ctx.now();
    if first {
        // Per-process setup: remote worker creation dominates the first
        // migration (620 µs of the 800 µs remote side, Figure 3).
        ctx.advance(shared.cost.remote_worker_setup);
        phases.push(("remote_worker", shared.cost.remote_worker_setup));
        record_phase("remote_worker", t0, ctx.now());
    } else {
        ctx.advance(shared.cost.worker_reuse);
        phases.push(("worker_reuse", shared.cost.worker_reuse));
        record_phase("worker_reuse", t0, ctx.now());
    }
    let t1 = ctx.now();
    ctx.advance(shared.cost.thread_fork);
    phases.push(("thread_fork", shared.cost.thread_fork));
    record_phase("thread_fork", t1, ctx.now());
    let t2 = ctx.now();
    ctx.advance(shared.cost.context_install);
    phases.push(("context_install", shared.cost.context_install));
    record_phase("context_install", t2, ctx.now());

    endpoint.send_traced(
        ctx,
        from,
        DexMsg::MigrateAck {
            pid: shared.pid,
            tid,
            phases,
            req_id,
        },
        span,
    );
}

/// The remote worker: applies node-wide operations in its own context and
/// acknowledges them to the origin.
fn remote_worker_loop(
    ctx: &SimCtx,
    shared: Arc<ProcessShared>,
    endpoint: crate::process::Endpoint,
    node: NodeId,
    chan: SimChannel<VmaOp>,
) {
    while let Some(op) = chan.recv(ctx) {
        ctx.advance(SimDuration::from_micros(2)); // apply cost
        apply_vma_op(&shared, node, &op);
        let (req_id, to) = shared.remote_nodes[node.0 as usize]
            .lock()
            .pending_acks
            .remove(0);
        endpoint.send(
            ctx,
            to,
            DexMsg::VmaUpdateAck {
                pid: shared.pid,
                req_id,
            },
        );
    }
}

/// Applies a broadcast VMA operation to a node's replica: shrink/downgrade
/// the VMAs and drop any local page state in the range.
fn apply_vma_op(shared: &Arc<ProcessShared>, node: NodeId, op: &VmaOp) {
    let mut space = shared.space(node).lock();
    match op {
        VmaOp::Unmap { addr, len } => {
            let pages = space.vmas.munmap(*addr, *len).unwrap_or_default();
            for vpn in pages {
                space.page_table.clear(vpn);
                space.evict_frame(vpn);
            }
        }
        VmaOp::Protect { addr, len, prot } => {
            // Replicas may not have pulled the VMA yet; only apply where
            // known. Clear PTEs so the next touch revalidates.
            let _ = space.vmas.mprotect(*addr, *len, *prot);
            for vpn in dex_os::pages_covering(*addr, *len) {
                space.page_table.clear(vpn);
            }
        }
    }
}
