//! The node-side half of the coherence protocol (§III-B/C), written once.
//!
//! The [`Directory`](crate::Directory) decides who owns a page; the steps
//! here carry those decisions out at one node:
//!
//! * the **home step** ([`home_step`]) applies a `Vec<DirAction>` to the
//!   handling node's own PTE and frame, stages contents for a grant still
//!   waiting on acks, and emits grants, retries, flushes, invalidations
//!   and forwards;
//! * the **revoke step** ([`revoke`]) drops a node's copy for a unicast,
//!   batched or deferred invalidation and builds the ack;
//! * the **owner-forward step** ([`owner_forward`]) is a sharded owner
//!   granting straight to the requester and acknowledging the home;
//! * the **flush step** ([`flush`]) is an exclusive writer downgrading to
//!   shared and shipping its contents back.
//!
//! Every step is pure over a [`PageStore`]: it never yields and never
//! sends, and returns the messages to send (wire [`DexMsg`]s carrying the
//! store's frame type) and the local completions as values. The runtime
//! drives the steps over [`AddressSpace`] with real frames (`thread.rs` for a fault at the home,
//! `dispatch.rs` for every protocol message); the model checker
//! (`directory/model.rs`) drives the same steps over a bare [`PageTable`]
//! with `Frame = ()`. The node-side [`ProtocolMutation`]s are injected
//! here, so each reaches the runtime and the model through the same line.

use dex_net::NodeId;
use dex_os::{Access, AddressSpace, PageFrame, PageTable, Pid, Pte, Vpn};

use crate::directory::{DirAction, Requester};
use crate::msg::DexMsg;
use crate::mutation::ProtocolMutation;

/// One node's pages as the protocol steps see them: a page table plus
/// (in the runtime) the frames behind it.
pub(crate) trait PageStore {
    /// Page contents: [`PageFrame`] in the runtime, `()` in the model.
    type Frame;
    /// The node's page table.
    fn table(&mut self) -> &mut PageTable;
    /// A copy of the node's frame for `vpn`, if resident.
    fn frame(&self, vpn: Vpn) -> Option<Self::Frame>;
    /// A zero-filled page.
    fn zeroed() -> Self::Frame;
    /// Installs `frame` as the contents of `vpn`.
    fn install(&mut self, vpn: Vpn, frame: Self::Frame);
    /// Materializes the frame of `vpn` (zero-fill on first touch).
    fn touch(&mut self, vpn: Vpn);
    /// Discards the frame of `vpn`.
    fn evict(&mut self, vpn: Vpn);
}

impl PageStore for AddressSpace {
    type Frame = PageFrame;

    fn table(&mut self) -> &mut PageTable {
        &mut self.page_table
    }

    fn frame(&self, vpn: Vpn) -> Option<PageFrame> {
        AddressSpace::frame(self, vpn).cloned()
    }

    fn zeroed() -> PageFrame {
        PageFrame::zeroed()
    }

    fn install(&mut self, vpn: Vpn, frame: PageFrame) {
        self.install_frame(vpn, frame);
    }

    fn touch(&mut self, vpn: Vpn) {
        let _ = self.frame_mut(vpn);
    }

    fn evict(&mut self, vpn: Vpn) {
        self.evict_frame(vpn);
    }
}

/// The model's page store: protocol state only, every page "resident".
impl PageStore for PageTable {
    type Frame = ();

    fn table(&mut self) -> &mut PageTable {
        self
    }

    fn frame(&self, _: Vpn) -> Option<()> {
        Some(())
    }

    fn zeroed() {}

    fn install(&mut self, _: Vpn, _: ()) {}

    fn touch(&mut self, _: Vpn) {}

    fn evict(&mut self, _: Vpn) {}
}

/// A message a step asks its driver to send: destination and payload.
pub(crate) type Outbound<F> = (NodeId, DexMsg<F>);

/// What the handling node needs to know besides its pages.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Rules {
    /// The process the pages belong to.
    pub pid: Pid,
    /// Seeded protocol bug.
    pub mutation: ProtocolMutation,
    /// A grant of a page the node never materialized carries no contents
    /// (the receiver zero-fills) instead of 4 KiB of zeros.
    pub zero_fill: bool,
}

/// The home step's results.
#[derive(Debug)]
pub(crate) struct HomeOutcome<F> {
    /// Messages to send, in action order.
    pub sends: Vec<Outbound<F>>,
    /// Home-local waiters to complete, as `(req_id, retry)`.
    pub local: Vec<(u64, bool)>,
    /// Contents the still-open transaction's grant must ship: the home's
    /// own copy, dropped while acks from other replicas are outstanding.
    /// The driver keeps them until the transaction completes.
    pub staged: Option<F>,
    /// Grants answered with a zero-fill instead of contents.
    pub zero_fills: u64,
}

/// Home step: applies the directory's `actions` for `vpn` at the handling
/// node `home` (the origin classically, the page's home shard otherwise).
/// `staged` holds contents this transaction already collected (a flush or
/// data-carrying invalidation ack, or the home's own dropped copy); the
/// grant ships them in preference to the home's frame.
pub(crate) fn home_step<S: PageStore>(
    store: &mut S,
    rules: Rules,
    home: NodeId,
    vpn: Vpn,
    actions: Vec<DirAction>,
    mut staged: Option<S::Frame>,
) -> HomeOutcome<S::Frame> {
    let (pid, mutation) = (rules.pid, rules.mutation);
    let mut sends = Vec::new();
    let mut local = Vec::new();
    let mut zero_fills = 0;
    for action in actions {
        match action {
            DirAction::Grant {
                to: Requester::Remote { node, req_id },
                access,
                with_data,
            } => {
                // Data source: contents staged by this transaction, else
                // the home's frame. A page nobody materialized is the
                // kernel zero page.
                let source = staged.take();
                let data = if with_data {
                    match source.or_else(|| store.frame(vpn)) {
                        // Mutation: grant a zeroed page instead of the
                        // live frame, losing every write.
                        Some(_) if mutation == ProtocolMutation::StaleGrantData => {
                            Some(S::zeroed())
                        }
                        Some(frame) => Some(frame),
                        None if rules.zero_fill => {
                            zero_fills += 1;
                            None
                        }
                        None => Some(S::zeroed()),
                    }
                } else {
                    None
                };
                sends.push((node, page_grant(pid, vpn, access, data, false, req_id)));
            }
            DirAction::Grant {
                to: Requester::Local { req_id },
                access,
                ..
            } => {
                if let Some(frame) = staged.take() {
                    // A completed forwarded transaction staged the
                    // contents for the home's own waiter.
                    store.install(vpn, frame);
                }
                map(store, vpn, access);
                local.push((req_id, false));
            }
            DirAction::Retry { to } => {
                // A retry ends the transaction: nothing staged survives.
                staged = None;
                match to {
                    Requester::Remote { node, req_id } => {
                        sends.push((node, page_grant(pid, vpn, Access::Read, None, true, req_id)))
                    }
                    Requester::Local { req_id } => local.push((req_id, true)),
                }
            }
            DirAction::SendFlush { to } => sends.push((to, DexMsg::Flush { pid, vpn })),
            DirAction::SendInvalidate { to, needs_data } => {
                let invalidate = DexMsg::Invalidate {
                    pid,
                    vpn,
                    needs_data,
                };
                sends.push((to, invalidate));
            }
            DirAction::ClearOriginPte => {
                // Mutation: the home keeps its PTE after handing
                // ownership away, so its accesses bypass the protocol.
                if mutation != ProtocolMutation::KeepOriginPte {
                    store.table().clear(vpn);
                }
            }
            DirAction::DowngradeOriginPte => {
                // Mutation: the home keeps writing while readers replicate.
                if mutation != ProtocolMutation::SkipOriginDowngrade {
                    store.table().downgrade(vpn);
                }
            }
            DirAction::SetOriginPteRo => store.table().set(vpn, Pte::READ_ONLY),
            DirAction::InstallOriginData => {
                if let Some(frame) = staged.take() {
                    store.install(vpn, frame);
                }
            }
            DirAction::Forward {
                to,
                requester,
                access,
            } => {
                let (requester, req_id) = match requester {
                    Requester::Remote { node, req_id } => (node, req_id),
                    Requester::Local { req_id } => (home, req_id),
                };
                let forward = DexMsg::OwnerForward {
                    pid,
                    vpn,
                    access,
                    requester,
                    req_id,
                };
                sends.push((to, forward));
            }
            DirAction::SendInvalidateBatch { to, entries } => {
                sends.push((to, DexMsg::InvalidateBatch { pid, entries }))
            }
            DirAction::DropHomeCopy { needs_data } => {
                if needs_data {
                    // The home's copy is the elected data source: stage
                    // it for the grant before dropping it.
                    staged = Some(store.frame(vpn).unwrap_or_else(S::zeroed));
                }
                store.table().clear(vpn);
                store.evict(vpn);
            }
        }
    }
    HomeOutcome {
        sends,
        local,
        staged,
        zero_fills,
    }
}

/// A grant (with or without contents), or with `retry` a retry notice.
fn page_grant<F>(
    pid: Pid,
    vpn: Vpn,
    access: Access,
    data: Option<F>,
    retry: bool,
    req_id: u64,
) -> DexMsg<F> {
    DexMsg::PageGrant {
        pid,
        vpn,
        access,
        data,
        retry,
        req_id,
    }
}

/// Maps `vpn` for a granted `access`. A read grant keeps a writable
/// mapping: the degenerate read grant to the current writer must not
/// downgrade it behind the directory's back.
pub(crate) fn map<S: PageStore>(store: &mut S, vpn: Vpn, access: Access) {
    let table = store.table();
    if access.is_write() {
        table.set(vpn, Pte::READ_WRITE);
    } else if !table.entry(vpn).writable {
        table.set(vpn, Pte::READ_ONLY);
    }
    store.touch(vpn);
}

/// How an invalidation reached the node, which fixes the ack's shape.
#[derive(Debug)]
pub(crate) enum Revocation {
    /// Classic unicast revocation of one page.
    Page { vpn: Vpn, needs_data: bool },
    /// Sharded batch (or a deferred entry of one): `(page, needs_data)`.
    Batch(Vec<(Vpn, bool)>),
}

/// Revoke step: drops this node's copy of every revoked page, returning
/// the ack for `home` (`None` when there is nothing to ack, or when the
/// drop-ack mutation loses it).
pub(crate) fn revoke<S: PageStore>(
    store: &mut S,
    rules: Rules,
    home: NodeId,
    revocation: Revocation,
) -> Option<Outbound<S::Frame>> {
    let (pid, mutation) = (rules.pid, rules.mutation);
    let mut drop_copy = |vpn: Vpn, needs_data: bool| {
        let data = needs_data.then(|| {
            // Mutation: ack with a zeroed page instead of the dirty
            // frame, dropping this node's writes on ownership transfer.
            if mutation == ProtocolMutation::LoseInvalidateData {
                S::zeroed()
            } else {
                store.frame(vpn).unwrap_or_else(S::zeroed)
            }
        });
        // Mutation: ack the invalidation but keep the local PTE and
        // frame, so this node keeps reading its stale copy.
        if mutation != ProtocolMutation::SkipInvalidate {
            store.table().clear(vpn);
            store.evict(vpn);
        }
        data
    };
    let ack = match revocation {
        Revocation::Page { vpn, needs_data } => DexMsg::InvalidateAck {
            pid,
            vpn,
            data: drop_copy(vpn, needs_data),
        },
        Revocation::Batch(entries) if entries.is_empty() => return None,
        Revocation::Batch(entries) => DexMsg::InvalidateBatchAck {
            pid,
            entries: entries
                .into_iter()
                .map(|(vpn, needs_data)| (vpn, drop_copy(vpn, needs_data)))
                .collect(),
        },
    };
    // Mutation: the ack is lost in the fabric; the transaction never
    // drains.
    (mutation != ProtocolMutation::DropInvAck).then_some((home, ack))
}

/// Owner-forward step (sharded mode): the current owner adjusts its own
/// mapping, grants (with data) straight to `requester` — the two-hop
/// critical path — and acknowledges the ownership change to `home`.
pub(crate) fn owner_forward<S: PageStore>(
    store: &mut S,
    rules: Rules,
    home: NodeId,
    vpn: Vpn,
    access: Access,
    requester: NodeId,
    req_id: u64,
) -> [Outbound<S::Frame>; 2] {
    let (pid, mutation) = (rules.pid, rules.mutation);
    let frame = store.frame(vpn).unwrap_or_else(S::zeroed);
    if access.is_write() {
        // Mutation: the owner keeps its mapping after handing
        // exclusivity away, so its threads keep reading the stale copy.
        if mutation != ProtocolMutation::KeepOriginPte {
            store.table().clear(vpn);
            store.evict(vpn);
        }
    } else {
        // The owner keeps a shared copy, downgrading if it was the
        // exclusive writer.
        store.table().downgrade(vpn);
    }
    let data = if mutation == ProtocolMutation::StaleGrantData {
        S::zeroed()
    } else {
        frame
    };
    [
        (
            requester,
            page_grant(pid, vpn, access, Some(data), false, req_id),
        ),
        (home, DexMsg::OwnerAck { pid, vpn, access }),
    ]
}

/// Flush step: the exclusive writer downgrades to shared and ships its
/// contents back to `home`.
pub(crate) fn flush<S: PageStore>(
    store: &mut S,
    pid: Pid,
    home: NodeId,
    vpn: Vpn,
) -> Outbound<S::Frame> {
    store.table().downgrade(vpn);
    let data = store.frame(vpn).unwrap_or_else(S::zeroed);
    (home, DexMsg::FlushAck { pid, vpn, data })
}

#[cfg(test)]
mod tests {
    use super::*;

    const HOME: NodeId = NodeId(1);

    fn rules(mutation: ProtocolMutation) -> Rules {
        Rules {
            pid: Pid(1),
            mutation,
            zero_fill: false,
        }
    }

    #[test]
    fn drop_home_copy_stages_contents_for_a_later_grant() {
        // The home's copy is the elected data source but the grant waits
        // on another replica's ack: the staged copy must outlive the step.
        let mut space = AddressSpace::new();
        let vpn = Vpn::new(3);
        space.page_table.set(vpn, Pte::READ_ONLY);
        space.frame_mut(vpn).bytes_mut()[0] = 42;
        let out = home_step(
            &mut space,
            rules(ProtocolMutation::None),
            HOME,
            vpn,
            vec![
                DirAction::DropHomeCopy { needs_data: true },
                DirAction::SendInvalidateBatch {
                    to: NodeId(2),
                    entries: vec![(vpn, false)],
                },
            ],
            None,
        );
        assert!(!space.page_table.entry(vpn).present);
        assert!(space.frame(vpn).is_none());
        let staged = out.staged.expect("home copy staged for the grant");
        assert_eq!(staged.bytes()[0], 42);
        // The last ack's grant ships the staged contents.
        let to = Requester::Remote {
            node: NodeId(2),
            req_id: 7,
        };
        let grant = home_step(
            &mut space,
            rules(ProtocolMutation::None),
            HOME,
            vpn,
            vec![DirAction::Grant {
                to,
                access: Access::Write,
                with_data: true,
            }],
            Some(staged),
        );
        assert!(grant.staged.is_none());
        match &grant.sends[..] {
            [(
                NodeId(2),
                DexMsg::PageGrant {
                    data: Some(frame), ..
                },
            )] => assert_eq!(frame.bytes()[0], 42),
            other => panic!("expected one data grant, got {other:?}"),
        }
    }

    #[test]
    fn read_grant_keeps_a_writable_mapping() {
        let mut table = PageTable::new();
        let vpn = Vpn::new(0);
        table.set(vpn, Pte::READ_WRITE);
        map(&mut table, vpn, Access::Read);
        assert!(table.entry(vpn).writable);
        table.clear(vpn);
        map(&mut table, vpn, Access::Read);
        assert_eq!(table.entry(vpn), Pte::READ_ONLY);
    }

    #[test]
    fn revoke_mutations_act_in_the_shared_step() {
        let vpn = Vpn::new(0);
        let mut table = PageTable::new();
        table.set(vpn, Pte::READ_WRITE);
        let page = || Revocation::Page {
            vpn,
            needs_data: true,
        };
        let ack = revoke(
            &mut table,
            rules(ProtocolMutation::SkipInvalidate),
            HOME,
            page(),
        );
        assert!(table.entry(vpn).present, "skip-invalidate keeps the PTE");
        assert!(matches!(
            ack,
            Some((HOME, DexMsg::InvalidateAck { data: Some(()), .. }))
        ));
        let lost = revoke(
            &mut table,
            rules(ProtocolMutation::DropInvAck),
            HOME,
            page(),
        );
        assert!(lost.is_none(), "drop-ack loses the ack");
        assert!(!table.entry(vpn).present);
        assert!(revoke(
            &mut table,
            rules(ProtocolMutation::None),
            HOME,
            Revocation::Batch(vec![])
        )
        .is_none());
    }
}
