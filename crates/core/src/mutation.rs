//! Seeded protocol mutations for validating the verification tooling.
//!
//! A checker only proves something if it actually catches injected bugs.
//! Each [`ProtocolMutation`] variant disables one load-bearing step of
//! the protocol. The node-side variants are injected once, inside the
//! shared steps of `crate::protocol`, so they reach the runtime (checked
//! by `dex-check explore`) and the finite model (checked by
//! `dex-check model`) through the same line of code. The two
//! requester-side variants live in the model's leader–follower logic
//! only, and the two data variants only matter where pages have
//! contents, i.e. in the runtime: see [`ProtocolMutation::in_model`] and
//! [`ProtocolMutation::in_runtime`].
//!
//! Mutations are carried per-cluster in `ClusterConfig` and per-world in
//! `ModelConfig` (no globals), so mutated and healthy instances coexist
//! in one test process.

/// A seeded bug in the ownership/invalidation protocol.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum ProtocolMutation {
    /// The real protocol — no bug injected.
    #[default]
    None,
    /// A revoked node acknowledges the invalidation but keeps its PTE and
    /// frame, so it keeps reading its stale copy — a lost invalidation.
    SkipInvalidate,
    /// An invalidated writer acks with a *zeroed* page instead of its
    /// dirty frame, so its writes are dropped on ownership transfer.
    LoseInvalidateData,
    /// An invalidation acknowledgment is lost in the fabric — the
    /// transaction never drains.
    DropInvAck,
    /// The home ignores `DowngradeOriginPte` and keeps its writable
    /// mapping while readers replicate — broken exclusivity.
    SkipOriginDowngrade,
    /// The node handing exclusivity away (the home, or a forwarding owner
    /// in sharded mode) keeps its mapping, so its accesses bypass the
    /// protocol and read stale data.
    KeepOriginPte,
    /// Grants carry a zeroed page instead of the current contents,
    /// losing every write made so far.
    StaleGrantData,
    /// A granted leader never wakes its coalesced followers — lost
    /// wakeup, the followers hang forever.
    DropWakeup,
    /// A coalescing follower also sends its own request instead of
    /// waiting for the leader — the directory may grant the follower
    /// before the leader.
    FollowerBypass,
}

/// Every injectable mutation (excludes [`ProtocolMutation::None`]).
pub const ALL_MUTATIONS: [ProtocolMutation; 8] = [
    ProtocolMutation::SkipInvalidate,
    ProtocolMutation::LoseInvalidateData,
    ProtocolMutation::DropInvAck,
    ProtocolMutation::SkipOriginDowngrade,
    ProtocolMutation::KeepOriginPte,
    ProtocolMutation::StaleGrantData,
    ProtocolMutation::DropWakeup,
    ProtocolMutation::FollowerBypass,
];

impl ProtocolMutation {
    /// Stable kebab-case name (CLI flag value and report label).
    pub fn name(self) -> &'static str {
        match self {
            ProtocolMutation::None => "none",
            ProtocolMutation::SkipInvalidate => "skip-invalidate",
            ProtocolMutation::LoseInvalidateData => "lose-invalidate-data",
            ProtocolMutation::DropInvAck => "drop-ack",
            ProtocolMutation::SkipOriginDowngrade => "skip-downgrade",
            ProtocolMutation::KeepOriginPte => "keep-origin-pte",
            ProtocolMutation::StaleGrantData => "stale-grant-data",
            ProtocolMutation::DropWakeup => "drop-wakeup",
            ProtocolMutation::FollowerBypass => "follower-bypass",
        }
    }

    /// Parses a [`ProtocolMutation::name`] back to the variant.
    pub fn parse(s: &str) -> Option<Self> {
        std::iter::once(ProtocolMutation::None)
            .chain(ALL_MUTATIONS)
            .find(|m| m.name() == s)
    }

    /// Whether the finite model can exhibit this bug: everything but the
    /// data mutations (model pages have no contents).
    pub fn in_model(self) -> bool {
        !matches!(
            self,
            ProtocolMutation::LoseInvalidateData | ProtocolMutation::StaleGrantData
        )
    }

    /// Whether the runtime injects this bug: everything but the
    /// requester-side coalescing mutations, which only the model injects.
    pub fn in_runtime(self) -> bool {
        !matches!(
            self,
            ProtocolMutation::DropWakeup | ProtocolMutation::FollowerBypass
        )
    }
}

impl std::fmt::Display for ProtocolMutation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip() {
        assert_eq!(
            ProtocolMutation::parse("none"),
            Some(ProtocolMutation::None)
        );
        for m in ALL_MUTATIONS {
            assert_eq!(ProtocolMutation::parse(m.name()), Some(m));
            assert_ne!(m, ProtocolMutation::None);
            assert!(m.in_model() || m.in_runtime(), "{m} reaches no checker");
        }
        assert_eq!(ProtocolMutation::parse("bogus"), None);
    }
}
