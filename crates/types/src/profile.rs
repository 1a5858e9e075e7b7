//! Shared vocabulary for the cycle-attribution profiler.
//!
//! The profiler itself lives in `uvm-sim` (`profile.rs`); the account and
//! span-stage enums live here so reports, benches and CLIs can name them
//! without depending on the simulator crate — the same split as
//! [`crate::PolicyEvent`].
//!
//! # Account taxonomy
//!
//! Accounts come in two flavours, distinguished by
//! [`CycleAccount::is_timeline`]:
//!
//! * **Timeline accounts** partition the *driver timeline*: the driver
//!   services at most one fault batch at a time, so its busy windows are
//!   non-overlapping and every simulated cycle belongs to exactly one
//!   timeline account. Their sum equals the run's total simulated cycles
//!   — the conservation law the profiler asserts. `DriverIdle` is the
//!   residual: cycles the driver spent waiting (or dead-scanning, in a
//!   cycle-loop engine) — the "skippable" number that motivates the
//!   event-queue core.
//! * **Overlay accounts** attribute *concurrent* work: SM-side latencies
//!   summed across all warps (which overlap each other and the driver)
//!   and the host-CPU eviction-decision work the paper keeps off the
//!   critical path. They do not participate in the conservation sum.

use uvm_util::impl_json_enum;

/// One component×phase account the profiler charges cycles to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CycleAccount {
    /// Driver timeline: base fault-service windows (interrupt handling +
    /// the demand migration itself), including injected latency jitter
    /// and tails — they perturb the service time itself.
    FaultService,
    /// Driver timeline: PCIe cycles transferring prefetched and batched
    /// pages beyond the first demand page, including injected congestion.
    PcieTransfer,
    /// Driver timeline: PCIe cycles transferring HIR hit-information
    /// flushes (useful and wasted-on-a-dead-channel alike).
    HirFlush,
    /// Driver timeline: windows spent waiting out lost fault-completion
    /// signals (flat plan re-queues and exponential retry backoff).
    RetryBackoff,
    /// Driver timeline: the residual — cycles with no fault in service.
    /// In a cycle-loop engine these are dead-scanned; in an event-queue
    /// engine they are skipped outright.
    DriverIdle,
    /// Overlay: warp-cycles stalled on a page fault (raise to replay),
    /// summed across warps.
    SmStall,
    /// Overlay: L1/L2 TLB lookup latency on completed translations,
    /// summed across warps.
    SmTlb,
    /// Overlay: page-walk latency (both walk hits and the walks that
    /// discover faults), summed across warps.
    PageWalk,
    /// Overlay: DRAM access latency of completed accesses, summed across
    /// warps.
    SmMem,
    /// Overlay: compute cycles between memory accesses, summed across
    /// warps.
    SmCompute,
    /// Overlay: host-CPU cycles the policy spent deciding evictions
    /// (HPE's chain update); concurrent with the service window, off the
    /// critical path (Section V-C).
    EvictionDecision,
}

impl CycleAccount {
    /// Every account, timeline accounts first, in report order — which
    /// is declaration order, so `account as usize` indexes this array.
    pub const ALL: [CycleAccount; 11] = [
        CycleAccount::FaultService,
        CycleAccount::PcieTransfer,
        CycleAccount::HirFlush,
        CycleAccount::RetryBackoff,
        CycleAccount::DriverIdle,
        CycleAccount::SmStall,
        CycleAccount::SmTlb,
        CycleAccount::PageWalk,
        CycleAccount::SmMem,
        CycleAccount::SmCompute,
        CycleAccount::EvictionDecision,
    ];

    /// Stable snake_case label for reports and folded stacks.
    pub fn label(self) -> &'static str {
        match self {
            CycleAccount::FaultService => "fault_service",
            CycleAccount::PcieTransfer => "pcie_transfer",
            CycleAccount::HirFlush => "hir_flush",
            CycleAccount::RetryBackoff => "retry_backoff",
            CycleAccount::DriverIdle => "driver_idle",
            CycleAccount::SmStall => "sm_stall",
            CycleAccount::SmTlb => "sm_tlb",
            CycleAccount::PageWalk => "page_walk",
            CycleAccount::SmMem => "sm_mem",
            CycleAccount::SmCompute => "sm_compute",
            CycleAccount::EvictionDecision => "eviction_decision",
        }
    }

    /// The component half of the component×phase pair (the folded-stack
    /// root frame).
    pub fn component(self) -> &'static str {
        match self {
            CycleAccount::FaultService | CycleAccount::RetryBackoff | CycleAccount::DriverIdle => {
                "driver"
            }
            CycleAccount::PcieTransfer | CycleAccount::HirFlush => "pcie",
            CycleAccount::SmStall
            | CycleAccount::SmTlb
            | CycleAccount::PageWalk
            | CycleAccount::SmMem
            | CycleAccount::SmCompute => "sm",
            CycleAccount::EvictionDecision => "host",
        }
    }

    /// Whether this account is part of the conserving driver-timeline
    /// partition (see the module docs).
    pub fn is_timeline(self) -> bool {
        matches!(
            self,
            CycleAccount::FaultService
                | CycleAccount::PcieTransfer
                | CycleAccount::HirFlush
                | CycleAccount::RetryBackoff
                | CycleAccount::DriverIdle
        )
    }

    /// Parses a [`CycleAccount::label`] back into the account.
    pub fn parse(label: &str) -> Option<CycleAccount> {
        CycleAccount::ALL.into_iter().find(|a| a.label() == label)
    }
}

impl std::fmt::Display for CycleAccount {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

impl_json_enum!(CycleAccount {
    FaultService,
    PcieTransfer,
    HirFlush,
    RetryBackoff,
    DriverIdle,
    SmStall,
    SmTlb,
    PageWalk,
    SmMem,
    SmCompute,
    EvictionDecision,
});

/// One stage of a fault-lifecycle span (see `uvm-sim`'s `profile`
/// module): a page fault is raised, waits in the driver queue, is
/// serviced (walk + transfer + map), and retires when its page lands.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SpanStage {
    /// Raise to service start: time spent queued behind other faults.
    Queue,
    /// Service start to completion: migration (walk + PCIe transfer +
    /// map), including any retry backoff the span suffered.
    Service,
    /// Raise to completion: the whole span.
    Total,
    /// Retry/backoff cycles attributed to this span's completion signal.
    Retry,
}

impl SpanStage {
    /// Every stage, in lifecycle order.
    pub const ALL: [SpanStage; 4] = [
        SpanStage::Queue,
        SpanStage::Service,
        SpanStage::Total,
        SpanStage::Retry,
    ];

    /// Stable snake_case label for reports.
    pub fn label(self) -> &'static str {
        match self {
            SpanStage::Queue => "queue",
            SpanStage::Service => "service",
            SpanStage::Total => "total",
            SpanStage::Retry => "retry",
        }
    }
}

impl std::fmt::Display for SpanStage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

impl_json_enum!(SpanStage {
    Queue,
    Service,
    Total,
    Retry,
});

#[cfg(test)]
mod tests {
    use super::*;
    use uvm_util::{FromJson, ToJson};

    #[test]
    fn labels_roundtrip() {
        for a in CycleAccount::ALL {
            assert_eq!(CycleAccount::parse(a.label()), Some(a));
            let back = CycleAccount::from_json(&a.to_json()).unwrap();
            assert_eq!(back, a);
        }
        for s in SpanStage::ALL {
            let back = SpanStage::from_json(&s.to_json()).unwrap();
            assert_eq!(back, s);
        }
    }

    #[test]
    fn all_lists_accounts_in_discriminant_order() {
        // The profiler indexes its account array with `account as usize`.
        for (i, a) in CycleAccount::ALL.into_iter().enumerate() {
            assert_eq!(a as usize, i, "{a:?}");
        }
    }

    #[test]
    fn timeline_partition_is_exactly_the_driver_accounts() {
        let timeline: Vec<CycleAccount> = CycleAccount::ALL
            .into_iter()
            .filter(|a| a.is_timeline())
            .collect();
        assert_eq!(timeline.len(), 5);
        assert!(timeline.contains(&CycleAccount::DriverIdle));
        assert!(!CycleAccount::EvictionDecision.is_timeline());
    }
}
