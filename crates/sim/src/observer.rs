//! Observation hooks: record what happens inside a simulation run.
//!
//! A [`SimObserver`] receives the paging-relevant events as they occur,
//! enabling timeline analyses (fault rate over time, eviction targets,
//! inter-fault distances) without touching the engine. [`EventLog`] is a
//! ready-made recording observer.

use uvm_types::{CycleAccount, PageId, PolicyEvent, StrategyTag};
use uvm_util::{FromJson, Json, JsonError, ToJson};

/// One paging event, stamped with the simulated cycle.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SimEvent {
    /// A warp raised a page fault (first fault for this page; coalesced
    /// faults are not re-reported).
    FaultRaised {
        /// Simulated cycle.
        time: u64,
        /// Faulting page.
        page: PageId,
    },
    /// The driver finished migrating a page (it is now resident).
    FaultServiced {
        /// Simulated cycle.
        time: u64,
        /// Migrated page.
        page: PageId,
    },
    /// A page was evicted from GPU memory.
    Eviction {
        /// Simulated cycle.
        time: u64,
        /// Evicted page.
        page: PageId,
    },
    /// GPU memory reached capacity for the first time.
    MemoryFull {
        /// Simulated cycle.
        time: u64,
    },
    /// The page-table walker resolved a translation missing from both
    /// TLB levels.
    PageWalk {
        /// Simulated cycle.
        time: u64,
        /// Walked page.
        page: PageId,
        /// Whether the page was resident (a walk hit); `false` means the
        /// walk escalates to a page fault.
        hit: bool,
    },
    /// The driver migrated a page speculatively (sequential prefetch)
    /// alongside the demand fault being serviced.
    PrefetchIssued {
        /// Simulated cycle.
        time: u64,
        /// Prefetched page.
        page: PageId,
    },
    /// A fault was raised on a recently evicted page (the driver-level
    /// wrong-eviction diagnostic).
    WrongEviction {
        /// Simulated cycle.
        time: u64,
        /// Re-faulting page.
        page: PageId,
        /// Evictions between this page's eviction and its re-fault
        /// (1 = it was the most recent eviction).
        refault_distance: u64,
    },
    /// The policy picked an eviction victim
    /// ([`PolicyEvent::VictimSelected`], stamped).
    VictimSelected {
        /// Simulated cycle.
        time: u64,
        /// The page chosen for eviction.
        page: PageId,
        /// Strategy that made the choice.
        strategy: StrategyTag,
        /// Entry comparisons spent finding this victim.
        search_comparisons: u64,
        /// Faults elapsed since the victim became resident.
        victim_age: u64,
    },
    /// Dynamic adjustment switched the active eviction strategy
    /// ([`PolicyEvent::StrategySwitch`], stamped).
    StrategySwitch {
        /// Simulated cycle.
        time: u64,
        /// Strategy before the switch.
        from: StrategyTag,
        /// Strategy after the switch.
        to: StrategyTag,
        /// Classification ratio₁ in force at the switch.
        ratio1: f64,
        /// Classification ratio₂ in force at the switch.
        ratio2: f64,
        /// Global fault number of the switch.
        fault_num: u64,
    },
    /// The GPU-side HIR cache flushed its records to the driver
    /// ([`PolicyEvent::HirFlush`], stamped).
    HirFlush {
        /// Simulated cycle.
        time: u64,
        /// Records transferred in this flush.
        entries: u64,
        /// Insertions lost to way conflicts since the previous flush.
        dropped: u64,
    },
}

impl SimEvent {
    /// The simulated cycle of the event.
    pub fn time(&self) -> u64 {
        match *self {
            SimEvent::FaultRaised { time, .. }
            | SimEvent::FaultServiced { time, .. }
            | SimEvent::Eviction { time, .. }
            | SimEvent::MemoryFull { time }
            | SimEvent::PageWalk { time, .. }
            | SimEvent::PrefetchIssued { time, .. }
            | SimEvent::WrongEviction { time, .. }
            | SimEvent::VictimSelected { time, .. }
            | SimEvent::StrategySwitch { time, .. }
            | SimEvent::HirFlush { time, .. } => time,
        }
    }

    /// The event's kind as a stable string (the JSONL discriminator).
    pub fn kind(&self) -> &'static str {
        match self {
            SimEvent::FaultRaised { .. } => "FaultRaised",
            SimEvent::FaultServiced { .. } => "FaultServiced",
            SimEvent::Eviction { .. } => "Eviction",
            SimEvent::MemoryFull { .. } => "MemoryFull",
            SimEvent::PageWalk { .. } => "PageWalk",
            SimEvent::PrefetchIssued { .. } => "PrefetchIssued",
            SimEvent::WrongEviction { .. } => "WrongEviction",
            SimEvent::VictimSelected { .. } => "VictimSelected",
            SimEvent::StrategySwitch { .. } => "StrategySwitch",
            SimEvent::HirFlush { .. } => "HirFlush",
        }
    }

    /// Stamps a policy decision event with the simulated cycle.
    pub fn from_policy(event: PolicyEvent, time: u64) -> SimEvent {
        match event {
            PolicyEvent::VictimSelected {
                page,
                strategy,
                search_comparisons,
                victim_age,
            } => SimEvent::VictimSelected {
                time,
                page,
                strategy,
                search_comparisons,
                victim_age,
            },
            PolicyEvent::StrategySwitch {
                from,
                to,
                ratio1,
                ratio2,
                fault_num,
            } => SimEvent::StrategySwitch {
                time,
                from,
                to,
                ratio1,
                ratio2,
                fault_num,
            },
            PolicyEvent::HirFlush { entries, dropped } => SimEvent::HirFlush {
                time,
                entries,
                dropped,
            },
        }
    }
}

impl ToJson for SimEvent {
    fn to_json(&self) -> Json {
        let mut obj = uvm_util::json!({ "kind": self.kind(), "time": self.time() });
        match *self {
            SimEvent::FaultRaised { page, .. }
            | SimEvent::FaultServiced { page, .. }
            | SimEvent::Eviction { page, .. }
            | SimEvent::PrefetchIssued { page, .. } => {
                obj.insert("page", Json::UInt(page.0));
            }
            SimEvent::MemoryFull { .. } => {}
            SimEvent::PageWalk { page, hit, .. } => {
                obj.insert("page", Json::UInt(page.0));
                obj.insert("hit", Json::Bool(hit));
            }
            SimEvent::WrongEviction {
                page,
                refault_distance,
                ..
            } => {
                obj.insert("page", Json::UInt(page.0));
                obj.insert("refault_distance", Json::UInt(refault_distance));
            }
            SimEvent::VictimSelected {
                page,
                strategy,
                search_comparisons,
                victim_age,
                ..
            } => {
                obj.insert("page", Json::UInt(page.0));
                obj.insert("strategy", strategy.to_json());
                obj.insert("search_comparisons", Json::UInt(search_comparisons));
                obj.insert("victim_age", Json::UInt(victim_age));
            }
            SimEvent::StrategySwitch {
                from,
                to,
                ratio1,
                ratio2,
                fault_num,
                ..
            } => {
                obj.insert("from", from.to_json());
                obj.insert("to", to.to_json());
                obj.insert("ratio1", Json::Float(ratio1));
                obj.insert("ratio2", Json::Float(ratio2));
                obj.insert("fault_num", Json::UInt(fault_num));
            }
            SimEvent::HirFlush {
                entries, dropped, ..
            } => {
                obj.insert("entries", Json::UInt(entries));
                obj.insert("dropped", Json::UInt(dropped));
            }
        }
        obj
    }
}

impl FromJson for SimEvent {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        let field = |k: &str| {
            v.get(k)
                .ok_or_else(|| JsonError::new(format!("missing field `{k}`")))
        };
        let num = |k: &str| {
            field(k)?
                .as_u64()
                .ok_or_else(|| JsonError::new(format!("field `{k}` must be an unsigned integer")))
        };
        let float = |k: &str| {
            field(k)?
                .as_f64()
                .ok_or_else(|| JsonError::new(format!("field `{k}` must be a number")))
        };
        let page = || Ok::<_, JsonError>(PageId(num("page")?));
        let time = num("time")?;
        match field("kind")?.as_str() {
            Some("FaultRaised") => Ok(SimEvent::FaultRaised {
                time,
                page: page()?,
            }),
            Some("FaultServiced") => Ok(SimEvent::FaultServiced {
                time,
                page: page()?,
            }),
            Some("Eviction") => Ok(SimEvent::Eviction {
                time,
                page: page()?,
            }),
            Some("MemoryFull") => Ok(SimEvent::MemoryFull { time }),
            Some("PageWalk") => Ok(SimEvent::PageWalk {
                time,
                page: page()?,
                hit: field("hit")?
                    .as_bool()
                    .ok_or_else(|| JsonError::new("field `hit` must be a bool"))?,
            }),
            Some("PrefetchIssued") => Ok(SimEvent::PrefetchIssued {
                time,
                page: page()?,
            }),
            Some("WrongEviction") => Ok(SimEvent::WrongEviction {
                time,
                page: page()?,
                refault_distance: num("refault_distance")?,
            }),
            Some("VictimSelected") => Ok(SimEvent::VictimSelected {
                time,
                page: page()?,
                strategy: StrategyTag::from_json(field("strategy")?)?,
                search_comparisons: num("search_comparisons")?,
                victim_age: num("victim_age")?,
            }),
            Some("StrategySwitch") => Ok(SimEvent::StrategySwitch {
                time,
                from: StrategyTag::from_json(field("from")?)?,
                to: StrategyTag::from_json(field("to")?)?,
                ratio1: float("ratio1")?,
                ratio2: float("ratio2")?,
                fault_num: num("fault_num")?,
            }),
            Some("HirFlush") => Ok(SimEvent::HirFlush {
                time,
                entries: num("entries")?,
                dropped: num("dropped")?,
            }),
            _ => Err(JsonError::new("unknown SimEvent kind")),
        }
    }
}

/// Receives simulation events.
///
/// The `Debug` supertrait keeps `Simulation` debuggable with an observer
/// attached.
pub trait SimObserver: std::fmt::Debug {
    /// Called for every paging event in simulated-time order.
    fn on_event(&mut self, event: SimEvent);
}

/// What the engine reports to whatever is attached to a run: the public
/// [`SimEvent`]s, which observers receive, plus facts only the profiler
/// and the sanitizer use.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Tap {
    /// A paging event.
    Event(SimEvent),
    /// The policy's buffered decision events, stamped with the current
    /// cycle (`VictimSelected`, `StrategySwitch`, `HirFlush`).
    PolicyEvents,
    /// Cycles charged to a profiler account.
    Charge(CycleAccount, u64),
    /// A warp stalled on a page fault.
    WarpStalled(usize),
    /// A warp replays the op it faulted on.
    WarpResumed(usize),
    /// Another warp joined the pending fault on a page.
    FaultCoalesced(PageId),
    /// The driver began servicing the fault on a page.
    ServiceBegun(PageId),
    /// A lost completion for a page is retried after `delay` cycles.
    Retry { page: PageId, delay: u64 },
    /// The clock advanced to the next event (metrics-series cadence).
    Clock,
    /// An event's handler returned (sanitizer cadence).
    Retired,
    /// The run drained (the sanitizer's final pass).
    Finished,
}

/// An observer that records every event.
///
/// # Examples
///
/// ```
/// use uvm_policies::Lru;
/// use uvm_sim::{EventLog, Simulation};
/// use uvm_types::SimConfig;
/// use uvm_workloads::Trace;
///
/// let cfg = SimConfig::builder().n_sms(1).warps_per_sm(1).build()?;
/// let trace = Trace::from_global(&[0, 1, 0], 2, 0, 1, 1);
/// let mut sim = Simulation::new(cfg, &trace, Lru::new(), 4)?;
/// let log = sim.attach_event_log();
/// sim.run()?;
/// let events = log.borrow();
/// assert_eq!(events.fault_count(), 2);
/// # Ok::<(), uvm_types::SimError>(())
/// ```
#[derive(Debug, Default)]
pub struct EventLog {
    events: Vec<SimEvent>,
}

impl EventLog {
    /// Creates an empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// All recorded events in order.
    pub fn events(&self) -> &[SimEvent] {
        &self.events
    }

    /// Number of `FaultRaised` events.
    pub fn fault_count(&self) -> usize {
        self.events
            .iter()
            .filter(|e| matches!(e, SimEvent::FaultRaised { .. }))
            .count()
    }

    /// Number of `Eviction` events.
    pub fn eviction_count(&self) -> usize {
        self.events
            .iter()
            .filter(|e| matches!(e, SimEvent::Eviction { .. }))
            .count()
    }

    /// Number of `FaultServiced` events (demand + prefetched pages made
    /// resident).
    pub fn serviced_count(&self) -> usize {
        self.events
            .iter()
            .filter(|e| matches!(e, SimEvent::FaultServiced { .. }))
            .count()
    }

    /// Per-fault service latency: for every `FaultServiced` whose page has
    /// a pending `FaultRaised`, the cycles between the two, in service
    /// order. Prefetched pages (serviced without a raise) are skipped; a
    /// page that faults again after eviction matches its latest raise.
    pub fn service_latency_series(&self) -> Vec<(PageId, u64)> {
        let mut raised_at: std::collections::HashMap<PageId, u64> =
            std::collections::HashMap::new();
        let mut series = Vec::new();
        for e in &self.events {
            match *e {
                SimEvent::FaultRaised { time, page } => {
                    raised_at.insert(page, time);
                }
                SimEvent::FaultServiced { time, page } => {
                    if let Some(start) = raised_at.remove(&page) {
                        series.push((page, time.saturating_sub(start)));
                    }
                }
                _ => {}
            }
        }
        series
    }

    /// Fault counts per time bucket of `bucket_cycles` (fault-rate series).
    pub fn fault_rate_series(&self, bucket_cycles: u64) -> Vec<u64> {
        assert!(bucket_cycles > 0, "bucket_cycles must be nonzero");
        let mut series = Vec::new();
        for e in &self.events {
            if let SimEvent::FaultRaised { time, .. } = e {
                let bucket = (time / bucket_cycles) as usize;
                if bucket >= series.len() {
                    series.resize(bucket + 1, 0);
                }
                series[bucket] += 1;
            }
        }
        series
    }
}

impl SimObserver for EventLog {
    fn on_event(&mut self, event: SimEvent) {
        self.events.push(event);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn event_log_counts_and_series() {
        let mut log = EventLog::new();
        log.on_event(SimEvent::FaultRaised {
            time: 5,
            page: PageId(1),
        });
        log.on_event(SimEvent::FaultServiced {
            time: 10,
            page: PageId(1),
        });
        log.on_event(SimEvent::Eviction {
            time: 12,
            page: PageId(0),
        });
        log.on_event(SimEvent::FaultRaised {
            time: 25,
            page: PageId(2),
        });
        assert_eq!(log.fault_count(), 2);
        assert_eq!(log.eviction_count(), 1);
        assert_eq!(log.fault_rate_series(10), vec![1, 0, 1]);
        assert_eq!(log.events().len(), 4);
        assert_eq!(log.events()[0].time(), 5);
    }

    #[test]
    #[should_panic(expected = "bucket_cycles must be nonzero")]
    fn zero_bucket_rejected() {
        EventLog::new().fault_rate_series(0);
    }

    #[test]
    fn service_latency_pairs_raise_with_service() {
        let mut log = EventLog::new();
        log.on_event(SimEvent::FaultRaised {
            time: 5,
            page: PageId(1),
        });
        log.on_event(SimEvent::FaultRaised {
            time: 7,
            page: PageId(2),
        });
        log.on_event(SimEvent::FaultServiced {
            time: 30,
            page: PageId(1),
        });
        // Prefetched page: serviced without a raise -> skipped.
        log.on_event(SimEvent::FaultServiced {
            time: 30,
            page: PageId(3),
        });
        log.on_event(SimEvent::FaultServiced {
            time: 55,
            page: PageId(2),
        });
        // Page 1 faults again after eviction: new raise, new latency.
        log.on_event(SimEvent::FaultRaised {
            time: 60,
            page: PageId(1),
        });
        log.on_event(SimEvent::FaultServiced {
            time: 90,
            page: PageId(1),
        });
        assert_eq!(log.serviced_count(), 4);
        assert_eq!(
            log.service_latency_series(),
            vec![(PageId(1), 25), (PageId(2), 48), (PageId(1), 30)]
        );
    }

    #[test]
    fn sim_events_roundtrip_through_json() {
        let events = [
            SimEvent::FaultRaised {
                time: 1,
                page: PageId(9),
            },
            SimEvent::FaultServiced {
                time: 2,
                page: PageId(9),
            },
            SimEvent::Eviction {
                time: 3,
                page: PageId(4),
            },
            SimEvent::MemoryFull { time: 4 },
            SimEvent::PageWalk {
                time: 5,
                page: PageId(7),
                hit: true,
            },
            SimEvent::PrefetchIssued {
                time: 6,
                page: PageId(10),
            },
            SimEvent::WrongEviction {
                time: 7,
                page: PageId(4),
                refault_distance: 12,
            },
            SimEvent::VictimSelected {
                time: 8,
                page: PageId(4),
                strategy: StrategyTag::MruC,
                search_comparisons: 5,
                victim_age: 90,
            },
            SimEvent::StrategySwitch {
                time: 9,
                from: StrategyTag::MruC,
                to: StrategyTag::Lru,
                ratio1: 0.4,
                ratio2: 2.5,
                fault_num: 200,
            },
            SimEvent::HirFlush {
                time: 10,
                entries: 14,
                dropped: 2,
            },
        ];
        for e in events {
            let j = e.to_json();
            assert_eq!(j["kind"].as_str(), Some(e.kind()));
            let back = SimEvent::from_json(&j).unwrap();
            assert_eq!(back, e);
            // And through the serialized text (the JSONL path).
            let reparsed = Json::parse(&j.to_string()).unwrap();
            assert_eq!(SimEvent::from_json(&reparsed).unwrap(), e);
        }
    }

    #[test]
    fn malformed_sim_event_rejected() {
        assert!(SimEvent::from_json(&Json::parse(r#"{"kind":"Nope","time":1}"#).unwrap()).is_err());
        assert!(SimEvent::from_json(&Json::parse(r#"{"time":1}"#).unwrap()).is_err());
        assert!(SimEvent::from_json(
            &Json::parse(r#"{"kind":"PageWalk","time":1,"page":2}"#).unwrap()
        )
        .is_err());
    }
}
