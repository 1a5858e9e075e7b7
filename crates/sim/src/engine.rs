//! The discrete-event simulation engine.

use std::cell::RefCell;
use std::cmp::Reverse;
use std::collections::hash_map::Entry;
use std::collections::{BinaryHeap, HashMap, VecDeque};
use std::rc::Rc;

use uvm_policies::EvictionPolicy;
use uvm_types::{
    ConfigError, CycleAccount, PageId, SignalDisruption, SimConfig, SimError, SimStats,
};
use uvm_workloads::{Op, Trace};

use uvm_util::ToJson;

use crate::checkpoint::Checkpoint;
use crate::faults::{FaultPlan, FaultState};
use crate::memory::GpuMemory;
use crate::observer::{EventLog, SimEvent, SimObserver, Tap};
use crate::profile::{MetricsSample, ProfileReport, Profiler};
use crate::recovery::{CircuitBreaker, FallbackVictim, LossEstimator, LruShadow, RetryPolicy};
use crate::sanitizer::Sanitizer;
use crate::tlb::Tlb;

/// Window (in evictions) within which a re-fault on an evicted page counts
/// as a *wrong eviction* in the driver statistics. The paper's dynamic
/// adjustment uses two intervals (128 faults); the driver-level diagnostic
/// uses the same horizon.
const WRONG_EVICTION_WINDOW: usize = 128;

/// Base number of events the forward-progress watchdog tolerates without a
/// single op retiring or page landing (plus 100 per warp). Generously
/// above anything a healthy run produces between progress points, yet
/// small enough that an injected livelock is caught within a second.
const WATCHDOG_BASE_EVENTS: u64 = 100_000;

/// HIR flushes lost in transit before the driver's circuit breaker trips
/// and tells the GPU side to stop transferring flushes. Higher than HPE's
/// own two-consecutive-missed-flushes degradation trigger: the policy
/// degrades its eviction strategy first, the breaker then stops the
/// (still ongoing) wasted PCIe transfers.
const HIR_BREAKER_THRESHOLD: u32 = 3;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum EventKind {
    /// A warp is ready to execute its next op (or replay a faulted one).
    WarpReady(usize),
    /// The driver finished servicing the fault on this page.
    DriverDone(PageId),
    /// The driver picks up the next queued fault. Scheduled *after* the
    /// waiter wake-ups of the previous fault so that replayed translations
    /// register with the policy before the next eviction decision — a
    /// just-migrated page must not be victimized before the warp that
    /// requested it even replays.
    DriverPickup,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Event {
    time: u64,
    seq: u64,
    kind: EventKind,
}

impl Ord for Event {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.time, self.seq).cmp(&(other.time, other.seq))
    }
}

impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

#[derive(Debug)]
struct Warp {
    sm: usize,
    ops: Vec<Op>,
    cursor: usize,
    /// The current op already advanced the policy's access oracle; a replay
    /// after a fault must not advance it again.
    issued: bool,
}

/// Whatever observes a run, each part opt-in and observation-only; only
/// [`Simulation::tap`] reads it.
#[derive(Debug, Default)]
struct Attached {
    observer: Option<Rc<RefCell<dyn SimObserver>>>,
    profiler: Option<Profiler>,
    sanitizer: Option<Sanitizer>,
}

/// Result of a simulation run: the statistics plus the policy itself, so
/// callers can inspect policy-specific state (e.g. HPE's classification or
/// strategy timeline).
#[derive(Debug)]
pub struct SimOutcome<P> {
    /// End-to-end statistics (policy counters already folded in).
    pub stats: SimStats,
    /// The policy, returned for post-run inspection.
    pub policy: P,
    /// The finalized profile when a profiler was installed (see
    /// [`Simulation::set_profiler`]); `None` on unprofiled runs.
    pub profile: Option<ProfileReport>,
    /// Whether the injected HIR channel outage was still active when the
    /// run ended (cross-run recovery checks need to distinguish "degraded
    /// because the channel is down" from "stuck degraded").
    pub hir_down: bool,
    /// Demand faults serviced since the HIR channel last came (or was)
    /// up — the recovery headroom a policy had to leave degraded mode.
    pub hir_clean_streak_faults: u64,
}

/// A configured simulation, consumed by [`Simulation::run`].
///
/// See the crate-level documentation for the modelled system and
/// `DESIGN.md` for how it maps to the paper's infrastructure.
#[derive(Debug)]
pub struct Simulation<P> {
    cfg: SimConfig,
    policy: P,
    memory: GpuMemory,
    l1: Vec<Tlb>,
    l2: Tlb,
    warps: Vec<Warp>,
    events: BinaryHeap<Reverse<Event>>,
    next_seq: u64,
    now: u64,
    live_warps: usize,
    waiters: HashMap<PageId, Vec<usize>>,
    fault_queue: VecDeque<PageId>,
    in_service: Option<PageId>,
    /// Pages (demand + prefetched) migrating in the current service; they
    /// become resident together at `DriverDone`.
    in_flight: Vec<PageId>,
    /// Workload footprint, bounding prefetch candidates.
    footprint_pages: u64,
    memory_full_notified: bool,
    recent_evictions: VecDeque<PageId>,
    /// Per page in `recent_evictions`: how often it occurs there, and the
    /// eviction number (`stats.driver.evictions`) of its latest eviction.
    recent_counts: HashMap<PageId, (u32, u64)>,
    stats: SimStats,
    /// Active fault-injection state, if a plan was installed.
    faults: Option<FaultState>,
    /// Events handled since an op last retired or a page last landed.
    events_since_progress: u64,
    /// Watchdog threshold derived from the warp count.
    watchdog_limit: u64,
    /// Driver retry/backoff policy for lost completions; `None` keeps the
    /// plan's flat re-queue delay (and its livelock failure mode).
    retry: Option<RetryPolicy>,
    /// Backoff attempts made for the in-service fault's completion.
    completion_attempts: u32,
    /// Windowed completion-loss estimator, present only under
    /// [`RetryPolicy::Adaptive`]; fed one outcome per completion event.
    loss: Option<LossEstimator>,
    /// Demand faults serviced since the HIR channel last came (or was)
    /// up; resets while an injected outage holds the channel down.
    hir_clean_streak_faults: u64,
    /// Circuit breaker on the HIR channel (armed only under fault plans
    /// that lose flushes; otherwise it never records a failure).
    breaker: CircuitBreaker,
    /// Victim source for fallback evictions.
    fallback: FallbackVictim,
    /// Recency shadow feeding [`FallbackVictim::LruShadow`]; empty (and
    /// never touched) under the default min-page fallback.
    shadow: LruShadow,
    /// The `run_until` limit the run is currently paused at.
    paused_at: Option<u64>,
    /// Observer, profiler and sanitizer, when any is attached; `None`
    /// (the default) makes every [`Self::tap`] return at its first branch.
    attached: Option<Box<Attached>>,
}

impl<P: EvictionPolicy> Simulation<P> {
    /// Builds a simulation of `trace` under `policy` with GPU memory of
    /// `capacity_pages`.
    ///
    /// Streams in `trace` are assigned round-robin to warps: stream `i`
    /// becomes warp `i % warps_per_sm` of SM `i / warps_per_sm`. A trace
    /// may have fewer streams than `n_sms * warps_per_sm`.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] if `cfg` is invalid or the trace has more
    /// streams than the configuration has warps.
    pub fn new(
        cfg: SimConfig,
        trace: &Trace,
        policy: P,
        capacity_pages: u64,
    ) -> Result<Self, ConfigError> {
        cfg.validate()?;
        let max_streams = (cfg.n_sms * cfg.warps_per_sm) as usize;
        if trace.streams().len() > max_streams {
            return Err(ConfigError::invalid(
                "trace.streams",
                "more streams than n_sms * warps_per_sm warps",
            ));
        }
        if capacity_pages == 0 {
            return Err(ConfigError::invalid("capacity_pages", "must be nonzero"));
        }
        let warps: Vec<Warp> = trace
            .streams()
            .iter()
            .enumerate()
            .map(|(i, ops)| Warp {
                sm: i / cfg.warps_per_sm as usize,
                ops: ops.clone(),
                cursor: 0,
                issued: false,
            })
            .collect();
        let l1 = (0..cfg.n_sms)
            .map(|_| Tlb::new(cfg.l1_tlb))
            .collect::<Vec<_>>();
        let l2 = Tlb::new(cfg.l2_tlb);
        let watchdog_limit = WATCHDOG_BASE_EVENTS + 100 * warps.len() as u64;
        let mut sim = Simulation {
            cfg,
            policy,
            memory: GpuMemory::new(capacity_pages),
            l1,
            l2,
            warps,
            events: BinaryHeap::new(),
            next_seq: 0,
            now: 0,
            live_warps: 0,
            waiters: HashMap::new(),
            fault_queue: VecDeque::new(),
            in_service: None,
            in_flight: Vec::new(),
            footprint_pages: trace.footprint_pages(),
            memory_full_notified: false,
            recent_evictions: VecDeque::new(),
            recent_counts: HashMap::new(),
            stats: SimStats::default(),
            faults: None,
            events_since_progress: 0,
            watchdog_limit,
            retry: None,
            completion_attempts: 0,
            loss: None,
            hir_clean_streak_faults: 0,
            breaker: CircuitBreaker::new(HIR_BREAKER_THRESHOLD),
            fallback: FallbackVictim::default(),
            shadow: LruShadow::default(),
            paused_at: None,
            attached: None,
        };
        for w in 0..sim.warps.len() {
            if !sim.warps[w].ops.is_empty() {
                sim.live_warps += 1;
                sim.schedule(0, EventKind::WarpReady(w));
            }
        }
        Ok(sim)
    }

    /// Installs a fault-injection plan. Must be called before
    /// [`Self::run`]; a [`FaultPlan::none`] plan leaves every statistic
    /// and event of the run byte-identical to not calling this at all.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] if the plan is invalid.
    pub fn set_fault_plan(&mut self, plan: FaultPlan) -> Result<(), ConfigError> {
        plan.validate()?;
        self.faults = Some(FaultState::new(plan));
        Ok(())
    }

    /// Installs a driver retry/backoff policy for lost fault completions.
    ///
    /// Without one, a lost completion is re-queued after the fault plan's
    /// flat `retry_cycles` forever (an unbounded loss then livelocks into
    /// the watchdog's [`SimError::Stalled`]). With one, each consecutive
    /// loss backs off exponentially and the attempt cap surfaces as
    /// [`SimError::RetriesExhausted`] instead.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] if the policy is invalid.
    pub fn set_retry_policy(&mut self, rp: RetryPolicy) -> Result<(), ConfigError> {
        rp.validate()?;
        self.loss = rp.loss_window().map(LossEstimator::new);
        self.retry = Some(rp);
        Ok(())
    }

    /// Selects the victim source for fallback evictions (policy offered
    /// no victim, or its answer was dropped in transit). The default is
    /// [`FallbackVictim::MinPage`]; [`FallbackVictim::LruShadow`] makes
    /// the engine maintain a recency shadow and evict approximate-LRU.
    pub fn set_fallback_victim(&mut self, fallback: FallbackVictim) {
        self.fallback = fallback;
    }

    /// Installs the opt-in runtime sanitizer (see [`Sanitizer`]): every
    /// `cadence` retired events — and once more at end of run — the
    /// engine validates its structural invariants and reports the first
    /// violation as [`SimError::InvariantViolated`]. The checks are
    /// read-only, so a sanitized run's [`SimStats`] are byte-identical
    /// to an unsanitized run's.
    pub fn set_sanitizer(&mut self, sanitizer: Sanitizer) {
        self.attached.get_or_insert_default().sanitizer = Some(sanitizer);
    }

    /// The installed sanitizer, if any (for inspecting check counts).
    pub fn sanitizer(&self) -> Option<&Sanitizer> {
        self.attached.as_ref()?.sanitizer.as_ref()
    }

    /// Installs the opt-in cycle-attribution profiler (see
    /// [`Profiler`]): every simulated cycle is charged to a
    /// component×phase account, page faults get lifecycle spans, and the
    /// metrics registry samples engine state on the profiler's cadence.
    /// Observation-only: a profiled run's [`SimStats`] are byte-identical
    /// to an unprofiled run's, and the finalized [`ProfileReport`] comes
    /// back in [`SimOutcome::profile`].
    ///
    /// Profiler state is not captured by [`Self::checkpoint`]: a resumed
    /// run profiles only the cycles it executed itself.
    pub fn set_profiler(&mut self, mut profiler: Profiler) {
        profiler.set_capacity(self.memory.capacity());
        self.attached.get_or_insert_default().profiler = Some(profiler);
    }

    /// The installed profiler, if any (for inspecting span counts
    /// mid-run, between [`Self::run_until`] calls).
    pub fn profiler(&self) -> Option<&Profiler> {
        self.attached.as_ref()?.profiler.as_ref()
    }

    /// Runs the simulation to completion.
    ///
    /// # Errors
    ///
    /// Returns [`SimError`] when the run cannot complete soundly: the
    /// policy offered a non-resident victim, residency accounting would
    /// overflow, the forward-progress watchdog detected a livelock
    /// ([`SimError::Stalled`]), the driver's retry policy gave up on a
    /// completion ([`SimError::RetriesExhausted`]), or warps deadlocked
    /// with an empty event queue. A policy offering *no* victim while
    /// memory is full is tolerated: the engine evicts a fallback victim
    /// itself and counts it in `stats.resilience.fallback_victims`.
    pub fn run(self) -> Result<SimOutcome<P>, SimError> {
        self.finish()
    }

    /// Processes every event with `time <= limit`, then pauses.
    ///
    /// Returns `Ok(true)` when the event queue drained (the run is
    /// complete; call [`Self::finish`]) and `Ok(false)` when the run
    /// paused at the limit — the state is then stable and
    /// [`Self::checkpoint`] captures it.
    ///
    /// # Errors
    ///
    /// Same failure modes as [`Self::run`], minus the deadlock check
    /// (which only applies to a drained queue at completion).
    pub fn run_until(&mut self, limit: u64) -> Result<bool, SimError> {
        while let Some(&Reverse(ev)) = self.events.peek() {
            if ev.time > limit {
                self.paused_at = Some(limit);
                return Ok(false);
            }
            self.events.pop();
            debug_assert!(ev.time >= self.now, "time went backwards");
            self.now = ev.time;
            if self.now > self.stats.cycles {
                self.stats.cycles = self.now;
            }
            self.events_since_progress += 1;
            if self.events_since_progress > self.watchdog_limit {
                return Err(SimError::Stalled {
                    cycle: self.now,
                    in_flight: self.in_flight.len() as u64,
                });
            }
            self.tap(Tap::Clock)?;
            match ev.kind {
                EventKind::WarpReady(w) => self.step_warp(w)?,
                EventKind::DriverDone(page) => self.driver_done(page)?,
                EventKind::DriverPickup => self.pickup_next_fault()?,
            }
            self.tap(Tap::Retired)?;
        }
        self.paused_at = None;
        Ok(true)
    }

    /// Handles a fault-completion signal, routing injected losses through
    /// the retry policy (if installed) or the plan's flat re-queue delay.
    fn driver_done(&mut self, page: PageId) -> Result<(), SimError> {
        // An injected lossy completion channel may swallow the signal; the
        // driver retries until it gets through — or, without a retry
        // policy, never does, and the watchdog reports the livelock.
        let lost = match &mut self.faults {
            Some(fs) => fs.completion_lost(self.now, &mut self.stats.resilience),
            None => None,
        };
        // The adaptive estimator observes every completion outcome —
        // delivered or lost — so its loss rate tracks the channel, not
        // just the retries.
        if let Some(est) = self.loss.as_mut() {
            est.record(lost.is_some());
        }
        match lost {
            Some(plan_delay) => {
                let delay = match self.retry {
                    Some(rp) => {
                        self.completion_attempts += 1;
                        if self.completion_attempts >= rp.max_attempts() {
                            return Err(SimError::RetriesExhausted {
                                page,
                                cycle: self.now,
                                attempts: self.completion_attempts,
                            });
                        }
                        let delay = match (rp, &self.loss) {
                            (RetryPolicy::Adaptive(a), Some(est)) => {
                                a.delay_for(self.completion_attempts, est.lost(), est.observed())
                            }
                            _ => rp.delay_for(self.completion_attempts),
                        };
                        self.stats.resilience.retry_attempts += 1;
                        self.stats.resilience.retry_backoff_cycles += delay;
                        delay
                    }
                    None => plan_delay,
                };
                self.tap(Tap::Retry { page, delay })?;
                self.schedule(self.now + delay, EventKind::DriverDone(page));
            }
            None => {
                self.completion_attempts = 0;
                self.finish_fault(page)?;
            }
        }
        Ok(())
    }

    /// Drains any remaining events and folds the final statistics.
    ///
    /// # Errors
    ///
    /// Same failure modes as [`Self::run`].
    pub fn finish(mut self) -> Result<SimOutcome<P>, SimError> {
        self.run_until(u64::MAX)?;
        if self.live_warps > 0 {
            return Err(SimError::Deadlock {
                cycle: self.now,
                blocked_warps: self.live_warps as u64,
            });
        }
        // Final sanitizer pass regardless of cadence phase, so a
        // corruption in the run's tail cannot slip out unchecked.
        self.tap(Tap::Finished)?;
        self.stats.policy = self.policy.stats();
        // Finalize the profile last: `stats.cycles` is now the run's
        // total, which seeds the driver-idle residual (conservation).
        let profile = self
            .attached
            .and_then(|a| a.profiler)
            .map(|prof| prof.finalize(self.stats.cycles));
        Ok(SimOutcome {
            stats: self.stats,
            policy: self.policy,
            profile,
            hir_down: self.faults.as_ref().is_some_and(|fs| fs.hir_down),
            hir_clean_streak_faults: self.hir_clean_streak_faults,
        })
    }

    /// Snapshots the paused run (see [`Checkpoint`] for what is captured
    /// and why that is sufficient under the determinism contract).
    /// Meaningful after [`Self::run_until`] returned `Ok(false)`.
    pub fn checkpoint(&self) -> Checkpoint {
        let (fault_rng, fault_lost_in_row) = match &self.faults {
            Some(fs) => {
                let (state, lost) = fs.fingerprint();
                (state.to_vec(), lost)
            }
            None => (Vec::new(), 0),
        };
        let (breaker_failures, breaker_open) = self.breaker.fingerprint();
        let (shadow_pages, shadow_clock) = self.shadow.fingerprint();
        let (loss_bits, loss_len) = self.loss.map_or((0, 0), |est| est.fingerprint());
        Checkpoint {
            cycle: self.paused_at.unwrap_or(self.now),
            now: self.now,
            stats: self.stats.clone(),
            fault_rng,
            fault_lost_in_row,
            hir_down: self.faults.as_ref().is_some_and(|fs| fs.hir_down),
            breaker_failures,
            breaker_open,
            completion_attempts: self.completion_attempts,
            next_seq: self.next_seq,
            live_warps: self.live_warps as u64,
            resident_pages: self.memory.len(),
            in_flight: self.in_flight.len() as u64,
            queue_len: self.fault_queue.len() as u64,
            shadow_pages,
            shadow_clock,
            loss_bits,
            loss_len,
        }
    }

    /// Fast-forwards this *freshly built* simulation to `ckpt` and
    /// verifies it reconstructed the identical machine. The simulation
    /// must have been constructed from the same inputs (config, trace,
    /// policy, capacity, fault plan, retry policy, fallback victim) as
    /// the run that took the snapshot; continue it afterwards with
    /// [`Self::run_until`] or [`Self::finish`].
    ///
    /// # Errors
    ///
    /// Returns [`SimError::CheckpointDiverged`] when the replayed state
    /// does not byte-match the snapshot (the inputs differ), plus any
    /// failure mode of [`Self::run_until`].
    pub fn resume(&mut self, ckpt: &Checkpoint) -> Result<(), SimError> {
        self.run_until(ckpt.cycle)?;
        let replayed = self.checkpoint();
        if replayed.to_json().to_string() != ckpt.to_json().to_string() {
            return Err(SimError::CheckpointDiverged { cycle: ckpt.cycle });
        }
        Ok(())
    }

    /// Installs an observer receiving paging events in simulated-time
    /// order, and enables the policy's decision-event tracing (disabled
    /// runs pay nothing; see [`EvictionPolicy::set_tracing`]).
    pub fn set_observer(&mut self, observer: Rc<RefCell<dyn SimObserver>>) {
        self.attached.get_or_insert_default().observer = Some(observer);
        self.policy.set_tracing(true);
    }

    /// Attaches a fresh [`EventLog`] observer and returns a handle to it.
    pub fn attach_event_log(&mut self) -> Rc<RefCell<EventLog>> {
        let log = Rc::new(RefCell::new(EventLog::new()));
        self.set_observer(log.clone());
        log
    }

    /// The engine's one observation point, and the only reader of the
    /// attachment: hands `tap` to the attached observer and profiler and
    /// runs the cadence work (metrics samples, sanitizer checks). A
    /// detached run returns at the first branch.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvariantViolated`] when a due sanitizer
    /// check fails.
    #[inline(always)]
    fn tap(&mut self, tap: Tap) -> Result<(), SimError> {
        let Some(attached) = self.attached.as_deref_mut() else {
            return Ok(());
        };
        let check_due = match tap {
            Tap::Clock => {
                // Engine state is constant between events, so crossed
                // cadence boundaries sample the pre-event state.
                if let Some(profiler) = &mut attached.profiler {
                    profiler.record_samples(self.now, || MetricsSample {
                        cycle: 0, // stamped per boundary by the profiler
                        resident_pages: self.memory.len(),
                        fault_backlog: self.fault_queue.len() as u64
                            + u64::from(self.in_service.is_some()),
                        in_flight: self.in_flight.len() as u64,
                        live_warps: self.live_warps as u64,
                        hir_fill: self.policy.hir_fill(),
                        degraded: self.policy.is_degraded(),
                        faults_serviced: self.stats.driver.faults_serviced,
                        evictions: self.stats.driver.evictions,
                    });
                }
                false
            }
            Tap::Retired => attached.sanitizer.as_mut().is_some_and(Sanitizer::tick),
            Tap::Finished => attached.sanitizer.as_mut().is_some_and(Sanitizer::finish),
            Tap::PolicyEvents => {
                if let Some(obs) = &attached.observer {
                    self.policy.drain_events(&mut |e| {
                        obs.borrow_mut()
                            .on_event(SimEvent::from_policy(e, self.now));
                    });
                }
                false
            }
            tap => {
                if let (Tap::Event(event), Some(obs)) = (tap, &attached.observer) {
                    obs.borrow_mut().on_event(event);
                }
                if let Some(profiler) = &mut attached.profiler {
                    profiler.tap(tap, self.now);
                }
                false
            }
        };
        if check_due {
            self.sanitize_check()?;
        }
        Ok(())
    }

    fn schedule(&mut self, time: u64, kind: EventKind) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.events.push(Reverse(Event { time, seq, kind }));
    }

    fn step_warp(&mut self, w: usize) -> Result<(), SimError> {
        let (sm, op, first_issue) = {
            let warp = &self.warps[w];
            let op = warp.ops[warp.cursor];
            (warp.sm, op, !warp.issued)
        };
        if first_issue {
            self.warps[w].issued = true;
            self.policy.on_access(op.page);
        } else {
            // Replay after a fault: the warp's stall ends at this step
            // (and may immediately re-begin if the page was re-evicted).
            self.tap(Tap::WarpResumed(w))?;
        }

        // Address translation: TLB lookup latency, plus the page walk on
        // a miss in both levels.
        let mut latency = u64::from(self.l1[sm].latency());
        let mut walk = 0;
        let translated = if self.l1[sm].lookup(op.page) {
            self.stats.tlb.l1_hits += 1;
            debug_assert!(
                self.memory.is_resident(op.page),
                "L1 TLB holds non-resident page {}",
                op.page
            );
            true
        } else {
            self.stats.tlb.l1_misses += 1;
            latency += u64::from(self.l2.latency());
            if self.l2.lookup(op.page) {
                self.stats.tlb.l2_hits += 1;
                debug_assert!(self.memory.is_resident(op.page));
                self.l1[sm].fill(op.page);
                true
            } else {
                self.stats.tlb.l2_misses += 1;
                walk = u64::from(self.cfg.page_walk_cycles);
                self.stats.walks += 1;
                let hit = self.memory.is_resident(op.page);
                self.tap(Tap::Event(SimEvent::PageWalk {
                    time: self.now,
                    page: op.page,
                    hit,
                }))?;
                if hit {
                    self.stats.walk_hits += 1;
                    self.policy.on_walk_hit(op.page);
                    self.l2.fill(op.page);
                    self.l1[sm].fill(op.page);
                    true
                } else {
                    false
                }
            }
        };

        // SM-side overlay accounting, charged for faulting accesses too —
        // the walk is what discovered the fault.
        self.tap(Tap::Charge(CycleAccount::SmTlb, latency))?;
        self.tap(Tap::Charge(CycleAccount::PageWalk, walk))?;

        if !translated {
            // Page fault: suspend this warp until the driver migrates the
            // page (replayable far-fault); other warps keep running.
            return self.raise_fault(op.page, w);
        }

        // The access completes.
        self.events_since_progress = 0;
        if self.fallback == FallbackVictim::LruShadow {
            self.shadow.touch(op.page);
        }
        self.warps[w].issued = false;
        self.warps[w].cursor += 1;
        self.stats.mem_accesses += 1;
        let (mem, compute) = (u64::from(self.cfg.mem_access_cycles), u64::from(op.compute));
        self.stats.instructions += 1 + compute;
        self.tap(Tap::Charge(CycleAccount::SmMem, mem))?;
        self.tap(Tap::Charge(CycleAccount::SmCompute, compute))?;
        let done_at = self.now + latency + walk + mem + compute;
        if self.warps[w].cursor < self.warps[w].ops.len() {
            self.schedule(done_at, EventKind::WarpReady(w));
        } else {
            self.live_warps -= 1;
            if done_at > self.stats.cycles {
                self.stats.cycles = done_at;
            }
        }
        Ok(())
    }

    fn raise_fault(&mut self, page: PageId, warp: usize) -> Result<(), SimError> {
        self.tap(Tap::WarpStalled(warp))?;
        match self.waiters.entry(page) {
            Entry::Occupied(mut e) => {
                // Fault already pending: coalesce.
                e.get_mut().push(warp);
                self.tap(Tap::FaultCoalesced(page))?;
            }
            Entry::Vacant(e) => {
                e.insert(vec![warp]);
                self.tap(Tap::Event(SimEvent::FaultRaised {
                    time: self.now,
                    page,
                }))?;
                if let Some(&(_, evicted_as)) = self.recent_counts.get(&page) {
                    self.stats.driver.wrong_evictions += 1;
                    self.tap(Tap::Event(SimEvent::WrongEviction {
                        time: self.now,
                        page,
                        // 1 = the most recent eviction.
                        refault_distance: self.stats.driver.evictions - evicted_as + 1,
                    }))?;
                }
                if self.in_service.is_none() {
                    self.start_fault_service(page)?;
                } else {
                    self.fault_queue.push_back(page);
                }
            }
        }
        Ok(())
    }

    fn start_fault_service(&mut self, page: PageId) -> Result<(), SimError> {
        debug_assert!(self.in_service.is_none());
        debug_assert!(!self.memory.is_resident(page));
        self.in_service = Some(page);
        self.in_flight.clear();
        self.in_flight.push(page);
        // Every demand page in this batch leaves the queue stage now.
        self.tap(Tap::ServiceBegun(page))?;

        // Fault batching: service additional queued demand faults in this
        // same window (real UVM drivers batch faults per interrupt). Never
        // migrate more pages at once than memory can hold.
        let batch_cap = u64::from(self.cfg.fault_batch).min(self.memory.capacity());
        while (self.in_flight.len() as u64) < batch_cap {
            let Some(next) = self.fault_queue.pop_front() else {
                break;
            };
            if self.memory.is_resident(next) {
                // Satisfied by an earlier prefetch while queued.
                if let Some(warps) = self.waiters.remove(&next) {
                    for w in warps {
                        self.schedule(self.now, EventKind::WarpReady(w));
                    }
                }
                continue;
            }
            if !self.in_flight.contains(&next) {
                self.in_flight.push(next);
                self.tap(Tap::ServiceBegun(next))?;
            }
        }
        let demand_count = self.in_flight.len() as u64;

        // Sequential prefetch: pull following contiguous pages (within the
        // workload's footprint) that are neither resident nor already
        // demanded by a queued fault.
        for i in 1..=u64::from(self.cfg.prefetch_pages) {
            // Never migrate more pages than memory can hold at once.
            if self.in_flight.len() as u64 >= self.memory.capacity() {
                break;
            }
            let candidate = PageId(page.0 + i);
            if candidate.0 < self.footprint_pages
                && !self.memory.is_resident(candidate)
                && !self.waiters.contains_key(&candidate)
            {
                self.in_flight.push(candidate);
                self.tap(Tap::Event(SimEvent::PrefetchIssued {
                    time: self.now,
                    page: candidate,
                }))?;
            }
        }

        let fault_num = self.stats.driver.faults_serviced;
        self.stats.driver.faults_serviced += demand_count;
        self.stats.driver.prefetched_pages += self.in_flight.len() as u64 - demand_count;

        // Injected GPU→driver channel outage: tell the policy when the
        // square wave flips, and count faults serviced while it is down.
        if let Some(fs) = &mut self.faults {
            if let Some(down) = fs.hir_transition(fault_num, self.now) {
                self.policy.on_disruption(if down {
                    SignalDisruption::HirChannelDown
                } else {
                    SignalDisruption::HirChannelUp
                });
                if !down && self.breaker.reset() {
                    // Channel restored: close the breaker so the GPU side
                    // resumes paying for flush transfers.
                    self.policy
                        .on_disruption(SignalDisruption::HirCircuitClosed);
                }
            }
            if fs.hir_down {
                self.stats.resilience.faults_during_hir_outage += demand_count;
            }
            // Injected partial outage: this window's HIR flush will arrive
            // late. Announced before faults are serviced so the policy can
            // divert the flush instead of applying it inline.
            if let Some(delay) = fs.flush_delay(self.now, &mut self.stats.resilience) {
                self.policy
                    .on_disruption(SignalDisruption::HirFlushDelayed { faults: delay });
            }
        }
        // Recovery headroom: faults serviced with the channel up are the
        // opportunity a degraded policy had to recover (see
        // [`SimOutcome::hir_clean_streak_faults`]).
        if self.faults.as_ref().is_some_and(|fs| fs.hir_down) {
            self.hir_clean_streak_faults = 0;
        } else {
            self.hir_clean_streak_faults += demand_count;
        }

        // Free enough frames for every migrating page.
        let needed = (self.memory.len() + self.in_flight.len() as u64)
            .saturating_sub(self.memory.capacity());
        for _ in 0..needed {
            // Injected victim-notification drop: the policy's answer is
            // lost in transit, so the driver acts as if none was offered.
            let dropped = match &mut self.faults {
                Some(fs) => fs.victim_dropped(self.now, &mut self.stats.resilience),
                None => false,
            };
            let victim = match self.policy.select_victim() {
                Some(v) if !dropped => {
                    if self.memory.remove(v) {
                        v
                    } else if self.faults.as_ref().is_some_and(|fs| fs.drops_victims()) {
                        // An earlier dropped notification desynced the
                        // policy's residency view (it forgot a page that
                        // was never evicted, and never learned about the
                        // fallback eviction that replaced it). Under a
                        // victim-dropping plan a stale offer is an expected
                        // consequence of the injection, so the driver
                        // tolerates it and falls back; on clean runs it
                        // stays a hard policy-bug error.
                        self.evict_fallback()?
                    } else {
                        return Err(SimError::NonResidentVictim {
                            page: v,
                            cycle: self.now,
                        });
                    }
                }
                _ => {
                    // No victim arrived — the policy believes nothing is
                    // resident, or its answer was dropped in transit.
                    // Evict a fallback victim rather than aborting the run.
                    self.evict_fallback()?
                }
            };
            if self.fallback == FallbackVictim::LruShadow {
                self.shadow.remove(victim);
            }
            for l1 in &mut self.l1 {
                l1.invalidate(victim);
            }
            self.l2.invalidate(victim);
            self.stats.driver.evictions += 1;
            self.remember_eviction(victim);
            // VictimSelected (from the policy's buffer) precedes the
            // Eviction it caused.
            self.tap(Tap::PolicyEvents)?;
            self.tap(Tap::Event(SimEvent::Eviction {
                time: self.now,
                page: victim,
            }))?;
        }

        let mut outcome = uvm_policies::FaultOutcome::default();
        for (i, &p) in self.in_flight.iter().enumerate() {
            // Batched demand faults get distinct fault numbers; prefetched
            // pages ride on the last demand number.
            let n = fault_num + (i as u64).min(demand_count - 1);
            let o = self.policy.on_fault(p, n);
            outcome.transfer_bytes += o.transfer_bytes;
            outcome.driver_busy_cycles += o.driver_busy_cycles;
            outcome.lost_flushes += o.lost_flushes;
            outcome.wasted_transfer_bytes += o.wasted_transfer_bytes;
        }
        // StrategySwitch / HirFlush events raised inside on_fault.
        self.tap(Tap::PolicyEvents)?;
        // HIR flushes sent into a dead channel: account the wasted PCIe
        // transfer and feed the circuit breaker, which eventually tells
        // the GPU side to stop paying for flushes that never arrive.
        if outcome.lost_flushes > 0 {
            self.stats.resilience.hir_flushes_lost += u64::from(outcome.lost_flushes);
            self.stats.resilience.wasted_flush_cycles +=
                self.cfg.pcie_transfer_cycles(outcome.wasted_transfer_bytes);
            for _ in 0..outcome.lost_flushes {
                if self.breaker.record_failure() {
                    self.stats.resilience.circuit_breaker_trips += 1;
                    self.policy.on_disruption(SignalDisruption::HirCircuitOpen);
                    self.tap(Tap::PolicyEvents)?;
                }
            }
        }
        // Injected corrupted fault report: a spurious wrong-eviction signal
        // reaches the policy's adjustment machinery.
        if let Some(fs) = &mut self.faults {
            if fs.spurious_wrong_eviction(self.now, &mut self.stats.resilience) {
                self.policy
                    .on_disruption(SignalDisruption::SpuriousWrongEviction { fault_num });
                self.tap(Tap::PolicyEvents)?;
            }
        }
        // Prefetched pages each pay their own PCIe transfer. Wasted flush
        // bytes are on the critical path too — the GPU side sent them
        // before learning the channel was dead.
        let prefetch_bytes = (self.in_flight.len() as u64 - 1) * uvm_types::PAGE_SIZE;
        let mut transfer = self.cfg.pcie_transfer_cycles(
            outcome.transfer_bytes + outcome.wasted_transfer_bytes + prefetch_bytes,
        );
        let mut service = self.cfg.fault_service_cycles();
        if let Some(fs) = &mut self.faults {
            (service, transfer) =
                fs.perturb_service(service, transfer, self.now, &mut self.stats.resilience);
        }
        let duration = service + transfer;
        // Timeline attribution: the whole service window [now, now +
        // duration] splits exactly into the (possibly jittered) service
        // time, HIR flush transfer at the base PCIe rate, and the rest
        // of the (possibly congested) transfer — so the timeline
        // accounts conserve total cycles. Host-side eviction-decision
        // work overlaps the window (Section V-C) and goes to overlay.
        let flush = self
            .cfg
            .pcie_transfer_cycles(outcome.transfer_bytes + outcome.wasted_transfer_bytes)
            .min(transfer);
        self.tap(Tap::Charge(CycleAccount::FaultService, service))?;
        self.tap(Tap::Charge(CycleAccount::HirFlush, flush))?;
        self.tap(Tap::Charge(CycleAccount::PcieTransfer, transfer - flush))?;
        self.tap(Tap::Charge(
            CycleAccount::EvictionDecision,
            outcome.driver_busy_cycles,
        ))?;
        self.stats.driver.busy_cycles += duration + outcome.driver_busy_cycles;
        self.stats.driver.hit_transfer_cycles +=
            self.cfg.pcie_transfer_cycles(outcome.transfer_bytes);
        self.schedule(self.now + duration, EventKind::DriverDone(page));
        Ok(())
    }

    fn finish_fault(&mut self, page: PageId) -> Result<(), SimError> {
        debug_assert_eq!(self.in_service, Some(page));
        self.in_service = None;
        self.events_since_progress = 0;
        for p in std::mem::take(&mut self.in_flight) {
            if self.memory.insert(p).is_err() {
                return Err(SimError::ResidencyOverflow {
                    page: p,
                    cycle: self.now,
                });
            }
            if self.fallback == FallbackVictim::LruShadow {
                self.shadow.touch(p);
            }
            self.tap(Tap::Event(SimEvent::FaultServiced {
                time: self.now,
                page: p,
            }))?;
            if let Some(warps) = self.waiters.remove(&p) {
                for w in warps {
                    self.schedule(self.now, EventKind::WarpReady(w));
                }
            }
        }
        if self.memory.is_full() && !self.memory_full_notified {
            self.memory_full_notified = true;
            self.policy.on_memory_full();
            self.tap(Tap::PolicyEvents)?;
            self.tap(Tap::Event(SimEvent::MemoryFull { time: self.now }))?;
        }
        if !self.fault_queue.is_empty() {
            self.schedule(self.now, EventKind::DriverPickup);
        }
        Ok(())
    }

    fn pickup_next_fault(&mut self) -> Result<(), SimError> {
        if self.in_service.is_some() {
            return Ok(());
        }
        while let Some(next) = self.fault_queue.pop_front() {
            if self.memory.is_resident(next) {
                // Satisfied by a prefetch while queued: wake the waiters.
                if let Some(warps) = self.waiters.remove(&next) {
                    for w in warps {
                        self.schedule(self.now, EventKind::WarpReady(w));
                    }
                }
                continue;
            }
            self.start_fault_service(next)?;
            break;
        }
        Ok(())
    }

    /// Picks the engine-side fallback victim: approximate-LRU from the
    /// recency shadow when enabled (with a min-page safety net should the
    /// shadow be empty), else the lowest-numbered resident page.
    fn fallback_victim(&self) -> Option<PageId> {
        match self.fallback {
            FallbackVictim::MinPage => self.memory.min_resident(),
            FallbackVictim::LruShadow => self
                .shadow
                .lru()
                .filter(|&p| self.memory.is_resident(p))
                .or_else(|| self.memory.min_resident()),
        }
    }

    /// Evicts a fallback victim, accounting it and notifying the policy.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::NoVictimAvailable`] when nothing is resident.
    fn evict_fallback(&mut self) -> Result<PageId, SimError> {
        let Some(v) = self.fallback_victim() else {
            return Err(SimError::NoVictimAvailable { cycle: self.now });
        };
        self.memory.remove(v);
        self.stats.resilience.fallback_victims += 1;
        self.policy
            .on_disruption(SignalDisruption::ForcedEviction { page: v });
        Ok(v)
    }

    /// One sanitizer pass over the engine's structural invariants.
    /// Read-only by contract: nothing in the simulation (state, RNG,
    /// statistics) may change, so sanitized and unsanitized runs stay
    /// byte-identical.
    fn sanitize_check(&self) -> Result<(), SimError> {
        let cycle = self.now;
        let fail = |invariant: &'static str, detail: String| SimError::InvariantViolated {
            invariant,
            detail,
            cycle,
        };
        if self.memory.len() > self.memory.capacity() {
            return Err(fail(
                "residency-capacity",
                format!(
                    "{} pages resident in {} frames",
                    self.memory.len(),
                    self.memory.capacity()
                ),
            ));
        }
        // Pages are neither minted nor leaked: what is resident plus what
        // is mid-migration must equal what the driver ever moved in minus
        // what it evicted. Stated without subtraction so a corrupted
        // counter cannot hide behind saturation.
        let migrating = if self.in_service.is_some() {
            self.in_flight.len() as u64
        } else {
            0
        };
        let d = &self.stats.driver;
        if self.memory.len() + migrating + d.evictions != d.faults_serviced + d.prefetched_pages {
            return Err(fail(
                "residency-conservation",
                format!(
                    "resident {} + migrating {} + evicted {} != serviced {} + prefetched {}",
                    self.memory.len(),
                    migrating,
                    d.evictions,
                    d.faults_serviced,
                    d.prefetched_pages
                ),
            ));
        }
        if self.fallback == FallbackVictim::LruShadow {
            self.shadow
                .check_invariants(&|p| self.memory.is_resident(p))
                .map_err(|detail| fail("lru-shadow", detail))?;
        }
        self.breaker
            .check_invariants()
            .map_err(|detail| fail("circuit-breaker", detail))?;
        if let Some(est) = &self.loss {
            est.check_invariants()
                .map_err(|detail| fail("loss-estimator", detail))?;
        }
        self.policy
            .check_invariants()
            .map_err(|detail| fail("policy-structure", detail))?;
        Ok(())
    }

    fn remember_eviction(&mut self, page: PageId) {
        self.recent_evictions.push_back(page);
        let entry = self.recent_counts.entry(page).or_insert((0, 0));
        *entry = (entry.0 + 1, self.stats.driver.evictions);
        if self.recent_evictions.len() > WRONG_EVICTION_WINDOW {
            if let Some(old) = self.recent_evictions.pop_front() {
                if let Some((c, _)) = self.recent_counts.get_mut(&old) {
                    *c -= 1;
                    if *c == 0 {
                        self.recent_counts.remove(&old);
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recovery::Backoff;
    use crate::{ideal_for, trace_for, ProfileConfig};
    use uvm_policies::{Lru, RandomPolicy};
    use uvm_types::Oversubscription;
    use uvm_workloads::registry;

    fn tiny_cfg(n_sms: u32, warps: u32) -> SimConfig {
        SimConfig::builder()
            .n_sms(n_sms)
            .warps_per_sm(warps)
            .l1_tlb(uvm_types::TlbConfig {
                entries: 4,
                ways: 4,
                latency_cycles: 1,
            })
            .l2_tlb(uvm_types::TlbConfig {
                entries: 8,
                ways: 4,
                latency_cycles: 10,
            })
            .build()
            .unwrap()
    }

    fn run_lru(global: &[u64], footprint: u64, capacity: u64, streams: u32) -> SimStats {
        let cfg = tiny_cfg(streams, 1);
        let trace = Trace::from_global(global, footprint, 2, streams, 4);
        Simulation::new(cfg, &trace, Lru::new(), capacity)
            .unwrap()
            .run()
            .unwrap()
            .stats
    }

    #[test]
    fn unconstrained_memory_faults_once_per_page() {
        let global: Vec<u64> = (0..50).chain(0..50).collect();
        let stats = run_lru(&global, 50, 64, 2);
        assert_eq!(stats.faults(), 50);
        assert_eq!(stats.evictions(), 0);
        assert_eq!(stats.mem_accesses, 100);
        assert!(stats.cycles > 0);
        assert!(stats.ipc() > 0.0);
    }

    #[test]
    fn cyclic_sweep_under_lru_thrashes() {
        // 40 pages, capacity 30, 4 sweeps: after the first sweep every
        // reference misses under LRU (reuse distance 40 > 30).
        let global: Vec<u64> = (0..40u64).cycle().take(160).collect();
        let stats = run_lru(&global, 40, 30, 1);
        assert_eq!(stats.faults(), 160);
        assert_eq!(stats.evictions(), 130);
        assert!(stats.driver.wrong_evictions > 0);
    }

    #[test]
    fn instructions_counted_once_despite_replays() {
        let global: Vec<u64> = (0..20u64).cycle().take(60).collect();
        let stats = run_lru(&global, 20, 10, 2);
        // 60 ops, compute 2 each -> exactly 180 instructions regardless of
        // how many faults were replayed.
        assert_eq!(stats.mem_accesses, 60);
        assert_eq!(stats.instructions, 180);
    }

    #[test]
    fn more_warps_overlap_faults() {
        // With one warp, every fault serializes against execution; with
        // eight warps the 20 us services overlap with other warps' work...
        let global: Vec<u64> = (0..400u64).collect();
        let serial = run_lru(&global, 400, 500, 1);
        let parallel = run_lru(&global, 400, 500, 8);
        assert_eq!(serial.faults(), parallel.faults());
        assert!(
            parallel.cycles < serial.cycles,
            "parallel {} !< serial {}",
            parallel.cycles,
            serial.cycles
        );
    }

    #[test]
    fn fault_coalescing_services_each_page_once() {
        // All eight warps hammer the same few pages: each page must be
        // serviced exactly once even though many warps fault on it.
        let global: Vec<u64> = std::iter::repeat(0..4u64).flatten().take(64).collect();
        let cfg = tiny_cfg(2, 4);
        let trace = Trace::from_global(&global, 4, 0, 8, 1);
        let stats = Simulation::new(cfg, &trace, Lru::new(), 16)
            .unwrap()
            .run()
            .unwrap()
            .stats;
        assert_eq!(stats.faults(), 4);
    }

    #[test]
    fn driver_core_load_is_bounded() {
        let global: Vec<u64> = (0..60u64).cycle().take(240).collect();
        let stats = run_lru(&global, 60, 45, 4);
        let load = stats.driver.core_load(stats.cycles);
        assert!(load > 0.0 && load <= 1.0, "load {load}");
    }

    #[test]
    fn ideal_never_faults_more_than_lru_full_stack() {
        let cfg = SimConfig::scaled_default();
        for abbr in ["STN", "NW"] {
            let app = registry::by_abbr(abbr).unwrap();
            let trace = trace_for(&cfg, app);
            let capacity = Oversubscription::Rate75.capacity_pages(app.footprint_pages());
            let lru = Simulation::new(cfg.clone(), &trace, Lru::new(), capacity)
                .unwrap()
                .run()
                .unwrap()
                .stats;
            let ideal = Simulation::new(cfg.clone(), &trace, ideal_for(&trace), capacity)
                .unwrap()
                .run()
                .unwrap()
                .stats;
            assert!(
                ideal.faults() <= lru.faults(),
                "{abbr}: ideal {} > lru {}",
                ideal.faults(),
                lru.faults()
            );
        }
    }

    #[test]
    fn deterministic_across_runs() {
        let app = registry::by_abbr("STN").unwrap();
        let cfg = SimConfig::scaled_default();
        let trace = trace_for(&cfg, app);
        let run = || {
            Simulation::new(cfg.clone(), &trace, RandomPolicy::seeded(5), 576)
                .unwrap()
                .run()
                .unwrap()
                .stats
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn rejects_too_many_streams() {
        let cfg = tiny_cfg(1, 1);
        let trace = Trace::from_global(&[0, 1], 2, 0, 2, 1);
        assert!(Simulation::new(cfg, &trace, Lru::new(), 4).is_err());
    }

    #[test]
    fn rejects_zero_capacity() {
        let cfg = tiny_cfg(1, 1);
        let trace = Trace::from_global(&[0], 1, 0, 1, 1);
        assert!(Simulation::new(cfg, &trace, Lru::new(), 0).is_err());
    }

    #[test]
    fn tlb_stats_accumulate() {
        // Each page: one faulting walk + one replay walk that hits and
        // fills the TLBs; re-touches within TLB reach are L1 hits.
        let global: Vec<u64> = vec![0, 0, 0, 1, 1, 1];
        let stats = run_lru(&global, 2, 4, 1);
        assert_eq!(stats.walks, 4);
        assert_eq!(stats.walk_hits, 2);
        assert_eq!(stats.tlb.l1_hits, 4);
    }

    #[test]
    fn event_log_observer_records_timeline() {
        let global: Vec<u64> = (0..12u64).cycle().take(36).collect();
        let cfg = tiny_cfg(2, 1);
        let trace = Trace::from_global(&global, 12, 0, 2, 3);
        let mut sim = Simulation::new(cfg, &trace, Lru::new(), 8).unwrap();
        let log = sim.attach_event_log();
        let stats = sim.run().unwrap().stats;
        let log = log.borrow();
        assert_eq!(log.fault_count() as u64, stats.faults());
        assert_eq!(log.eviction_count() as u64, stats.evictions());
        // Events are in nondecreasing time order.
        let times: Vec<u64> = log.events().iter().map(|e| e.time()).collect();
        assert!(times.windows(2).all(|w| w[0] <= w[1]));
        // MemoryFull appears exactly once.
        let fulls = log
            .events()
            .iter()
            .filter(|e| matches!(e, crate::SimEvent::MemoryFull { .. }))
            .count();
        assert_eq!(fulls, 1);
        // The fault-rate series accounts for every fault.
        let series = log.fault_rate_series(28_000);
        assert_eq!(series.iter().sum::<u64>(), stats.faults());
    }

    #[test]
    fn observer_sees_policy_decision_events() {
        use uvm_policies::Traced;

        let global: Vec<u64> = (0..24u64).cycle().take(96).collect();
        let cfg = tiny_cfg(2, 1);
        let trace = Trace::from_global(&global, 24, 0, 2, 3);
        let mut sim = Simulation::new(cfg, &trace, Traced::new(Lru::new()), 12).unwrap();
        let log = sim.attach_event_log();
        let stats = sim.run().unwrap().stats;
        let log = log.borrow();
        // Every eviction is preceded by the policy's VictimSelected for
        // the same page.
        let mut pending_victim = None;
        let mut victims = 0u64;
        for e in log.events() {
            match *e {
                SimEvent::VictimSelected { page, .. } => {
                    pending_victim = Some(page);
                    victims += 1;
                }
                SimEvent::Eviction { page, .. } => {
                    assert_eq!(pending_victim.take(), Some(page));
                }
                _ => {}
            }
        }
        assert_eq!(victims, stats.evictions());
        // Page walks were reported, including the faulting ones.
        let walks = log
            .events()
            .iter()
            .filter(|e| matches!(e, SimEvent::PageWalk { .. }))
            .count() as u64;
        assert_eq!(walks, stats.walks);
        // Wrong evictions carry a distance within the window.
        let wrong: Vec<u64> = log
            .events()
            .iter()
            .filter_map(|e| match *e {
                SimEvent::WrongEviction {
                    refault_distance, ..
                } => Some(refault_distance),
                _ => None,
            })
            .collect();
        assert_eq!(wrong.len() as u64, stats.driver.wrong_evictions);
        assert!(wrong
            .iter()
            .all(|&d| d >= 1 && d <= WRONG_EVICTION_WINDOW as u64));
    }

    #[test]
    fn attaching_observer_does_not_change_stats() {
        let global: Vec<u64> = (0..30u64).cycle().take(120).collect();
        let run = |observe: bool| {
            let cfg = tiny_cfg(2, 1);
            let trace = Trace::from_global(&global, 30, 0, 2, 3);
            let mut sim = Simulation::new(cfg, &trace, Lru::new(), 20).unwrap();
            if observe {
                let _ = sim.attach_event_log();
            }
            sim.run().unwrap().stats
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn prefetch_reduces_demand_faults_on_streaming() {
        let global: Vec<u64> = (0..200u64).collect();
        let trace = Trace::from_global(&global, 200, 2, 2, 4);
        let mut cfg = tiny_cfg(2, 1);
        let base = Simulation::new(cfg.clone(), &trace, Lru::new(), 250)
            .unwrap()
            .run()
            .unwrap()
            .stats;
        assert_eq!(base.faults(), 200);
        cfg.prefetch_pages = 4;
        let pf = Simulation::new(cfg, &trace, Lru::new(), 250)
            .unwrap()
            .run()
            .unwrap()
            .stats;
        assert!(
            pf.faults() < 80,
            "prefetch should absorb most demand faults, got {}",
            pf.faults()
        );
        assert!(pf.driver.prefetched_pages > 100);
        // All 200 pages became resident one way or the other.
        assert_eq!(pf.faults() + pf.driver.prefetched_pages, 200);
        assert!(pf.cycles < base.cycles, "fewer 20us services -> faster");
    }

    #[test]
    fn prefetch_respects_capacity_and_footprint() {
        // Footprint 20, capacity 8, heavy prefetch: residency accounting
        // must hold and prefetches never exceed the footprint.
        let global: Vec<u64> = (0..20u64).cycle().take(100).collect();
        let trace = Trace::from_global(&global, 20, 0, 2, 2);
        let mut cfg = tiny_cfg(2, 1);
        cfg.prefetch_pages = 8;
        let stats = Simulation::new(cfg, &trace, Lru::new(), 8)
            .unwrap()
            .run()
            .unwrap()
            .stats;
        let inserted = stats.faults() + stats.driver.prefetched_pages;
        let resident_end = inserted - stats.evictions();
        assert!(resident_end <= 8);
        assert!(resident_end >= 1);
    }

    #[test]
    fn fault_batching_amortizes_service_time() {
        // Eight warps streaming disjoint pages fill the fault queue; with
        // batching the driver clears several per 20 us window.
        let global: Vec<u64> = (0..320u64).collect();
        let trace = Trace::from_global(&global, 320, 0, 8, 1);
        let mut cfg = tiny_cfg(2, 4);
        let base = Simulation::new(cfg.clone(), &trace, Lru::new(), 400)
            .unwrap()
            .run()
            .unwrap()
            .stats;
        cfg.fault_batch = 8;
        let batched = Simulation::new(cfg, &trace, Lru::new(), 400)
            .unwrap()
            .run()
            .unwrap()
            .stats;
        // Same demand faults either way; far fewer service windows.
        assert_eq!(base.faults(), 320);
        assert_eq!(batched.faults(), 320);
        assert_eq!(batched.driver.prefetched_pages, 0);
        assert!(
            batched.cycles < base.cycles / 2,
            "batching should at least halve runtime: {} vs {}",
            batched.cycles,
            base.cycles
        );
    }

    #[test]
    fn fault_batch_larger_than_capacity_is_safe() {
        let global: Vec<u64> = (0..64u64).cycle().take(256).collect();
        let trace = Trace::from_global(&global, 64, 0, 8, 1);
        let mut cfg = tiny_cfg(2, 4);
        cfg.fault_batch = 256;
        let stats = Simulation::new(cfg, &trace, Lru::new(), 8)
            .unwrap()
            .run()
            .unwrap()
            .stats;
        let resident_end = stats.faults() - stats.evictions();
        assert!(resident_end <= 8);
    }

    /// A broken policy that never offers a victim: exercises the engine's
    /// deterministic fallback eviction.
    struct NoVictim;

    impl EvictionPolicy for NoVictim {
        fn name(&self) -> String {
            "NoVictim".to_string()
        }
        fn on_fault(&mut self, _page: PageId, _n: u64) -> uvm_policies::FaultOutcome {
            uvm_policies::FaultOutcome::default()
        }
        fn select_victim(&mut self) -> Option<PageId> {
            None
        }
    }

    #[test]
    fn fallback_victim_keeps_broken_policy_running() {
        let global: Vec<u64> = (0..20u64).cycle().take(80).collect();
        let cfg = tiny_cfg(2, 1);
        let trace = Trace::from_global(&global, 20, 0, 2, 2);
        let stats = Simulation::new(cfg, &trace, NoVictim, 8)
            .unwrap()
            .run()
            .expect("fallback keeps the run alive")
            .stats;
        assert!(stats.evictions() > 0);
        assert_eq!(stats.resilience.fallback_victims, stats.evictions());
        let resident_end = stats.faults() - stats.evictions();
        assert!(resident_end <= 8);
    }

    #[test]
    fn noop_fault_plan_changes_nothing() {
        let global: Vec<u64> = (0..40u64).cycle().take(160).collect();
        let run = |plan: Option<crate::FaultPlan>| {
            let cfg = tiny_cfg(2, 1);
            let trace = Trace::from_global(&global, 40, 0, 2, 3);
            let mut sim = Simulation::new(cfg, &trace, Lru::new(), 30).unwrap();
            if let Some(p) = plan {
                sim.set_fault_plan(p).unwrap();
            }
            sim.run().unwrap().stats
        };
        let clean = run(None);
        let noop = run(Some(crate::FaultPlan::none()));
        assert_eq!(clean, noop);
        assert!(!noop.resilience.any());
    }

    #[test]
    fn latency_chaos_completes_and_reports_injection() {
        let global: Vec<u64> = (0..40u64).cycle().take(160).collect();
        let cfg = tiny_cfg(2, 1);
        let trace = Trace::from_global(&global, 40, 0, 2, 3);
        let mut sim = Simulation::new(cfg, &trace, Lru::new(), 30).unwrap();
        sim.set_fault_plan(crate::FaultPlan::latency_storm(11))
            .unwrap();
        let stats = sim.run().expect("chaos run completes").stats;
        assert!(stats.resilience.any());
        assert!(stats.resilience.injected_delay_cycles > 0);
        // Latency chaos does not change what migrates or what is evicted.
        let resident_end = stats.faults() - stats.evictions();
        assert!(resident_end <= 30);
    }

    #[test]
    fn injected_livelock_is_reported_as_stalled() {
        let global: Vec<u64> = (0..10u64).collect();
        let cfg = tiny_cfg(1, 1);
        let trace = Trace::from_global(&global, 10, 0, 1, 1);
        let mut sim = Simulation::new(cfg, &trace, Lru::new(), 16).unwrap();
        sim.set_fault_plan(crate::FaultPlan::livelock(1)).unwrap();
        match sim.run() {
            Err(SimError::Stalled { in_flight, .. }) => assert!(in_flight >= 1),
            other => panic!("expected Stalled, got {other:?}"),
        }
    }

    #[test]
    fn retry_policy_turns_livelock_into_retries_exhausted() {
        let global: Vec<u64> = (0..10u64).collect();
        let cfg = tiny_cfg(1, 1);
        let trace = Trace::from_global(&global, 10, 0, 1, 1);
        let mut sim = Simulation::new(cfg, &trace, Lru::new(), 16).unwrap();
        sim.set_fault_plan(crate::FaultPlan::livelock(1)).unwrap();
        let rp = RetryPolicy::Fixed(Backoff {
            max_attempts: 5,
            ..Backoff::default()
        });
        sim.set_retry_policy(rp).unwrap();
        match sim.run() {
            Err(SimError::RetriesExhausted { attempts, .. }) => assert_eq!(attempts, 5),
            other => panic!("expected RetriesExhausted, got {other:?}"),
        }
    }

    #[test]
    fn retry_backoff_completes_bounded_loss_and_is_counted() {
        let global: Vec<u64> = (0..40u64).cycle().take(120).collect();
        let cfg = tiny_cfg(2, 1);
        let trace = Trace::from_global(&global, 40, 0, 2, 3);
        let mut sim = Simulation::new(cfg, &trace, Lru::new(), 30).unwrap();
        sim.set_fault_plan(crate::FaultPlan::completion_loss(7))
            .unwrap();
        sim.set_retry_policy(RetryPolicy::default()).unwrap();
        let stats = sim.run().expect("backoff still delivers").stats;
        assert!(stats.resilience.completions_lost > 0);
        assert_eq!(
            stats.resilience.retry_attempts, stats.resilience.completions_lost,
            "every loss goes through the backoff schedule"
        );
        assert!(stats.resilience.retry_backoff_cycles >= stats.resilience.retry_attempts * 2_000);
    }

    #[test]
    fn invalid_retry_policy_is_rejected() {
        let cfg = tiny_cfg(1, 1);
        let trace = Trace::from_global(&[0], 1, 0, 1, 1);
        let mut sim = Simulation::new(cfg, &trace, Lru::new(), 4).unwrap();
        let bad = RetryPolicy::Fixed(Backoff {
            max_attempts: 0,
            ..Backoff::default()
        });
        assert!(sim.set_retry_policy(bad).is_err());
    }

    #[test]
    fn adaptive_retry_backs_off_harder_under_loss() {
        let global: Vec<u64> = (0..40u64).cycle().take(120).collect();
        let run = |rp: RetryPolicy| {
            let cfg = tiny_cfg(2, 1);
            let trace = Trace::from_global(&global, 40, 0, 2, 3);
            let mut sim = Simulation::new(cfg, &trace, Lru::new(), 30).unwrap();
            sim.set_fault_plan(crate::FaultPlan::completion_loss(7))
                .unwrap();
            sim.set_retry_policy(rp).unwrap();
            sim.run().expect("bounded loss still completes").stats
        };
        let fixed = run(RetryPolicy::default());
        let adaptive = run(RetryPolicy::adaptive());
        assert!(fixed.resilience.completions_lost > 0);
        assert!(adaptive.resilience.completions_lost > 0);
        // Observed loss raises the adaptive base, so the mean backoff per
        // retry must exceed the fixed schedule's (both start at the same
        // base and cap).
        let mean = |s: &SimStats| s.resilience.retry_backoff_cycles / s.resilience.retry_attempts;
        assert!(
            mean(&adaptive) > mean(&fixed),
            "adaptive mean backoff {} !> fixed mean backoff {}",
            mean(&adaptive),
            mean(&fixed)
        );
        // Identical inputs replay identically under the adaptive estimator.
        assert_eq!(run(RetryPolicy::adaptive()), adaptive);
    }

    #[test]
    fn lru_shadow_fallback_tracks_recency() {
        // NoVictim forces every eviction through the fallback path. Under
        // the LRU shadow, re-touched pages must not be the next victims.
        let global: Vec<u64> = (0..20u64).cycle().take(80).collect();
        let run = |fallback: FallbackVictim| {
            let cfg = tiny_cfg(2, 1);
            let trace = Trace::from_global(&global, 20, 0, 2, 2);
            let mut sim = Simulation::new(cfg, &trace, NoVictim, 8).unwrap();
            sim.set_fallback_victim(fallback);
            sim.run().expect("fallback keeps the run alive").stats
        };
        let min_page = run(FallbackVictim::MinPage);
        let shadow = run(FallbackVictim::LruShadow);
        assert_eq!(
            min_page.resilience.fallback_victims,
            min_page.evictions(),
            "every eviction is a fallback"
        );
        assert_eq!(shadow.resilience.fallback_victims, shadow.evictions());
        // A cyclic sweep makes the two victim orders genuinely different.
        assert_ne!(
            min_page.faults(),
            shadow.faults(),
            "recency-aware fallback changes the eviction pattern"
        );
    }

    #[test]
    fn victim_drops_force_fallback_evictions_and_complete() {
        let global: Vec<u64> = (0..40u64).cycle().take(200).collect();
        let cfg = tiny_cfg(2, 1);
        let trace = Trace::from_global(&global, 40, 0, 2, 3);
        let mut sim = Simulation::new(cfg, &trace, Lru::new(), 30).unwrap();
        sim.set_fault_plan(crate::FaultPlan::victim_drop(3))
            .unwrap();
        let stats = sim.run().expect("dropped victims are tolerated").stats;
        assert!(stats.resilience.victims_dropped > 0, "injection fired");
        assert!(
            stats.resilience.fallback_victims >= stats.resilience.victims_dropped,
            "each drop (and each later stale offer) falls back"
        );
        let resident_end = stats.faults() - stats.evictions();
        assert!(resident_end <= 30);
    }

    #[test]
    fn checkpoint_resume_reproduces_straight_run() {
        let global: Vec<u64> = (0..40u64).cycle().take(200).collect();
        let build = || {
            let cfg = tiny_cfg(2, 1);
            let trace = Trace::from_global(&global, 40, 0, 2, 3);
            let mut sim = Simulation::new(cfg, &trace, Lru::new(), 30).unwrap();
            sim.set_fault_plan(crate::FaultPlan::latency_storm(11))
                .unwrap();
            sim
        };
        let straight = build().run().unwrap().stats;

        // Pause mid-run, snapshot, rebuild from the same inputs, resume.
        let mut first = build();
        let done = first.run_until(400_000).unwrap();
        assert!(!done, "pause point must fall inside the run");
        let ckpt = first.checkpoint();
        assert_eq!(ckpt.cycle, 400_000);

        let mut resumed = build();
        resumed
            .resume(&ckpt)
            .expect("same inputs replay identically");
        let stats = resumed.finish().unwrap().stats;
        assert_eq!(stats, straight, "resume must not change the run");
    }

    #[test]
    fn resume_with_different_inputs_reports_divergence() {
        let global: Vec<u64> = (0..40u64).cycle().take(200).collect();
        let build = |seed: u64| {
            let cfg = tiny_cfg(2, 1);
            let trace = Trace::from_global(&global, 40, 0, 2, 3);
            let mut sim = Simulation::new(cfg, &trace, Lru::new(), 30).unwrap();
            sim.set_fault_plan(crate::FaultPlan::latency_storm(seed))
                .unwrap();
            sim
        };
        let mut first = build(11);
        assert!(!first.run_until(400_000).unwrap());
        let ckpt = first.checkpoint();
        // Different fault-plan seed -> different RNG stream -> divergence.
        let mut other = build(12);
        match other.resume(&ckpt) {
            Err(SimError::CheckpointDiverged { cycle }) => assert_eq!(cycle, 400_000),
            other => panic!("expected CheckpointDiverged, got {other:?}"),
        }
    }

    #[test]
    fn run_until_past_end_completes_and_finish_matches_run() {
        let global: Vec<u64> = (0..20u64).cycle().take(60).collect();
        let cfg = tiny_cfg(2, 1);
        let trace = Trace::from_global(&global, 20, 0, 2, 2);
        let straight = Simulation::new(cfg.clone(), &trace, Lru::new(), 10)
            .unwrap()
            .run()
            .unwrap()
            .stats;
        let mut sim = Simulation::new(cfg, &trace, Lru::new(), 10).unwrap();
        assert!(sim.run_until(u64::MAX).unwrap(), "queue drains");
        let stats = sim.finish().unwrap().stats;
        assert_eq!(stats, straight);
    }

    #[test]
    fn bounded_completion_loss_still_completes() {
        let global: Vec<u64> = (0..40u64).cycle().take(120).collect();
        let cfg = tiny_cfg(2, 1);
        let trace = Trace::from_global(&global, 40, 0, 2, 3);
        let clean = Simulation::new(cfg.clone(), &trace, Lru::new(), 30)
            .unwrap()
            .run()
            .unwrap()
            .stats;
        let mut sim = Simulation::new(cfg, &trace, Lru::new(), 30).unwrap();
        sim.set_fault_plan(crate::FaultPlan::completion_loss(7))
            .unwrap();
        let lossy = sim.run().expect("bounded retries always deliver").stats;
        assert!(lossy.resilience.completions_lost > 0);
        assert_eq!(lossy.faults(), clean.faults(), "losses delay, not drop");
        assert!(lossy.cycles > clean.cycles, "each loss costs retry cycles");
    }

    #[test]
    fn replayed_access_hits_page_table_after_migration() {
        // One page, capacity ample: the faulting warp replays and the walk
        // then hits (counted as a walk hit, reported to the policy).
        let global: Vec<u64> = vec![0, 1];
        let stats = run_lru(&global, 2, 4, 1);
        assert_eq!(stats.faults(), 2);
        // Each fault's replay re-walks and hits.
        assert_eq!(stats.walk_hits, 2);
        assert_eq!(stats.walks, 4);
    }

    #[test]
    fn sanitizer_on_leaves_stats_byte_identical() {
        let global: Vec<u64> = (0..40u64).cycle().take(160).collect();
        let cfg = tiny_cfg(2, 1);
        let trace = Trace::from_global(&global, 40, 2, 2, 4);
        let plain = Simulation::new(cfg.clone(), &trace, Lru::new(), 30)
            .unwrap()
            .run()
            .unwrap()
            .stats;
        let mut sim = Simulation::new(cfg, &trace, Lru::new(), 30).unwrap();
        sim.set_sanitizer(Sanitizer::new(1)); // check after every event
        assert!(sim.run_until(u64::MAX).unwrap());
        let checks = sim.sanitizer().unwrap().checks_run();
        assert!(checks > 0, "cadence-1 sanitizer must have run");
        let sanitized = sim.finish().unwrap().stats;
        assert_eq!(
            sanitized.to_json().to_string(),
            plain.to_json().to_string(),
            "sanitizer must be read-only"
        );
    }

    #[test]
    fn sanitizer_runs_under_lru_shadow_fallback() {
        let global: Vec<u64> = (0..30u64).cycle().take(90).collect();
        let cfg = tiny_cfg(1, 1);
        let trace = Trace::from_global(&global, 30, 0, 1, 3);
        let mut sim = Simulation::new(cfg, &trace, Lru::new(), 20).unwrap();
        sim.set_fallback_victim(FallbackVictim::LruShadow);
        sim.set_sanitizer(Sanitizer::new(1));
        let stats = sim.run().unwrap().stats;
        assert!(stats.faults() > 0);
    }

    #[test]
    fn profiler_timeline_conserves_total_cycles() {
        let global: Vec<u64> = (0..40u64).cycle().take(160).collect();
        let cfg = tiny_cfg(2, 1);
        let trace = Trace::from_global(&global, 40, 2, 2, 4);
        let mut sim = Simulation::new(cfg, &trace, Lru::new(), 30).unwrap();
        sim.set_profiler(Profiler::new(ProfileConfig::new(50_000)));
        let outcome = sim.run().unwrap();
        let profile = outcome.profile.expect("profiler attached");
        assert_eq!(profile.total_cycles, outcome.stats.cycles);
        assert_eq!(
            profile.timeline_sum(),
            outcome.stats.cycles,
            "timeline accounts must partition the run exactly"
        );
        assert!(profile.account(CycleAccount::FaultService) > 0);
        // LRU moves no HIR bytes, and single-page demand batches carry no
        // prefetch transfer: both PCIe accounts stay empty here (HPE runs
        // populate them; see the bench-level conservation test).
        assert_eq!(profile.account(CycleAccount::PcieTransfer), 0);
        assert_eq!(profile.account(CycleAccount::HirFlush), 0);
        assert!(
            profile.driver_idle() > 0,
            "SM-side work between batches leaves the driver idle"
        );
        // Overlay accounts observe concurrent work without entering the sum.
        assert!(profile.account(CycleAccount::SmStall) > 0);
        assert!(profile.account(CycleAccount::SmTlb) > 0);
        assert!(profile.account(CycleAccount::PageWalk) > 0);
        // Span lifecycle: every raised fault opened a span and every span
        // closed; wrong evictions classify spans as re-faults.
        assert!(profile.spans.opened > 0);
        assert_eq!(profile.spans.completed, profile.spans.opened);
        assert_eq!(
            profile.spans.refault_spans, outcome.stats.driver.wrong_evictions,
            "span refault classification must match the engine's"
        );
        // The metrics registry sampled on cadence.
        assert!(!profile.series.samples.is_empty());
        assert_eq!(profile.series.cadence, 50_000);
    }

    #[test]
    fn profiler_on_leaves_stats_byte_identical() {
        let global: Vec<u64> = (0..40u64).cycle().take(160).collect();
        let cfg = tiny_cfg(2, 1);
        let trace = Trace::from_global(&global, 40, 2, 2, 4);
        let plain = Simulation::new(cfg.clone(), &trace, Lru::new(), 30)
            .unwrap()
            .run()
            .unwrap();
        assert!(plain.profile.is_none(), "no profiler unless attached");
        let mut sim = Simulation::new(cfg, &trace, Lru::new(), 30).unwrap();
        sim.set_profiler(Profiler::new(ProfileConfig::new(1)));
        let profiled = sim.run().unwrap();
        assert!(profiled.profile.is_some());
        assert_eq!(
            profiled.stats.to_json().to_string(),
            plain.stats.to_json().to_string(),
            "profiler must be observation-only"
        );
    }

    #[test]
    fn corrupted_residency_surfaces_typed_error_not_panic() {
        let global: Vec<u64> = (0..40u64).cycle().take(160).collect();
        let cfg = tiny_cfg(1, 1);
        let trace = Trace::from_global(&global, 40, 2, 1, 4);
        let mut sim = Simulation::new(cfg, &trace, Lru::new(), 30).unwrap();
        sim.set_sanitizer(Sanitizer::new(1));
        assert!(sim.run_until(u64::MAX).unwrap());
        assert!(!sim.memory.is_empty());
        // Corrupt the resident set behind the driver's accounting.
        let page = sim.memory.min_resident().unwrap();
        sim.memory.remove(page);
        match sim.finish() {
            Err(SimError::InvariantViolated {
                invariant, detail, ..
            }) => {
                assert_eq!(invariant, "residency-conservation");
                assert!(detail.contains("resident"), "detail {detail:?}");
            }
            other => panic!("expected InvariantViolated, got {other:?}"),
        }
    }
}
