//! The traced run: per-layer host times and exact work counts over the
//! same cells as the detached run.
//!
//! Every cell runs detached first, inside a cell span whose children are
//! the layer calls (`workloads.build`, `oracle.build`, `engine.new`,
//! `engine.run`). It then reruns with its policy wrapped in
//! [`crate::timed::Timed`], and once with each observer sink attached
//! alone; each rerun must reproduce the detached `SimStats`.

use std::fmt::Write as _;
use std::fs;
use std::path::Path;
use std::time::Instant;

use hpe_bench::{CampaignSpec, PolicyKind};
use uvm_types::{SimConfig, SimStats};
use uvm_workloads::Trace;

use crate::cell::{ns_since, run_cell, run_policy, CellTimes, Mode, Sink};
use crate::clock::ClockCal;
use crate::endtoend::{seed_checks, setup, Setup};
use crate::passes::{first_mismatch, pool_pass, report_stats, slowdowns};
use crate::report::Report;
use crate::stats::median;
use crate::timed::{Hook, HookTally};
use crate::workload::{Cell, Input, Workload, GRID_WORKERS};

/// Directory (relative to the working directory) the span file goes to.
pub const SPAN_DIR: &str = ".bench_out";

/// The legacy `BENCH_*.json` wall pin decomposed in the output.
const PIN: (&str, PolicyKind, &str) = ("STN", PolicyKind::Hpe, "75%");

/// One recorded host-time span.
#[derive(Debug, Clone)]
struct Span {
    repeat: usize,
    cell: String,
    name: &'static str,
    start_ns: u64,
    dur_ns: u64,
}

/// Exact work counts summed over HPE cells.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct HpeSums {
    comparisons: u64,
    selections: u64,
    flushes: u64,
    entries: u64,
    conflicts: u64,
    wrong_evictions: u64,
    evictions: u64,
}

/// Campaign pool figures (grid only).
#[derive(Debug, Clone, Copy, Default)]
struct PoolFigures {
    wall_w1_ns: u64,
    wall_w2_ns: u64,
    idle_frac: f64,
}

/// Everything one traced pass measures.
#[derive(Debug, Clone, Default)]
struct Layers {
    build_ns: u64,
    ops: u64,
    oracle_ns: u64,
    oracle_refs: u64,
    new_ns: u64,
    run_ns: u64,
    /// Per rerun (wrapped, then each sink): its run time minus that of a
    /// detached run made just before it, and the detached run times.
    rerun_extra_ns: [i64; 5],
    rerun_base_ns: [u64; 5],
    cell_ns: u64,
    remainder_ns: i64,
    max_remainder_frac: f64,
    sink_events: [u64; 4],
    events: u64,
    mem_accesses: u64,
    faults: u64,
    evictions: u64,
    cycles: u64,
    l1: (u64, u64),
    l2: (u64, u64),
    tallies: [HookTally; 7],
    hpe: HpeSums,
    stats: Vec<Option<SimStats>>,
    pin: Option<CellTimes>,
    pool: Option<PoolFigures>,
    /// Failed cells and reruns that did not reproduce the detached run.
    mismatches: Vec<String>,
}

impl Layers {
    /// The exact, machine-independent counts: equal on every pass.
    fn exact(&self) -> Vec<u64> {
        let mut v = vec![
            self.ops,
            self.oracle_refs,
            self.events,
            self.mem_accesses,
            self.faults,
            self.evictions,
            self.cycles,
            self.hpe.comparisons,
            self.hpe.flushes,
        ];
        v.extend(self.sink_events);
        for t in &self.tallies {
            v.extend(Hook::ALL.map(|h| t.calls(h)));
        }
        v
    }
}

fn policy_index(kind: PolicyKind) -> usize {
    PolicyKind::ALL.iter().position(|k| *k == kind).unwrap_or(0)
}

/// Runs one traced pass over `cells`.
fn traced_pass(
    cfg: &SimConfig,
    inputs: &[Input],
    traces: &[Trace],
    cells: &[Cell],
    repeat: usize,
    process_start: Instant,
    spans: &mut Vec<Span>,
) -> Layers {
    let mut l = Layers::default();
    for cell in cells {
        let input = &inputs[cell.input];
        let key = cell.key(inputs);
        let cell_start = ns_since(process_start);
        let prebuilt = traces.get(cell.input);
        let (stats, times, trace) = match run_cell(cfg, input, cell, prebuilt) {
            Ok(r) => r,
            Err(e) => {
                l.mismatches.push(format!("{key}: {e}"));
                l.stats.push(None);
                continue;
            }
        };
        let mut at = cell_start;
        for (name, dur_ns) in [
            ("cell", times.cell_ns),
            ("workloads.build", times.build_ns),
            ("oracle.build", times.oracle_ns),
            ("engine.new", times.new_ns),
            ("engine.run", times.run_ns),
        ] {
            spans.push(Span {
                repeat,
                cell: key.clone(),
                name,
                start_ns: at,
                dur_ns,
            });
            if name != "cell" {
                at += dur_ns;
            }
        }
        l.build_ns += times.build_ns;
        if prebuilt.is_none() {
            l.ops += trace.total_ops();
        }
        if cell.policy == PolicyKind::Ideal {
            l.oracle_ns += times.oracle_ns;
            l.oracle_refs += trace.total_ops();
        }
        l.new_ns += times.new_ns;
        l.run_ns += times.run_ns;
        l.cell_ns += times.cell_ns;
        l.remainder_ns += times.remainder_ns();
        l.max_remainder_frac = l
            .max_remainder_frac
            .max(times.remainder_ns() as f64 / times.cell_ns.max(1) as f64);
        if input.name() == PIN.0 && cell.policy == PIN.1 && cell.rate.label() == PIN.2 {
            l.pin = Some(times);
        }

        // Each rerun is paired with a detached run just before it, so a
        // change in host speed between cells cancels out of its overhead.
        let mut reruns = vec![(Mode::Wrapped, "wrapped")];
        reruns.extend(Sink::ALL.map(|s| (Mode::Attached(s), s.label())));
        for (i, (mode, label)) in reruns.into_iter().enumerate() {
            let base = run_policy(cfg, input, &trace, cell, None, Mode::Detached);
            match (base, run_policy(cfg, input, &trace, cell, None, mode)) {
                (Ok(base), Ok(run)) if base.stats == stats && run.stats == stats => {
                    l.rerun_extra_ns[i] += run.run_ns as i64 - base.run_ns as i64;
                    l.rerun_base_ns[i] += base.run_ns;
                    if let Some(t) = run.tally {
                        l.tallies[policy_index(cell.policy)].merge(&t);
                    }
                    if let Mode::Attached(sink) = mode {
                        l.sink_events[sink as usize] += run.sink_events.unwrap_or(0);
                        if sink == Sink::Sanitizer {
                            l.events += run.sink_events.unwrap_or(0);
                        }
                    }
                }
                (Ok(_), Ok(_)) => l.mismatches.push(format!("{label} {key}: SimStats differ")),
                (Err(e), _) | (_, Err(e)) => l.mismatches.push(format!("{label} {key}: {e}")),
            }
        }

        l.mem_accesses += stats.mem_accesses;
        l.faults += stats.faults();
        l.evictions += stats.evictions();
        l.cycles += stats.cycles;
        l.l1.0 += stats.tlb.l1_hits;
        l.l1.1 += stats.tlb.l1_hits + stats.tlb.l1_misses;
        l.l2.0 += stats.tlb.l2_hits;
        l.l2.1 += stats.tlb.l2_hits + stats.tlb.l2_misses;
        if cell.policy == PolicyKind::Hpe {
            let p = &stats.policy;
            l.hpe.comparisons += p.search_comparisons;
            l.hpe.selections += p.selections;
            l.hpe.flushes += p.hir_flushes;
            l.hpe.entries += p.hir_entries_transferred;
            l.hpe.conflicts += p.hir_conflict_evictions;
            l.hpe.wrong_evictions += stats.driver.wrong_evictions;
            l.hpe.evictions += stats.evictions();
        }
        l.stats.push(Some(stats));
    }
    l
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Median over passes of `f`.
fn med(passes: &[Layers], f: impl Fn(&Layers) -> f64) -> f64 {
    median(&passes.iter().map(f).collect::<Vec<_>>())
}

/// Runs traced passes for at least `seconds` (at least one), checks them,
/// and reports every per-layer figure.
pub fn run(
    workload: Workload,
    cfg: &SimConfig,
    seed: u64,
    seconds: f64,
    process_start: Instant,
) -> Report {
    let mut report = Report::default();
    let cal = ClockCal::measure();
    report.note(format!(
        "clock: a timed empty hook records {:.1} ns and costs {:.1} ns; subtracted from hook and engine.self figures",
        cal.bias_ns, cal.pair_ns
    ));
    let Setup { inputs, traces, .. } = match setup(workload, cfg, seed, process_start) {
        Ok(s) => {
            seed_checks(&mut report, workload, seed, &s.digests);
            s
        }
        Err(e) => {
            report.check("inputs generate", false, e);
            return report;
        }
    };
    // Where set-up builds the traces, the workloads layer's work is one
    // generation of the inputs and their traces; otherwise each cell
    // builds its own trace (counted per cell).
    let generated = if workload.prebuilds_traces() {
        let start = Instant::now();
        let again = workload
            .inputs(seed)
            .map(|inputs| inputs.iter().map(|i| i.trace(cfg)).collect::<Vec<_>>());
        let ns = ns_since(start);
        let ops = again.map_or(0, |t| t.iter().map(Trace::total_ops).sum());
        (ns, ops)
    } else {
        (0, 0)
    };
    let cells = workload.cells(&inputs);
    let apps: Vec<String> = inputs.iter().map(|i| i.name().to_string()).collect();
    let spec = CampaignSpec::clean_grid(apps, seed);

    let measure_start = Instant::now();
    let mut passes: Vec<Layers> = Vec::new();
    let mut spans = Vec::new();
    let mut pool_diff = None;
    while passes.is_empty() || measure_start.elapsed().as_secs_f64() < seconds {
        let mut l = traced_pass(
            cfg,
            &inputs,
            &traces,
            &cells,
            passes.len(),
            process_start,
            &mut spans,
        );
        report.attempted += cells.len() as u64;
        report.failed += l.stats.iter().filter(|s| s.is_none()).count() as u64;
        if workload == Workload::Grid {
            match (
                pool_pass(cfg, &spec, 1),
                pool_pass(cfg, &spec, GRID_WORKERS),
            ) {
                (Ok(w1), Ok(w2)) => {
                    let (s1, s2) = (report_stats(&w1.report), report_stats(&w2.report));
                    pool_diff = pool_diff.or_else(|| {
                        first_mismatch(&inputs, &cells, &s1, &s2)
                            .or_else(|| first_mismatch(&inputs, &cells, &s2, &l.stats))
                    });
                    l.pool = Some(PoolFigures {
                        wall_w1_ns: w1.wall_ns,
                        wall_w2_ns: w2.wall_ns,
                        idle_frac: w2.idle_frac(GRID_WORKERS),
                    });
                }
                (Err(e), _) | (_, Err(e)) => pool_diff = Some(e),
            }
        }
        passes.push(l);
    }

    let mismatches: Vec<&String> = passes.iter().flat_map(|p| &p.mismatches).collect();
    report.check(
        "reruns equal detached",
        mismatches.is_empty(),
        mismatches.first().map_or_else(
            || {
                format!(
                    "wrapped and {} sink reruns reproduce {} cells x {} passes",
                    Sink::ALL.len(),
                    cells.len(),
                    passes.len()
                )
            },
            |m| m.to_string(),
        ),
    );
    let exact = passes[0].exact();
    report.check(
        "exact counts repeat",
        passes.iter().all(|p| p.exact() == exact),
        format!(
            "{} counts equal on {} traced passes",
            exact.len(),
            passes.len()
        ),
    );
    if workload == Workload::Grid {
        report.check(
            "pool equals serial",
            pool_diff.is_none(),
            pool_diff.map_or(
                "1- and 2-worker reports equal the traced serial pass cell by cell".into(),
                |k| format!("{k} differs"),
            ),
        );
    }

    let spans_path = Path::new(SPAN_DIR).join(format!("spans-{}-{seed}.jsonl", workload.name()));
    match write_spans(&spans_path, &spans) {
        Ok(()) => report.note(format!(
            "{} spans written to {}",
            spans.len(),
            spans_path.display()
        )),
        Err(e) => report.note(format!("spans not written: {e}")),
    }
    if let Some(pin) = passes
        .iter()
        .filter_map(|p| p.pin)
        .map(|t| t.build_ns + t.new_ns + t.run_ns)
        .min()
    {
        report.note(format!(
            "legacy pin run/{}/{}/{}: workloads.build + engine.new + engine.run = {:.3} ms (fastest pass)",
            PIN.0,
            PIN.1.label(),
            PIN.2,
            pin as f64 / 1e6
        ));
    }
    let remainder_ms = med(&passes, |p| p.remainder_ns as f64 / 1e6);
    report.note(format!(
        "span accounting: cells {:.3} ms, layer spans {:.3} ms, remainder {remainder_ms:.3} ms (max {:.2}% of one cell)",
        med(&passes, |p| p.cell_ns as f64 / 1e6),
        med(&passes, |p| (p.cell_ns as i64 - p.remainder_ns) as f64 / 1e6),
        100.0 * passes.iter().map(|p| p.max_remainder_frac).fold(0.0, f64::max)
    ));

    metrics(
        &mut report,
        workload,
        &cal,
        &passes,
        generated,
        &inputs,
        &cells,
    );
    report
}

/// Writes spans as JSON lines, one per span.
fn write_spans(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        fs::create_dir_all(dir)?;
    }
    let mut out = String::new();
    for s in spans {
        let _ = writeln!(
            out,
            "{{\"repeat\":{},\"cell\":\"{}\",\"span\":\"{}\",\"parent\":{},\"start_ns\":{},\"dur_ns\":{}}}",
            s.repeat,
            s.cell,
            s.name,
            if s.name == "cell" { "null" } else { "\"cell\"" },
            s.start_ns,
            s.dur_ns
        );
    }
    fs::write(path, out)
}

/// Reports every per-layer figure; layers a workload does not exercise
/// report 0.
fn metrics(
    report: &mut Report,
    workload: Workload,
    cal: &ClockCal,
    passes: &[Layers],
    generated: (u64, u64),
    inputs: &[Input],
    cells: &[Cell],
) {
    let n = passes.len() as u64;
    let first = &passes[0];
    let ms = |ns: f64| ns / 1e6;

    let build_ms = med(passes, |p| ms((p.build_ns + generated.0) as f64));
    let ops = (first.ops + generated.1) as f64;
    report.metric("workloads.build_ms", build_ms, "ms", n);
    report.metric("workloads.ops", ops, "count", 1);
    report.metric("workloads.ns_per_op", ratio(build_ms * 1e6, ops), "ns", n);

    let oracle_ms = med(passes, |p| ms(p.oracle_ns as f64));
    report.metric("oracle.build_ms", oracle_ms, "ms", n);
    report.metric("oracle.refs", first.oracle_refs as f64, "count", 1);
    report.metric(
        "oracle.ns_per_ref",
        ratio(oracle_ms * 1e6, first.oracle_refs as f64),
        "ns",
        n,
    );

    let hook_ms = |p: &Layers| -> f64 { p.tallies.iter().map(|t| ms(cal.hook_ns(t))).sum() };
    let self_ms = med(passes, |p| ms(p.run_ns as f64) - hook_ms(p));
    report.metric(
        "engine.new_ms",
        med(passes, |p| ms(p.new_ns as f64)),
        "ms",
        n,
    );
    report.metric(
        "engine.run_ms",
        med(passes, |p| ms(p.run_ns as f64)),
        "ms",
        n,
    );
    report.metric("engine.self_ms", self_ms, "ms", n);
    report.metric(
        "engine.self_ns_per_event",
        ratio(self_ms * 1e6, first.events as f64),
        "ns",
        n,
    );
    report.metric("engine.events", first.events as f64, "count", 1);
    report.metric("engine.mem_accesses", first.mem_accesses as f64, "count", 1);
    report.metric("engine.faults", first.faults as f64, "count", 1);
    report.metric("engine.evictions", first.evictions as f64, "count", 1);
    report.metric("engine.sim_cycles", first.cycles as f64, "cycles", 1);
    report.metric(
        "engine.l1_hit_rate",
        ratio(first.l1.0 as f64, first.l1.1 as f64),
        "frac",
        1,
    );
    report.metric(
        "engine.l2_hit_rate",
        ratio(first.l2.0 as f64, first.l2.1 as f64),
        "frac",
        1,
    );

    let mut unresolved = 0u64;
    for kind in PolicyKind::ALL {
        let i = policy_index(kind);
        let tally = first.tallies[i];
        let label = kind.label();
        for hook in [
            Hook::OnAccess,
            Hook::OnWalkHit,
            Hook::OnFault,
            Hook::SelectVictim,
        ] {
            report.metric(
                format!("policy.{label}.calls.{}", hook.label()),
                tally.calls(hook) as f64,
                "count",
                1,
            );
        }
        let hook_ms = med(passes, |p| ms(cal.hook_ns(&p.tallies[i])));
        let per_call = ratio(hook_ms * 1e6, tally.total_calls() as f64);
        report.metric(format!("policy.{label}.hook_ms"), hook_ms, "ms", n);
        let note = if tally.total_calls() > 0 && !cal.resolves(per_call) {
            unresolved += 1;
            format!("unresolved: below the {:.1} ns timer cost", cal.pair_ns)
        } else {
            String::new()
        };
        report.metric_noted(
            format!("policy.{label}.ns_per_call"),
            per_call,
            "ns",
            n,
            note,
        );
    }

    let h = first.hpe;
    report.metric("hpe.search_comparisons", h.comparisons as f64, "count", 1);
    report.metric(
        "hpe.comparisons_per_selection",
        ratio(h.comparisons as f64, h.selections as f64),
        "count",
        1,
    );
    report.metric("hpe.hir_flushes", h.flushes as f64, "count", 1);
    report.metric(
        "hpe.hir_entries_per_flush",
        ratio(h.entries as f64, h.flushes as f64),
        "count",
        1,
    );
    report.metric(
        "hpe.hir_conflict_frac",
        ratio(h.conflicts as f64, (h.entries + h.conflicts) as f64),
        "frac",
        1,
    );
    report.metric(
        "hpe.wrong_eviction_frac",
        ratio(h.wrong_evictions as f64, h.evictions as f64),
        "frac",
        1,
    );
    let slow = if workload == Workload::Grid {
        slowdowns(inputs, cells, &first.stats, PolicyKind::Hpe)
    } else {
        [0.0, 0.0]
    };
    report.metric("hpe.slowdown_vs_ideal_75", slow[0], "x", 1);
    report.metric("hpe.slowdown_vs_ideal_50", slow[1], "x", 1);

    for sink in Sink::ALL {
        let i = sink as usize;
        let overhead = med(passes, |p| p.rerun_extra_ns[1 + i] as f64);
        report.metric_noted(
            format!("observers.{}.overhead_ns_per_event", sink.label()),
            ratio(overhead, first.events as f64),
            "ns",
            n,
            format!("{} sink events", first.sink_events[i]),
        );
    }

    let pool = |f: fn(&PoolFigures) -> f64| med(passes, |p| p.pool.as_ref().map_or(0.0, f));
    let w1 = pool(|f| f.wall_w1_ns as f64 / 1e9);
    let w2 = pool(|f| f.wall_w2_ns as f64 / 1e9);
    report.metric("campaign.wall_s_w1", w1, "s", n);
    report.metric("campaign.wall_s_w2", w2, "s", n);
    report.metric(
        "campaign.scaling_eff",
        ratio(w1, GRID_WORKERS as f64 * w2),
        "frac",
        n,
    );
    report.metric("campaign.idle_frac", pool(|f| f.idle_frac), "frac", n);

    report.metric("clock.bias_ns", cal.bias_ns, "ns", 1);
    report.metric("clock.pair_ns", cal.pair_ns, "ns", 1);
    report.metric("clock.unresolved_figures", unresolved as f64, "count", 1);
    report.metric(
        "trace.overhead_frac",
        med(passes, |p| {
            ratio(p.rerun_extra_ns[0] as f64, p.rerun_base_ns[0] as f64)
        }),
        "frac",
        n,
    );
    report.metric(
        "spans.remainder_frac",
        med(passes, |p| ratio(p.remainder_ns as f64, p.cell_ns as f64)),
        "frac",
        n,
    );
}
