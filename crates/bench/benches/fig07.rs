//! Fig. 7 — HPE's sensitivity to page set size (8 / 16 / 32), interval 64.
//!
//! Methodology follows Section V-A: dynamic adjustment off, eviction
//! strategy selected manually per application, ideal hit transfer (no HIR
//! latency). Reported as average IPC per pattern type normalized to page
//! set size 8. Paper shape: all three sizes within ~10% of each other.

use hpe_bench::{bench_config, f3, manual_strategy_for, mean, run, save_json, RunSpec, Table};
use hpe_core::HpeConfig;
use uvm_types::Oversubscription;
use uvm_util::json;
use uvm_workloads::{registry, PatternType};

fn sensitivity_spec(page_set_size: u32, interval_len: u32, app: &uvm_workloads::App) -> RunSpec {
    let mut cfg = HpeConfig::paper_default();
    cfg.page_set_size = page_set_size;
    cfg.interval_len = interval_len;
    cfg.fifo_depth = 2 * interval_len;
    cfg.wrong_eviction_trigger = page_set_size;
    cfg.small_footprint_sets = 4 * page_set_size;
    cfg.use_hir = false;
    cfg.dynamic_adjustment = false;
    cfg.forced_strategy = Some(manual_strategy_for(app));
    RunSpec {
        hpe: Some(cfg),
        ..RunSpec::default()
    }
}

fn main() {
    let cfg = bench_config();
    let rate = Oversubscription::Rate75;
    let sizes = [8u32, 16, 32];

    // ipc[size_idx][pattern_idx] = mean IPC over that pattern's apps.
    let mut per_pattern: Vec<Vec<f64>> = vec![Vec::new(); sizes.len()];
    let mut json = Vec::new();
    for (si, &size) in sizes.iter().enumerate() {
        for pattern in PatternType::ALL {
            let ipcs: Vec<f64> = registry::by_pattern(pattern)
                .into_iter()
                .map(|app| {
                    let spec = sensitivity_spec(size, 64, app);
                    run(&cfg, app, rate, &spec)
                        .expect("bench run")
                        .result
                        .stats
                        .ipc()
                })
                .collect();
            per_pattern[si].push(mean(&ipcs));
        }
    }

    let mut t = Table::new(
        "Fig. 7: HPE sensitivity to page set size (avg IPC per type, normalized to size 8)",
        &["pattern", "size 8", "size 16", "size 32"],
    );
    for (pi, pattern) in PatternType::ALL.iter().enumerate() {
        let base = per_pattern[0][pi];
        let norm: Vec<f64> = (0..sizes.len())
            .map(|si| {
                if base > 0.0 {
                    per_pattern[si][pi] / base
                } else {
                    0.0
                }
            })
            .collect();
        t.row(vec![
            format!("Type {}", pattern.roman()),
            f3(norm[0]),
            f3(norm[1]),
            f3(norm[2]),
        ]);
        json.push(json!({
            "pattern": pattern.roman(),
            "normalized_ipc": norm,
        }));
    }
    t.print();
    println!("paper reference: differences within ~10%; the paper selects 16");
    save_json("fig07", &json);
}
