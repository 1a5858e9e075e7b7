//! Ablation study (beyond the paper): what each HPE mechanism contributes.
//!
//! Disables one mechanism at a time — HIR-batched hit transfer (replaced
//! by ideal immediate transfer), page set division, dynamic adjustment —
//! and measures the IPC change against full HPE on the applications each
//! mechanism targets.

use hpe_bench::{bench_config, f3, run, run_policy, save_json, PolicyKind, RunSpec, Table};
use hpe_core::HpeConfig;
use uvm_types::Oversubscription;
use uvm_util::json;
use uvm_workloads::registry;

fn main() {
    let cfg = bench_config();
    let rate = Oversubscription::Rate75;
    let apps = [
        "HSD", "SRD", "STN", "GEM", // type II / MRU-C beneficiaries
        "NW", "MVT", // division targets
        "BFS", "HIS", "SAD", // adjustment targets
        "B+T", "KMN",
    ];

    type Variant = (&'static str, fn(&mut HpeConfig));
    let variants: [Variant; 4] = [
        ("no-division", |c| c.enable_division = false),
        ("no-adjustment", |c| c.dynamic_adjustment = false),
        ("no-partitions", |c| c.enable_partitions = false),
        ("ideal-transfer", |c| c.use_hir = false),
    ];

    let mut t = Table::new(
        "Ablation: IPC of each variant normalized to full HPE (75%)",
        &[
            "app",
            "full HPE IPC",
            "no-division",
            "no-adjustment",
            "no-partitions",
            "ideal-transfer",
            "LRU",
        ],
    );
    let mut json = Vec::new();
    for abbr in apps {
        let app = registry::by_abbr(abbr).expect("registered app");
        let full = run_policy(&cfg, app, rate, PolicyKind::Hpe).expect("bench run");
        let base_ipc = full.stats.ipc();
        let mut row = vec![abbr.to_string(), format!("{base_ipc:.5}")];
        let mut entry = json!({ "app": abbr, "full_ipc": base_ipc });
        for (name, tweak) in variants {
            let mut hpe_cfg = HpeConfig::from_sim(&cfg);
            tweak(&mut hpe_cfg);
            let spec = RunSpec {
                hpe: Some(hpe_cfg),
                ..RunSpec::default()
            };
            let r = run(&cfg, app, rate, &spec).expect("bench run").result;
            let norm = r.stats.ipc() / base_ipc;
            row.push(f3(norm));
            entry[name] = json!(norm);
        }
        let lru = run_policy(&cfg, app, rate, PolicyKind::Lru).expect("bench run");
        row.push(f3(lru.stats.ipc() / base_ipc));
        entry["lru"] = json!(lru.stats.ipc() / base_ipc);
        t.row(row);
        json.push(entry);
    }
    t.print();
    save_json("ablation", &json);
}
