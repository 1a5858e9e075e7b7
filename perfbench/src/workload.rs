//! The benchmark's workloads: which inputs they generate and which cells
//! (input x policy x rate) they run.

use hpe_bench::{grid_key, PolicyKind};
use uvm_sim::{trace_for, DEFAULT_TILE};
use uvm_types::{Oversubscription, SimConfig};
use uvm_util::Rng;
use uvm_workloads::{registry, App, BuildError, CustomWorkload, Trace, WorkloadBuilder};

use crate::stats::digest;

/// The type II/V applications `hpe-thrash` runs.
pub const THRASH_APPS: [&str; 6] = ["GEM", "SRD", "HSD", "MRQ", "STN", "SGM"];

/// Synthesized workloads in `synth-large`.
pub const SYNTH_WORKLOADS: usize = 4;

/// Footprint of every synthesized workload, in pages: 4x KMN, the
/// largest registry application.
pub const SYNTH_FOOTPRINT: u64 = 16_384;

/// Compute instructions per op of the synthesized traces.
const SYNTH_COMPUTE: u16 = 4;

/// Worker threads of the `grid` campaign.
pub const GRID_WORKERS: usize = 2;

/// A named benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The full clean campaign: 23 apps x 7 policies x 2 rates on the
    /// campaign worker pool.
    Grid,
    /// HPE alone, serial, on the type II/V apps at both rates.
    HpeThrash,
    /// LRU and Ideal, serial, at 75% on seeded ~16k-page synthetic traces.
    SynthLarge,
}

impl Workload {
    /// Every workload.
    pub const ALL: [Workload; 3] = [Workload::Grid, Workload::HpeThrash, Workload::SynthLarge];

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Grid => "grid",
            Workload::HpeThrash => "hpe-thrash",
            Workload::SynthLarge => "synth-large",
        }
    }

    /// Where the run seed goes on this workload.
    pub fn seed_note(self) -> &'static str {
        match self {
            Workload::Grid => {
                "registry traces are fixed per app by design; the seed only reaches the \
                 campaign spec (its fingerprint), and clean cells do not depend on it"
            }
            Workload::HpeThrash => {
                "registry traces are fixed per app by design; the seed changes no input here"
            }
            Workload::SynthLarge => {
                "the seed drives trace synthesis: same seed, same trace digests"
            }
        }
    }

    /// Timed passes a run makes at least. The tail percentile is chosen
    /// from this count, so it is the same on every host.
    pub fn min_passes(self) -> usize {
        match self {
            Workload::Grid => 4,
            Workload::HpeThrash => 20,
            Workload::SynthLarge => 25,
        }
    }

    /// Threads a timed pass runs on.
    pub fn threads(self) -> usize {
        match self {
            Workload::Grid => GRID_WORKERS,
            Workload::HpeThrash | Workload::SynthLarge => 1,
        }
    }

    /// Whether set-up builds the per-warp traces. The serial workloads
    /// generate each input's trace once and reuse it in every cell; `grid`
    /// cells build theirs inside the campaign, as campaign cells do.
    pub fn prebuilds_traces(self) -> bool {
        self != Workload::Grid
    }

    /// Generates the workload's inputs from `seed`.
    ///
    /// # Errors
    ///
    /// Returns a description of a workload that fails to build.
    pub fn inputs(self, seed: u64) -> Result<Vec<Input>, String> {
        match self {
            Workload::Grid => Ok(registry::all().iter().map(Input::App).collect()),
            Workload::HpeThrash => THRASH_APPS
                .iter()
                .map(|abbr| {
                    registry::by_abbr(abbr)
                        .map(Input::App)
                        .ok_or_else(|| format!("unknown app {abbr}"))
                })
                .collect(),
            Workload::SynthLarge => {
                let mut rng = Rng::seed_from_u64(seed);
                (0..SYNTH_WORKLOADS)
                    .map(|i| {
                        let s = rng.next_u64();
                        synthesize(i, s)
                            .map(|w| Input::Synth(w, s))
                            .map_err(|e| format!("synth-{i}: {e}"))
                    })
                    .collect()
            }
        }
    }

    /// The workload's cells over `inputs`, in campaign grid order
    /// (inputs x policies x rates).
    pub fn cells(self, inputs: &[Input]) -> Vec<Cell> {
        let (policies, rates): (&[PolicyKind], &[Oversubscription]) = match self {
            Workload::Grid => (
                &PolicyKind::ALL,
                &[Oversubscription::Rate75, Oversubscription::Rate50],
            ),
            Workload::HpeThrash => (
                &[PolicyKind::Hpe],
                &[Oversubscription::Rate75, Oversubscription::Rate50],
            ),
            Workload::SynthLarge => (
                &[PolicyKind::Lru, PolicyKind::Ideal],
                &[Oversubscription::Rate75],
            ),
        };
        let mut cells = Vec::new();
        for input in 0..inputs.len() {
            for &policy in policies {
                for &rate in rates {
                    cells.push(Cell {
                        input,
                        policy,
                        rate,
                    });
                }
            }
        }
        cells
    }
}

/// Builds synthetic workload `index`: hot-mix, sweep, irregular and
/// region-moving phases over regions summing to [`SYNTH_FOOTPRINT`]. The
/// sweep region is larger than GPU memory at 75%, so it thrashes under
/// LRU. Region sizes and phase shapes are fixed, so every seed does about
/// the same work; the seed drives the stochastic phases only.
fn synthesize(index: usize, seed: u64) -> Result<CustomWorkload, BuildError> {
    let hot = 512;
    let irregular = 1536;
    let sweep = 13_312;
    let moving = SYNTH_FOOTPRINT - hot - irregular - sweep;
    WorkloadBuilder::new(format!("synth-{index}"))
        .seed(seed)
        .region("hot", hot)
        .region("sweep", sweep)
        .region("irregular", irregular)
        .region("moving", moving)
        .hot_mix("sweep", "hot", 8, 2)?
        .sweeps("sweep", 2)?
        .irregular("irregular", 512, 3)?
        .region_moving("moving", 4, 3)?
        .hot_mix("irregular", "hot", 8, 1)?
        .build()
}

/// One generated input.
#[derive(Debug, Clone)]
pub enum Input {
    /// A registry application (trace fixed per app).
    App(&'static App),
    /// A synthesized workload and the seed it was built from.
    Synth(CustomWorkload, u64),
}

impl Input {
    /// Display name (app abbreviation or synthetic workload name).
    pub fn name(&self) -> &str {
        match self {
            Input::App(app) => app.abbr(),
            Input::Synth(w, _) => w.name(),
        }
    }

    /// Footprint in pages.
    pub fn footprint_pages(&self) -> u64 {
        match self {
            Input::App(app) => app.footprint_pages(),
            Input::Synth(w, _) => w.footprint_pages(),
        }
    }

    /// Seed for the Random policy: the app's own seed, as the campaign
    /// runner uses, or the synthesis seed.
    pub fn policy_seed(&self) -> u64 {
        match self {
            Input::App(app) => app.seed(),
            Input::Synth(_, seed) => *seed,
        }
    }

    /// Distinct pages the input touches: the compulsory faults of any
    /// policy.
    pub fn distinct_pages(&self) -> u64 {
        let refs = match self {
            Input::App(app) => app.global_sequence(),
            Input::Synth(w, _) => w.global_sequence().to_vec(),
        };
        let mut seen = vec![false; self.footprint_pages() as usize];
        for r in refs {
            if let Some(s) = seen.get_mut(r as usize) {
                *s = true;
            }
        }
        seen.iter().filter(|s| **s).count() as u64
    }

    /// Digest of the global page-reference sequence.
    pub fn digest(&self) -> u64 {
        match self {
            Input::App(app) => digest(&app.global_sequence()),
            Input::Synth(w, _) => digest(w.global_sequence()),
        }
    }

    /// Distributes the input over `cfg`'s warps: the workloads layer's
    /// per-cell call.
    pub fn trace(&self, cfg: &SimConfig) -> Trace {
        match self {
            Input::App(app) => trace_for(cfg, app),
            Input::Synth(w, _) => {
                w.trace(cfg.n_sms * cfg.warps_per_sm, DEFAULT_TILE, SYNTH_COMPUTE)
            }
        }
    }
}

/// One grid cell: an input under a policy at a rate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Cell {
    /// Index into the workload's inputs.
    pub input: usize,
    /// Eviction policy.
    pub policy: PolicyKind,
    /// Oversubscription rate.
    pub rate: Oversubscription,
}

impl Cell {
    /// The campaign grid key of this cell (`app/policy/rate/clean`).
    pub fn key(&self, inputs: &[Input]) -> String {
        grid_key(
            inputs[self.input].name(),
            self.policy.label(),
            &self.rate.label(),
            "clean",
        )
    }
}
