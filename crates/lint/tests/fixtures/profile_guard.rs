//! Seeded profile-guard violation (lint fixture — never compiled).
//!
//! Impersonates engine code under `crates/sim/src/`: profiler
//! accumulation methods must sit behind the opt-in attachment guard.

pub struct Engine {
    profiler: Option<Profiler>,
    cycles: u64,
}

impl Engine {
    pub fn unguarded(&mut self, prof: &mut Profiler) {
        prof.charge(Account::SmStall, self.cycles);
    }

    pub fn guarded(&mut self) {
        if let Some(prof) = self.profiler.as_mut() {
            let walk = self.cycles / 2;
            prof.charge(Account::PageWalk, walk);
        }
    }

    pub fn annotated(&mut self, prof: &mut Profiler) {
        prof.open_span(1, 2); // lint:allow(profile-guard) — fixture: annotated sites exempt
    }

    // A guard of something else is no guard: only a `Some(<receiver>)`
    // binding counts.
    pub fn after_unrelated_guard(&mut self) {
        if let Some(fs) = self.faults.as_mut() {
            fs.tick();
        }
        self.scratch_profiler.charge(Account::SmStall, self.cycles);
    }

    pub fn after_presence_test(&mut self) {
        let done = self.faults.is_some();
        self.prof.open_span(1, u64::from(done));
    }
}
