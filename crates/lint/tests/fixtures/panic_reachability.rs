// Fixture: panic-reachability violations. Linted under the synthetic
// path crates/bench/src/fixture_panic.rs — outside the clippy panic-lint
// crates, so the call-graph rule judges it. `run_campaign` is a root;
// everything it transitively calls is on the hook.

pub fn run_campaign(n: u64) -> u64 {
    let mut total = 0;
    for i in 0..n {
        total += worker(i) + audited(i);
    }
    total
}

fn worker(i: u64) -> u64 {
    merge(i).unwrap()
}

fn merge(i: u64) -> Option<u64> {
    if i > 7 {
        panic!("mix overflow");
    }
    Some(i)
}

fn audited(i: u64) -> u64 {
    checked(i).unwrap() // lint:allow(panic-reachability) — bound checked above
}

fn checked(i: u64) -> Option<u64> {
    Some(i.min(7))
}

fn orphan() -> u64 {
    maybe().expect("unreachable from any root, never flagged")
}

fn maybe() -> Option<u64> {
    None
}
