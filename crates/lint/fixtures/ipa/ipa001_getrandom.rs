//! Seeded IPA001: a seed drawn from the OS entropy pool through
//! `getrandom` escapes one helper return into a trace fingerprint.

fn fresh_seed() -> u64 {
    getrandom::u64().unwrap_or(0)
}

fn publish(events: &[u64]) -> u64 {
    let seed = fresh_seed();
    fingerprint_of(seed, events, 2, 3)
}
