//! Seeded IPA001: the process environment, read through `env::vars`,
//! escapes one helper return into a trace fingerprint.
use std::collections::BTreeMap;

fn env_snapshot() -> BTreeMap<String, String> {
    std::env::vars().collect()
}

fn publish() -> u64 {
    let env = env_snapshot();
    fingerprint_of(1, &env, 2, 3)
}
