//! The determinism gate's own tests.
//!
//! The gate is clippy: the workspace `clippy.toml` bans the std methods and
//! types through which hash order, the wall clock, ambient entropy, thread
//! interleaving or the environment can reach a result, and
//! `[workspace.lints.clippy]` turns on `iter_over_hash_type` and
//! `allow_attributes_without_reason`.
//!
//! [`hazards`] holds one hazard per `clippy.toml` entry, each under an
//! `#[expect]` that only that entry fulfils. It is compiled only by
//! `cargo clippy` (`cfg(clippy)`). If an entry goes missing, its
//! expectation goes unfulfilled and `cargo clippy --all-targets -- -D
//! warnings` fails on `unfulfilled_lint_expectations`.
//!
//! An `#[expect]` of an allow-by-default lint turns that lint on where it
//! stands, so the workspace lints cannot be checked that way: the test
//! below reads the manifests instead.

use std::path::Path;

/// The non-comment lines of one `[section]` of a TOML manifest.
fn section<'a>(manifest: &'a str, header: &str) -> Vec<&'a str> {
    manifest
        .lines()
        .map(str::trim)
        .skip_while(|l| *l != header)
        .skip(1)
        .take_while(|l| !l.starts_with('['))
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .collect()
}

fn read(path: &Path) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

#[test]
fn every_crate_inherits_the_workspace_determinism_lints() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let workspace = read(&root.join("Cargo.toml"));
    let lints = section(&workspace, "[workspace.lints.clippy]");
    for lint in ["iter_over_hash_type", "allow_attributes_without_reason"] {
        assert!(
            lints.contains(&format!("{lint} = \"warn\"").as_str()),
            "[workspace.lints.clippy] must warn on {lint}: {lints:?}"
        );
    }
    let mut manifests: Vec<_> = std::fs::read_dir(root.join("crates"))
        .unwrap()
        .map(|entry| entry.unwrap().path().join("Cargo.toml"))
        .filter(|m| m.exists())
        .collect();
    manifests.sort();
    assert!(manifests.len() > 1, "no crate manifests under {root:?}");
    for manifest in manifests {
        assert_eq!(
            section(&read(&manifest), "[lints]"),
            ["workspace = true"],
            "{} must inherit the workspace lints",
            manifest.display()
        );
    }
}

#[cfg(clippy)]
pub mod hazards {
    use std::collections::{HashMap, HashSet};

    fn map() -> HashMap<u32, u32> {
        HashMap::new()
    }

    fn set() -> HashSet<u32> {
        HashSet::new()
    }

    // Hash-order iteration.

    #[expect(clippy::iter_over_hash_type, reason = "gate fixture")]
    pub fn for_over_hash_map() {
        for _ in &map() {}
    }

    #[expect(clippy::disallowed_methods, reason = "gate fixture")]
    pub fn hash_map_iter() {
        let _ = map().iter();
    }

    #[expect(clippy::disallowed_methods, reason = "gate fixture")]
    pub fn hash_map_iter_mut() {
        let _ = map().iter_mut();
    }

    #[expect(clippy::disallowed_methods, reason = "gate fixture")]
    pub fn hash_map_keys() {
        let _ = map().keys();
    }

    #[expect(clippy::disallowed_methods, reason = "gate fixture")]
    pub fn hash_map_values() {
        let _ = map().values();
    }

    #[expect(clippy::disallowed_methods, reason = "gate fixture")]
    pub fn hash_map_values_mut() {
        let _ = map().values_mut();
    }

    #[expect(clippy::disallowed_methods, reason = "gate fixture")]
    pub fn hash_map_drain() {
        let _ = map().drain();
    }

    #[expect(clippy::disallowed_methods, reason = "gate fixture")]
    pub fn hash_map_retain() {
        map().retain(|_, _| true);
    }

    #[expect(clippy::disallowed_methods, reason = "gate fixture")]
    pub fn hash_map_into_keys() {
        let _ = map().into_keys();
    }

    #[expect(clippy::disallowed_methods, reason = "gate fixture")]
    pub fn hash_map_into_values() {
        let _ = map().into_values();
    }

    #[expect(clippy::disallowed_methods, reason = "gate fixture")]
    pub fn hash_set_iter() {
        let _ = set().iter();
    }

    #[expect(clippy::disallowed_methods, reason = "gate fixture")]
    pub fn hash_set_drain() {
        let _ = set().drain();
    }

    #[expect(clippy::disallowed_methods, reason = "gate fixture")]
    pub fn hash_set_retain() {
        set().retain(|_| true);
    }

    // Wall clock.

    #[expect(clippy::disallowed_methods, reason = "gate fixture")]
    pub fn instant_now() {
        let _ = std::time::Instant::now();
    }

    #[expect(clippy::disallowed_methods, reason = "gate fixture")]
    pub fn system_time_now() {
        let _ = std::time::SystemTime::now();
    }

    // Ambient entropy.

    #[expect(clippy::disallowed_types, reason = "gate fixture")]
    pub fn random_state() -> std::hash::RandomState {
        Default::default()
    }

    #[expect(clippy::disallowed_types, reason = "gate fixture")]
    pub fn hash_map_random_state() -> std::collections::hash_map::RandomState {
        Default::default()
    }

    // Atomics.

    #[expect(clippy::disallowed_types, reason = "gate fixture")]
    pub fn atomic_bool() -> std::sync::atomic::AtomicBool {
        Default::default()
    }

    #[expect(clippy::disallowed_types, reason = "gate fixture")]
    pub fn atomic_u8() -> std::sync::atomic::AtomicU8 {
        Default::default()
    }

    #[expect(clippy::disallowed_types, reason = "gate fixture")]
    pub fn atomic_u16() -> std::sync::atomic::AtomicU16 {
        Default::default()
    }

    #[expect(clippy::disallowed_types, reason = "gate fixture")]
    pub fn atomic_u32() -> std::sync::atomic::AtomicU32 {
        Default::default()
    }

    #[expect(clippy::disallowed_types, reason = "gate fixture")]
    pub fn atomic_u64() -> std::sync::atomic::AtomicU64 {
        Default::default()
    }

    #[expect(clippy::disallowed_types, reason = "gate fixture")]
    pub fn atomic_usize() -> std::sync::atomic::AtomicUsize {
        Default::default()
    }

    #[expect(clippy::disallowed_types, reason = "gate fixture")]
    pub fn atomic_i8() -> std::sync::atomic::AtomicI8 {
        Default::default()
    }

    #[expect(clippy::disallowed_types, reason = "gate fixture")]
    pub fn atomic_i16() -> std::sync::atomic::AtomicI16 {
        Default::default()
    }

    #[expect(clippy::disallowed_types, reason = "gate fixture")]
    pub fn atomic_i32() -> std::sync::atomic::AtomicI32 {
        Default::default()
    }

    #[expect(clippy::disallowed_types, reason = "gate fixture")]
    pub fn atomic_i64() -> std::sync::atomic::AtomicI64 {
        Default::default()
    }

    #[expect(clippy::disallowed_types, reason = "gate fixture")]
    pub fn atomic_isize() -> std::sync::atomic::AtomicIsize {
        Default::default()
    }

    #[expect(clippy::disallowed_types, reason = "gate fixture")]
    pub fn atomic_ptr() -> std::sync::atomic::AtomicPtr<u8> {
        Default::default()
    }

    // Threads.

    #[expect(clippy::disallowed_methods, reason = "gate fixture")]
    pub fn thread_spawn() {
        std::thread::spawn(|| ());
    }

    #[expect(clippy::disallowed_methods, reason = "gate fixture")]
    pub fn thread_builder_spawn() {
        let _ = std::thread::Builder::new().spawn(|| ());
    }

    pub fn thread_scope_spawn() {
        #[expect(clippy::disallowed_methods, reason = "gate fixture")]
        std::thread::scope(|scope| {
            #[expect(clippy::disallowed_methods, reason = "gate fixture")]
            scope.spawn(|| ());
        });
    }

    // Environment reads.

    #[expect(clippy::disallowed_methods, reason = "gate fixture")]
    pub fn env_var() {
        let _ = std::env::var("HOME");
    }

    #[expect(clippy::disallowed_methods, reason = "gate fixture")]
    pub fn env_var_os() {
        let _ = std::env::var_os("HOME");
    }

    #[expect(clippy::disallowed_methods, reason = "gate fixture")]
    pub fn env_vars() {
        let _ = std::env::vars();
    }

    #[expect(clippy::disallowed_methods, reason = "gate fixture")]
    pub fn env_vars_os() {
        let _ = std::env::vars_os();
    }

    // Lint attributes must say why.

    #[expect(clippy::allow_attributes_without_reason, reason = "gate fixture")]
    #[allow(unused_variables)]
    pub fn allow_without_reason() {}
}
