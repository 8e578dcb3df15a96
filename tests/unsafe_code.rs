//! `unsafe` stays where it is reviewed (tier-1).
//!
//! Every crate root of the workspace, the vendored stand-ins included,
//! forbids `unsafe_code`, except the crates in [`EXCEPTIONS`]. Each denies
//! it, and one hardware module allows it for the calls into CPU
//! instructions that run-time detection found. The word `unsafe` appears
//! in no other file of those crates.

use std::path::{Path, PathBuf};

/// The crates that deny `unsafe_code` instead of forbidding it, each with
/// the one module under its `src` that allows it.
const EXCEPTIONS: [(&str, &str); 2] = [
    // The CPU's AES instructions.
    ("crates/apps", "aes/ni.rs"),
    // The CPU's carry-less multiply, for CRC-32.
    ("crates/fabric", "crc/clmul.rs"),
];

fn workspace() -> PathBuf {
    PathBuf::from(format!("{}/../..", env!("CARGO_MANIFEST_DIR")))
}

fn read(path: &Path) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

fn entries(dir: &Path) -> Vec<PathBuf> {
    let mut paths: Vec<PathBuf> = std::fs::read_dir(dir)
        .unwrap_or_else(|e| panic!("{}: {e}", dir.display()))
        .map(|entry| entry.unwrap().path())
        .collect();
    paths.sort();
    paths
}

/// Every `.rs` file under `dir`, sorted.
fn rust_files(dir: &Path) -> Vec<PathBuf> {
    let mut files = Vec::new();
    for path in entries(dir) {
        if path.is_dir() {
            files.extend(rust_files(&path));
        } else if path.extension().is_some_and(|e| e == "rs") {
            files.push(path);
        }
    }
    files
}

/// The crate roots of `crates/*` and `vendor/*`: each library, binary and
/// `src/bin` tool.
fn crate_roots() -> Vec<PathBuf> {
    let mut roots = Vec::new();
    let members = [
        entries(&workspace().join("crates")),
        entries(&workspace().join("vendor")),
    ];
    for krate in members.concat() {
        let src = krate.join("src");
        roots.extend(
            [src.join("lib.rs"), src.join("main.rs")]
                .into_iter()
                .filter(|p| p.exists()),
        );
        if src.join("bin").is_dir() {
            roots.extend(rust_files(&src.join("bin")));
        }
    }
    roots
}

#[test]
fn every_crate_root_forbids_unsafe_code_but_the_exceptions_deny_it() {
    let roots = crate_roots();
    let denying: Vec<PathBuf> = EXCEPTIONS
        .iter()
        .map(|(krate, _)| workspace().join(krate).join("src/lib.rs"))
        .collect();
    for lib in &denying {
        assert!(roots.contains(lib), "{} is not a crate root", lib.display());
    }
    assert!(roots.contains(&workspace().join("crates/bench/src/main.rs")));
    assert!(roots.len() >= 24, "found only {roots:?}");
    for root in roots {
        let want = if denying.contains(&root) {
            "#![deny(unsafe_code)]"
        } else {
            "#![forbid(unsafe_code)]"
        };
        assert!(
            read(&root).lines().any(|line| line.trim() == want),
            "{} lacks {want}",
            root.display()
        );
    }
}

/// In the exception crate `krate`, only its hardware module and the deny
/// line of its root mention `unsafe`.
fn unsafe_lives_only_in_the_hardware_module_of(krate: &str) {
    let (_, module) = EXCEPTIONS
        .iter()
        .find(|(k, _)| *k == krate)
        .unwrap_or_else(|| panic!("{krate} is not an exception"));
    let src = workspace().join(krate).join("src");
    let hardware = src.join(module);
    let lib = src.join("lib.rs");
    let files = rust_files(&src);
    assert!(files.contains(&hardware) && files.contains(&lib));
    for file in files {
        let text = read(&file);
        let mentions: Vec<&str> = text.lines().filter(|l| l.contains("unsafe")).collect();
        if file == hardware {
            assert!(
                mentions.iter().any(|l| l.contains("unsafe {")),
                "the hardware module calls its target-feature functions"
            );
        } else if file == lib {
            assert_eq!(mentions, ["#![deny(unsafe_code)]"], "{}", file.display());
        } else {
            assert!(mentions.is_empty(), "{}: {mentions:?}", file.display());
        }
    }
}

#[test]
fn apps_unsafe_lives_only_in_the_hardware_aes_module() {
    unsafe_lives_only_in_the_hardware_module_of("crates/apps");
}

#[test]
fn fabric_unsafe_lives_only_in_the_hardware_crc_module() {
    unsafe_lives_only_in_the_hardware_module_of("crates/fabric");
}
