//! Rust-analysis contract tests: the workspace's own scan (SRC and IPA
//! rules over one lex per file) is clean, fast and deterministic, and
//! randomly generated taint chains of any depth are found with the full
//! chain rendered.

use coyote_lint::{lint_rust_sources, lint_rust_tree};
use proptest::prelude::*;
use std::path::Path;
use std::time::Instant;

/// The workspace `crates/` root, from this crate's manifest dir.
fn workspace_crates() -> std::path::PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("crates/ parent")
        .to_path_buf()
}

#[test]
fn whole_workspace_scan_is_clean_of_unsuppressed_errors() {
    let r = lint_rust_tree(&workspace_crates()).expect("scan");
    assert!(
        !r.has_errors(),
        "the workspace must carry no unsuppressed determinism errors \
         (fix the hazard or annotate the sink):\n{}",
        r.render_human()
    );
}

#[test]
fn whole_workspace_scan_is_deterministic() {
    let root = workspace_crates();
    let a = lint_rust_tree(&root).expect("scan");
    let b = lint_rust_tree(&root).expect("scan");
    assert_eq!(a, b, "two scans of one tree must render identically");
}

#[test]
fn whole_workspace_scan_stays_interactive() {
    // The analyzer gates CI on every push: lexing and indexing all crates,
    // the SRC rules, the summary fixpoint and the sink scan must stay well
    // under a second even unoptimized. Warm the page cache with one
    // untimed scan first.
    let root = workspace_crates();
    let _ = lint_rust_tree(&root).expect("scan");
    let start = Instant::now();
    let _ = lint_rust_tree(&root).expect("scan");
    let elapsed = start.elapsed();
    assert!(
        elapsed.as_millis() < 500,
        "workspace scan took {} ms, budget is 500 ms",
        elapsed.as_millis()
    );
}

/// Build a synthetic workspace with a taint chain of exactly `depth` call
/// boundaries: `h0` iterates a HashMap, `h1..h{depth-1}` forward the
/// returned order, and `publish` feeds it to a fingerprint sink — with
/// `decoys` clean helper functions interleaved as resolution noise.
fn chain_source(depth: usize, decoys: usize, salt: u64) -> String {
    let mut src = String::from("use std::collections::HashMap;\n");
    src.push_str(&format!(
        "fn h0_{salt}(m: &HashMap<u32, u32>) -> Vec<u32> {{ m.keys().copied().collect() }}\n"
    ));
    for i in 1..depth {
        src.push_str(&format!(
            "fn h{i}_{salt}(m: &HashMap<u32, u32>) -> Vec<u32> {{ h{}_{salt}(m) }}\n",
            i - 1
        ));
    }
    for d in 0..decoys {
        src.push_str(&format!(
            "fn clean{d}_{salt}(x: u64) -> u64 {{ x.wrapping_mul({}) }}\n",
            salt | 1
        ));
    }
    src.push_str(&format!(
        "fn publish_{salt}(m: &HashMap<u32, u32>) -> u64 {{\n    \
         let order = h{}_{salt}(m);\n    fingerprint_of(1, &order, 2, 3)\n}}\n",
        depth - 1
    ));
    src
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn a_taint_chain_of_any_depth_is_found_with_its_full_chain(
        depth in 1usize..5,
        decoys in 0usize..4,
        salt in any::<u64>(),
    ) {
        let src = chain_source(depth, decoys, salt);
        let r = lint_rust_sources(&[("gen.rs".to_string(), src)]);
        let hits: Vec<_> = r.of_rule("IPA001").collect();
        prop_assert_eq!(hits.len(), 1, "exactly one IPA001:\n{}", r.render_human());
        let msg = &hits[0].message;
        let plural = if depth == 1 { "boundary" } else { "boundaries" };
        prop_assert!(
            msg.contains(&format!("across {depth} call {plural}")),
            "boundary count must equal the generated depth: {msg}"
        );
        // Every hop of the chain appears, in order, ending at the sink.
        let mut cursor = 0usize;
        for i in 0..depth {
            let hop = format!("h{i}_{salt} (");
            let at = msg[cursor..].find(&hop);
            prop_assert!(at.is_some(), "missing hop {hop} in: {msg}");
            cursor += at.unwrap();
        }
        prop_assert!(
            msg[cursor..].contains(&format!("publish_{salt} (")),
            "the enclosing fn closes the chain: {msg}"
        );
        prop_assert!(r.of_rule("IPA004").next().is_none(), "nothing is pub");
    }

    #[test]
    fn a_sorted_chain_of_any_depth_stays_clean(
        depth in 1usize..5,
        salt in any::<u64>(),
    ) {
        // Same chain, but the leaf sorts before returning: the sanitizer
        // must stop the taint no matter how many hops follow.
        let mut src = chain_source(depth, 0, salt);
        src = src.replace(
            "{ m.keys().copied().collect() }",
            "{\n    let mut v: Vec<u32> = m.keys().copied().collect();\n    \
             v.sort_unstable();\n    v\n}",
        );
        // The leaf's own SRC001 stays: sorting after the iteration is the
        // local judgment the per-file rule leaves to a human.
        let r = lint_rust_sources(&[("gen.rs".to_string(), src)]);
        prop_assert!(
            r.diagnostics.iter().all(|d| d.rule_id == "SRC001"),
            "{}",
            r.render_human()
        );
    }
}
