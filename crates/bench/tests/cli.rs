//! The CLI rejects flags it does not know before it runs anything.

use std::process::Command;

#[test]
fn unknown_flags_exit_2_without_writing_results() {
    let dir = std::env::temp_dir().join(format!("coyote-bench-cli-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    for args in [
        &["table1", "--timng"][..],
        &["--quick", "table1"],
        &["table1", "--threads"],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_coyote-bench"))
            .args(args)
            .current_dir(&dir)
            .output()
            .unwrap();
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("usage: coyote-bench"), "{args:?}: {stderr}");
        assert!(!dir.join("results").exists(), "{args:?} wrote results/");
    }
    std::fs::remove_dir_all(&dir).unwrap();
}
