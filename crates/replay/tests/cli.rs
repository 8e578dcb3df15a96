//! CLI contract tests for `coyote-replay`: exit codes (0 clean/identical,
//! 1 divergence, 2 usage or I/O failure) on the real binary.

use std::path::PathBuf;
use std::process::{Command, Output};

fn run(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_coyote-replay"))
        .args(args)
        .output()
        .expect("spawn coyote-replay")
}

fn code(out: &Output) -> i32 {
    out.status.code().expect("exit code")
}

/// A fresh output path for one test.
fn out_path(name: &str) -> String {
    let dir = std::env::temp_dir().join("coyote-replay-cli");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path: PathBuf = dir.join(name);
    path.to_string_lossy().into_owned()
}

#[test]
fn record_rejects_ring_sizes_the_decoder_rejects() {
    let path = out_path("ring.cyt");
    for ring in ["0", "1", "9"] {
        let out = run(&[
            "record", "--ring", ring, "--seeds", "4", "--hops", "2", &path,
        ]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(code(&out), 2, "--ring {ring}: {stderr}");
        assert!(stderr.contains("--ring"), "--ring {ring}: {stderr}");
    }
    for ring in ["2", "8"] {
        let out = run(&[
            "record", "--ring", ring, "--seeds", "4", "--hops", "2", &path,
        ]);
        assert_eq!(code(&out), 0, "--ring {ring}");
        assert_eq!(code(&run(&["verify", &path])), 0, "--ring {ring}");
    }
}

#[test]
fn record_rejects_hop_counts_beyond_u32() {
    let path = out_path("hops.cyt");
    let _ = std::fs::remove_file(&path);
    let out = run(&["record", "--seeds", "4", "--hops", "4294967297", &path]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(code(&out), 2, "{stderr}");
    assert!(stderr.contains("--hops"), "{stderr}");
    assert!(!std::path::Path::new(&path).exists(), "nothing recorded");
}

#[test]
fn clean_and_perturbed_recordings_bisect_to_the_perturbed_seed() {
    let (clean, perturbed) = (out_path("clean.cyt"), out_path("perturbed.cyt"));
    let small = ["--seeds", "8", "--hops", "3"];
    assert_eq!(
        code(&run(&[&["record"][..], &small, &[&clean]].concat())),
        0
    );
    let perturb = [&["record"][..], &small, &["--perturb", "5", &perturbed]].concat();
    assert_eq!(code(&run(&perturb)), 0);
    assert_eq!(code(&run(&["verify", &perturbed])), 0, "self-consistent");
    let out = run(&["bisect", "--json", &clean, &perturbed]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(code(&out), 1, "{stdout}");
    assert!(stdout.contains("\"index\":5"), "{stdout}");
    assert!(stdout.contains("DS001"), "{stdout}");
}
