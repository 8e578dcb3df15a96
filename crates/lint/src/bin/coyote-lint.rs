//! The `coyote-lint` CLI: one pass per shell spec.
//!
//! ```text
//! coyote-lint [OPTIONS] <PATH>...
//!
//! A .json PATH is a shell spec: the config and floorplan rules (CF, FP)
//! in one report. A directory's top-level .json files are linted as
//! shell specs, in sorted order.
//!
//! Options:
//!   --json          machine-readable JSON report on stdout
//!   --allow <RULE>  suppress a rule (repeatable)
//!   --deny <RULE>   promote a rule to error severity (repeatable)
//!   --catalog       print the rule catalog and exit
//!   -h, --help      this text
//!
//! Exit status: 0 clean or warnings only, 1 error-severity findings,
//! 2 usage or I/O failure, or a path with nothing to lint.
//! ```

#![forbid(unsafe_code)]

use coyote_lint::{lint_shell_spec, LintConfig, Report, ShellSpec};
use std::path::Path;
use std::process::ExitCode;

const USAGE: &str =
    "usage: coyote-lint [--json] [--allow RULE]... [--deny RULE]... [--catalog] <path>...";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut json = false;
    let mut config = LintConfig::new();
    let mut paths: Vec<String> = Vec::new();

    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--json" => json = true,
            "--catalog" => {
                print!("{}", coyote_lint::render_catalog());
                return ExitCode::SUCCESS;
            }
            "--allow" | "--deny" => {
                let Some(id) = it.next() else {
                    eprintln!("{arg} needs a rule id\n{USAGE}");
                    return ExitCode::from(2);
                };
                if coyote_lint::rule(id).is_none() {
                    eprintln!("unknown rule '{id}' (see --catalog)");
                    return ExitCode::from(2);
                }
                config = if arg == "--allow" {
                    config.allow(id)
                } else {
                    config.deny(id)
                };
            }
            "-h" | "--help" => {
                println!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            flag if flag.starts_with('-') => {
                eprintln!("unknown option '{flag}'\n{USAGE}");
                return ExitCode::from(2);
            }
            path => paths.push(path.to_string()),
        }
    }

    if paths.is_empty() {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    }

    // Reported per path, in argument order.
    let mut report = Report::new();
    for path in &paths {
        match lint_path(path) {
            Ok(r) => report.extend(r),
            Err(e) => {
                eprintln!("coyote-lint: {path}: {e}");
                return ExitCode::from(2);
            }
        }
    }
    let report = config.apply(report);

    if json {
        println!("{}", report.render_json());
    } else {
        print!("{}", report.render_human());
    }
    if report.has_errors() {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

/// Lint one spec, or every spec in a directory.
fn lint_path(path: &str) -> Result<Report, String> {
    let p = Path::new(path);
    let mut report = Report::new();
    if p.is_dir() {
        let mut specs: Vec<std::path::PathBuf> = std::fs::read_dir(p)
            .map_err(|e| e.to_string())?
            .filter_map(|entry| entry.ok().map(|e| e.path()))
            .filter(|path| path.extension().is_some_and(|ext| ext == "json"))
            .collect();
        if specs.is_empty() {
            return Err("directory holds no .json shell specs".to_string());
        }
        specs.sort();
        for spec in specs {
            report.extend(lint_spec_file(&spec)?);
        }
    } else if path.ends_with(".json") {
        report.extend(lint_spec_file(p)?);
    } else {
        return Err("unsupported path (expected a .json shell spec or a directory)".to_string());
    }
    Ok(report)
}

fn lint_spec_file(path: &Path) -> Result<Report, String> {
    let text = std::fs::read_to_string(path).map_err(|e| e.to_string())?;
    let spec = ShellSpec::from_json(&text).map_err(|e| format!("bad shell spec: {e}"))?;
    Ok(lint_shell_spec(&spec))
}
