//! The `coyote-replay` CLI: record a deterministic storm run, replay a
//! recording against a fresh execution, or bisect two recordings to their
//! first divergent event.
//!
//! ```text
//! coyote-replay record [--ring N] [--seeds N] [--hops N] [--chaos SEED]
//!                      [--perturb IDX] <out.cyt>
//! coyote-replay verify [--json] <trace.cyt>
//! coyote-replay bisect [--json] <a.cyt> <b.cyt>
//!
//! record   run the storm and write the recording (platform topology by
//!          default; --ring N runs the N-shard ring instead, 2 <= N <= 8)
//! verify   re-execute the recording's config and assert per-event identity
//! bisect   find the first divergent EventKey of two recordings and print
//!          the DS007 diagnosis
//!
//! Exit status (the coyote-lint convention): 0 clean/identical, 1 a
//! divergence was found, 2 usage or I/O failure.
//! ```

use coyote_replay::{bisect, verify, Recording, StormConfig, StormTopology, MAX_RING};
use std::path::Path;
use std::process::ExitCode;

const USAGE: &str = "usage: coyote-replay <record|verify|bisect> [options] <path>...\n\
                     \x20 record [--ring N] [--seeds N] [--hops N] [--chaos SEED] \
                     [--perturb IDX] <out.cyt>\n\
                     \x20 verify [--json] <trace.cyt>\n\
                     \x20 bisect [--json] <a.cyt> <b.cyt>";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = args.split_first() else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    match cmd.as_str() {
        "record" => cmd_record(rest),
        "verify" => cmd_verify(rest),
        "bisect" => cmd_bisect(rest),
        "-h" | "--help" => {
            println!("{USAGE}");
            ExitCode::SUCCESS
        }
        other => {
            eprintln!("unknown command '{other}'\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

/// Parse the value of a `--flag N` pair.
fn flag_value(flag: &str, value: Option<&String>) -> Result<u64, String> {
    let v = value.ok_or_else(|| format!("{flag} needs a value"))?;
    v.parse::<u64>()
        .map_err(|_| format!("{flag}: '{v}' is not a non-negative integer"))
}

fn cmd_record(args: &[String]) -> ExitCode {
    let mut cfg = StormConfig::platform(64, 24);
    let mut out: Option<String> = None;

    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let parsed = match arg.as_str() {
            // The decoder's limits: a recording this accepts must decode.
            "--ring" => flag_value(arg, it.next()).and_then(|n| match usize::try_from(n) {
                Ok(n) if (2..=MAX_RING).contains(&n) => {
                    cfg.topology = StormTopology::Ring(n);
                    Ok(())
                }
                _ => Err(format!("--ring: {n} is outside 2..={MAX_RING}")),
            }),
            "--seeds" => flag_value(arg, it.next()).map(|n| cfg.seeds = n),
            "--hops" => flag_value(arg, it.next()).and_then(|n| {
                cfg.hops = u32::try_from(n).map_err(|_| format!("--hops: {n} overflows u32"))?;
                Ok(())
            }),
            "--chaos" => flag_value(arg, it.next()).map(|n| cfg.chaos_seed = Some(n)),
            "--perturb" => flag_value(arg, it.next()).map(|n| cfg.perturb = Some(n)),
            flag if flag.starts_with('-') => Err(format!("unknown option '{flag}'")),
            path => {
                if out.replace(path.to_string()).is_some() {
                    Err("record takes exactly one output path".to_string())
                } else {
                    Ok(())
                }
            }
        };
        if let Err(e) = parsed {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    }
    let Some(out) = out else {
        eprintln!("record needs an output path\n{USAGE}");
        return ExitCode::from(2);
    };

    let rec = Recording::record(cfg);
    if let Err(e) = rec.write_to(Path::new(&out)) {
        eprintln!("coyote-replay: {out}: {e}");
        return ExitCode::from(2);
    }
    println!(
        "recorded {} events, {} faults -> {out} (fingerprint {:016x})",
        rec.trace.len(),
        rec.faults.len(),
        rec.fingerprint()
    );
    ExitCode::SUCCESS
}

fn cmd_verify(args: &[String]) -> ExitCode {
    let mut json = false;
    let mut path: Option<String> = None;

    for arg in args {
        match arg.as_str() {
            "--json" => json = true,
            flag if flag.starts_with('-') => {
                eprintln!("unknown option '{flag}'\n{USAGE}");
                return ExitCode::from(2);
            }
            p => {
                if path.replace(p.to_string()).is_some() {
                    eprintln!("verify takes exactly one recording\n{USAGE}");
                    return ExitCode::from(2);
                }
            }
        }
    }
    let Some(path) = path else {
        eprintln!("verify needs a recording path\n{USAGE}");
        return ExitCode::from(2);
    };

    let rec = match Recording::read_from(Path::new(&path)) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("coyote-replay: {path}: {e}");
            return ExitCode::from(2);
        }
    };
    let outcome = verify(&rec);
    if json {
        println!(
            "{{\"recording\":{:?},\"fingerprint\":\"{:016x}\",\
             \"identical\":{},\"outcome\":{:?}}}",
            path,
            rec.fingerprint(),
            outcome.is_identical(),
            outcome.render(),
        );
    } else {
        println!("{}", outcome.render());
    }
    if outcome.is_identical() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn cmd_bisect(args: &[String]) -> ExitCode {
    let mut json = false;
    let mut paths: Vec<String> = Vec::new();
    for arg in args {
        match arg.as_str() {
            "--json" => json = true,
            flag if flag.starts_with('-') => {
                eprintln!("unknown option '{flag}'\n{USAGE}");
                return ExitCode::from(2);
            }
            p => paths.push(p.to_string()),
        }
    }
    if paths.len() != 2 {
        eprintln!("bisect takes exactly two recordings\n{USAGE}");
        return ExitCode::from(2);
    }

    let mut recs = Vec::with_capacity(2);
    for p in &paths {
        match Recording::read_from(Path::new(p)) {
            Ok(r) => recs.push(r),
            Err(e) => {
                eprintln!("coyote-replay: {p}: {e}");
                return ExitCode::from(2);
            }
        }
    }
    let unit = Path::new(&paths[0])
        .file_stem()
        .map(|s| s.to_string_lossy().into_owned())
        .unwrap_or_else(|| "recording".into());

    match bisect(&unit, &recs[0], &recs[1]) {
        None => {
            if json {
                println!("{{\"diverged\":false}}");
            } else {
                println!("identical: the two recordings agree on every event");
            }
            ExitCode::SUCCESS
        }
        Some(f) => {
            if json {
                println!(
                    "{{\"diverged\":true,\"stream\":{:?},\"index\":{},\"at_ps\":{},\
                     \"suspects\":[{}],\"report\":{}}}",
                    f.stream,
                    f.index,
                    f.at_ps,
                    f.suspects
                        .iter()
                        .map(|s| format!("{s:?}"))
                        .collect::<Vec<_>>()
                        .join(","),
                    f.report.render_json(),
                );
            } else {
                println!(
                    "first divergence: {} stream, index {} (t={}ps)",
                    f.stream, f.index, f.at_ps
                );
                print!("{}", f.report.render_human());
            }
            ExitCode::FAILURE
        }
    }
}
