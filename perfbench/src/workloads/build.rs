//! `build`: the shell and app build flows, and nothing else.
//!
//! Synth does almost all of the work here, so a placer or router change
//! shows on this workload (and on `paper_suite`) and nowhere else. The
//! shells are those of Table 3's three scenarios. A quarter of the ops
//! build a whole shell, three quarters link an app against a routed shell
//! checkpoint: a design choice (apps are rebuilt more often than shells,
//! which is what the app flow is for), not a ratio taken from a build log.
//! Every block takes its seed from the op stream, so no design repeats.

use super::{rng, Context, Mix, Workload};
use crate::trace::Recorder;
use coyote::build::{build_app, build_shell};
use coyote::platform::PlatformError;
use coyote::ShellConfig;
use coyote_fabric::BitstreamKind;
use coyote_mmu::MmuConfig;
use coyote_net::SnifferConfig;
use coyote_sim::Xorshift64Star;
use coyote_synth::flow::FlowError;
use coyote_synth::{Ip, IpBlock, ShellArtifacts};

/// One op: build base `usize` as a whole shell, or link an app of this IP
/// against base `usize`'s checkpoint.
#[derive(Clone, Copy)]
enum Kind {
    Shell(usize),
    App(usize, AppIp),
}

/// App IPs an op links. The memory-backed ones need the memory service
/// and are refused by the host-only shell.
#[derive(Clone, Copy)]
enum AppIp {
    Passthrough,
    Aes,
    VecAdd,
    VecProduct,
    Hll,
}

impl AppIp {
    fn ip(self) -> Ip {
        match self {
            AppIp::Passthrough => Ip::Passthrough,
            AppIp::Aes => Ip::Aes,
            AppIp::VecAdd => Ip::VecAdd,
            AppIp::VecProduct => Ip::VecProduct,
            AppIp::Hll => Ip::Hll,
        }
    }

    fn needs_memory(self) -> bool {
        matches!(self, AppIp::VecAdd | AppIp::VecProduct | AppIp::Hll)
    }
}

/// One of Table 3's three shells, which the ops build and link against.
struct Base {
    config: ShellConfig,
    /// The app IPs its regions hold when built as a shell.
    apps: Vec<Ip>,
    /// Its set-up build: the checkpoint apps link against.
    built: ShellArtifacts,
}

/// Every block of twelve ops builds each shell once and links three apps
/// against each checkpoint, one of them refused (a memory app on the
/// host-only shell), so every seed runs the same mix.
const MIX: [(Kind, usize); 12] = [
    (Kind::Shell(0), 1),
    (Kind::Shell(1), 1),
    (Kind::Shell(2), 1),
    (Kind::App(0, AppIp::Passthrough), 1),
    (Kind::App(0, AppIp::Aes), 1),
    (Kind::App(0, AppIp::VecAdd), 1),
    (Kind::App(1, AppIp::VecAdd), 1),
    (Kind::App(1, AppIp::VecProduct), 1),
    (Kind::App(1, AppIp::Hll), 1),
    (Kind::App(2, AppIp::Aes), 1),
    (Kind::App(2, AppIp::Passthrough), 1),
    (Kind::App(2, AppIp::Hll), 1),
];

/// The workload.
pub struct Build {
    rng: Xorshift64Star,
    mix: Mix<Kind>,
    bases: Vec<Base>,
    counting: bool,
    moves: u64,
    expansions: u64,
    shell_hours: Vec<f64>,
    app_savings: Vec<f64>,
}

fn shell_blocks(apps: &[Ip], rng: &mut Xorshift64Star) -> Vec<Vec<IpBlock>> {
    apps.iter()
        .map(|ip| vec![IpBlock::with_seed(ip.clone(), rng.next_u64())])
        .collect()
}

fn routed(built: &ShellArtifacts, config: &ShellConfig) -> Result<(), String> {
    if !built.checkpoint.routed {
        return Err("shell checkpoint is not routed".into());
    }
    if built.app_bitstreams.len() != config.n_vfpgas as usize {
        return Err(format!(
            "{} app bitstreams for {} vFPGAs",
            built.app_bitstreams.len(),
            config.n_vfpgas
        ));
    }
    Ok(())
}

impl Workload for Build {
    const COUNTED: u64 = 24;
    const COUNTED_QUICK: u64 = 4;
    const WARMUP: u64 = 2;

    fn setup(ctx: &Context) -> Result<Self, String> {
        let mut rng = rng(ctx.seed, 0xB0);
        let specs = [
            (
                ShellConfig::host_only(1).with_mmu(MmuConfig::huge_1g()),
                vec![Ip::Passthrough],
            ),
            (
                ShellConfig::host_memory(2, 16),
                vec![Ip::VecAdd, Ip::VecProduct],
            ),
            (
                ShellConfig::host_memory_network(1, 16).with_sniffer(SnifferConfig::default()),
                vec![Ip::Passthrough],
            ),
        ];
        let mut bases = Vec::new();
        for (config, apps) in specs {
            let built = build_shell(&config, shell_blocks(&apps, &mut rng))
                .map_err(|e| format!("set-up shell build: {e}"))?;
            routed(&built, &config)?;
            bases.push(Base {
                config,
                apps,
                built,
            });
        }
        Ok(Build {
            rng,
            mix: Mix::new(&MIX),
            bases,
            counting: false,
            moves: 0,
            expansions: 0,
            shell_hours: Vec::new(),
            app_savings: Vec::new(),
        })
    }

    fn op(&mut self, _i: u64, rec: &mut Recorder) -> Result<(), String> {
        match self.mix.next(&mut self.rng) {
            Kind::Shell(b) => {
                rec.set_kind("op.shell_flow");
                let base = &self.bases[b];
                let blocks = shell_blocks(&base.apps, &mut self.rng);
                let built = rec
                    .call("synth.shell_flow", || build_shell(&base.config, blocks))
                    .map_err(|e| format!("shell build: {e}"))?;
                rec.units(built.report.moves);
                routed(&built, &base.config)?;
                if self.counting {
                    self.moves += built.report.moves;
                    self.expansions += built.report.expansions;
                    self.shell_hours
                        .push(built.report.total.as_secs_f64() / 3600.0);
                }
            }
            Kind::App(b, app) => {
                rec.set_kind("op.app_flow");
                let base = &self.bases[b];
                let vfpga = self.rng.gen_range(u64::from(base.config.n_vfpgas)) as u8;
                let refused = app.needs_memory() && base.config.services.memory_channels == 0;
                let blocks = [IpBlock::with_seed(app.ip(), self.rng.next_u64())];
                let checkpoint = &base.built.checkpoint;
                let linked = rec.call("synth.app_flow", || build_app(&blocks, vfpga, checkpoint));
                match (linked, refused) {
                    (Ok(app), false) => {
                        rec.units(app.report.moves);
                        if app.bitstream.kind() != (BitstreamKind::App { vfpga }) {
                            return Err(format!(
                                "app bitstream for vFPGA {vfpga} is {:?}",
                                app.bitstream.kind()
                            ));
                        }
                        if self.counting {
                            self.moves += app.report.moves;
                            self.expansions += app.report.expansions;
                            let shell = base.built.report.total.as_secs_f64();
                            self.app_savings
                                .push(100.0 * (1.0 - app.report.total.as_secs_f64() / shell));
                        }
                    }
                    (Err(PlatformError::Flow(FlowError::MissingService { .. })), true) => {}
                    (Ok(_), true) => {
                        return Err("a memory-backed app linked against a host-only shell".into())
                    }
                    (Err(e), _) => return Err(format!("app build: {e}")),
                }
            }
        }
        Ok(())
    }

    fn begin_count(&mut self) {
        self.counting = true;
    }

    fn end_count(&mut self) -> Result<Vec<(&'static str, f64)>, String> {
        self.counting = false;
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
        Ok(vec![
            ("synth.moves", self.moves as f64),
            ("synth.expansions", self.expansions as f64),
            ("sim.build.shell_flow_h_mean", mean(&self.shell_hours)),
            ("sim.build.app_saving_pct", mean(&self.app_savings)),
        ])
    }
}
