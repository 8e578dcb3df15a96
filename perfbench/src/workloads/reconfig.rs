//! `reconfig`: the control plane, with no synth and no data movement.
//!
//! Against a 4-vFPGA memory shell holding 16 app images (about 10 MB
//! each) and 3 shell images (37–65 MB), assembled in set-up, ops are:
//! 70% `CRcnfg::reconfigure_app_bytes` spread evenly over the 16 images,
//! 15% `CoyoteDriver::reconfigure_batched` on tenant drivers, 12% upload
//! admission through `Bitstream::from_bytes`, and 3%
//! `reconfigure_shell_bytes`. These shares are a design choice that gives
//! each control-plane layer a visible part of the time, not a model of
//! real traffic: the repository has no reconfiguration trace to take them
//! from. The faults follow `coyote-bench reconfig_storm`: every eighth
//! batched reconfiguration takes an in-flight bit flip on its second frame
//! run, every eighth upload is bit-flipped at the same rate (the
//! cache-miss, full-CRC path), and half of the reconfigurations read their
//! image from disk. Fabric validate/hash/copy, driver rings and retries,
//! and core glue do the work.

use super::{checks, rng, Context, Mix, Workload};
use crate::trace::Recorder;
use coyote::kernel::Passthrough;
use coyote::{CRcnfg, Platform, ShellConfig};
use coyote_chaos::{Domain, FaultPlan, RetryPolicy};
use coyote_driver::reconfig::ReconfigTiming;
use coyote_driver::CoyoteDriver;
use coyote_fabric::{Bitstream, BitstreamKind, Device, DeviceKind, Floorplan, PartitionId};
use coyote_sim::{SimTime, Xorshift64Star};

const VFPGAS: u8 = 4;
const DESIGNS_PER_VFPGA: u64 = 4;
const TENANTS: usize = 4;
/// Frame runs per batched submission, as in `reconfig_storm`: deep enough
/// for the ring writeback path, under the default 16 completion slots.
const RUNS_PER_BATCH: u64 = 8;
/// One in this many batched reconfigurations and uploads is faulted, the
/// share of tenants `reconfig_storm` faults.
const FAULT_EVERY: u64 = 8;

#[derive(Clone, Copy)]
enum Kind {
    App,
    Batched,
    Upload,
    Shell,
}

/// The workload.
pub struct Reconfig {
    rng: Xorshift64Star,
    mix: Mix<Kind>,
    platform: Platform,
    rcnfg: CRcnfg,
    /// App images, four designs per vFPGA; image `v * 4 + d` is vFPGA
    /// `v`'s design `d`.
    apps: Vec<Bitstream>,
    shells: Vec<Bitstream>,
    tenants: Vec<CoyoteDriver>,
    batched: u64,
    uploads: u64,
    next_shell: usize,
    counting: bool,
    rejected: u64,
    flips: u64,
    retried_runs: u64,
    timings: Vec<(SimTime, ReconfigTiming)>,
}

fn frames(profile: coyote_fabric::ShellProfile, id: PartitionId) -> u64 {
    let fp = Floorplan::preset(DeviceKind::U55C, profile, VFPGAS);
    Device::frames_for_tiles(fp.tiles_of(id).expect("preset partition"))
}

impl Workload for Reconfig {
    const COUNTED: u64 = 400;
    const COUNTED_QUICK: u64 = 40;
    const WARMUP: u64 = 20;

    fn setup(ctx: &Context) -> Result<Self, String> {
        let mut rng = rng(ctx.seed, 0xC0);
        let config = ShellConfig::host_memory(VFPGAS, 8);
        let mut platform = Platform::load(config.clone()).map_err(|e| e.to_string())?;
        let rcnfg = CRcnfg::new(&mut platform, 1);
        let mut apps = Vec::new();
        for v in 0..VFPGAS {
            let n = frames(config.profile(), PartitionId::Vfpga(v));
            for _ in 0..DESIGNS_PER_VFPGA {
                let bs = Bitstream::assemble(
                    DeviceKind::U55C,
                    BitstreamKind::App { vfpga: v },
                    n,
                    rng.next_u64(),
                );
                platform.register_app(bs.digest(), || Box::new(Passthrough::default()));
                apps.push(bs);
            }
        }
        let shells = [
            ShellConfig::host_only(VFPGAS),
            config,
            ShellConfig::host_memory_network(VFPGAS, 8),
        ]
        .into_iter()
        .map(|cfg| {
            let bs = Bitstream::assemble(
                DeviceKind::U55C,
                BitstreamKind::Shell,
                frames(cfg.profile(), PartitionId::Shell),
                cfg.digest(),
            );
            platform.register_shell(bs.digest(), cfg);
            bs
        })
        .collect();
        Ok(Reconfig {
            rng,
            mix: Mix::new(&[
                (Kind::App, 140),
                (Kind::Batched, 30),
                (Kind::Upload, 24),
                (Kind::Shell, 6),
            ]),
            platform,
            rcnfg,
            apps,
            shells,
            tenants: (0..TENANTS)
                .map(|_| CoyoteDriver::new(DeviceKind::U55C))
                .collect(),
            batched: 0,
            uploads: 0,
            next_shell: 0,
            counting: false,
            rejected: 0,
            flips: 0,
            retried_runs: 0,
            timings: Vec::new(),
        })
    }

    fn op(&mut self, _i: u64, rec: &mut Recorder) -> Result<(), String> {
        match self.mix.next(&mut self.rng) {
            Kind::App => {
                rec.set_kind("op.reconfig_app");
                let k = self.rng.gen_range(self.apps.len() as u64);
                let v = k / DESIGNS_PER_VFPGA;
                let bs = &self.apps[k as usize];
                let from_disk = self.rng.chance(0.5);
                let (p, rc) = (&mut self.platform, &self.rcnfg);
                let now = p.now();
                let timing = rec
                    .call("core.reconfig_app", || {
                        rc.reconfigure_app_bytes(p, bs.bytes(), v as u8, from_disk)
                    })
                    .map_err(|e| format!("app reconfiguration: {e}"))?;
                let loaded = self
                    .platform
                    .vfpga(v as u8)
                    .map_err(|e| e.to_string())?
                    .loaded_digest;
                if loaded != bs.digest() {
                    return Err(format!(
                        "vFPGA {v} holds {loaded:#x}, expected {:#x}",
                        bs.digest()
                    ));
                }
                if self.counting {
                    self.timings.push((now, timing));
                }
            }
            Kind::Shell => {
                rec.set_kind("op.reconfig_shell");
                let bs = &self.shells[self.next_shell % self.shells.len()];
                self.next_shell += 1;
                let (p, rc) = (&mut self.platform, &self.rcnfg);
                let now = p.now();
                let timing = rec
                    .call("core.reconfig_shell", || {
                        rc.reconfigure_shell_bytes(p, bs.bytes(), true)
                    })
                    .map_err(|e| format!("shell reconfiguration: {e}"))?;
                if self.platform.shell_digest() != bs.digest()
                    || self.platform.config().n_vfpgas != VFPGAS
                {
                    return Err(format!(
                        "shell {:#x} active, expected {:#x}",
                        self.platform.shell_digest(),
                        bs.digest()
                    ));
                }
                if self.counting {
                    self.timings.push((now, timing));
                }
            }
            Kind::Batched => {
                rec.set_kind("op.batched");
                let k = self.rng.gen_range(self.apps.len() as u64) as usize;
                let bs = &self.apps[k];
                let faulted = self.batched.is_multiple_of(FAULT_EVERY);
                self.batched += 1;
                let from_disk = self.rng.chance(0.5);
                let mut plan = FaultPlan::new(self.rng.next_u64());
                if faulted {
                    // Flip a bit of the second frame run in flight.
                    plan = plan.bitstream_flip_at(1, 8 * 64 + self.rng.gen_range(1 << 16));
                }
                let drv = &mut self.tenants[k % TENANTS];
                drv.attach_icap_chaos(plan.injector(Domain::Reconfig));
                let per_run = bs.frames().div_ceil(RUNS_PER_BATCH);
                let out = rec
                    .call("driver.batched", || {
                        drv.reconfigure_batched(
                            SimTime::ZERO,
                            bs.bytes(),
                            from_disk,
                            RetryPolicy::reconfig_default(),
                            Some(per_run),
                        )
                    })
                    .map_err(|e| format!("batched reconfiguration: {e}"))?;
                let BitstreamKind::App { vfpga } = bs.kind() else {
                    unreachable!("app images are app bitstreams")
                };
                let committed = drv
                    .config_state()
                    .image(PartitionId::Vfpga(vfpga))
                    .map(|img| img.digest);
                if committed != Some(bs.digest()) {
                    return Err(format!(
                        "tenant committed {committed:?}, expected {:#x}",
                        bs.digest()
                    ));
                }
                if out.recovered != faulted || (faulted && out.flips_detected == 0) {
                    return Err(format!(
                        "faulted={faulted} but recovered={} flips={}",
                        out.recovered, out.flips_detected
                    ));
                }
                if self.counting {
                    self.flips += u64::from(out.flips_detected);
                    self.retried_runs += u64::from(out.retried_runs);
                }
            }
            Kind::Upload => {
                rec.set_kind("op.upload");
                // Cycle through every image, so each seed uploads the same
                // bytes' worth; every eighth upload is corrupt.
                let k = (self.uploads % (self.apps.len() + self.shells.len()) as u64) as usize;
                let bs = self
                    .apps
                    .get(k)
                    .unwrap_or_else(|| &self.shells[k - self.apps.len()]);
                let corrupt = self.uploads.is_multiple_of(FAULT_EVERY);
                self.uploads += 1;
                let mut blob = bs.bytes().to_vec();
                if corrupt {
                    let bit = self.rng.gen_range(blob.len() as u64 * 8);
                    blob[(bit / 8) as usize] ^= 1 << (bit % 8);
                }
                let len = blob.len() as u64;
                let outcome = rec.call("fabric.validate", || Bitstream::from_bytes(blob));
                rec.units(len);
                checks::upload(&outcome, corrupt, bs.digest())?;
                if self.counting && outcome.is_err() {
                    self.rejected += 1;
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
        let n = self.timings.len().max(1) as f64;
        let mean_ms = |f: &dyn Fn(&(SimTime, ReconfigTiming)) -> f64| {
            self.timings.iter().map(f).sum::<f64>() / n
        };
        Ok(vec![
            ("fabric.uploads_rejected", self.rejected as f64),
            ("driver.flips_detected", self.flips as f64),
            ("driver.retried_runs", self.retried_runs as f64),
            (
                "sim.reconfig.disk_ms",
                mean_ms(&|(now, t)| t.read_done.since(*now).as_millis_f64()),
            ),
            (
                "sim.reconfig.copy_ms",
                mean_ms(&|(_, t)| t.copy_done.since(t.read_done).as_millis_f64()),
            ),
            (
                "sim.reconfig.icap_ms",
                mean_ms(&|(_, t)| t.kernel_latency.as_millis_f64()),
            ),
            (
                "sim.reconfig.total_ms",
                mean_ms(&|(_, t)| t.total_latency.as_millis_f64()),
            ),
        ])
    }
}
