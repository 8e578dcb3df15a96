//! `datapath`: the shell datapath, with fabric and synth idle.
//!
//! Four vFPGAs run the kernels of the paper's data-path experiments, two
//! cThreads each: AES-ECB (Fig. 8), AES-CBC (Fig. 10), HyperLogLog
//! (Fig. 11) and an HBM passthrough (Fig. 7a). One op is a round of eight
//! jobs, one per cThread: write a seeded fill, invoke, one shared
//! `Platform::drain`, read back. Job sizes are log-uniform from 4 KiB to
//! 2 MiB, a design choice that spans Fig. 10a's message sizes up to one
//! huge page. The CBC vFPGA maps its buffers with 4 KiB pages over 16 MiB,
//! twice the sTLB's reach, so its translations miss; the others use 2 MiB
//! pages. mmu, dma, sched, mem and the kernels do the work.

use super::{bytes, checks, rng, zeros, Context, LogSizes, Workload};
use crate::stats;
use crate::trace::Recorder;
use coyote::kernel::Passthrough;
use coyote::{CThread, Oper, Platform, SgEntry, ShellConfig};
use coyote_apps::{AesCbcKernel, AesEcbKernel, HllKernel};
use coyote_mem::PageSize;
use coyote_sim::Xorshift64Star;

const MIN_JOB: u64 = 4 << 10;
const MAX_JOB: u64 = 2 << 20;
/// Per-buffer span of the CBC vFPGA: two threads × (src + dst) × 4 MiB =
/// 16 MiB of 4 KiB pages.
const CBC_REGION: u64 = 4 << 20;
const PAGE_4K: u64 = 4 << 10;

#[derive(Clone, Copy, PartialEq, Eq)]
enum Kernel {
    Ecb,
    Cbc,
    Hll,
    Hbm,
}

/// One cThread and its buffers.
struct Lane {
    kernel: Kernel,
    thread: CThread,
    src: u64,
    dst: u64,
    /// Bytes each buffer spans; jobs land at seeded offsets within it.
    region: u64,
}

/// The workload.
pub struct Datapath {
    rng: Xorshift64Star,
    /// One job size from each eighth of the range per round.
    sizes: LogSizes,
    platform: Platform,
    lanes: Vec<Lane>,
    ecb_key: (u64, u64),
    cbc_key: (u64, u64),
    counting: bool,
    base: Counters,
    latencies_us: Vec<f64>,
    bytes_in: u64,
    sim_ns: f64,
}

/// Accessor counters read at the start and end of the counted ops.
#[derive(Clone, Copy, Default)]
struct Counters {
    stlb_misses: u64,
    ltlb_misses: u64,
    credit_stalls: u64,
    host_bytes: u64,
}

impl Counters {
    fn read(p: &Platform) -> Counters {
        let mut c = Counters {
            credit_stalls: p.credit_stalls(),
            host_bytes: {
                let (h2c, c2h) = p.host_bytes_moved();
                h2c + c2h
            },
            ..Counters::default()
        };
        for v in 0..p.config().n_vfpgas {
            let mmu = &p.vfpga(v).expect("configured vFPGA").mmu;
            c.stlb_misses += mmu.stlb().stats().misses;
            c.ltlb_misses += mmu.ltlb().stats().misses;
        }
        c
    }
}

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

impl Workload for Datapath {
    /// 125 rounds give 1000 completions, enough for a p99 with ten beyond.
    const COUNTED: u64 = 125;
    const COUNTED_QUICK: u64 = 125;
    const WARMUP: u64 = 10;

    fn setup(ctx: &Context) -> Result<Self, String> {
        let mut rng = rng(ctx.seed, 0xD0);
        let mut p = Platform::load(ShellConfig::host_memory(4, 8)).map_err(err)?;
        let kernels = [Kernel::Ecb, Kernel::Cbc, Kernel::Hll, Kernel::Hbm];
        let mut lanes = Vec::new();
        for (v, &kernel) in kernels.iter().enumerate() {
            let v = v as u8;
            p.load_kernel(
                v,
                match kernel {
                    Kernel::Ecb => Box::new(AesEcbKernel::new()),
                    Kernel::Cbc => Box::new(AesCbcKernel::new()),
                    Kernel::Hll => Box::new(HllKernel::new()),
                    Kernel::Hbm => Box::new(Passthrough::default()),
                },
            )
            .map_err(err)?;
            for _ in 0..2 {
                let t = CThread::create(&mut p, v, 100 + u32::from(v)).map_err(err)?;
                let (src, dst, region) = match kernel {
                    Kernel::Ecb => (
                        t.get_mem(&mut p, MAX_JOB).map_err(err)?,
                        t.get_mem(&mut p, MAX_JOB).map_err(err)?,
                        MAX_JOB,
                    ),
                    // A sink: the sketch is read over the control bus.
                    Kernel::Hll => (t.get_mem(&mut p, MAX_JOB).map_err(err)?, 0, MAX_JOB),
                    Kernel::Cbc => (
                        t.get_mem_paged(&mut p, CBC_REGION, PageSize::Small)
                            .map_err(err)?,
                        t.get_mem_paged(&mut p, CBC_REGION, PageSize::Small)
                            .map_err(err)?,
                        CBC_REGION,
                    ),
                    Kernel::Hbm => (
                        t.get_card_mem(&mut p, MAX_JOB).map_err(err)?,
                        t.get_card_mem(&mut p, MAX_JOB).map_err(err)?,
                        MAX_JOB,
                    ),
                };
                lanes.push(Lane {
                    kernel,
                    thread: t,
                    src,
                    dst,
                    region,
                });
            }
        }
        for lane in &lanes {
            let region = zeros(lane.region as usize);
            lane.thread.write(&mut p, lane.src, region).map_err(err)?;
            if lane.kernel != Kernel::Hll {
                lane.thread.write(&mut p, lane.dst, region).map_err(err)?;
            }
        }
        let ecb_key = (rng.next_u64(), rng.next_u64());
        let cbc_key = (rng.next_u64(), rng.next_u64());
        for lane in &lanes {
            let key = match lane.kernel {
                Kernel::Ecb => ecb_key,
                Kernel::Cbc => cbc_key,
                _ => continue,
            };
            lane.thread.set_csr(&mut p, key.0, 0).map_err(err)?;
            lane.thread.set_csr(&mut p, key.1, 1).map_err(err)?;
        }
        Ok(Datapath {
            rng,
            sizes: LogSizes::new(MIN_JOB, MAX_JOB, 64, 8),
            platform: p,
            lanes,
            ecb_key,
            cbc_key,
            counting: false,
            base: Counters::default(),
            latencies_us: Vec::new(),
            bytes_in: 0,
            sim_ns: 0.0,
        })
    }

    fn op(&mut self, _i: u64, rec: &mut Recorder) -> Result<(), String> {
        rec.set_kind("op.round");
        let p = &mut self.platform;
        // Fresh CBC chains and an empty sketch, so each round checks alone.
        let (cbc, hll) = (self.lanes[2].thread, self.lanes[4].thread);
        rec.call("core.set_csr", || {
            cbc.set_csr(p, 0, 2)?;
            hll.set_csr(p, 0, 2)
        })
        .map_err(err)?;

        let start = p.now();
        let mut jobs = Vec::with_capacity(self.lanes.len());
        let mut total = 0;
        for lane in &self.lanes {
            let len = self.sizes.next(&mut self.rng);
            let off = self.rng.gen_range((lane.region - len) / PAGE_4K + 1) * PAGE_4K;
            let data = bytes(&mut self.rng, len as usize);
            let t = lane.thread;
            rec.call("mem.write", || t.write(p, lane.src + off, &data))
                .map_err(err)?;
            rec.units(len);
            let (oper, sg) = if lane.kernel == Kernel::Hll {
                (Oper::LocalRead, SgEntry::source(lane.src + off, len))
            } else {
                (
                    Oper::LocalTransfer,
                    SgEntry::local(lane.src + off, lane.dst + off, len),
                )
            };
            let id = rec
                .call("core.invoke", || t.invoke(p, oper, &sg))
                .map_err(err)?;
            jobs.push((id, off, data));
            total += len;
        }
        let done = rec.call("core.drain", || p.drain()).map_err(err)?;
        rec.units(total);
        if done.len() != jobs.len()
            || jobs
                .iter()
                .any(|(id, ..)| !done.iter().any(|c| c.invocation == *id))
        {
            return Err(format!(
                "{} completions for {} jobs",
                done.len(),
                jobs.len()
            ));
        }

        let mut sketched = Vec::new();
        for (lane, (_, off, data)) in self.lanes.iter().zip(&jobs) {
            if lane.kernel == Kernel::Hll {
                sketched.push(data.as_slice());
                continue;
            }
            let t = lane.thread;
            let out = rec
                .call("mem.read", || t.read(p, lane.dst + off, data.len()))
                .map_err(err)?;
            rec.units(data.len() as u64);
            match lane.kernel {
                Kernel::Ecb => checks::aes_ecb(self.ecb_key, data, &out)?,
                Kernel::Cbc => checks::aes_cbc(self.cbc_key, data, &out)?,
                _ => checks::same_bytes("HBM passthrough output", data, &out)?,
            }
        }
        let estimate = rec
            .call("core.get_csr", || hll.get_csr(p, 0))
            .map_err(err)?;
        checks::hll(&sketched, estimate)?;

        if self.counting {
            let end = done.iter().map(|c| c.completed_at).max().unwrap_or(start);
            self.sim_ns += end.since(start).as_nanos_f64();
            self.bytes_in += done.iter().map(|c| c.bytes_in).sum::<u64>();
            self.latencies_us
                .extend(done.iter().map(|c| c.latency().as_micros_f64()));
        }
        Ok(())
    }

    fn begin_count(&mut self) {
        self.counting = true;
        self.base = Counters::read(&self.platform);
    }

    fn end_count(&mut self) -> Result<Vec<(&'static str, f64)>, String> {
        self.counting = false;
        let now = Counters::read(&self.platform);
        let b = self.base;
        Ok(vec![
            ("mmu.stlb_misses", (now.stlb_misses - b.stlb_misses) as f64),
            ("mmu.ltlb_misses", (now.ltlb_misses - b.ltlb_misses) as f64),
            (
                "sched.credit_stalls",
                (now.credit_stalls - b.credit_stalls) as f64,
            ),
            ("dma.host_bytes", (now.host_bytes - b.host_bytes) as f64),
            (
                "sim.datapath.gbps",
                self.bytes_in as f64 * 8.0 / self.sim_ns,
            ),
            (
                "sim.datapath.latency_us_p50",
                stats::median(&self.latencies_us).ok_or("no completions counted")?,
            ),
            (
                "sim.datapath.latency_us_p99",
                stats::tail(&self.latencies_us, 99.0)?,
            ),
        ])
    }
}
