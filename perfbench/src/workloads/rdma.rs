//! `rdma`: the RoCE v2 data plane in both directions.
//!
//! A commodity NIC and a networking-shell FPGA talk through a switch that
//! drops 1% of frames by a seeded fault plan, the loss rate of
//! `coyote-bench net_chaos`. Half of the ops are RDMA writes (the FPGA
//! receives into MMU-translated memory), half RDMA reads (the FPGA
//! transmits); sizes are log-uniform from 4 KiB to 1 MiB, around the
//! 256 KiB transfer of `net_chaos`. The even split and the size range are
//! design choices that weigh both directions of the same layer alike, not
//! a model of real traffic. Each op is pumped to completion with the NIC's
//! retransmit timer, as `net_chaos` pumps its write. Net serialization,
//! ICRC and retransmission do the work.

use super::{bytes, checks, rng, zeros, Context, LogSizes, Mix, Workload};
use crate::trace::Recorder;
use coyote::rdma::run_with_nic;
use coyote::{CThread, Platform, ShellConfig};
use coyote_chaos::{Domain, FaultPlan};
use coyote_net::{CommodityNic, QpConfig, Switch, Verb};
use coyote_sim::Xorshift64Star;

const MIN_OP: u64 = 4 << 10;
const MAX_OP: u64 = 1 << 20;
const LOSS: f64 = 0.01;
const NIC_QP: u32 = 0x100;
const FPGA_QP: u32 = 0x200;
const HPID: u32 = 42;
/// NIC memory: write sources at 0, read destinations at `MAX_OP`.
const NIC_READ_AT: u64 = MAX_OP;
/// Pump rounds before an op counts as stuck.
const MAX_ROUNDS: usize = 100;
const FPGA_PORT: usize = 0;
const NIC_PORT: usize = 1;

#[derive(Clone, Copy, PartialEq, Eq)]
enum Kind {
    Write,
    Read,
}

/// The workload.
pub struct Rdma {
    rng: Xorshift64Star,
    mix: Mix<Kind>,
    sizes: LogSizes,
    platform: Platform,
    thread: CThread,
    buf: u64,
    nic: CommodityNic,
    switch: Switch,
    wr_id: u64,
    counting: bool,
    base: (u64, u64),
    frames: u64,
    write: (u64, f64),
    read: (u64, f64),
}

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

impl Rdma {
    /// (frames dropped by the switch, NIC retransmissions) so far.
    fn counters(&self) -> (u64, u64) {
        let dropped = (0..self.switch.port_count())
            .map(|p| self.switch.stats(p).dropped)
            .sum();
        let retransmits = self.nic.qp_stats(NIC_QP).map_or(0, |s| s.retransmits);
        (dropped, retransmits)
    }

    /// Pump frames until the NIC completes `wr_id`, firing its retransmit
    /// timer between rounds. Returns the frames exchanged.
    fn pump(&mut self, wr_id: u64, rec: &mut Recorder) -> Result<u64, String> {
        let mut frames = 0;
        for _ in 0..MAX_ROUNDS {
            let (p, nic, switch) = (&mut self.platform, &mut self.nic, &mut self.switch);
            let now = p.now();
            let n = rec.call("core.run_with_nic", || {
                run_with_nic(p, FPGA_PORT, nic, NIC_PORT, switch, now)
            });
            rec.units(n);
            frames += n;
            for (_, c) in self.nic.poll_completions() {
                if c.wr_id == wr_id {
                    return c
                        .status
                        .map(|()| frames)
                        .map_err(|e| format!("work request failed: {e}"));
                }
            }
            let (p, nic, switch) = (&mut self.platform, &mut self.nic, &mut self.switch);
            let resent = rec.call("net.retransmit", || {
                let mut resent = 0;
                for f in nic.on_timeout_frames() {
                    resent += 1;
                    for d in switch.inject(p.now(), NIC_PORT, f) {
                        for resp in p.net_rx(d.at, &d.bytes) {
                            for d2 in switch.inject(d.at, FPGA_PORT, resp) {
                                nic.on_frame(&d2.bytes);
                            }
                        }
                    }
                }
                resent
            });
            rec.units(resent);
            frames += resent;
        }
        Err(format!("work request {wr_id} never completed"))
    }
}

impl Workload for Rdma {
    const COUNTED: u64 = 600;
    const COUNTED_QUICK: u64 = 60;
    const WARMUP: u64 = 30;

    fn setup(ctx: &Context) -> Result<Self, String> {
        let mut rng = rng(ctx.seed, 0xE0);
        let mut platform = Platform::load(ShellConfig::host_memory_network(1, 8)).map_err(err)?;
        platform
            .load_kernel(0, Box::new(coyote::kernel::Passthrough::default()))
            .map_err(err)?;
        let thread = CThread::create(&mut platform, 0, HPID).map_err(err)?;
        let buf = thread.get_mem(&mut platform, MAX_OP).map_err(err)?;
        let mut nic = CommodityNic::new("mlx5_0", 2 * MAX_OP as usize);
        let mut switch = Switch::new(2);
        let plan = FaultPlan::new(rng.next_u64()).net_loss(LOSS);
        switch.attach_chaos(plan.injector(Domain::NetSwitch));
        thread
            .write(&mut platform, buf, zeros(MAX_OP as usize))
            .map_err(err)?;
        nic.write_memory(0, zeros(2 * MAX_OP as usize));
        let (qp_nic, qp_fpga) = QpConfig::pair(NIC_QP, FPGA_QP);
        nic.create_qp(qp_nic);
        platform.rdma_create_qp(HPID, qp_fpga).map_err(err)?;
        Ok(Rdma {
            rng,
            mix: Mix::new(&[(Kind::Write, 1), (Kind::Read, 1)]),
            sizes: LogSizes::new(MIN_OP, MAX_OP, 64, 16),
            platform,
            thread,
            buf,
            nic,
            switch,
            wr_id: 0,
            counting: false,
            base: (0, 0),
            frames: 0,
            write: (0, 0.0),
            read: (0, 0.0),
        })
    }

    fn op(&mut self, _i: u64, rec: &mut Recorder) -> Result<(), String> {
        let kind = self.mix.next(&mut self.rng);
        let len = self.sizes.next(&mut self.rng);
        let data = bytes(&mut self.rng, len as usize);
        self.wr_id += 1;
        let wr_id = self.wr_id;
        let verb = match kind {
            Kind::Write => {
                rec.set_kind("op.write");
                self.nic.write_memory(0, &data);
                Verb::Write {
                    remote_vaddr: self.buf,
                    local_vaddr: 0,
                    len,
                }
            }
            Kind::Read => {
                rec.set_kind("op.read");
                self.thread
                    .write(&mut self.platform, self.buf, &data)
                    .map_err(err)?;
                Verb::Read {
                    remote_vaddr: self.buf,
                    local_vaddr: NIC_READ_AT,
                    len,
                }
            }
        };
        let start = self.platform.now();
        let nic = &mut self.nic;
        rec.call("net.post", || nic.post(NIC_QP, wr_id, verb));
        let frames = self.pump(wr_id, rec)?;
        let sim_ns = self.platform.now().since(start).as_nanos_f64();

        let landed = match kind {
            Kind::Write => self
                .thread
                .read(&self.platform, self.buf, len as usize)
                .map_err(err)?,
            Kind::Read => {
                let at = NIC_READ_AT as usize;
                self.nic.memory()[at..at + len as usize].to_vec()
            }
        };
        checks::same_bytes("RDMA payload", &data, &landed)?;
        let copies = coyote_net::payload_copies();
        if copies != 0 {
            return Err(format!("{copies} redundant payload copies"));
        }

        if self.counting {
            self.frames += frames;
            let side = match kind {
                Kind::Write => &mut self.write,
                Kind::Read => &mut self.read,
            };
            side.0 += len;
            side.1 += sim_ns;
        }
        Ok(())
    }

    fn begin_count(&mut self) {
        self.counting = true;
        self.base = self.counters();
    }

    fn end_count(&mut self) -> Result<Vec<(&'static str, f64)>, String> {
        self.counting = false;
        let (dropped, retransmits) = self.counters();
        let gbps = |(bytes, ns): (u64, f64)| bytes as f64 * 8.0 / ns;
        Ok(vec![
            ("net.frames", self.frames as f64),
            ("net.dropped", (dropped - self.base.0) as f64),
            ("net.retransmits", (retransmits - self.base.1) as f64),
            ("sim.rdma.write_gbps", gbps(self.write)),
            ("sim.rdma.read_gbps", gbps(self.read)),
        ])
    }
}
