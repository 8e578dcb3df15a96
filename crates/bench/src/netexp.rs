//! Network data-plane experiments: the goodput trajectory of the zero-copy
//! RoCE v2 path (§6.2's BALBOA stack over the simulated switch).
//!
//! Each measures *simulated* network behaviour (goodput, fan-in fairness,
//! loss recovery, a seeded chaos plan) and is deterministic. The host cost
//! of serialization and retransmission is perfbench's `rdma` workload.

use crate::report::{ExperimentResult, Row};
use coyote::rdma::run_with_nic;
use coyote::{CThread, Platform, ShellConfig};
use coyote_net::{CommodityNic, QpConfig, Switch, Verb};
use coyote_sim::time::rate;
use coyote_sim::SimTime;

fn rdma_platform() -> (Platform, CThread) {
    let mut p = Platform::load(ShellConfig::host_memory_network(1, 8)).unwrap();
    p.load_kernel(0, Box::new(coyote::kernel::Passthrough::default()))
        .unwrap();
    let t = CThread::create(&mut p, 0, 42).unwrap();
    (p, t)
}

/// Single-flow goodput: one NIC-initiated RDMA write into FPGA virtual
/// memory, across transfer sizes.
pub fn net_goodput() -> ExperimentResult {
    let mut rows = Vec::new();
    for size in [64u64 << 10, 512 << 10, 4 << 20] {
        let (mut p, t) = rdma_platform();
        let mut nic = CommodityNic::new("mlx5_0", (size as usize) + 4096);
        let mut switch = Switch::new(2);
        let buf = t.get_mem(&mut p, size).unwrap();
        let (qp_nic, qp_fpga) = QpConfig::pair(0x100, 0x200);
        nic.create_qp(qp_nic);
        p.rdma_create_qp(42, qp_fpga).unwrap();
        let payload: Vec<u8> = (0..size).map(|i| (i % 247) as u8).collect();
        nic.write_memory(0, &payload);
        nic.post(
            0x100,
            1,
            Verb::Write {
                remote_vaddr: buf,
                local_vaddr: 0,
                len: size,
            },
        );
        let frames = run_with_nic(&mut p, 0, &mut nic, 1, &mut switch, SimTime::ZERO);
        assert_eq!(t.read(&p, buf, size as usize).unwrap(), payload);
        let elapsed = p.now().since(SimTime::ZERO);
        rows.push(
            Row::new(
                format!("{} KB write", size >> 10),
                "goodput Gbit/s",
                rate(size, elapsed).as_gbps_f64() * 8.0,
            )
            .with("frames", frames as f64),
        );
    }
    ExperimentResult {
        id: "net_goodput".into(),
        title: "Single-flow RoCE v2 goodput, NIC -> FPGA virtual memory".into(),
        rows,
        verdict: "goodput rises with transfer size as per-message overheads amortize; payload \
                  bytes cross QP -> switch -> MMU-translated memory without a redundant copy"
            .into(),
    }
}

/// Fan-in: 8 QPs writing concurrently into one FPGA through the switch.
pub fn net_fanin() -> ExperimentResult {
    let per_qp = 128u64 << 10;
    let n_qps = 8u64;
    let (mut p, t) = rdma_platform();
    let mut nic = CommodityNic::new("mlx5_0", (n_qps * per_qp) as usize + 4096);
    let mut switch = Switch::new(2);
    let mut bufs = Vec::new();
    for i in 0..n_qps {
        let buf = t.get_mem(&mut p, per_qp).unwrap();
        let (qp_nic, qp_fpga) = QpConfig::pair(0x100 + i as u32, 0x200 + i as u32);
        nic.create_qp(qp_nic);
        p.rdma_create_qp(42, qp_fpga).unwrap();
        let payload: Vec<u8> = (0..per_qp).map(|b| ((b + i) % 243) as u8).collect();
        nic.write_memory((i * per_qp) as usize, &payload);
        nic.post(
            0x100 + i as u32,
            i,
            Verb::Write {
                remote_vaddr: buf,
                local_vaddr: i * per_qp,
                len: per_qp,
            },
        );
        bufs.push((buf, payload));
    }
    let frames = run_with_nic(&mut p, 0, &mut nic, 1, &mut switch, SimTime::ZERO);
    for (buf, payload) in &bufs {
        assert_eq!(&t.read(&p, *buf, per_qp as usize).unwrap(), payload);
    }
    let ok = nic
        .poll_completions()
        .iter()
        .filter(|(_, c)| c.status.is_ok())
        .count();
    let total = n_qps * per_qp;
    let elapsed = p.now().since(SimTime::ZERO);
    let rows = vec![Row::new(
        format!("{n_qps} QPs x {} KB", per_qp >> 10),
        "aggregate Gbit/s",
        rate(total, elapsed).as_gbps_f64() * 8.0,
    )
    .with("frames", frames as f64)
    .with("completions", ok as f64)];
    ExperimentResult {
        id: "net_fanin".into(),
        title: "8-QP fan-in through the switch, one shared CMAC".into(),
        rows,
        verdict: "all eight flows complete and the payloads land intact; QPs drain in \
                  deterministic QPN order so the aggregate is reproducible run to run"
            .into(),
    }
}

/// Loss recovery: the same write under increasing switch drop rates; the
/// retransmission timer (cached zero-copy frames) recovers every transfer.
pub fn net_retransmit() -> ExperimentResult {
    let size = 256u64 << 10;
    let mut rows = Vec::new();
    for drop_pct in [0u32, 2, 5] {
        let (mut p, t) = rdma_platform();
        let mut nic = CommodityNic::new("mlx5_0", size as usize + 4096);
        let mut switch = Switch::new(2);
        switch.set_drop_rate(drop_pct as f64 / 100.0, 0xBEEF);
        let buf = t.get_mem(&mut p, size).unwrap();
        let (qp_nic, qp_fpga) = QpConfig::pair(0x110, 0x210);
        nic.create_qp(qp_nic);
        p.rdma_create_qp(42, qp_fpga).unwrap();
        let payload: Vec<u8> = (0..size).map(|i| (i % 253) as u8).collect();
        nic.write_memory(0, &payload);
        nic.post(
            0x110,
            9,
            Verb::Write {
                remote_vaddr: buf,
                local_vaddr: 0,
                len: size,
            },
        );
        let mut frames = 0u64;
        let mut done = false;
        for _round in 0..100 {
            let now = p.now();
            frames += run_with_nic(&mut p, 0, &mut nic, 1, &mut switch, now);
            if nic.poll_completions().iter().any(|(_, c)| c.status.is_ok()) {
                done = true;
                break;
            }
            // Timer: cached frames, bit-identical to the originals.
            for f in nic.on_timeout_frames() {
                frames += 1;
                for d in switch.inject(p.now(), 1, f) {
                    for resp in p.net_rx(d.at, &d.bytes) {
                        for d2 in switch.inject(d.at, 0, resp) {
                            nic.on_frame(&d2.bytes);
                        }
                    }
                }
            }
        }
        assert!(done, "write never completed at {drop_pct}% loss");
        assert_eq!(t.read(&p, buf, size as usize).unwrap(), payload);
        let dropped = switch.stats(0).dropped + switch.stats(1).dropped;
        let elapsed = p.now().since(SimTime::ZERO);
        rows.push(
            Row::new(
                format!("{drop_pct}% drop"),
                "goodput Gbit/s",
                rate(size, elapsed).as_gbps_f64() * 8.0,
            )
            .with("frames", frames as f64)
            .with("dropped", dropped as f64),
        );
    }
    ExperimentResult {
        id: "net_retransmit".into(),
        title: "Loss recovery: 256 KB write under switch drop rates".into(),
        rows,
        verdict: "every transfer completes; goodput degrades with loss as go-back-N replays \
                  windows, and retransmitted frames are O(1) clones of the cached originals"
            .into(),
    }
}

/// The seed of `net_chaos`'s fault plan.
const CHAOS_SEED: u64 = 7;

/// One seeded chaos run: a 256 KB write under a 1% loss plan, pumped to
/// completion. Returns the goodput row inputs and the injector's
/// fault-trace hash.
fn chaos_run() -> (u64, u64, u64, f64) {
    let size: u64 = 256 << 10;
    let (mut p, t) = rdma_platform();
    let mut nic = CommodityNic::new("mlx5_0", size as usize + 4096);
    let mut switch = Switch::new(2);
    let plan = coyote_chaos::FaultPlan::new(CHAOS_SEED).net_loss(0.01);
    switch.attach_chaos(plan.injector(coyote_chaos::Domain::NetSwitch));
    let buf = t.get_mem(&mut p, size).unwrap();
    let (qp_nic, qp_fpga) = QpConfig::pair(0x120, 0x220);
    nic.create_qp(qp_nic);
    p.rdma_create_qp(42, qp_fpga).unwrap();
    let payload: Vec<u8> = (0..size).map(|i| (i % 239) as u8).collect();
    nic.write_memory(0, &payload);
    nic.post(
        0x120,
        3,
        Verb::Write {
            remote_vaddr: buf,
            local_vaddr: 0,
            len: size,
        },
    );
    let mut frames = 0u64;
    let mut done = false;
    for _round in 0..100 {
        let now = p.now();
        frames += run_with_nic(&mut p, 0, &mut nic, 1, &mut switch, now);
        if nic.poll_completions().iter().any(|(_, c)| c.status.is_ok()) {
            done = true;
            break;
        }
        for f in nic.on_timeout_frames() {
            frames += 1;
            for d in switch.inject(p.now(), 1, f) {
                for resp in p.net_rx(d.at, &d.bytes) {
                    for d2 in switch.inject(d.at, 0, resp) {
                        nic.on_frame(&d2.bytes);
                    }
                }
            }
        }
    }
    assert!(done, "chaos write never completed (seed {CHAOS_SEED})");
    assert_eq!(t.read(&p, buf, size as usize).unwrap(), payload);
    let dropped = switch.stats(0).dropped + switch.stats(1).dropped;
    let hash = switch.chaos().unwrap().trace().hash();
    let goodput = rate(size, p.now().since(SimTime::ZERO)).as_gbps_f64() * 8.0;
    (hash, frames, dropped, goodput)
}

/// Chaos smoke: a seeded 1% loss plan over the NIC -> FPGA write, run
/// twice. Recovery must be total and the fault trace bit-identical; the
/// trace hash goes to the log so CI runs are comparable at a glance.
pub fn net_chaos() -> ExperimentResult {
    let (hash, frames, dropped, goodput) = chaos_run();
    let (hash2, frames2, dropped2, _) = chaos_run();
    assert_eq!(
        (hash, frames, dropped),
        (hash2, frames2, dropped2),
        "same seed, same plan: the fault trace must be bit-identical"
    );
    assert!(dropped > 0, "the seeded 1% plan must fire at least once");
    println!("net_chaos: seed {CHAOS_SEED:#x} fault-trace hash {hash:016x}");
    let rows = vec![Row::new("1% seeded loss", "goodput Gbit/s", goodput)
        .with("frames", frames as f64)
        .with("dropped", dropped as f64)];
    ExperimentResult {
        id: "net_chaos".into(),
        title: "Chaos smoke: seeded 1% loss plan, bit-identical fault trace".into(),
        rows,
        verdict: "the seeded fault plan drops frames mid-write and the transport recovers to a \
                  byte-exact payload; rerunning the seed reproduces the exact fault trace, whose \
                  hash is printed for CI log comparison"
            .into(),
    }
}
