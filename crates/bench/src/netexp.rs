//! Network data-plane experiments: the goodput trajectory of the zero-copy
//! RoCE v2 path (§6.2's BALBOA stack over the simulated switch).
//!
//! Three system-level experiments measure *simulated* network behaviour
//! (goodput, fan-in fairness, loss recovery) and are deterministic; the
//! microbenchmark (`net_micro`) measures *wall-clock* cost of the
//! serialize/retransmit hot loop, reference copy path vs zero-copy frames,
//! and verifies the two paths are bit-identical on the wire.

use crate::report::{ExperimentResult, Row};
use coyote::rdma::run_with_nic;
use coyote::{CThread, Platform, ShellConfig};
use coyote_net::{
    BthOpcode, CommodityNic, Frame, MacAddr, QpConfig, QueuePair, RocePacket, Switch, Verb,
};
use coyote_sim::time::rate;
use coyote_sim::SimTime;
use std::time::Instant;

/// CI smoke mode (`coyote-bench net --quick`): smaller transfers and
/// shorter timing loops, same code paths and assertions.
fn quick() -> bool {
    // detlint: allow(SRC007): CI-mode switch; scales iteration counts only,
    // every asserted value is identical in both modes.
    std::env::var_os("COYOTE_BENCH_QUICK").is_some()
}

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
    let sizes: &[u64] = if quick() {
        &[64 << 10]
    } else {
        &[64 << 10, 512 << 10, 4 << 20]
    };
    for &size in sizes {
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
    let per_qp = if quick() { 32u64 << 10 } else { 128 << 10 };
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
    let drops: &[u32] = if quick() { &[2] } else { &[0, 2, 5] };
    for &drop_pct in drops {
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

/// Default seed for `net_chaos` (see `COYOTE_CHAOS_SEED`).
const DEFAULT_CHAOS_SEED: u64 = 7;

/// One seeded chaos run: a 256 KB (64 KB quick) write under a 1% loss
/// plan, pumped to completion. Returns the goodput row inputs and the
/// injector's fault-trace hash.
fn chaos_run(seed: u64) -> (u64, u64, u64, f64) {
    let size: u64 = if quick() { 64 << 10 } else { 256 << 10 };
    let (mut p, t) = rdma_platform();
    let mut nic = CommodityNic::new("mlx5_0", size as usize + 4096);
    let mut switch = Switch::new(2);
    let plan = coyote_chaos::FaultPlan::new(seed).net_loss(0.01);
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
    assert!(done, "chaos write never completed (seed {seed})");
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
    // Default chosen so the 1% plan fires even over the short quick-mode
    // run; `COYOTE_CHAOS_SEED` overrides it for ad-hoc exploration.
    // detlint: allow(SRC007): ad-hoc exploration override; the default seed
    // is what CI runs and the published hash is keyed on the seed itself.
    let seed = std::env::var("COYOTE_CHAOS_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(DEFAULT_CHAOS_SEED);
    let (hash, frames, dropped, goodput) = chaos_run(seed);
    let (hash2, frames2, dropped2, _) = chaos_run(seed);
    assert_eq!(
        (hash, frames, dropped),
        (hash2, frames2, dropped2),
        "same seed, same plan: the fault trace must be bit-identical"
    );
    assert!(dropped > 0, "the seeded 1% plan must fire at least once");
    println!("net_chaos: seed {seed:#x} fault-trace hash {hash:016x}");
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

/// Build one window of outstanding MTU-sized WRITE frames on a fresh QP.
fn staged_qp(segments: u64) -> (QueuePair, Vec<u8>) {
    let (cfg, _) = QpConfig::pair(0x700, 0x800);
    let mut qp = QueuePair::new(cfg);
    let mtu = coyote_sim::params::ROCE_MTU as u64;
    let mem: Vec<u8> = (0..segments * mtu).map(|i| (i % 251) as u8).collect();
    qp.post(
        1,
        Verb::Write {
            remote_vaddr: 0,
            local_vaddr: 0,
            len: mem.len() as u64,
        },
    );
    (qp, mem)
}

/// Wall-clock microbenchmark of the serialize/retransmit hot loop:
/// reference copy path vs zero-copy frames, verified bit-identical.
pub fn net_micro() -> ExperimentResult {
    let segments = 64u64;

    // Bit-identity first: every cached retransmit frame must match the
    // reference serializer's wire bytes exactly.
    let (mut qp, mem) = staged_qp(segments);
    let first: Vec<RocePacket> = qp.poll_tx(&mem);
    let reference: Vec<Vec<u8>> = first.iter().map(RocePacket::reference_serialize).collect();
    let cached: Vec<Vec<u8>> = qp.on_timeout_frames().iter().map(Frame::to_vec).collect();
    assert_eq!(cached, reference, "zero-copy wire bytes differ");

    // Reference path: each retransmission re-serializes into one flat
    // buffer (header writes + payload copies + ICRC over the whole frame).
    let (mut qp_ref, mem_ref) = staged_qp(segments);
    qp_ref.poll_tx(&mem_ref);
    let ref_iters = if quick() { 20u32 } else { 200 };
    // detlint: allow(SRC002): wall-clock is the measurand of this bench.
    let t0 = Instant::now();
    for _ in 0..ref_iters {
        for pkt in qp_ref.on_timeout() {
            std::hint::black_box(pkt.reference_serialize());
        }
    }
    let ref_ns = t0.elapsed().as_nanos() as f64 / (ref_iters as u64 * segments) as f64;

    // Zero-copy path: retransmission clones the cached frame (headers +
    // ICRC computed once at first transmission).
    let (mut qp_zc, mem_zc) = staged_qp(segments);
    qp_zc.poll_tx_frames(&mem_zc);
    let zc_iters = if quick() { 2_000u32 } else { 20_000 };
    // detlint: allow(SRC002): wall-clock is the measurand of this bench.
    let t1 = Instant::now();
    for _ in 0..zc_iters {
        std::hint::black_box(qp_zc.on_timeout_frames());
    }
    let zc_ns = t1.elapsed().as_nanos() as f64 / (zc_iters as u64 * segments) as f64;

    // First-transmission serialize, for context: scatter-gather framing
    // still pays the ICRC but skips the payload copies of the reference.
    let pkt = RocePacket {
        src_mac: MacAddr::node(1),
        dst_mac: MacAddr::node(2),
        src_ip: [10, 0, 0, 1],
        dst_ip: [10, 0, 0, 2],
        opcode: BthOpcode::WriteMiddle,
        dest_qp: 0x800,
        psn: 3,
        ack_req: false,
        reth: None,
        aeth: None,
        payload: mem[..coyote_sim::params::ROCE_MTU].to_vec().into(),
    };
    let ser_iters = if quick() { 2_000u32 } else { 20_000 };
    // detlint: allow(SRC002): wall-clock is the measurand of this bench.
    let t2 = Instant::now();
    for _ in 0..ser_iters {
        std::hint::black_box(pkt.reference_serialize());
    }
    let ser_ref_ns = t2.elapsed().as_nanos() as f64 / ser_iters as f64;
    // detlint: allow(SRC002): wall-clock is the measurand of this bench.
    let t3 = Instant::now();
    for _ in 0..ser_iters {
        std::hint::black_box(pkt.to_frame());
    }
    let ser_zc_ns = t3.elapsed().as_nanos() as f64 / ser_iters as f64;

    let rows = vec![
        Row::new("retransmit reference", "ns/frame", ref_ns),
        Row::new("retransmit zero-copy", "ns/frame", zc_ns).with("speedup x", ref_ns / zc_ns),
        Row::new("first-tx reference", "ns/frame", ser_ref_ns),
        Row::new("first-tx zero-copy", "ns/frame", ser_zc_ns)
            .with("speedup x", ser_ref_ns / ser_zc_ns),
    ];
    ExperimentResult {
        id: "net_micro".into(),
        title: "Serialize/retransmit hot loop: reference copy path vs zero-copy".into(),
        rows,
        verdict: "retransmission reuses cached headers + ICRC, turning an O(MTU) re-serialize \
                  into an O(1) clone (well above the 2x target); first transmissions save the \
                  payload copies but still pay the ICRC pass; wire bytes verified bit-identical"
            .into(),
    }
}
