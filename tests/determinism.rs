//! The determinism contract of the parallel execution layer.
//!
//! Worker threads only decide *who computes what*, never *what the answer
//! is*: build flows fan out per partition and per placement seed, and the
//! bench harness fans out per experiment, but every merge happens in input
//! order. These tests pin the contract end to end: the same build request
//! and the same datapath workload must yield bit-identical bitstreams,
//! completion timestamps and serialized artifacts at any thread count.

use coyote::build::build_shell;
use coyote::kernel::Passthrough;
use coyote::{CThread, Oper, Platform, SgEntry, ShellConfig};
use coyote_apps::AesCbcKernel;
use coyote_chaos::{Domain, FaultPlan, FaultTrace};
use coyote_mem::PageSize;
use coyote_mmu::{AddressSpace, MemLocation, Mmu, MmuConfig, TlbConfig, TranslateOutcome};
use coyote_net::{CommodityNic, QpConfig, Switch, Verb};
use coyote_sim::par::{par_map, THREADS_ENV};
use coyote_sim::{Fnv64, SimTime};
use coyote_synth::{Ip, IpBlock};

/// FNV-64 over a byte slice.
fn fnv(bytes: &[u8]) -> u64 {
    let mut h = Fnv64::new();
    h.write(bytes);
    h.finish()
}

/// Everything observable from one 4-vFPGA shell build, digested.
#[derive(Debug, PartialEq, Eq)]
struct BuildFingerprint {
    shell_bitstream: u64,
    app_bitstreams: Vec<u64>,
    checkpoint_json: u64,
    total_ps: u64,
    moves: u64,
}

fn build_fingerprint() -> BuildFingerprint {
    let cfg = ShellConfig::host_memory(4, 8);
    let apps: Vec<Vec<IpBlock>> = (0..4)
        .map(|i| vec![IpBlock::with_seed(Ip::Aes, i)])
        .collect();
    let shell = build_shell(&cfg, apps).unwrap();
    let dir = std::env::temp_dir().join("coyote_determinism");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("checkpoint.json");
    shell.checkpoint.write_to(&path).unwrap();
    let checkpoint_json = fnv(&std::fs::read(&path).unwrap());
    std::fs::remove_file(&path).ok();
    BuildFingerprint {
        shell_bitstream: fnv(shell.shell_bitstream.bytes()),
        app_bitstreams: shell
            .app_bitstreams
            .iter()
            .map(|b| fnv(b.bytes()))
            .collect(),
        checkpoint_json,
        total_ps: shell.report.total.as_ps(),
        moves: shell.report.moves,
    }
}

/// One mixed workload through `Platform::drain`: a block-pipeline kernel
/// (AES CBC) on one vFPGA, a streaming kernel on another, host and card
/// paths both exercised. Returns completion timestamps and output digests.
fn drain_fingerprint() -> Vec<(u64, u64, u64)> {
    let mut p = Platform::load(ShellConfig::host_memory(2, 8)).unwrap();
    p.load_kernel(0, Box::new(AesCbcKernel::new())).unwrap();
    p.load_kernel(1, Box::new(Passthrough::default())).unwrap();
    let ta = CThread::create(&mut p, 0, 1).unwrap();
    let tb = CThread::create(&mut p, 1, 2).unwrap();
    ta.set_csr(&mut p, 0xFEED_F00D, 0).unwrap();
    let len = 64 * 1024u64;
    let a_src = ta.get_mem(&mut p, len).unwrap();
    let a_dst = ta.get_mem(&mut p, len).unwrap();
    let b_src = tb.get_card_mem(&mut p, len).unwrap();
    let b_dst = tb.get_card_mem(&mut p, len).unwrap();
    let payload: Vec<u8> = (0..len as usize)
        .map(|i| (i as u8).wrapping_mul(37))
        .collect();
    ta.write(&mut p, a_src, &payload).unwrap();
    tb.write(&mut p, b_src, &payload).unwrap();
    ta.invoke(
        &mut p,
        Oper::LocalTransfer,
        &SgEntry::local(a_src, a_dst, len),
    )
    .unwrap();
    tb.invoke(
        &mut p,
        Oper::LocalTransfer,
        &SgEntry::local(b_src, b_dst, len),
    )
    .unwrap();
    let completions = p.drain().unwrap();
    let a_out = ta.read(&p, a_dst, len as usize).unwrap();
    let b_out = tb.read(&p, b_dst, len as usize).unwrap();
    let mut out: Vec<(u64, u64, u64)> = completions
        .iter()
        .map(|c| (c.invocation, c.completed_at.as_ps(), c.bytes_out))
        .collect();
    out.push((u64::MAX, fnv(&a_out), fnv(&b_out)));
    out
}

/// One seeded lossy RDMA write through a chaos-attached switch; returns
/// the injector's fault trace and a digest of the delivered payload.
fn chaos_run(seed: u64) -> (FaultTrace, u64) {
    let plan = FaultPlan::new(seed)
        .net_loss(0.2)
        .net_reorder(0.1)
        .net_duplicate(0.1);
    let mut sw = Switch::new(2);
    sw.attach_chaos(plan.injector(Domain::NetSwitch));
    let (ca, cb) = QpConfig::pair(100, 200);
    let mut a = CommodityNic::new("a", 1 << 20);
    let mut b = CommodityNic::new("b", 1 << 20);
    a.create_qp(ca);
    b.create_qp(cb);
    let len = 40_000usize;
    let data: Vec<u8> = (0..len).map(|i| (i as u8).wrapping_mul(31)).collect();
    a.write_memory(0, &data);
    a.post(
        100,
        1,
        Verb::Write {
            remote_vaddr: 4096,
            local_vaddr: 0,
            len: len as u64,
        },
    );
    // Pump to quiescence: fresh frames, then reorder-held ones, then the
    // retransmission timers (idle rounds only).
    for _ in 0..600 {
        let mut frames: std::collections::VecDeque<(usize, coyote_net::Frame)> = Default::default();
        frames.extend(a.poll_tx_frames().into_iter().map(|f| (0usize, f)));
        frames.extend(b.poll_tx_frames().into_iter().map(|f| (1usize, f)));
        if frames.is_empty() {
            let held = sw.release_held();
            if !held.is_empty() {
                for d in held {
                    let (rx, port) = if d.port == 0 {
                        (&mut a, 0)
                    } else {
                        (&mut b, 1)
                    };
                    for resp in rx.on_frame(&d.bytes) {
                        frames.push_back((port, resp.to_frame()));
                    }
                }
            } else {
                frames.extend(a.on_timeout_frames().into_iter().map(|f| (0usize, f)));
                frames.extend(b.on_timeout_frames().into_iter().map(|f| (1usize, f)));
                if frames.is_empty() {
                    break;
                }
            }
        }
        while let Some((port, f)) = frames.pop_front() {
            for d in sw.inject(SimTime::ZERO, port, f) {
                let (rx, port) = if d.port == 0 {
                    (&mut a, 0)
                } else {
                    (&mut b, 1)
                };
                for resp in rx.on_frame(&d.bytes) {
                    frames.push_back((port, resp.to_frame()));
                }
            }
        }
    }
    assert_eq!(&b.memory()[4096..4096 + len], &data[..], "seed {seed}");
    (sw.chaos().unwrap().trace().clone(), fnv(b.memory()))
}

/// Chaos across a `par_map` seed fan-out, digested: per-seed trace hashes
/// and the delivered payload digests.
fn chaos_fingerprint() -> Vec<(u64, u64)> {
    let seeds = [1u64, 7, 42, 1337, 0xC0FFEE];
    par_map(&seeds, |_, &seed| {
        let (trace, memory) = chaos_run(seed);
        (trace.hash(), memory)
    })
}

/// One seeded MMU walk with a deliberately tiny sTLB (4 sets x 2 ways, so
/// the 64-page working set actively evicts). Returns a digest of every
/// translated paddr, every hit/miss outcome and the final TLB counters —
/// if replacement order ever depended on scheduling, the digest would
/// diverge.
fn mmu_run(seed: u64) -> u64 {
    let cfg = MmuConfig {
        stlb: TlbConfig {
            sets: 4,
            ways: 2,
            page: PageSize::Small,
        },
        ltlb: TlbConfig::huge_default(),
    };
    let mut mmu = Mmu::new(cfg);
    let mut space = AddressSpace::new();
    let m = space.map_fresh(
        64 * 4096,
        PageSize::Small,
        MemLocation::Host,
        0x20_0000,
        true,
    );
    let mut bytes = Vec::new();
    // Seed-dependent but deterministic page revisit pattern (LCG stride),
    // far wider than the 8-entry sTLB: every run both evicts and refills.
    let mut x = seed | 1;
    for step in 0..96u64 {
        x = x
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        let page = (x >> 33) % 64;
        let out = mmu.translate(
            1,
            m.vaddr + page * 4096 + (step % 4096),
            false,
            None,
            &space,
        );
        let t = out.translation().unwrap();
        bytes.extend_from_slice(&t.paddr.to_le_bytes());
        bytes.push(u8::from(matches!(out, TranslateOutcome::MissFilled { .. })));
    }
    let stats = mmu.stlb().stats();
    assert!(
        stats.evictions > 0,
        "workload must actively evict (seed {seed})"
    );
    bytes.extend_from_slice(&stats.hits.to_le_bytes());
    bytes.extend_from_slice(&stats.misses.to_le_bytes());
    bytes.extend_from_slice(&stats.evictions.to_le_bytes());
    fnv(&bytes)
}

/// The TLB-eviction workload fanned out with `par_map` over seeds: one
/// digest per seed.
fn mmu_fingerprint() -> Vec<u64> {
    let seeds = [3u64, 11, 29, 0xBEEF];
    par_map(&seeds, |_, &seed| mmu_run(seed))
}

fn with_threads<T>(threads: &str, f: impl FnOnce() -> T) -> T {
    std::env::set_var(THREADS_ENV, threads);
    let out = f();
    std::env::remove_var(THREADS_ENV);
    out
}

/// The headline regression test: thread counts 1, 2 and 8 (and a repeat at
/// 8) must produce bit-identical artifacts. All in one test function so
/// the `COYOTE_THREADS` mutations never race another test.
#[test]
fn artifacts_identical_across_thread_counts() {
    let build_1 = with_threads("1", build_fingerprint);
    let build_2 = with_threads("2", build_fingerprint);
    let build_8 = with_threads("8", build_fingerprint);
    let build_8_again = with_threads("8", build_fingerprint);
    assert_eq!(
        build_1, build_2,
        "shell build differs between 1 and 2 threads"
    );
    assert_eq!(
        build_1, build_8,
        "shell build differs between 1 and 8 threads"
    );
    assert_eq!(
        build_8, build_8_again,
        "shell build not reproducible at 8 threads"
    );

    let drain_1 = with_threads("1", drain_fingerprint);
    let drain_2 = with_threads("2", drain_fingerprint);
    let drain_8 = with_threads("8", drain_fingerprint);
    let drain_8_again = with_threads("8", drain_fingerprint);
    assert_eq!(drain_1, drain_2, "drain differs between 1 and 2 threads");
    assert_eq!(drain_1, drain_8, "drain differs between 1 and 8 threads");
    assert_eq!(
        drain_8, drain_8_again,
        "drain not reproducible at 8 threads"
    );

    // Chaos: the fault trace is part of the determinism contract. The
    // seeded fan-out recovers on every worker, and the per-seed trace
    // hashes are bit-identical at 1, 4 and 8 threads (threads decide who
    // computes, never what happened).
    let chaos_1 = with_threads("1", chaos_fingerprint);
    let chaos_4 = with_threads("4", chaos_fingerprint);
    let chaos_8 = with_threads("8", chaos_fingerprint);
    let chaos_8_again = with_threads("8", chaos_fingerprint);
    assert!(!chaos_1.is_empty() && chaos_1.iter().all(|&(h, _)| h != 0));
    assert_eq!(
        chaos_1, chaos_4,
        "chaos trace differs between 1 and 4 threads"
    );
    assert_eq!(
        chaos_1, chaos_8,
        "chaos trace differs between 1 and 8 threads"
    );
    assert_eq!(
        chaos_8, chaos_8_again,
        "chaos trace not reproducible at 8 threads"
    );

    // An active TLB-eviction workload: the MMU's sTLB is small enough
    // that LRU replacement churns throughout. Translations and TLB
    // counters must be bit-identical at 1, 4 and 8 threads.
    let mmu_1 = with_threads("1", mmu_fingerprint);
    let mmu_4 = with_threads("4", mmu_fingerprint);
    let mmu_8 = with_threads("8", mmu_fingerprint);
    let mmu_8_again = with_threads("8", mmu_fingerprint);
    assert!(!mmu_1.is_empty() && mmu_1.iter().all(|&h| h != 0));
    assert_eq!(mmu_1, mmu_4, "MMU eviction differs between 1 and 4 threads");
    assert_eq!(mmu_1, mmu_8, "MMU eviction differs between 1 and 8 threads");
    assert_eq!(
        mmu_8, mmu_8_again,
        "MMU eviction not reproducible at 8 threads"
    );
}
