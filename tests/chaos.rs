//! Chaos engineering for the simulated stack: every fault class the
//! `coyote-chaos` plan can inject is driven end-to-end here, and every one
//! must end in full recovery with bit-identical payloads — the recovery
//! contract of DESIGN.md. Seeds are fixed; a failure reproduces exactly.

use std::collections::VecDeque;

use coyote_chaos::{Domain, FaultPlan, FaultTrace, RetryPolicy, TraceKind};
use coyote_dma::{DmaJob, PacketDone, XdmaDir, XdmaEngine};
use coyote_driver::{CoyoteDriver, ReconfigError};
use coyote_fabric::floorplan::PartitionId;
use coyote_fabric::{Bitstream, BitstreamKind, DeviceKind};
use coyote_net::{CommodityNic, Delivery, QpConfig, Switch, Verb};
use coyote_sim::time::SimDuration;
use coyote_sim::{Fnv64, SimTime};

const SEEDS: [u64; 3] = [1, 7, 42];

fn pattern(len: usize, seed: u8) -> Vec<u8> {
    (0..len)
        .map(|i| (i as u8).wrapping_mul(31).wrapping_add(seed))
        .collect()
}

/// FNV-64 over a byte slice.
fn fnv(bytes: &[u8]) -> u64 {
    let mut h = Fnv64::new();
    h.write(bytes);
    h.finish()
}

/// Two commodity NICs on ports 0 and 1 of a switch, QPs 100 <-> 200, with
/// `len` pattern bytes staged on `a` and an RDMA WRITE posted to `b`.
fn rdma_pair(len: usize) -> (CommodityNic, CommodityNic, Vec<u8>) {
    let (ca, cb) = QpConfig::pair(100, 200);
    let mut a = CommodityNic::new("mlx5_0", 1 << 20);
    let mut b = CommodityNic::new("bf2_0", 1 << 20);
    a.create_qp(ca);
    b.create_qp(cb);
    let data = pattern(len, 0x5A);
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
    (a, b, data)
}

/// Hand a batch of switch deliveries to the endpoints, feeding every
/// response frame back through the switch until the batch drains. FIFO
/// order preserves the switch's delivery order.
fn process(sw: &mut Switch, a: &mut CommodityNic, b: &mut CommodityNic, batch: Vec<Delivery>) {
    let mut work: VecDeque<Delivery> = batch.into();
    while let Some(d) = work.pop_front() {
        let responses = match d.port {
            0 => a.on_frame(&d.bytes),
            1 => b.on_frame(&d.bytes),
            _ => continue, // Flooded copy on an unconnected port.
        };
        for r in responses {
            work.extend(sw.inject(d.at, d.port, r.to_frame()));
        }
    }
}

/// Pump both NICs through the switch until quiescent: fresh transmissions
/// first, then reorder-held frames, then retransmission timers — timers
/// only fire on an otherwise idle round, as a real RTO would.
fn pump(sw: &mut Switch, a: &mut CommodityNic, b: &mut CommodityNic) {
    for _ in 0..600 {
        let mut frames: Vec<(usize, _)> = Vec::new();
        frames.extend(a.poll_tx_frames().into_iter().map(|f| (0usize, f)));
        frames.extend(b.poll_tx_frames().into_iter().map(|f| (1usize, f)));
        if frames.is_empty() {
            let held = sw.release_held();
            if !held.is_empty() {
                process(sw, a, b, held);
                continue;
            }
            frames.extend(a.on_timeout_frames().into_iter().map(|f| (0usize, f)));
            frames.extend(b.on_timeout_frames().into_iter().map(|f| (1usize, f)));
            if frames.is_empty() {
                return; // Quiescent: nothing to send, nothing outstanding.
            }
        }
        let mut batch = Vec::new();
        for (port, f) in frames {
            batch.extend(sw.inject(SimTime::ZERO, port, f));
        }
        process(sw, a, b, batch);
    }
    panic!("network did not quiesce within the round budget");
}

/// Run one lossy RDMA WRITE under `plan` and assert the recovery contract:
/// the completion is clean and the payload lands bit-identical.
fn run_faulted_write(plan: &FaultPlan, len: usize) -> (Switch, CommodityNic, CommodityNic) {
    let mut sw = Switch::new(4);
    sw.attach_chaos(plan.injector(Domain::NetSwitch));
    let (mut a, mut b, data) = rdma_pair(len);
    pump(&mut sw, &mut a, &mut b);

    let comps = a.poll_completions();
    assert_eq!(comps.len(), 1, "exactly one completion");
    assert!(comps[0].1.status.is_ok(), "completion ok: {comps:?}");
    assert_eq!(fnv(&b.memory()[4096..4096 + len]), fnv(&data));
    assert_eq!(&b.memory()[4096..4096 + len], &data[..], "bit-identity");
    (sw, a, b)
}

#[test]
fn net_loss_recovers_bit_identical_across_seeds() {
    for seed in SEEDS {
        let plan = FaultPlan::new(seed).net_loss(0.25);
        let (sw, a, _) = run_faulted_write(&plan, 100_000);
        let dropped: u64 = (0..sw.port_count()).map(|p| sw.stats(p).dropped).sum();
        assert!(dropped > 0, "seed {seed}: loss must actually fire");
        let stats = a.qp_stats(100).unwrap();
        assert!(stats.retransmits > 0, "seed {seed}: recovery by retransmit");
        let trace = sw.chaos().unwrap().trace();
        assert!(
            trace.of_kind(TraceKind::Injected).count() as u64 >= dropped,
            "every drop is on the trace"
        );
    }
}

#[test]
fn net_reorder_recovers_bit_identical_across_seeds() {
    for seed in SEEDS {
        let plan = FaultPlan::new(seed).net_reorder(0.3);
        let (sw, _, _) = run_faulted_write(&plan, 100_000);
        let reordered: u64 = (0..sw.port_count()).map(|p| sw.stats(p).reordered).sum();
        assert!(reordered > 0, "seed {seed}: reorder must actually fire");
    }
}

#[test]
fn net_duplicate_recovers_bit_identical_across_seeds() {
    for seed in SEEDS {
        let plan = FaultPlan::new(seed).net_duplicate(0.3);
        let (sw, a, b) = run_faulted_write(&plan, 100_000);
        let duplicated: u64 = (0..sw.port_count()).map(|p| sw.stats(p).duplicated).sum();
        assert!(
            duplicated > 0,
            "seed {seed}: duplication must actually fire"
        );
        let dup_discarded =
            a.qp_stats(100).unwrap().duplicates + b.qp_stats(200).unwrap().duplicates;
        assert!(dup_discarded > 0, "seed {seed}: dups discarded at the QPs");
    }
}

#[test]
fn net_corrupt_detected_at_nic_and_recovered() {
    for seed in SEEDS {
        let plan = FaultPlan::new(seed).net_corrupt(0.2);
        let (sw, a, b) = run_faulted_write(&plan, 100_000);
        let corrupted: u64 = (0..sw.port_count()).map(|p| sw.stats(p).corrupted).sum();
        assert!(corrupted > 0, "seed {seed}: corruption must actually fire");
        // Every corrupted frame is caught by the ICRC parse at an RX NIC.
        assert_eq!(
            a.rx_corrupt() + b.rx_corrupt(),
            corrupted,
            "seed {seed}: detection count matches injection count"
        );
    }
}

#[test]
fn mixed_fault_storm_converges_bit_identical() {
    for seed in SEEDS {
        let plan = FaultPlan::new(seed)
            .net_loss(0.1)
            .net_reorder(0.1)
            .net_duplicate(0.1)
            .net_corrupt(0.1);
        run_faulted_write(&plan, 64 * 1024);
    }
}

#[test]
fn blackhole_drop_rate_one_is_valid_then_lifted() {
    // Satellite: `set_drop_rate(1.0)` is a legal rate (a blackhole), not a
    // panic. Nothing gets through until the rate is lifted; afterwards the
    // stalled write completes bit-identically off the retransmission timer.
    let mut sw = Switch::new(4);
    sw.set_drop_rate(1.0, 42);
    let (mut a, mut b, data) = rdma_pair(20_000);

    for _ in 0..5 {
        let mut batch = Vec::new();
        for f in a.poll_tx_frames() {
            batch.extend(sw.inject(SimTime::ZERO, 0, f));
        }
        for f in a.on_timeout_frames() {
            batch.extend(sw.inject(SimTime::ZERO, 0, f));
        }
        assert!(batch.is_empty(), "a blackhole delivers nothing");
    }
    assert!(a.poll_completions().is_empty());
    assert!(b.memory()[4096..4096 + 20_000].iter().all(|&x| x == 0));
    assert!(sw.stats(0).dropped > 0);

    sw.set_drop_rate(0.0, 42);
    pump(&mut sw, &mut a, &mut b);
    let comps = a.poll_completions();
    assert_eq!(comps.len(), 1);
    assert!(comps[0].1.status.is_ok());
    assert_eq!(&b.memory()[4096..4096 + 20_000], &data[..]);
}

#[test]
fn fault_trace_is_seed_deterministic() {
    let run = |seed: u64| {
        let plan = FaultPlan::new(seed)
            .net_loss(0.2)
            .net_reorder(0.1)
            .net_corrupt(0.1);
        let (sw, _, b) = run_faulted_write(&plan, 50_000);
        let trace = sw.chaos().unwrap().trace().clone();
        (trace.hash(), trace.len(), fnv(b.memory()))
    };
    let (h1, n1, m1) = run(7);
    let (h2, n2, m2) = run(7);
    assert_eq!((h1, n1, m1), (h2, n2, m2), "same seed, same run");
    assert!(n1 > 0, "the storm fired");
    let (h3, _, _) = run(8);
    assert_ne!(h1, h3, "different seed, different fault sequence");
}

// --- Reconfiguration faults ------------------------------------------

fn driver_with_shell(digest_seed: u64) -> (CoyoteDriver, Bitstream) {
    let mut drv = CoyoteDriver::new(DeviceKind::U55C);
    let shell = Bitstream::assemble(DeviceKind::U55C, BitstreamKind::Shell, 2_000, digest_seed);
    drv.reconfigure(SimTime::ZERO, shell.bytes(), false)
        .unwrap();
    (drv, shell)
}

fn shell_digest(drv: &CoyoteDriver) -> u64 {
    drv.config_state().image(PartitionId::Shell).unwrap().digest
}

#[test]
fn bitstream_flips_are_caught_and_retried_to_success() {
    for seed in SEEDS {
        let (mut drv, _) = driver_with_shell(11);
        let next = Bitstream::assemble(DeviceKind::U55C, BitstreamKind::Shell, 2_000, 22);
        // Ops 0 and 1 (the first two programming attempts) each see one
        // in-flight bit flip; the third attempt goes through clean.
        let plan = FaultPlan::new(seed)
            .bitstream_flip_at(0, 123)
            .bitstream_flip_at(1, 40_001);
        drv.attach_icap_chaos(plan.injector(Domain::Reconfig));

        let r = drv
            .reconfigure_batched(
                SimTime::ZERO,
                next.bytes(),
                true,
                RetryPolicy::reconfig_default(),
                None,
            )
            .unwrap();
        assert_eq!(r.attempts, 3, "two flipped attempts then success");
        assert_eq!(r.flips_detected, 2);
        assert_eq!(r.rejects, 0);
        assert!(r.recovered);
        assert_eq!(shell_digest(&drv), next.digest(), "verify-after-write");

        let trace = drv.icap_chaos().unwrap().trace();
        assert_eq!(trace.of_kind(TraceKind::Injected).count(), 2);
        assert_eq!(trace.of_kind(TraceKind::Detected).count(), 2);
        assert_eq!(trace.of_kind(TraceKind::Recovered).count(), 1);
    }
}

#[test]
fn exhausted_retry_budget_keeps_prior_image() {
    let (mut drv, shell) = driver_with_shell(11);
    let before = shell_digest(&drv);
    assert_eq!(before, shell.digest());
    let next = Bitstream::assemble(DeviceKind::U55C, BitstreamKind::Shell, 2_000, 22);
    // Every attempt's in-flight copy gets a (derived, deterministic) flip.
    let plan = FaultPlan::new(3).bitstream_flip_rate(1.0);
    drv.attach_icap_chaos(plan.injector(Domain::Reconfig));

    let policy = RetryPolicy::reconfig_default();
    let err = drv
        .reconfigure_batched(SimTime::ZERO, next.bytes(), false, policy, None)
        .unwrap_err();
    assert_eq!(
        err,
        ReconfigError::RetriesExhausted {
            attempts: policy.max_attempts
        }
    );
    // Graceful fallback: the previously active image is still in place and
    // was never replaced by a corrupted blob.
    assert_eq!(shell_digest(&drv), before);
    let trace = drv.icap_chaos().unwrap().trace();
    assert_eq!(
        trace.of_kind(TraceKind::Injected).count(),
        policy.max_attempts as usize
    );
    assert_eq!(trace.of_kind(TraceKind::Recovered).count(), 0);
}

#[test]
fn transient_icap_reject_is_retried() {
    let (mut drv, _) = driver_with_shell(11);
    let next = Bitstream::assemble(DeviceKind::U55C, BitstreamKind::Shell, 2_000, 22);
    let plan = FaultPlan::new(5).icap_reject_at(0);
    drv.attach_icap_chaos(plan.injector(Domain::Reconfig));

    let r = drv
        .reconfigure_batched(
            SimTime::ZERO,
            next.bytes(),
            false,
            RetryPolicy::reconfig_default(),
            None,
        )
        .unwrap();
    assert_eq!(r.attempts, 2);
    assert_eq!(r.rejects, 1);
    assert_eq!(r.flips_detected, 0);
    assert!(r.recovered);
    assert_eq!(shell_digest(&drv), next.digest());
}

#[test]
fn retry_cost_is_bounded_by_the_backoff_schedule() {
    // The deterministic backoff makes recovery timing a pure function of
    // the policy: a two-flip run costs exactly the two extra kernel stages
    // plus the 1 ms + 2 ms delays, never more.
    let (mut drv, _) = driver_with_shell(11);
    let next = Bitstream::assemble(DeviceKind::U55C, BitstreamKind::Shell, 2_000, 22);
    let clean = drv
        .reconfigure_batched(
            SimTime::ZERO,
            next.bytes(),
            false,
            RetryPolicy::reconfig_default(),
            None,
        )
        .unwrap();

    let (mut drv2, _) = driver_with_shell(11);
    let plan = FaultPlan::new(9)
        .bitstream_flip_at(0, 77)
        .bitstream_flip_at(1, 78);
    drv2.attach_icap_chaos(plan.injector(Domain::Reconfig));
    let faulted = drv2
        .reconfigure_batched(
            SimTime::ZERO,
            next.bytes(),
            false,
            RetryPolicy::reconfig_default(),
            None,
        )
        .unwrap();

    let overhead = faulted
        .timing
        .total_latency
        .saturating_sub(clean.timing.total_latency);
    let backoff_total = SimDuration::from_ms(1) + SimDuration::from_ms(2);
    assert!(
        overhead >= backoff_total,
        "two retries pay at least the backoff delays"
    );
    // Each failed attempt also repeats the kernel-copy + setup stage; cap
    // the overhead at three clean kernel latencies plus the delays.
    let cap = backoff_total + clean.timing.kernel_latency * 3;
    assert!(overhead <= cap, "overhead {overhead} vs cap {cap}");
}

// --- Batched reconfiguration faults -----------------------------------

use coyote_driver::CompletionStatus;

/// 2000 shell frames split into 8 contiguous runs of 250.
const BATCH_FRAMES_PER_RUN: u64 = 250;

#[test]
fn batched_icap_reject_mid_batch_requeues_only_that_run() {
    let (mut drv, _) = driver_with_shell(11);
    let next = Bitstream::assemble(DeviceKind::U55C, BitstreamKind::Shell, 2_000, 22);
    // Op 3 is the fourth `program_run` of the batch: a mid-batch transient
    // reject, with three runs already streamed and four still queued.
    let plan = FaultPlan::new(5).icap_reject_at(3);
    drv.attach_icap_chaos(plan.injector(Domain::Reconfig));

    let r = drv
        .reconfigure_batched(
            SimTime::ZERO,
            next.bytes(),
            false,
            RetryPolicy::reconfig_default(),
            Some(BATCH_FRAMES_PER_RUN),
        )
        .unwrap();
    assert_eq!(r.runs, 8);
    assert_eq!(r.attempts, r.runs + 1, "one extra attempt, not a resubmit");
    assert_eq!(r.retried_runs, 1, "only the rejected run is re-queued");
    assert_eq!(r.rejects, 1);
    assert_eq!(r.flips_detected, 0);
    assert!(r.recovered);
    assert_eq!(shell_digest(&drv), next.digest(), "commit on verified pass");

    // The ring writeback tells the same story: one Rejected record for run
    // 3's first attempt, a Done for its second, and every completion clean
    // otherwise — runs that already passed were never re-streamed.
    assert_eq!(r.completions.len(), r.attempts as usize);
    let rejected: Vec<_> = r
        .completions
        .iter()
        .filter(|c| c.status == CompletionStatus::Rejected)
        .collect();
    assert_eq!((rejected[0].run, rejected[0].attempt), (3, 1));
    assert_eq!(rejected.len(), 1);
    assert!(r
        .completions
        .iter()
        .any(|c| c.run == 3 && c.attempt == 2 && c.status == CompletionStatus::Done));
    assert!(r
        .completions
        .iter()
        .filter(|c| c.run != 3)
        .all(|c| c.attempt == 1 && c.status == CompletionStatus::Done));
    assert_eq!(
        drv.completion_ring().high_water(),
        r.attempts as usize,
        "the batch-size guard held: the ring absorbed every writeback"
    );
}

#[test]
fn batched_exhausted_budget_never_commits_a_partial_batch() {
    let (mut drv, shell) = driver_with_shell(11);
    let before = shell_digest(&drv);
    assert_eq!(before, shell.digest());
    let next = Bitstream::assemble(DeviceKind::U55C, BitstreamKind::Shell, 2_000, 22);
    // Every attempt's in-flight run copy gets a deterministic flip: the
    // first run can never pass, so the whole batch must fail closed.
    let plan = FaultPlan::new(3).bitstream_flip_rate(1.0);
    drv.attach_icap_chaos(plan.injector(Domain::Reconfig));

    let policy = RetryPolicy::reconfig_default();
    let err = drv
        .reconfigure_batched(
            SimTime::ZERO,
            next.bytes(),
            false,
            policy,
            Some(BATCH_FRAMES_PER_RUN),
        )
        .unwrap_err();
    assert_eq!(
        err,
        ReconfigError::RetriesExhausted {
            attempts: policy.max_attempts
        }
    );
    // All-or-nothing: seven runs never started, the flipped one never
    // committed, and the previously active image is still in place.
    assert_eq!(shell_digest(&drv), before);
    let trace = drv.icap_chaos().unwrap().trace();
    assert_eq!(
        trace.of_kind(TraceKind::Injected).count(),
        policy.max_attempts as usize
    );
    assert_eq!(trace.of_kind(TraceKind::Recovered).count(), 0);
}

#[test]
fn a_faulted_batched_reconfiguration_never_writes_the_callers_blob() {
    let (mut drv, _) = driver_with_shell(11);
    let next = Bitstream::assemble(DeviceKind::U55C, BitstreamKind::Shell, 2_000, 23);
    let pristine = next.bytes().to_vec();
    // Flip a bit of the second run in flight; the retry streams it clean.
    let plan = FaultPlan::new(7).bitstream_flip_at(1, 8 * 64 + 5);
    drv.attach_icap_chaos(plan.injector(Domain::Reconfig));
    let r = drv
        .reconfigure_batched(
            SimTime::ZERO,
            next.bytes(),
            false,
            RetryPolicy::reconfig_default(),
            Some(BATCH_FRAMES_PER_RUN),
        )
        .unwrap();
    assert_eq!((r.flips_detected, r.retried_runs), (1, 1));
    assert!(r.recovered);
    assert_eq!(shell_digest(&drv), next.digest());

    // The flip hit the port's copy, never the resident image: its bytes
    // are the ones written at assembly, so answering a later `validate` by
    // identity (without reading them) is still sound.
    assert!(
        next.bytes() == &pristine[..],
        "the caller's blob was written"
    );
    assert_eq!(Bitstream::validate(next.bytes()), Ok(*next.header()));
    let (body, trailer) = next.bytes().split_at(next.bytes().len() - 4);
    assert_eq!(
        coyote_fabric::crc32(body).to_le_bytes(),
        trailer,
        "body CRC equals the trailer"
    );
    // A private cache proves the bytes from scratch: CRC and frame scan.
    let fresh = coyote_fabric::BitstreamCache::new(4);
    assert_eq!(
        Bitstream::validate_in(&fresh, next.bytes()),
        Ok(*next.header())
    );
    assert_eq!(
        fresh.stats().misses,
        1,
        "validated by content, not identity"
    );
}

#[test]
fn batched_fault_trace_fingerprint_is_worker_count_invariant() {
    // A fleet of faulted batched reconfigurations fanned out over 1, 4 and
    // 8 workers: every tenant's FaultTrace must hash bit-identically
    // regardless of the worker count.
    let fleet = || -> Vec<u64> {
        let tenants: Vec<u64> = (0..12).collect();
        let traces: Vec<FaultTrace> = coyote_sim::par_map(&tenants, |_, &t| {
            let (mut drv, _) = driver_with_shell(11);
            let next = Bitstream::assemble(DeviceKind::U55C, BitstreamKind::Shell, 2_000, 100 + t);
            let plan = FaultPlan::new(1_000 + t).bitstream_flip_at(1, 17 + t * 8);
            drv.attach_icap_chaos(plan.injector(Domain::Reconfig));
            let r = drv
                .reconfigure_batched(
                    SimTime::ZERO,
                    next.bytes(),
                    false,
                    RetryPolicy::reconfig_default(),
                    Some(BATCH_FRAMES_PER_RUN),
                )
                .unwrap();
            assert!(r.recovered);
            drv.icap_chaos().unwrap().trace().clone()
        });
        traces.iter().map(FaultTrace::hash).collect()
    };
    let mut runs = Vec::new();
    for workers in ["1", "4", "8"] {
        std::env::set_var(coyote_sim::par::THREADS_ENV, workers);
        runs.push(fleet());
    }
    std::env::remove_var(coyote_sim::par::THREADS_ENV);
    assert!(runs[0].iter().all(|&h| h != 0));
    assert_eq!(runs[0], runs[1], "1 vs 4 workers");
    assert_eq!(runs[1], runs[2], "4 vs 8 workers");
}

// --- Tenant crashes -----------------------------------------------------
//
// No plan injects a tenant crash (vFPGA orchestration is not modelled), but
// the reclaim a crash needs is: `XdmaEngine::evict_tenant`.

fn submit(engine: &mut XdmaEngine, tenant: u8, len: u64, dir: XdmaDir) {
    let id = engine.next_job_id();
    engine.submit(DmaJob {
        id,
        dir,
        tenant,
        host_addr: 0,
        len,
    });
}

#[test]
fn tenant_crash_reclaims_queues_and_spares_survivors() {
    // Two tenants with eight packets queued in each direction; tenant 0
    // dies before service. Its queues are reclaimed in both directions, no
    // packet of it is delivered, and the survivor's whole job books with
    // the timing it would have had alone.
    let dirs = [XdmaDir::H2C, XdmaDir::C2H];
    let mut e = XdmaEngine::new();
    let mut alone = XdmaEngine::new();
    for dir in dirs {
        submit(&mut e, 0, 32 << 10, dir);
        submit(&mut e, 1, 32 << 10, dir);
        submit(&mut alone, 1, 32 << 10, dir);
    }
    e.evict_tenant(0);
    for dir in dirs {
        assert_eq!(e.pending(dir), 8, "{dir:?}: crashed queue reclaimed");
        let done = e.book_all(SimTime::ZERO, dir);
        assert!(done.iter().all(|p| p.job.tenant == 1), "{dir:?}");
        assert_eq!(done.len(), 8, "{dir:?}: the survivor's whole job books");
        assert!(done[7].job_done);
        let expect = alone.book_all(SimTime::ZERO, dir);
        let transfers = |d: &[PacketDone]| -> Vec<_> { d.iter().map(|p| p.transfer).collect() };
        assert_eq!(transfers(&done), transfers(&expect), "{dir:?}");
        assert_eq!(e.pending(dir), 0);
    }
}
