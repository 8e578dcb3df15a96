//! The shell datapath executor.
//!
//! Turns queued invocations into timed, byte-accurate data movement:
//!
//! 1. **Translate** — each invocation's source/destination virtual
//!    addresses go through the owning vFPGA's MMU (TLB hit/miss latency,
//!    driver fallback); the mapping's location decides the path (host
//!    streams via XDMA, card streams via HBM channels + the shared
//!    virtualization pipeline of Fig. 7(a)).
//! 2. **Packetize + book inputs** — 4 KB chunks, round-robin interleaved
//!    across tenants on the host link (Fig. 8), per-stream credit windows
//!    bounding outstanding packets (§7.2).
//! 3. **Kernel execution** — packets reach the vFPGA in arrival order;
//!    streaming kernels process at their line rate, block-dependent kernels
//!    (AES CBC) issue 16-byte blocks into the shared 10-stage pipeline with
//!    per-thread chaining dependences (Fig. 10).
//! 4. **Book outputs + complete** — transformed bytes land in the
//!    destination memory; the completion writeback counter bumps; the
//!    invocation's completion time is the last output arrival.

use crate::cthread::{CThread, Completion, Oper, SgEntry};
use crate::kernel::KernelTiming;
use crate::platform::{Platform, PlatformError};
use bytes::Bytes;
use coyote_axi::stream::{beats_for, DEFAULT_BUS_BYTES};
use coyote_dma::{DmaJob, XdmaDir};
use coyote_mmu::{MemLocation, TranslateOutcome};
use coyote_sched::packetize_iter;
use coyote_sim::{params, RrQueue, SimDuration, SimTime};
use std::collections::{BTreeMap, HashMap, VecDeque};

/// A queued, not-yet-executed invocation.
#[derive(Debug, Clone, Copy)]
pub struct PendingInvocation {
    pub(crate) id: u64,
    pub(crate) thread: u64,
    pub(crate) vfpga: u8,
    pub(crate) hpid: u32,
    pub(crate) tid: u16,
    pub(crate) oper: Oper,
    pub(crate) sg: SgEntry,
    pub(crate) issued_at: SimTime,
}

/// Queue an invocation (called from [`CThread::invoke`]).
pub(crate) fn queue_invocation(
    platform: &mut Platform,
    thread: &CThread,
    oper: Oper,
    sg: SgEntry,
) -> Result<u64, PlatformError> {
    if !platform.threads.contains(&thread.id) {
        return Err(PlatformError::BadThread(thread.id));
    }
    if sg.len == 0 {
        return Err(PlatformError::Driver(
            coyote_driver::DriverError::BadAddress(sg.src_addr),
        ));
    }
    let id = platform.next_invocation;
    platform.next_invocation += 1;
    let issued_at = platform.now;
    platform.pending.push(PendingInvocation {
        id,
        thread: thread.id,
        vfpga: thread.vfpga,
        hpid: thread.hpid,
        tid: thread.tid,
        oper,
        sg,
        issued_at,
    });
    Ok(id)
}

struct ResolvedInv {
    inv: PendingInvocation,
    start: SimTime,
    src_loc: MemLocation,
    src_paddr: u64,
    dst: Option<(MemLocation, u64)>,
}

#[derive(Debug)]
struct InputPacket {
    inv_idx: usize,
    seq: u32,
    arrival: SimTime,
    /// Payload as a refcounted buffer: moving a packet between the booking,
    /// sort, and per-thread queues of `drain` never copies the bytes.
    data: Bytes,
}

impl Platform {
    /// Execute everything queued; returns the new completions in
    /// completion-time order.
    pub fn drain(&mut self) -> Result<Vec<Completion>, PlatformError> {
        let pending = std::mem::take(&mut self.pending);
        if pending.is_empty() {
            return Ok(Vec::new());
        }
        let mut completions = Vec::new();

        // Split off migrations; they ride the dedicated migration channel.
        // Stale-TLB maintenance is *deferred*: each migration queues its
        // page invalidation into a per-vFPGA epoch, and the epoch closes
        // with a single coalesced shootdown (one TlbInvalidation interrupt
        // per vFPGA per drain) before any transfer translates — so no
        // access can observe a stale entry, but N migrations no longer cost
        // N shootdowns.
        let mut transfers = Vec::new();
        let mut epochs: BTreeMap<u8, (coyote_mmu::TlbEpoch, SimTime)> = BTreeMap::new();
        for inv in pending {
            match inv.oper {
                Oper::MigrateToCard | Oper::MigrateToHost => {
                    let wanted = if inv.oper == Oper::MigrateToCard {
                        MemLocation::Card
                    } else {
                        MemLocation::Host
                    };
                    let start = inv.issued_at + params::INVOKE_SW_OVERHEAD;
                    let (m, done) =
                        self.driver
                            .service_fault(start, inv.hpid, inv.sg.src_addr, wanted)?;
                    // Queue the stale entry for the epoch-close shootdown;
                    // the serviced fault surfaces as MSI-X immediately
                    // (§5.1's interrupt sources).
                    let slot = epochs
                        .entry(inv.vfpga)
                        .or_insert_with(|| (coyote_mmu::TlbEpoch::new(), done));
                    slot.0.invalidate_page(inv.hpid, m.vaddr);
                    slot.1 = slot.1.max(done);
                    self.msix.raise(
                        1,
                        coyote_dma::IrqReason::PageFault {
                            vfpga: inv.vfpga,
                            vaddr: m.vaddr,
                        },
                        done,
                    );
                    self.driver.notify(
                        inv.hpid,
                        coyote_driver::IrqEvent::FaultServiced { vaddr: m.vaddr },
                    );
                    completions.push(Completion {
                        invocation: inv.id,
                        thread: inv.thread,
                        issued_at: inv.issued_at,
                        completed_at: done,
                        bytes_in: m.len,
                        bytes_out: m.len,
                    });
                }
                _ => transfers.push(inv),
            }
        }
        // Close the migration epochs: one coalesced shootdown (and one
        // TlbInvalidation interrupt) per touched vFPGA, ordered before the
        // translation phase below.
        for (vfpga, (epoch, done)) in epochs {
            self.vfpgas[vfpga as usize].mmu.apply_epoch(epoch);
            self.msix
                .raise(2, coyote_dma::IrqReason::TlbInvalidation { vfpga }, done);
        }
        if transfers.is_empty() {
            completions.sort_by_key(|c| c.completed_at);
            if let Some(last) = completions.last() {
                self.advance_to(last.completed_at);
            }
            return Ok(completions);
        }

        // Phase 1: translation through the per-vFPGA MMUs.
        let mut resolved = Vec::with_capacity(transfers.len());
        for inv in transfers {
            let mut start = inv.issued_at + params::INVOKE_SW_OVERHEAD;
            let space = self
                .driver
                .address_space(inv.hpid)
                .ok_or(coyote_driver::DriverError::NoSuchProcess(inv.hpid))?
                .clone();
            let mmu = &mut self.vfpgas[inv.vfpga as usize].mmu;
            let src_out = mmu.translate(inv.hpid, inv.sg.src_addr, false, None, &space);
            let src = src_out
                .translation()
                .ok_or_else(|| PlatformError::Driver(fault_err(&src_out)))?;
            start += src_out.latency();
            let dst = if inv.oper == Oper::LocalTransfer {
                let dst_out = mmu.translate(inv.hpid, inv.sg.dst_addr, true, None, &space);
                let d = dst_out
                    .translation()
                    .ok_or_else(|| PlatformError::Driver(fault_err(&dst_out)))?;
                start += dst_out.latency();
                Some((d.loc, d.paddr))
            } else {
                None
            };
            resolved.push(ResolvedInv {
                inv,
                start,
                src_loc: src.loc,
                src_paddr: src.paddr,
                dst,
            });
        }

        // Phase 2: book inputs and read source bytes.
        let mut inputs: Vec<InputPacket> = Vec::new();
        let mut host_job_map: HashMap<u64, (usize, u64)> = HashMap::new(); // job -> (inv idx, paddr base)
        let mut card_rr: RrQueue<usize, coyote_sched::Packet> = RrQueue::new();
        let mut min_start = SimTime::MAX;
        for (idx, r) in resolved.iter().enumerate() {
            min_start = min_start.min(r.start);
            match r.src_loc {
                MemLocation::Host => {
                    let id = self.xdma.next_job_id();
                    self.xdma.submit(DmaJob {
                        id,
                        dir: XdmaDir::H2C,
                        tenant: r.inv.vfpga,
                        host_addr: r.src_paddr,
                        len: r.inv.sg.len,
                    });
                    host_job_map.insert(id, (idx, r.src_paddr));
                }
                MemLocation::Card | MemLocation::Gpu => {
                    for p in packetize_iter(r.src_paddr, r.inv.sg.len, params::DEFAULT_PACKET_BYTES)
                    {
                        card_rr.push(idx, p);
                    }
                }
            }
        }
        // Host inputs: fair-shared on the H2C pipe. Credit windows bound
        // the outstanding packets per (vFPGA, stream, read).
        let mut windows: BTreeMap<(u8, u8, bool), VecDeque<SimTime>> = BTreeMap::new();
        for done in self.xdma.book_all(min_start, XdmaDir::H2C) {
            let (inv_idx, _) = host_job_map[&done.job.id];
            let r = &resolved[inv_idx];
            let key = (
                r.inv.vfpga,
                (r.inv.tid % self.config.n_host_streams as u16) as u8,
                false,
            );
            let mut arrival = done.transfer.arrival.max(r.start);
            // Credit window: if the pool is exhausted, this packet waits
            // for the oldest outstanding completion (§7.2 back-pressure).
            let window = windows.entry(key).or_default();
            if !self.credits.try_acquire(key, 1) {
                if let Some(oldest) = window.pop_front() {
                    arrival = arrival.max(oldest);
                    self.credits.release(key, 1);
                    let ok = self.credits.try_acquire(key, 1);
                    debug_assert!(ok, "credit released above");
                }
            }
            window.push_back(arrival);
            if window.len() > params::DEFAULT_STREAM_CREDITS as usize {
                window.pop_front();
                self.credits.release(key, 1);
            }
            let data = self.driver.phys_read(
                MemLocation::Host,
                done.packet.addr,
                done.packet.len as usize,
            )?;
            inputs.push(InputPacket {
                inv_idx,
                seq: done.packet.index,
                arrival,
                data: Bytes::from(data),
            });
        }
        // Release any credits still held by the drained windows.
        for (key, window) in windows {
            self.credits.release(key, window.len() as u64);
        }
        // Card and GPU inputs: per-packet round-robin across invocations.
        // A card packet occupies the shared virtualization pipeline, then
        // its stripe's channels; a GPU packet crosses the peer-to-peer link.
        let mut card_seq: HashMap<usize, u32> = HashMap::new();
        let mut card_last_arrival: HashMap<usize, SimTime> = HashMap::new();
        while let Some((inv_idx, p)) = card_rr.pop() {
            let r = &resolved[inv_idx];
            let raw = self.book_device(r.src_loc, r.start, p.addr, p.len)?;
            // The vFPGA's stream delivers in order even though stripes land
            // on independently-queued channels: a packet is visible only
            // after its predecessors (reorder buffer at the stream port).
            let last = card_last_arrival.entry(inv_idx).or_insert(SimTime::ZERO);
            let arrival = raw.max(*last);
            *last = arrival;
            let data = self.driver.phys_read(r.src_loc, p.addr, p.len as usize)?;
            let seq = card_seq.entry(inv_idx).or_insert(0);
            inputs.push(InputPacket {
                inv_idx,
                seq: *seq,
                arrival,
                data: Bytes::from(data),
            });
            *seq += 1;
        }

        // Phase 3: kernel execution, per vFPGA, in arrival order. Block-
        // dependent kernels interleave the *blocks* of all threads through
        // the shared pipeline in global time order (that is what fills the
        // idle stages in Fig. 10(b)); streaming kernels process packets in
        // order at their line rate.
        inputs.sort_by_key(|p| (p.arrival, p.inv_idx, p.seq));
        // (inv idx, ready time, output bytes, seq).
        let mut outputs: Vec<(usize, SimTime, Bytes, u32)> = Vec::new();
        let mut kernel_latency: HashMap<usize, SimDuration> = HashMap::new();
        // Packets destined to block-pipeline kernels, grouped per
        // (vfpga, tid), in order.
        let mut block_queues: BTreeMap<(usize, u16), VecDeque<InputPacket>> = BTreeMap::new();
        for p in inputs {
            let r = &resolved[p.inv_idx];
            let v = r.inv.vfpga as usize;
            let timing = {
                let slot = &self.vfpgas[v];
                slot.kernel
                    .as_ref()
                    .ok_or(PlatformError::NoKernel(r.inv.vfpga))?
                    .timing()
            };
            // The vFPGA ingests the packet as 512-bit AXI beats tagged
            // with the thread id; in debug builds the pack/reassemble path
            // is executed for real to keep the AXI layer honest.
            self.vfpgas[v].beats_in += beats_for(p.data.len(), DEFAULT_BUS_BYTES) as u64;
            #[cfg(debug_assertions)]
            {
                let mut stream = coyote_axi::AxiStream::new();
                stream
                    .push_packet(&p.data, r.inv.tid, 0)
                    .expect("bus-width packing");
                let (back, tid) = stream
                    .pop_packet()
                    .expect("well-formed")
                    .expect("one packet");
                debug_assert_eq!(back, p.data);
                debug_assert_eq!(tid, r.inv.tid);
            }
            match timing {
                KernelTiming::Streaming {
                    bytes_per_cycle,
                    latency_cycles,
                } => {
                    let done_at = {
                        let slot = &mut self.vfpgas[v];
                        let start = p.arrival.max(slot.kernel_ready);
                        let cycles = (p.data.len() as u64).div_ceil(bytes_per_cycle as u64);
                        let done = start + params::SYS_CLOCK.cycles(cycles);
                        slot.kernel_ready = done;
                        done
                    };
                    kernel_latency
                        .entry(p.inv_idx)
                        .or_insert(params::SYS_CLOCK.cycles(latency_cycles as u64));
                    let (out, irqs) = {
                        let slot = &mut self.vfpgas[v];
                        let kernel = slot.kernel.as_mut().expect("checked above");
                        let out = kernel.process_packet(r.inv.tid, &p.data);
                        (out, kernel.take_interrupts())
                    };
                    self.deliver_user_interrupts(r.inv.vfpga, r.inv.hpid, done_at, irqs);
                    self.vfpgas[v].beats_out += beats_for(out.len(), DEFAULT_BUS_BYTES) as u64;
                    let extra = kernel_latency
                        .get(&p.inv_idx)
                        .copied()
                        .unwrap_or(SimDuration::ZERO);
                    outputs.push((p.inv_idx, done_at + extra, Bytes::from(out), p.seq));
                }
                KernelTiming::BlockPipeline { .. } => {
                    block_queues.entry((v, r.inv.tid)).or_default().push_back(p);
                }
            }
        }
        // Merge block-kernel threads through their shared pipelines: a
        // min-heap over per-thread candidate issue times; one block issues
        // per pop, so threads genuinely interleave in the pipeline.
        type ThreadQueue = ((usize, u16), VecDeque<InputPacket>);
        let mut by_vfpga: BTreeMap<usize, Vec<ThreadQueue>> = BTreeMap::new();
        for (key, q) in block_queues {
            by_vfpga.entry(key.0).or_default().push((key, q));
        }
        for (v, mut queues) in by_vfpga {
            let (block_bytes, overhead_cycles) = match self.vfpgas[v]
                .kernel
                .as_ref()
                .expect("checked above")
                .timing()
            {
                KernelTiming::BlockPipeline {
                    block_bytes,
                    overhead_cycles,
                    ..
                } => (block_bytes as u64, overhead_cycles as u64),
                KernelTiming::Streaming { .. } => unreachable!("block queue"),
            };
            queues.sort_by_key(|(key, _)| key.1); // Deterministic thread order.
                                                  // Per-queue progress: (remaining blocks of head packet).
            let mut heads: Vec<u64> = queues
                .iter()
                .map(|(_, q)| {
                    q.front()
                        .map(|p| (p.data.len() as u64).div_ceil(block_bytes).max(1))
                        .unwrap_or(0)
                })
                .collect();
            use std::cmp::Reverse;
            use std::collections::BinaryHeap;
            let mut heap: BinaryHeap<Reverse<(SimTime, usize)>> = BinaryHeap::new();
            for (qi, (key, q)) in queues.iter().enumerate() {
                if let Some(p) = q.front() {
                    let ready = self.vfpgas[v]
                        .thread_ready
                        .get(&key.1)
                        .copied()
                        .unwrap_or(SimTime::ZERO);
                    heap.push(Reverse((p.arrival.max(ready), qi)));
                }
            }
            while let Some(Reverse((candidate, qi))) = heap.pop() {
                let (key, q) = &mut queues[qi];
                let tid = key.1;
                let done = {
                    let slot = &mut self.vfpgas[v];
                    let pipeline = slot.pipeline.as_mut().expect("block kernel has a pipeline");
                    let issue = pipeline.issue(candidate);
                    let done = issue.done + params::SYS_CLOCK.cycles(overhead_cycles);
                    slot.thread_ready.insert(tid, done);
                    done
                };
                heads[qi] -= 1;
                if heads[qi] == 0 {
                    // Packet complete: transform the data now.
                    let p = q.pop_front().expect("head packet exists");
                    let (out, irqs) = {
                        let slot = &mut self.vfpgas[v];
                        let kernel = slot.kernel.as_mut().expect("checked above");
                        let out = kernel.process_packet(tid, &p.data);
                        (out, kernel.take_interrupts())
                    };
                    let hpid = resolved[p.inv_idx].inv.hpid;
                    self.deliver_user_interrupts(v as u8, hpid, done, irqs);
                    self.vfpgas[v].beats_out += beats_for(out.len(), DEFAULT_BUS_BYTES) as u64;
                    outputs.push((p.inv_idx, done, Bytes::from(out), p.seq));
                    if let Some(next) = q.front() {
                        heads[qi] = (next.data.len() as u64).div_ceil(block_bytes).max(1);
                        heap.push(Reverse((next.arrival.max(done), qi)));
                    }
                } else {
                    let arrival = q.front().expect("still processing head").arrival;
                    heap.push(Reverse((arrival.max(done), qi)));
                }
            }
        }

        // Phase 4: book outputs, write destination bytes, complete.
        outputs.sort_by_key(|(idx, t, _, seq)| (*t, *idx, *seq));
        let mut inv_done: HashMap<usize, SimTime> = HashMap::new();
        let mut inv_out_bytes: HashMap<usize, u64> = HashMap::new();
        let mut dst_offsets: HashMap<usize, u64> = HashMap::new();
        for (inv_idx, ready, out, _seq) in outputs {
            let r = &resolved[inv_idx];
            let done = if let (Some((dst_loc, dst_paddr)), false) = (r.dst, out.is_empty()) {
                let off = dst_offsets.entry(inv_idx).or_insert(0);
                let addr = dst_paddr + *off;
                *off += out.len() as u64;
                let arrival = match dst_loc {
                    MemLocation::Host => {
                        self.xdma
                            .book_direct(ready, XdmaDir::C2H, out.len() as u64)
                            .arrival
                    }
                    MemLocation::Card | MemLocation::Gpu => {
                        self.book_device(dst_loc, ready, addr, out.len() as u64)?
                    }
                };
                self.driver.phys_write(dst_loc, addr, &out)?;
                arrival
            } else {
                ready
            };
            let e = inv_done.entry(inv_idx).or_insert(done);
            *e = (*e).max(done);
            *inv_out_bytes.entry(inv_idx).or_insert(0) += out.len() as u64;
        }

        for (idx, r) in resolved.iter().enumerate() {
            let completed_at = inv_done.get(&idx).copied().unwrap_or(r.start);
            // Completion writeback (§5.1), "extended to all additional data
            // services": independent counters per (vFPGA, source) — host
            // read 0 / card read 1 / host write 3 / card write 4.
            let rd_src = match r.src_loc {
                MemLocation::Host => 0u8,
                _ => 1,
            };
            self.writeback
                .bump((r.inv.vfpga, rd_src), self.driver.host_mut());
            if let Some((dst_loc, _)) = r.dst {
                let wr_src = match dst_loc {
                    MemLocation::Host => 3u8,
                    _ => 4,
                };
                self.writeback
                    .bump((r.inv.vfpga, wr_src), self.driver.host_mut());
            }
            completions.push(Completion {
                invocation: r.inv.id,
                thread: r.inv.thread,
                issued_at: r.inv.issued_at,
                completed_at,
                bytes_in: r.inv.sg.len,
                bytes_out: inv_out_bytes.get(&idx).copied().unwrap_or(0),
            });
        }
        completions.sort_by_key(|c| c.completed_at);
        self.completions.extend(completions.iter().copied());
        // The batch is done: software observes completion before issuing
        // the next round, so the platform clock advances to the last
        // completion.
        if let Some(last) = completions.last() {
            self.advance_to(last.completed_at);
        }
        Ok(completions)
    }
}

fn fault_err(out: &TranslateOutcome) -> coyote_driver::DriverError {
    match out {
        TranslateOutcome::Faulted(f) => coyote_driver::DriverError::Fault(*f),
        _ => unreachable!("only called on faulted outcomes"),
    }
}

impl Platform {
    /// Book `len` bytes at `addr` of card or GPU memory, ready at `at`;
    /// returns when they arrive. Card traffic is admitted by the shared
    /// virtualization pipeline and striped over the memory channels; GPU
    /// traffic crosses the PCIe peer-to-peer link.
    fn book_device(
        &mut self,
        loc: MemLocation,
        at: SimTime,
        addr: u64,
        len: u64,
    ) -> Result<SimTime, PlatformError> {
        if loc == MemLocation::Gpu {
            let gpu = self
                .driver
                .gpu_mut()
                .ok_or(PlatformError::MissingService("GPU"))?;
            return Ok(gpu.book_p2p(at, len).arrival);
        }
        let virt_done = self.virt_server.admit(at);
        let card = self
            .driver
            .card_mut()
            .ok_or(PlatformError::MissingService("card memory"))?;
        let transfers = card.book_access(virt_done, addr, len);
        Ok(coyote_mem::CardMemory::completion_of(&transfers))
    }

    /// Deliver user-issued interrupts: MSI-X vector + eventfd signal (§7.1).
    fn deliver_user_interrupts(&mut self, vfpga: u8, hpid: u32, at: SimTime, values: Vec<u64>) {
        for value in values {
            self.msix.raise(
                8 + vfpga as u16,
                coyote_dma::IrqReason::User { vfpga, value },
                at,
            );
            self.driver
                .notify(hpid, coyote_driver::IrqEvent::User { vfpga, value });
        }
    }
}
