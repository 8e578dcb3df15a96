//! The shell datapath executor.
//!
//! Turns queued invocations into timed, byte-accurate data movement:
//!
//! 1. **Translate and check** — each invocation's source/destination
//!    virtual addresses go through the owning vFPGA's MMU (TLB hit/miss
//!    latency, driver fallback); the mapping's location decides the path
//!    (host streams via XDMA, card streams via HBM channels + the shared
//!    virtualization pipeline of Fig. 7(a)). Every source and destination
//!    range must lie inside its memory, and no destination may overlap a
//!    source of the same drain: a bad batch is refused before any booking.
//! 2. **Packetize + book inputs** — 4 KB chunks, round-robin interleaved
//!    across tenants on the host link (Fig. 8), per-stream credit windows
//!    bounding outstanding packets (§7.2). A packet is scheduled by its
//!    `(invocation, seq, arrival, addr, len)` alone; its bytes stay in
//!    source memory.
//! 3. **Kernel execution** — packets reach the vFPGA in arrival order;
//!    streaming kernels process at their line rate, block-dependent kernels
//!    (AES CBC) issue 16-byte blocks into the shared 10-stage pipeline with
//!    per-thread chaining dependences (Fig. 10). When a kernel consumes a
//!    packet, its bytes are read into one reused buffer, transformed there
//!    in place, and the output is written to its destination at once.
//! 4. **Book outputs + complete** — outputs are booked on the destination
//!    link in `(ready, invocation, seq)` order; the completion writeback
//!    counter bumps; the invocation's completion time is the last output
//!    arrival.
//!
//! Each byte is thus read once and written once. On each vFPGA, outputs
//! are produced in phase 4's booking order, so where destinations overlap,
//! the output booked last is also the one written last.

use crate::cthread::{CThread, Completion, Oper, SgEntry};
use crate::kernel::KernelTiming;
use crate::platform::{Platform, PlatformError};
use coyote_axi::stream::{beats_for, DEFAULT_BUS_BYTES};
use coyote_dma::{DmaJob, XdmaDir};
use coyote_mmu::{MemLocation, TranslateOutcome};
use coyote_sched::packetize_iter;
use coyote_sim::{params, RrQueue, SimTime};
use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap, HashMap, VecDeque};

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
    /// Destination memory, physical address, and the bytes reserved there
    /// for the output.
    dst: Option<(MemLocation, u64, u64)>,
}

/// One input packet as phase 2 schedules it: where its bytes are and when
/// they arrive, not the bytes themselves.
#[derive(Debug, Clone, Copy)]
struct InputPacket {
    inv_idx: usize,
    seq: u32,
    arrival: SimTime,
    /// Physical address in the invocation's source memory.
    addr: u64,
    len: u64,
}

/// One kernel output, already written to its destination; phase 4 books
/// its transfer.
#[derive(Debug, Clone, Copy)]
struct OutputPacket {
    inv_idx: usize,
    seq: u32,
    ready: SimTime,
    /// Physical address in the invocation's destination memory.
    addr: u64,
    len: u64,
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

        // Phase 1: translation through the per-vFPGA MMUs, then the checks
        // that refuse a bad batch before anything is booked or moved.
        let mut resolved = Vec::with_capacity(transfers.len());
        for inv in transfers {
            if self.vfpgas[inv.vfpga as usize].kernel.is_none() {
                return Err(PlatformError::NoKernel(inv.vfpga));
            }
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
                // The output may be shorter than the input (a model's
                // logits, a filter), so it is given what is left of the
                // destination's mapping, up to `len`, and no more.
                let room = space
                    .find(inv.sg.dst_addr)
                    .map_or(0, |m| m.vaddr + m.len - inv.sg.dst_addr);
                Some((d.loc, d.paddr, inv.sg.len.min(room)))
            } else {
                None
            };
            // Only the start address was translated: the whole source must
            // fit its memory before the first byte moves. (A destination's
            // room ends inside its mapping, so inside its memory.)
            self.driver.phys_check(src.loc, src.paddr, inv.sg.len)?;
            resolved.push(ResolvedInv {
                inv,
                start,
                src_loc: src.loc,
                src_paddr: src.paddr,
                dst,
            });
        }
        refuse_read_write_overlap(&resolved)?;

        // Phase 2: book inputs. Packets carry where their bytes are, not
        // the bytes.
        let mut inputs: Vec<InputPacket> = Vec::new();
        let mut host_job_map: HashMap<u64, usize> = HashMap::new(); // job -> inv idx
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
                    host_job_map.insert(id, idx);
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
            let inv_idx = host_job_map[&done.job.id];
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
            inputs.push(InputPacket {
                inv_idx,
                seq: done.packet.index,
                arrival,
                addr: done.packet.addr,
                len: done.packet.len,
            });
        }
        // Release any credits still held by the drained windows.
        for (key, window) in windows {
            self.credits.release(key, window.len() as u64);
        }
        // Card and GPU inputs: per-packet round-robin across invocations.
        // A card packet occupies the shared virtualization pipeline, then
        // its stripe's channels; a GPU packet crosses the peer-to-peer link.
        let mut card_seq = vec![0u32; resolved.len()];
        let mut card_last_arrival = vec![SimTime::ZERO; resolved.len()];
        while let Some((inv_idx, p)) = card_rr.pop() {
            let r = &resolved[inv_idx];
            let raw = self.book_device(r.src_loc, r.start, p.addr, p.len)?;
            // The vFPGA's stream delivers in order even though stripes land
            // on independently-queued channels: a packet is visible only
            // after its predecessors (reorder buffer at the stream port).
            let arrival = raw.max(card_last_arrival[inv_idx]);
            card_last_arrival[inv_idx] = arrival;
            inputs.push(InputPacket {
                inv_idx,
                seq: card_seq[inv_idx],
                arrival,
                addr: p.addr,
                len: p.len,
            });
            card_seq[inv_idx] += 1;
        }

        // Phase 3: kernel execution, per vFPGA, in arrival order. Block-
        // dependent kernels interleave the *blocks* of all threads through
        // the shared pipeline in global time order (that is what fills the
        // idle stages in Fig. 10(b)); streaming kernels process packets in
        // order at their line rate. Each consumed packet is read, transformed
        // and written through one reused buffer.
        inputs.sort_by_key(|p| (p.arrival, p.inv_idx, p.seq));
        let mut consumer = Consumer {
            buf: Vec::new(),
            dst_offsets: vec![0; resolved.len()],
            outputs: Vec::with_capacity(inputs.len()),
        };
        // Packets destined to block-pipeline kernels, grouped per vFPGA and
        // thread, in order.
        type ThreadQueues = BTreeMap<u16, VecDeque<InputPacket>>;
        let mut block_queues: BTreeMap<usize, ThreadQueues> = BTreeMap::new();
        for p in inputs {
            let r = &resolved[p.inv_idx];
            let v = r.inv.vfpga as usize;
            // The vFPGA ingests the packet as 512-bit AXI beats tagged
            // with the thread id.
            self.vfpgas[v].beats_in += beats_for(p.len as usize, DEFAULT_BUS_BYTES) as u64;
            let timing = self.vfpgas[v]
                .kernel
                .as_ref()
                .expect("checked in phase 1")
                .timing();
            match timing {
                KernelTiming::Streaming {
                    bytes_per_cycle,
                    latency_cycles,
                } => {
                    let done_at = {
                        let slot = &mut self.vfpgas[v];
                        let start = p.arrival.max(slot.kernel_ready);
                        let cycles = p.len.div_ceil(bytes_per_cycle as u64);
                        let done = start + params::SYS_CLOCK.cycles(cycles);
                        slot.kernel_ready = done;
                        done
                    };
                    let fill = params::SYS_CLOCK.cycles(latency_cycles as u64);
                    consumer.consume(self, r, &p, done_at, done_at + fill)?;
                }
                KernelTiming::BlockPipeline { .. } => {
                    block_queues
                        .entry(v)
                        .or_default()
                        .entry(r.inv.tid)
                        .or_default()
                        .push_back(p);
                }
            }
        }
        // Merge block-kernel threads through their shared pipelines: a
        // min-heap over per-thread candidate issue times keyed
        // `(time, queue index)`; one block issues per step, so threads
        // genuinely interleave in the pipeline. The keys are unique, so the
        // issue order is fixed: a thread whose next candidate would come
        // out of the heap next anyway continues without a push and a pop,
        // and any other takes the heap top's place. Each thread's ready
        // time is written back once, when its vFPGA's merge ends.
        for (v, threads) in block_queues {
            let (tids, mut queues): (Vec<u16>, Vec<VecDeque<InputPacket>>) =
                threads.into_iter().unzip();
            let (block_bytes, overhead) = match self.vfpgas[v]
                .kernel
                .as_ref()
                .expect("checked in phase 1")
                .timing()
            {
                KernelTiming::BlockPipeline {
                    block_bytes,
                    overhead_cycles,
                    ..
                } => (
                    block_bytes as u64,
                    params::SYS_CLOCK.cycles(overhead_cycles as u64),
                ),
                KernelTiming::Streaming { .. } => unreachable!("block queue"),
            };
            let blocks = |p: &InputPacket| p.len.div_ceil(block_bytes).max(1);
            // Per thread: blocks left in its head packet, and when its
            // last issued block completes (the chaining dependence).
            let mut heads: Vec<u64> = queues.iter().map(|q| blocks(&q[0])).collect();
            let mut ready: Vec<SimTime> = tids
                .iter()
                .map(|tid| {
                    let ready = self.vfpgas[v].thread_ready.get(tid).copied();
                    ready.unwrap_or(SimTime::ZERO)
                })
                .collect();
            let mut heap: BinaryHeap<Reverse<(SimTime, usize)>> = queues
                .iter()
                .enumerate()
                .map(|(qi, q)| Reverse((q[0].arrival.max(ready[qi]), qi)))
                .collect();
            let mut next = heap.pop();
            while let Some(Reverse((candidate, qi))) = next {
                let done = {
                    let pipeline = self.vfpgas[v]
                        .pipeline
                        .as_mut()
                        .expect("block kernel has a pipeline");
                    pipeline.issue(candidate).done + overhead
                };
                ready[qi] = done;
                heads[qi] -= 1;
                if heads[qi] == 0 {
                    // Packet complete: transform the data now.
                    let p = queues[qi].pop_front().expect("head packet exists");
                    consumer.consume(self, &resolved[p.inv_idx], &p, done, done)?;
                    if let Some(n) = queues[qi].front() {
                        heads[qi] = blocks(n);
                    }
                }
                next = match queues[qi].front() {
                    Some(head) => {
                        let key = Reverse((head.arrival.max(done), qi));
                        match heap.peek_mut() {
                            Some(mut top) if *top > key => Some(std::mem::replace(&mut *top, key)),
                            _ => Some(key),
                        }
                    }
                    None => heap.pop(),
                };
            }
            let slot = &mut self.vfpgas[v];
            for (tid, done) in tids.into_iter().zip(ready) {
                slot.thread_ready.insert(tid, done);
            }
        }

        // Phase 4: book outputs in (ready, invocation, seq) order, complete.
        let mut outputs = consumer.outputs;
        outputs.sort_by_key(|o| (o.ready, o.inv_idx, o.seq));
        let mut inv_done: Vec<Option<SimTime>> = vec![None; resolved.len()];
        let mut inv_out_bytes = vec![0u64; resolved.len()];
        for o in outputs {
            let r = &resolved[o.inv_idx];
            let done = match r.dst {
                Some((MemLocation::Host, ..)) if o.len > 0 => {
                    self.xdma.book_direct(o.ready, XdmaDir::C2H, o.len).arrival
                }
                Some((dst_loc, ..)) if o.len > 0 => {
                    self.book_device(dst_loc, o.ready, o.addr, o.len)?
                }
                _ => o.ready,
            };
            let e = inv_done[o.inv_idx].get_or_insert(done);
            *e = (*e).max(done);
            inv_out_bytes[o.inv_idx] += o.len;
        }

        for (idx, r) in resolved.iter().enumerate() {
            let completed_at = inv_done[idx].unwrap_or(r.start);
            // Completion writeback (§5.1), "extended to all additional data
            // services": independent counters per (vFPGA, source) — host
            // read 0 / card read 1 / host write 3 / card write 4.
            let rd_src = match r.src_loc {
                MemLocation::Host => 0u8,
                _ => 1,
            };
            self.writeback
                .bump((r.inv.vfpga, rd_src), self.driver.host_mut());
            if let Some((dst_loc, ..)) = r.dst {
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
                bytes_out: inv_out_bytes[idx],
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

/// Phase 3's byte mover: one buffer every packet passes through, and the
/// outputs it has produced so far.
struct Consumer {
    buf: Vec<u8>,
    /// Output bytes written so far per invocation.
    dst_offsets: Vec<u64>,
    outputs: Vec<OutputPacket>,
}

impl Consumer {
    /// The vFPGA's kernel consumes `p` at `at`: read its bytes into the
    /// buffer, transform them in place, write the output to the
    /// invocation's destination at once, and record it for phase 4 as
    /// ready at `ready`.
    fn consume(
        &mut self,
        platform: &mut Platform,
        r: &ResolvedInv,
        p: &InputPacket,
        at: SimTime,
        ready: SimTime,
    ) -> Result<(), PlatformError> {
        let buf = &mut self.buf;
        buf.resize(p.len as usize, 0);
        platform.driver.phys_read(r.src_loc, p.addr, buf)?;
        // In debug builds the AXI pack/reassemble path runs for real to
        // keep the AXI layer honest.
        #[cfg(debug_assertions)]
        {
            let mut stream = coyote_axi::AxiStream::new();
            stream
                .push_packet(buf, r.inv.tid, 0)
                .expect("bus-width packing");
            let (back, tid) = stream
                .pop_packet()
                .expect("well-formed")
                .expect("one packet");
            debug_assert_eq!(&back, buf);
            debug_assert_eq!(tid, r.inv.tid);
        }
        let v = r.inv.vfpga as usize;
        let irqs = {
            let kernel = platform.vfpgas[v]
                .kernel
                .as_mut()
                .expect("checked in phase 1");
            kernel.process_packet(r.inv.tid, buf);
            kernel.take_interrupts()
        };
        platform.deliver_user_interrupts(r.inv.vfpga, r.inv.hpid, at, irqs);
        platform.vfpgas[v].beats_out += beats_for(buf.len(), DEFAULT_BUS_BYTES) as u64;
        let mut addr = 0;
        if let (Some((dst_loc, dst_paddr, room)), false) = (r.dst, buf.is_empty()) {
            let off = &mut self.dst_offsets[p.inv_idx];
            addr = dst_paddr + *off;
            *off += buf.len() as u64;
            // Past its room the output would land on bytes phase 1 did not
            // check against the batch's sources.
            if *off > room {
                return Err(coyote_driver::DriverError::BadAddress(addr).into());
            }
            platform.driver.phys_write(dst_loc, addr, buf)?;
        }
        self.outputs.push(OutputPacket {
            inv_idx: p.inv_idx,
            seq: p.seq,
            ready,
            addr,
            len: buf.len() as u64,
        });
        Ok(())
    }
}

/// Refuse a batch in which a destination overlaps a source, an
/// invocation's own included. Each byte is read only when its kernel
/// consumes it, so such a read would see whatever the drain had written
/// there so far. Destinations may overlap each other.
fn refuse_read_write_overlap(resolved: &[ResolvedInv]) -> Result<(), PlatformError> {
    // (memory, start, end, is a write, invocation), swept in address order.
    let mut ranges: Vec<(MemLocation, u64, u64, bool, u64)> = Vec::new();
    for r in resolved {
        let len = r.inv.sg.len;
        ranges.push((r.src_loc, r.src_paddr, r.src_paddr + len, false, r.inv.id));
        if let Some((loc, paddr, room)) = r.dst {
            ranges.push((loc, paddr, paddr + room, true, r.inv.id));
        }
    }
    ranges.sort_unstable();
    // Per memory, the furthest-reaching read and write seen so far:
    // (end, invocation), indexed by "is a write".
    let mut reach: [Option<(u64, u64)>; 2] = [None, None];
    let mut memory = None;
    for (loc, start, end, write, id) in ranges {
        if memory != Some(loc) {
            memory = Some(loc);
            reach = [None, None];
        }
        if let Some((other_end, other)) = reach[usize::from(!write)] {
            if other_end > start {
                let (reader, writer) = if write { (other, id) } else { (id, other) };
                return Err(PlatformError::ReadWriteOverlap { reader, writer });
            }
        }
        let mine = &mut reach[usize::from(write)];
        if mine.is_none_or(|(e, _)| end > e) {
            *mine = Some((end, id));
        }
    }
    Ok(())
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
