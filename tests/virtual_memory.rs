//! Shared virtual memory (§6.1): page sizes, TLB behaviour under real
//! invocations, migrations with data, and the GPU extension point.

use coyote::kernel::Passthrough;
use coyote::{CThread, Oper, Platform, SgEntry, ShellConfig};
use coyote_mem::{GpuMemory, PageSize};
use coyote_mmu::MemLocation;
use coyote_sim::time::Bandwidth;

#[test]
fn page_sizes_allocate_and_work() {
    let mut p = Platform::load(ShellConfig::host_only(1)).unwrap();
    p.load_kernel(0, Box::new(Passthrough::default())).unwrap();
    let t = CThread::create(&mut p, 0, 1).unwrap();
    for page in [PageSize::Small, PageSize::Huge2M] {
        let src = t.get_mem_paged(&mut p, 8192, page).unwrap();
        let dst = t.get_mem_paged(&mut p, 8192, page).unwrap();
        t.write(&mut p, src, b"paged data").unwrap();
        t.invoke_sync(&mut p, Oper::LocalTransfer, &SgEntry::local(src, dst, 8192))
            .unwrap();
        assert_eq!(t.read(&p, dst, 10).unwrap(), b"paged data");
    }
}

#[test]
fn tlb_warms_after_first_invocation() {
    let mut p = Platform::load(ShellConfig::host_only(1)).unwrap();
    p.load_kernel(0, Box::new(Passthrough::default())).unwrap();
    let t = CThread::create(&mut p, 0, 1).unwrap();
    let src = t.get_mem(&mut p, 4096).unwrap();
    let dst = t.get_mem(&mut p, 4096).unwrap();
    let cold = t
        .invoke_sync(&mut p, Oper::LocalTransfer, &SgEntry::local(src, dst, 4096))
        .unwrap();
    let warm = t
        .invoke_sync(&mut p, Oper::LocalTransfer, &SgEntry::local(src, dst, 4096))
        .unwrap();
    // Cold pays two driver round trips (~15 us each); warm only SRAM hits.
    let saved = cold.latency().saturating_sub(warm.latency());
    assert!(
        saved.as_micros_f64() > 25.0,
        "TLB warm-up saved only {saved} (cold {}, warm {})",
        cold.latency(),
        warm.latency()
    );
    let stats = p.vfpga(0).unwrap().mmu.ltlb().stats();
    assert!(stats.hits >= 2, "huge-page TLB hits: {stats:?}");
}

#[test]
fn migration_to_card_carries_data_and_times_the_channel() {
    let mut p = Platform::load(ShellConfig::host_memory(1, 8)).unwrap();
    p.load_kernel(0, Box::new(Passthrough::default())).unwrap();
    let t = CThread::create(&mut p, 0, 1).unwrap();
    let len = 8 << 20; // 8 MB of "weights".
    let buf = t.get_mem(&mut p, len).unwrap();
    let data: Vec<u8> = (0..len).map(|i| (i % 251) as u8).collect();
    t.write(&mut p, buf, &data).unwrap();
    assert_eq!(p.buffer_location(1, buf), Some(MemLocation::Host));

    let c = t
        .invoke_sync(&mut p, Oper::MigrateToCard, &SgEntry::source(buf, len))
        .unwrap();
    assert_eq!(p.buffer_location(1, buf), Some(MemLocation::Card));
    // Same virtual address, same data.
    assert_eq!(t.read(&p, buf, len as usize).unwrap(), data);
    // The migration moved the whole mapping over the ~12 GB/s channel:
    // 8 MB is ~0.7 ms plus the fault cost.
    let ms = c.latency().as_millis_f64();
    assert!((0.5..2.0).contains(&ms), "migration took {ms} ms");

    // And back.
    t.invoke_sync(&mut p, Oper::MigrateToHost, &SgEntry::source(buf, len))
        .unwrap();
    assert_eq!(p.buffer_location(1, buf), Some(MemLocation::Host));
    assert_eq!(t.read(&p, buf, 100).unwrap(), data[..100]);
}

#[test]
fn kernel_reads_migrated_buffer_from_card() {
    // The §5.1 migration-channel use case: stage weights to HBM, then
    // stream them into the kernel from card memory.
    let mut p = Platform::load(ShellConfig::host_memory(1, 8)).unwrap();
    p.load_kernel(0, Box::new(Passthrough::default())).unwrap();
    let t = CThread::create(&mut p, 0, 1).unwrap();
    let len = 1 << 20;
    let src = t.get_mem(&mut p, len).unwrap();
    let dst = t.get_mem(&mut p, len).unwrap();
    let data = vec![0x42u8; len as usize];
    t.write(&mut p, src, &data).unwrap();
    t.invoke_sync(&mut p, Oper::MigrateToCard, &SgEntry::source(src, len))
        .unwrap();
    // Invocation now sources from the card automatically.
    t.invoke_sync(&mut p, Oper::LocalTransfer, &SgEntry::local(src, dst, len))
        .unwrap();
    assert_eq!(t.read(&p, dst, len as usize).unwrap(), data);
}

#[test]
fn gpu_peer_to_peer_extension() {
    let mut p = Platform::load(ShellConfig::host_memory(1, 4)).unwrap();
    p.driver_mut().attach_gpu(GpuMemory::new(4 << 30));
    p.load_kernel(0, Box::new(Passthrough::default())).unwrap();
    let t = CThread::create(&mut p, 0, 1).unwrap();
    // Allocate GPU memory mapped into the shared virtual space.
    let m = p.driver_mut().alloc_gpu(1, 64 * 1024).unwrap();
    p.driver_mut()
        .user_write(1, m.vaddr, &vec![9u8; 64 * 1024])
        .unwrap();
    let dst = t.get_mem(&mut p, 64 * 1024).unwrap();
    // The kernel streams directly out of GPU memory.
    t.invoke_sync(
        &mut p,
        Oper::LocalTransfer,
        &SgEntry::local(m.vaddr, dst, 64 * 1024),
    )
    .unwrap();
    assert_eq!(t.read(&p, dst, 64 * 1024).unwrap(), vec![9u8; 64 * 1024]);
}

#[test]
fn gpu_source_rides_the_p2p_link_without_card_memory() {
    // GPU-resident data crosses the PCIe peer-to-peer link (10 Gb/s), not
    // the card's HBM channels: a shell with no card memory still reads it.
    const LEN: u64 = 64 * 1024;
    let mut p = Platform::load(ShellConfig::host_only(1)).unwrap();
    p.driver_mut().attach_gpu(GpuMemory::new(1 << 30));
    p.load_kernel(0, Box::new(Passthrough::default())).unwrap();
    let t = CThread::create(&mut p, 0, 1).unwrap();
    let src = p.driver_mut().alloc_gpu(1, LEN).unwrap().vaddr;
    let data: Vec<u8> = (0..LEN).map(|i| (i % 251) as u8).collect();
    p.driver_mut().user_write(1, src, &data).unwrap();
    let dst = t.get_mem(&mut p, LEN).unwrap();
    let done = t
        .invoke_sync(&mut p, Oper::LocalTransfer, &SgEntry::local(src, dst, LEN))
        .unwrap();
    assert_eq!(t.read(&p, dst, LEN as usize).unwrap(), data);
    let p2p = Bandwidth::gbps(10).time_for(LEN);
    assert!(
        done.latency() >= p2p,
        "{} is faster than the P2P link's {}",
        done.latency(),
        p2p
    );
}

#[test]
fn migration_without_card_memory_fails_cleanly() {
    let mut p = Platform::load(ShellConfig::host_only(1)).unwrap();
    p.load_kernel(0, Box::new(Passthrough::default())).unwrap();
    let t = CThread::create(&mut p, 0, 1).unwrap();
    let buf = t.get_mem(&mut p, 4096).unwrap();
    let err = t
        .invoke_sync(&mut p, Oper::MigrateToCard, &SgEntry::source(buf, 4096))
        .unwrap_err();
    assert!(matches!(err, coyote::PlatformError::Driver(_)));
}

#[test]
fn unmapped_address_faults_the_invocation() {
    let mut p = Platform::load(ShellConfig::host_only(1)).unwrap();
    p.load_kernel(0, Box::new(Passthrough::default())).unwrap();
    let t = CThread::create(&mut p, 0, 1).unwrap();
    let dst = t.get_mem(&mut p, 4096).unwrap();
    let err = t
        .invoke_sync(
            &mut p,
            Oper::LocalTransfer,
            &SgEntry::local(0xDEAD_0000, dst, 4096),
        )
        .unwrap_err();
    assert!(matches!(err, coyote::PlatformError::Driver(_)));
}

#[test]
fn fault_interrupts_surface_via_msix_and_eventfd() {
    let mut p = Platform::load(ShellConfig::host_memory(1, 4)).unwrap();
    p.load_kernel(0, Box::new(Passthrough::default())).unwrap();
    let t = CThread::create(&mut p, 0, 5).unwrap();
    let buf = t.get_mem(&mut p, 2 << 20).unwrap();
    t.invoke_sync(&mut p, Oper::MigrateToCard, &SgEntry::source(buf, 2 << 20))
        .unwrap();
    // The serviced fault and shoot-down were raised as MSI-X vectors.
    assert!(p.msix().raised() >= 2);
    // And the process observed a FaultServiced event.
    let mut saw = false;
    while let Some(ev) = p.driver_mut().eventfd_mut(5).unwrap().poll() {
        if matches!(ev, coyote_driver::IrqEvent::FaultServiced { .. }) {
            saw = true;
        }
    }
    assert!(saw, "FaultServiced never delivered");
}

#[test]
fn beat_accounting_matches_traffic() {
    let mut p = Platform::load(ShellConfig::host_only(1)).unwrap();
    p.load_kernel(0, Box::new(Passthrough::default())).unwrap();
    let t = CThread::create(&mut p, 0, 6).unwrap();
    let len = 8192u64; // 128 beats each way.
    let src = t.get_mem(&mut p, len).unwrap();
    let dst = t.get_mem(&mut p, len).unwrap();
    t.invoke_sync(&mut p, Oper::LocalTransfer, &SgEntry::local(src, dst, len))
        .unwrap();
    let slot = p.vfpga(0).unwrap();
    assert_eq!(slot.beats_in, 128, "8 KB = 128 x 64 B beats in");
    assert_eq!(slot.beats_out, 128);
}
