//! Shell lifecycle: build -> load -> run -> reconfigure (§4, §9.3).

use coyote::build::build_shell;
use coyote::config::ConfigError;
use coyote::kernel::Passthrough;
use coyote::{CRcnfg, CThread, Oper, Platform, PlatformError, SgEntry, ShellConfig};
use coyote_chaos::RetryPolicy;
use coyote_driver::{ReconfigError, RING_SLOTS};
use coyote_fabric::{Bitstream, BitstreamKind, DeviceKind};
use coyote_mmu::MmuConfig;
use coyote_sim::SimTime;
use coyote_synth::{Ip, IpBlock};

#[test]
fn scenario1_mmu_page_size_swap() {
    // §9.3 scenario #1: pass-through + 2 MB MMU -> pass-through + 1 GB MMU.
    let cfg_2m = ShellConfig::host_only(1).with_mmu(MmuConfig::default_2m());
    let cfg_1g = ShellConfig::host_only(1).with_mmu(MmuConfig::huge_1g());

    let art_2m = build_shell(&cfg_2m, vec![vec![IpBlock::new(Ip::Passthrough)]]).unwrap();
    let art_1g = build_shell(&cfg_1g, vec![vec![IpBlock::new(Ip::Passthrough)]]).unwrap();

    let mut p = Platform::load(cfg_2m.clone()).unwrap();
    p.register_built_shell(cfg_2m, &art_2m);
    p.register_built_shell(cfg_1g.clone(), &art_1g);
    p.load_kernel(0, Box::new(Passthrough::default())).unwrap();

    // Run something on the 2 MB shell first.
    let t = CThread::create(&mut p, 0, 1).unwrap();
    let src = t.get_mem(&mut p, 4096).unwrap();
    let dst = t.get_mem(&mut p, 4096).unwrap();
    t.write(&mut p, src, b"before reconfig").unwrap();
    t.invoke_sync(&mut p, Oper::LocalTransfer, &SgEntry::local(src, dst, 4096))
        .unwrap();
    assert_eq!(t.read(&p, dst, 15).unwrap(), b"before reconfig");

    // Swap the shell to the 1 GB-page MMU configuration.
    let rcnfg = CRcnfg::new(&mut p, 1);
    let timing = rcnfg
        .reconfigure_shell_bytes(&mut p, art_1g.shell_bitstream.bytes(), true)
        .unwrap();
    // Table 3 scenario #1 band: kernel ~51.6 ms.
    let kernel_ms = timing.kernel_latency.as_millis_f64();
    assert!(
        (50.0..54.0).contains(&kernel_ms),
        "kernel latency {kernel_ms} ms"
    );

    // The fail-safe wiped the vFPGA: the kernel must be reloaded.
    assert!(p.vfpga(0).unwrap().kernel.is_none());
    assert_eq!(p.config().mmu.ltlb.page, coyote_mem::PageSize::Huge1G);
    p.load_kernel(0, Box::new(Passthrough::default())).unwrap();

    // Fresh threads and buffers work on the new shell.
    let t2 = CThread::create(&mut p, 0, 2).unwrap();
    let src2 = t2.get_mem(&mut p, 4096).unwrap();
    let dst2 = t2.get_mem(&mut p, 4096).unwrap();
    t2.write(&mut p, src2, b"after reconfig").unwrap();
    t2.invoke_sync(
        &mut p,
        Oper::LocalTransfer,
        &SgEntry::local(src2, dst2, 4096),
    )
    .unwrap();
    assert_eq!(t2.read(&p, dst2, 14).unwrap(), b"after reconfig");
}

#[test]
fn scenario2_rdma_to_numeric_kernels() {
    // §9.3 scenario #2: RDMA shell + 1 kernel -> memory shell + 2 kernels.
    let cfg_net = ShellConfig::host_memory_network(1, 16);
    let cfg_num = ShellConfig::host_memory(2, 16);
    let art_net = build_shell(&cfg_net, vec![vec![IpBlock::new(Ip::Passthrough)]]).unwrap();
    let art_num = build_shell(
        &cfg_num,
        vec![
            vec![IpBlock::new(Ip::VecAdd)],
            vec![IpBlock::new(Ip::VecProduct)],
        ],
    )
    .unwrap();

    let mut p = Platform::load(cfg_net.clone()).unwrap();
    p.register_built_shell(cfg_net, &art_net);
    p.register_built_shell(cfg_num.clone(), &art_num);
    assert!(p
        .rdma_create_qp(1, coyote_net::QpConfig::pair(1, 2).0)
        .is_ok());

    let rcnfg = CRcnfg::new(&mut p, 1);
    let timing = rcnfg
        .reconfigure_shell_bytes(&mut p, art_num.shell_bitstream.bytes(), true)
        .unwrap();
    // Networking is gone, two vFPGA regions exist.
    assert!(p
        .rdma_create_qp(1, coyote_net::QpConfig::pair(3, 4).0)
        .is_err());
    assert_eq!(p.config().n_vfpgas, 2);
    assert!(p.vfpga(1).is_ok());
    // Loading the 53 MB memory shell: Table 3 scenario #2's ~72 ms kernel
    // latency band.
    let kernel_ms = timing.kernel_latency.as_millis_f64();
    assert!(
        (70.0..75.0).contains(&kernel_ms),
        "kernel latency {kernel_ms} ms"
    );
}

#[test]
fn unregistered_shell_bitstream_rejected() {
    let cfg = ShellConfig::host_only(1);
    let art = build_shell(&cfg, vec![vec![IpBlock::new(Ip::Passthrough)]]).unwrap();
    let mut p = Platform::load(cfg).unwrap();
    // Not registered: the platform cannot know the new configuration.
    let rcnfg = CRcnfg::new(&mut p, 1);
    let err = rcnfg
        .reconfigure_shell_bytes(&mut p, art.shell_bitstream.bytes(), false)
        .unwrap_err();
    assert!(matches!(err, coyote::PlatformError::UnknownApp(_)));
}

#[test]
fn reconfig_completion_interrupt_delivered() {
    let cfg_a = ShellConfig::host_only(1);
    let cfg_b = ShellConfig::host_only(2);
    let art = build_shell(&cfg_b, vec![vec![IpBlock::new(Ip::Passthrough)]; 2]).unwrap();
    let mut p = Platform::load(cfg_a).unwrap();
    p.register_built_shell(cfg_b, &art);
    let rcnfg = CRcnfg::new(&mut p, 77);
    rcnfg
        .reconfigure_shell_bytes(&mut p, art.shell_bitstream.bytes(), false)
        .unwrap();
    let ev = p.driver_mut().eventfd_mut(77).unwrap().poll().unwrap();
    assert!(matches!(ev, coyote_driver::IrqEvent::ReconfigDone { .. }));
}

#[test]
fn bitstream_files_roundtrip_through_disk() {
    // Code 2's file-based API.
    let cfg = ShellConfig::host_only(1);
    let cfg2 = ShellConfig::host_only(3);
    let art = build_shell(&cfg2, vec![vec![IpBlock::new(Ip::Passthrough)]; 3]).unwrap();
    let dir = std::env::temp_dir().join("coyote_lifecycle");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("shell.bin");
    std::fs::write(&path, art.shell_bitstream.bytes()).unwrap();

    let mut p = Platform::load(cfg).unwrap();
    p.register_built_shell(cfg2, &art);
    let rcnfg = CRcnfg::new(&mut p, 1);
    rcnfg.reconfigure_shell(&mut p, &path).unwrap();
    assert_eq!(p.config().n_vfpgas, 3);
    std::fs::remove_file(&path).ok();
}

/// A registered shell image for `config`, without running the build flow:
/// `frames` single-frame runs of a synthetic shell bitstream.
fn register_synthetic_shell(p: &mut Platform, config: ShellConfig, frames: u64) -> Bitstream {
    let image = Bitstream::assemble(DeviceKind::U55C, BitstreamKind::Shell, frames, 7);
    p.register_shell(image.digest(), config);
    image
}

#[test]
fn a_shell_swap_refuses_a_broken_config_before_programming() {
    let mut p = Platform::load(ShellConfig::host_only(1)).unwrap();
    let before = p.shell_digest();
    // A 3-set sTLB: `Mmu::new` would panic on it after the image landed.
    let mut broken = ShellConfig::host_memory(1, 4);
    broken.mmu.stlb.sets = 3;
    let image = register_synthetic_shell(&mut p, broken, 4);
    let err = CRcnfg::new(&mut p, 1)
        .reconfigure_shell_bytes(&mut p, image.bytes(), false)
        .unwrap_err();
    assert!(
        matches!(
            err,
            PlatformError::Config(ConfigError::BadTlbGeometry { tlb: "stlb", .. })
        ),
        "{err}"
    );
    assert_eq!(p.shell_digest(), before, "the old shell stays active");
    assert_eq!(p.now(), SimTime::ZERO, "nothing was programmed");
    assert_eq!(p.config().n_vfpgas, 1);
}

#[test]
fn a_shell_swap_resizes_the_completion_ring() {
    // The ring has one size: after a swap to a different shell it holds a
    // full batch of `RING_SLOTS` runs again and refuses one run more.
    let mut p = Platform::load(ShellConfig::host_only(1)).unwrap();
    let image = register_synthetic_shell(&mut p, ShellConfig::host_memory(1, 4), 8);
    CRcnfg::new(&mut p, 1)
        .reconfigure_shell_bytes(&mut p, image.bytes(), false)
        .unwrap();
    assert_eq!(p.config().services.memory_channels, 4);

    let mut batched = |runs: usize| {
        let now = p.now();
        let image = Bitstream::assemble(DeviceKind::U55C, BitstreamKind::Shell, runs as u64, 7);
        p.driver_mut().reconfigure_batched(
            now,
            image.bytes(),
            false,
            RetryPolicy::reconfig_default(),
            Some(1),
        )
    };
    let err = batched(RING_SLOTS + 1).unwrap_err();
    assert_eq!(
        err,
        ReconfigError::RingTooSmall {
            slots: 16,
            batch: 17
        }
    );
    let done = batched(RING_SLOTS).unwrap();
    assert_eq!(done.runs, 16);
    assert_eq!(done.completions.len(), RING_SLOTS);
}
