//! Run-time reconfiguration: the `cRcnfg` API of Code 2.
//!
//! ```c++
//! cRcnfg rcnfg(0);
//! rcnfg.reconfigureShell("/path/to/shell.bin");
//! rcnfg.reconfigureApp("/path/to/app.bin", 2);
//! ```
//!
//! A shell reconfiguration swaps services *and* wipes every vFPGA (the §4
//! fail-safe); an app reconfiguration replaces one vFPGA's logic while the
//! rest of the system keeps running.

use crate::platform::{Platform, PlatformError, VfpgaState};
use coyote_driver::reconfig::ReconfigTiming;
use coyote_fabric::bitstream::{Bitstream, BitstreamHeader, BitstreamKind};
use coyote_mem::card::CardMemKind;
use coyote_mem::CardMemory;
use std::path::Path;

/// Reconfiguration handle bound to one platform/device.
pub struct CRcnfg {
    hpid: u32,
}

impl CRcnfg {
    /// Create a reconfiguration instance for the calling process.
    pub fn new(platform: &mut Platform, hpid: u32) -> CRcnfg {
        platform.driver_mut().open(hpid);
        CRcnfg { hpid }
    }

    /// Reconfigure the whole shell from a bitstream file on disk.
    pub fn reconfigure_shell(
        &self,
        platform: &mut Platform,
        path: &Path,
    ) -> Result<ReconfigTiming, PlatformError> {
        let blob = std::fs::read(path).map_err(|e| PlatformError::Io(e.to_string()))?;
        self.reconfigure_shell_bytes(platform, &blob, true)
    }

    /// Reconfigure the shell from an in-memory bitstream ("keeping certain
    /// frequently used shell bitstreams in memory", §9.3).
    pub fn reconfigure_shell_bytes(
        &self,
        platform: &mut Platform,
        blob: &[u8],
        from_disk: bool,
    ) -> Result<ReconfigTiming, PlatformError> {
        let header = Bitstream::validate(blob).map_err(|e| {
            PlatformError::Reconfig(coyote_driver::reconfig::ReconfigError::Bitstream(e))
        })?;
        self.reconfigure_shell_parsed(platform, &header, from_disk)
    }

    /// Reconfigure the shell from an already-validated image's header.
    /// Handing [`CRcnfg::reconfigure_shell_bytes`] a resident image's
    /// bytes already skips the content hash (validation answers by
    /// identity); this is the path for an image whose bytes were never
    /// read, which stays unwritten. Modeled latencies are identical to
    /// [`CRcnfg::reconfigure_shell_bytes`].
    pub fn reconfigure_shell_parsed(
        &self,
        platform: &mut Platform,
        header: &BitstreamHeader,
        from_disk: bool,
    ) -> Result<ReconfigTiming, PlatformError> {
        let digest = header.digest;
        let new_config = platform
            .shell_registry
            .get(&digest)
            .cloned()
            .ok_or(PlatformError::UnknownApp(digest))?;
        // Refuse a shell the platform could not bring up before the image
        // rewrites anything.
        new_config.validate().map_err(PlatformError::Config)?;
        let now = platform.now;
        let timing = platform
            .driver_mut()
            .reconfigure_parsed(now, header, from_disk)
            .map_err(PlatformError::Reconfig)?;

        // Swap the dynamic layer to the new services.
        platform
            .driver_mut()
            .set_card(if new_config.services.memory_channels > 0 {
                Some(CardMemory::with_channels(
                    CardMemKind::Hbm,
                    new_config.services.memory_channels,
                ))
            } else {
                None
            });
        platform.balboa = new_config
            .services
            .networking
            .then(crate::rdma::BalboaService::new);
        platform.tcp = new_config
            .services
            .networking
            .then(|| coyote_net::TcpStack::new(new_config.mac(), new_config.ip()));
        platform.sniffer = new_config
            .sniffer_config
            .filter(|_| new_config.services.sniffer)
            .map(coyote_net::TrafficSniffer::new);
        // The fail-safe: all vFPGAs are rewritten by the shell image, so
        // every kernel slot resets.
        platform.vfpgas = (0..new_config.n_vfpgas)
            .map(|_| VfpgaState::new(&new_config))
            .collect();
        platform.next_tid = vec![0; new_config.n_vfpgas as usize];
        platform.shell_digest = digest;
        platform.config = new_config;
        platform.advance_to(timing.program_done);
        // Reconfiguration completion interrupt (§5.1).
        platform.driver_mut().notify(
            self.hpid,
            coyote_driver::IrqEvent::ReconfigDone {
                at: timing.program_done,
            },
        );
        Ok(timing)
    }

    /// Reconfigure one vFPGA from a bitstream file.
    pub fn reconfigure_app(
        &self,
        platform: &mut Platform,
        path: &Path,
        vfpga: u8,
    ) -> Result<ReconfigTiming, PlatformError> {
        let blob = std::fs::read(path).map_err(|e| PlatformError::Io(e.to_string()))?;
        self.reconfigure_app_bytes(platform, &blob, vfpga, true)
    }

    /// Reconfigure one vFPGA from an in-memory bitstream. The image must be
    /// an app image built for `vfpga`; nothing about the platform changes
    /// unless programming succeeds.
    pub fn reconfigure_app_bytes(
        &self,
        platform: &mut Platform,
        blob: &[u8],
        vfpga: u8,
        from_disk: bool,
    ) -> Result<ReconfigTiming, PlatformError> {
        use coyote_driver::reconfig::ReconfigError;
        platform.vfpga(vfpga)?;
        let header = Bitstream::validate(blob)
            .map_err(|e| PlatformError::Reconfig(ReconfigError::Bitstream(e)))?;
        if header.kind != (BitstreamKind::App { vfpga }) {
            return Err(PlatformError::Reconfig(ReconfigError::WrongTarget {
                image: header.kind,
                vfpga,
            }));
        }
        let digest = header.digest;
        let factory_kernel = {
            let factory = platform
                .app_registry
                .get(&digest)
                .ok_or(PlatformError::UnknownApp(digest))?;
            factory()
        };
        let now = platform.now;
        let timing = platform
            .driver_mut()
            .reconfigure_parsed(now, &header, from_disk)
            .map_err(PlatformError::Reconfig)?;
        // In-flight traffic of the region is dropped, like the real shell
        // quiescing a region before PR.
        platform.xdma.evict_tenant(vfpga);
        platform.load_kernel(vfpga, factory_kernel)?;
        platform.vfpga_mut(vfpga)?.loaded_digest = digest;
        platform.advance_to(timing.program_done);
        platform.driver_mut().notify(
            self.hpid,
            coyote_driver::IrqEvent::ReconfigDone {
                at: timing.program_done,
            },
        );
        Ok(timing)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ShellConfig;
    use crate::kernel::Passthrough;
    use coyote_dma::{DmaJob, XdmaDir};
    use coyote_fabric::DeviceKind;

    #[test]
    fn only_a_programmed_app_image_evicts_the_regions_queued_traffic() {
        let mut p = Platform::load(ShellConfig::host_only(1)).unwrap();
        let rcnfg = CRcnfg::new(&mut p, 1);
        let id = p.xdma.next_job_id();
        p.xdma.submit(DmaJob {
            id,
            dir: XdmaDir::H2C,
            tenant: 0,
            host_addr: 0,
            len: 4096,
        });
        let queued = p.xdma.pending(XdmaDir::H2C);
        assert!(queued > 0);
        for (device, digest) in [(DeviceKind::U250, 0xD0), (DeviceKind::U55C, 0xD1)] {
            p.register_app(digest, || Box::new(Passthrough::default()));
            let bs = Bitstream::assemble(device, BitstreamKind::App { vfpga: 0 }, 8, digest);
            let programmed = rcnfg
                .reconfigure_app_bytes(&mut p, bs.bytes(), 0, false)
                .is_ok();
            assert_eq!(programmed, device == DeviceKind::U55C);
            let left = p.xdma.pending(XdmaDir::H2C);
            assert_eq!(left, if programmed { 0 } else { queued }, "{device:?}");
        }
    }
}
