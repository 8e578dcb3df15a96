//! A Coyote v1 baseline (Korolija et al., OSDI'20), for the comparisons of
//! §9.6 (Fig. 11).
//!
//! Differences from Coyote v2 captured by this model, per §2.1:
//!
//! * **Single data stream per vFPGA** — every software thread shares one
//!   stream, so there is no hardware multithreading: all cThreads collapse
//!   onto AXI `TID` 0 and dependent-block kernels serialize.
//! * **Static service layer** — "the service layer ... cannot be
//!   reconfigured without rebooting the FPGA": changing services costs a
//!   full Vivado reprogram + hot-plug + driver re-insert.
//! * **Leaner base shell** — v1 lacks the extra interfaces (multi-stream
//!   plumbing, user interrupts, writeback extension), so its base
//!   utilization is slightly lower; Fig. 11 shows v2's utilization a bit
//!   higher at equal performance.

use crate::config::ShellConfig;
use crate::cthread::CThread;
use crate::platform::{Platform, PlatformError};
use coyote_fabric::ResourceVec;
use coyote_synth::IpBlock;

/// The v1 baseline platform.
pub struct V1Platform {
    inner: Platform,
}

impl V1Platform {
    /// Bring up a v1-style platform: same substrates, one host stream.
    pub fn load(mut config: ShellConfig) -> Result<V1Platform, PlatformError> {
        config.n_host_streams = 1;
        config.n_card_streams = config.n_card_streams.min(1);
        Ok(V1Platform {
            inner: Platform::load(config)?,
        })
    }

    /// Access the underlying platform (kernel loading, buffers, invokes).
    pub fn platform_mut(&mut self) -> &mut Platform {
        &mut self.inner
    }

    /// Read access.
    pub fn platform(&self) -> &Platform {
        &self.inner
    }

    /// Create a thread. v1 has a single stream: every thread gets `TID` 0,
    /// so "multithreading" provides no hardware parallelism.
    pub fn create_thread(&mut self, vfpga: u8, hpid: u32) -> Result<CThread, PlatformError> {
        let mut t = CThread::create(&mut self.inner, vfpga, hpid)?;
        t.tid = 0;
        Ok(t)
    }

    /// v1's base shell footprint: the v2 service set minus the multi-stream
    /// interfaces, user-interrupt plumbing and extended writeback (~12 % of
    /// the host-interface logic, per the "slightly higher resource
    /// utilization" of Fig. 11).
    pub fn base_resources(config: &ShellConfig) -> ResourceVec {
        let v2: ResourceVec = config.service_blocks().iter().map(IpBlock::footprint).sum();
        // The savings are concentrated in the host interface; globally
        // v1 ~ 88% of the v2 service footprint.
        ResourceVec {
            lut: v2.lut * 88 / 100,
            ff: v2.ff * 88 / 100,
            bram: v2.bram * 92 / 100,
            uram: v2.uram,
            dsp: v2.dsp,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn v1_forces_single_stream() {
        let mut v1 = V1Platform::load(ShellConfig::host_only(1)).unwrap();
        assert_eq!(v1.platform().config().n_host_streams, 1);
        let a = v1.create_thread(0, 1).unwrap();
        let b = v1.create_thread(0, 1).unwrap();
        assert_eq!(a.tid, 0);
        assert_eq!(b.tid, 0, "all v1 threads share the single stream");
    }

    #[test]
    fn v1_base_shell_is_smaller() {
        let cfg = ShellConfig::host_memory(1, 16);
        let v1 = V1Platform::base_resources(&cfg);
        let v2: ResourceVec = cfg.service_blocks().iter().map(IpBlock::footprint).sum();
        assert!(v1.lut < v2.lut);
        assert!(v1.bram < v2.bram);
    }

    #[test]
    fn v1_service_change_takes_a_minute() {
        // v1 has no reconfigurable services: changing one takes the FPGA
        // offline for a full Vivado reprogram of the device.
        let v1 = V1Platform::load(ShellConfig::host_only(1)).unwrap();
        let full = coyote_fabric::Device::new(v1.platform().config().device).full_config_bytes();
        let cost = coyote_driver::VivadoBaseline::full_flow(full);
        assert!(cost.as_secs_f64() > 50.0, "got {cost}");
    }
}
