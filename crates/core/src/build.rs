//! Glue between the runtime and the build flows of `coyote-synth`.
//!
//! §4: "the users simply choose the various shell configurations they would
//! like to synthesize through compile-time parameters. Coyote v2 will then
//! synthesize all the necessary partial bitstreams."

use crate::config::ShellConfig;
use crate::platform::{Platform, PlatformError};
use coyote_fabric::{Device, PartitionId};
use coyote_synth::flow::{check_fit, partition_footprint, FlowError};
use coyote_synth::{app_flow, shell_flow, AppArtifacts, BuildRequest, IpBlock, ShellArtifacts};

/// Build every partial bitstream for `config` with the given per-vFPGA app
/// blocks.
pub fn build_shell(
    config: &ShellConfig,
    apps: Vec<Vec<IpBlock>>,
) -> Result<ShellArtifacts, PlatformError> {
    config.validate().map_err(PlatformError::Config)?;
    let req = BuildRequest {
        device: config.device,
        profile: config.profile(),
        n_vfpgas: config.n_vfpgas,
        services: config.service_blocks(),
        apps,
    };
    shell_flow(&req).map_err(PlatformError::Flow)
}

/// The shell flow's fit check on `config`'s service blocks, without
/// synthesizing them: `Err` exactly when [`build_shell`] fails the
/// services partition before placement.
///
/// # Panics
///
/// Panics if `config` fails [`ShellConfig::validate`] (there is no
/// floorplan to fit).
pub fn check_service_fit(config: &ShellConfig) -> Result<(), FlowError> {
    let band = config
        .floorplan()
        .capacity_of(&Device::new(config.device), PartitionId::Shell)
        .expect("preset floorplan has a shell");
    check_fit(
        "services",
        &partition_footprint(&config.service_blocks()),
        &band,
    )
}

/// Build an app against an existing shell checkpoint (the fast flow of
/// §9.2).
pub fn build_app(
    blocks: &[IpBlock],
    vfpga: u8,
    checkpoint: &coyote_synth::ShellCheckpoint,
) -> Result<AppArtifacts, PlatformError> {
    app_flow(blocks, vfpga, checkpoint).map_err(PlatformError::Flow)
}

impl Platform {
    /// Register the artifacts of a shell build so its bitstreams can be
    /// loaded at run time: the shell digest maps to `config`, and each app
    /// bitstream digest must be registered separately with a kernel
    /// factory via [`Platform::register_app`].
    pub fn register_built_shell(&mut self, config: ShellConfig, artifacts: &ShellArtifacts) {
        self.register_shell(artifacts.shell_bitstream.digest(), config);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use coyote_synth::Ip;

    #[test]
    fn build_and_register_roundtrip() {
        let config = ShellConfig::host_only(1);
        let artifacts = build_shell(&config, vec![vec![IpBlock::new(Ip::Passthrough)]]).unwrap();
        let mut platform = Platform::load(config.clone()).unwrap();
        platform.register_built_shell(config, &artifacts);
        assert!(platform
            .shell_registry
            .contains_key(&artifacts.shell_bitstream.digest()));
        assert_eq!(artifacts.app_bitstreams.len(), 1);
    }

    #[test]
    fn service_fit_is_the_shell_flows_check() {
        let fits = ShellConfig::host_memory(1, 8);
        assert_eq!(check_service_fit(&fits), Ok(()));
        // 32 channels and a 512 Ki-entry sTLB overflow the service band.
        let mut overflows = ShellConfig::host_memory(1, 32);
        overflows.mmu.stlb.sets = 1 << 16;
        overflows.mmu.stlb.ways = 8;
        let err = check_service_fit(&overflows).unwrap_err();
        assert!(matches!(
            err,
            FlowError::ResourceOverflow {
                partition: "services",
                ..
            }
        ));
        let apps = vec![vec![IpBlock::new(Ip::Passthrough)]];
        assert!(matches!(
            build_shell(&overflows, apps),
            Err(PlatformError::Flow(e)) if e == err
        ));
    }

    #[test]
    fn invalid_config_rejected_before_synthesis() {
        let config = ShellConfig::host_only(0);
        assert!(matches!(
            build_shell(&config, vec![]),
            Err(PlatformError::Config(_))
        ));
    }
}
