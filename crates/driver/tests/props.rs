//! Property-based tests on the batched reconfiguration path.

use coyote_chaos::{Domain, FaultPlan, RetryPolicy};
use coyote_driver::{CompletionStatus, CoyoteDriver};
use coyote_fabric::{Bitstream, BitstreamKind, DeviceKind, PartitionId};
use coyote_sim::SimTime;
use proptest::prelude::*;
use std::sync::OnceLock;

/// 2,000 frames split into 8 runs of 250.
const FRAMES: u64 = 2_000;
const PER_RUN: u64 = 250;
const DIGEST: u64 = 0xF11;

/// One resident image shared by every case, as a redeployed in-memory
/// image is: its split and its runs' CRCs are computed once.
fn image() -> &'static Bitstream {
    static IMAGE: OnceLock<Bitstream> = OnceLock::new();
    IMAGE.get_or_init(|| {
        Bitstream::assemble(
            DeviceKind::U55C,
            BitstreamKind::App { vfpga: 1 },
            FRAMES,
            DIGEST,
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// A bit flipped in flight anywhere in any run is caught by that run's
    /// check, only that run is retried, and the image commits. The blob is
    /// the resident image or a copy of it, so both the memoized and the
    /// hashed run check are exercised.
    #[test]
    fn a_flip_in_any_run_is_caught_and_retried_alone(
        run in 0..FRAMES / PER_RUN,
        bit in any::<u64>(),
        resident in any::<bool>(),
    ) {
        let copy;
        let blob = if resident {
            image().bytes()
        } else {
            copy = image().bytes().to_vec();
            &copy
        };
        let mut drv = CoyoteDriver::new(DeviceKind::U55C);
        drv.attach_icap_chaos(
            FaultPlan::new(run)
                .bitstream_flip_at(run, bit)
                .injector(Domain::Reconfig),
        );
        let r = drv
            .reconfigure_batched(
                SimTime::ZERO,
                blob,
                false,
                RetryPolicy::reconfig_default(),
                Some(PER_RUN),
            )
            .unwrap();
        let flips: Vec<u32> = r
            .completions
            .iter()
            .filter(|c| c.status == CompletionStatus::FlipDetected)
            .map(|c| c.run)
            .collect();
        prop_assert_eq!(flips, vec![run as u32]);
        prop_assert_eq!(r.flips_detected, 1);
        prop_assert_eq!(r.retried_runs, 1);
        prop_assert_eq!(r.attempts, r.runs + 1);
        let committed = drv
            .config_state()
            .image(PartitionId::Vfpga(1))
            .map(|img| img.digest);
        prop_assert_eq!(committed, Some(DIGEST));
    }
}
