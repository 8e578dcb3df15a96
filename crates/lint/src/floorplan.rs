//! Floorplan design rules (FP007).
//!
//! Partition geometry itself is checked where floorplans are made:
//! `Floorplan::preset` validates bounds, overlaps, containment and the
//! shell's presence by construction. What validity does not cover is the
//! clock-region discipline of the vFPGA regions.

use crate::diag::{Diagnostic, Location, Report, Severity};
use coyote_fabric::{Floorplan, PartitionId};

/// Rows per clock region on the modeled UltraScale+-style grid (100-row
/// devices split into 4 horizontal clock regions, like the real parts'
/// 60-CLB-row regions).
pub const CLOCK_REGION_ROWS: u32 = 25;

/// Run every floorplan rule.
pub fn lint_floorplan(fp: &Floorplan) -> Report {
    let mut report = Report::new();
    for p in fp.partitions() {
        let PartitionId::Vfpga(v) = p.id else {
            continue;
        };
        // FP007: clock-region discipline. A region is fine if it lies inside
        // one clock region or if both edges sit on region boundaries;
        // anything else straddles.
        let r0 = p.rect.row0;
        let r1 = p.rect.row1;
        let same_region = (r0 / CLOCK_REGION_ROWS) == ((r1 - 1) / CLOCK_REGION_ROWS);
        let aligned = r0 % CLOCK_REGION_ROWS == 0 && r1 % CLOCK_REGION_ROWS == 0;
        if !same_region && !aligned {
            report.push(
                Diagnostic::new(
                    "FP007",
                    Severity::Warning,
                    Location::new(
                        format!("floorplan:{}", fp.device().name()),
                        format!("vfpga({v})"),
                    ),
                    format!(
                        "vFPGA {v} rows {r0}..{r1} straddle a clock-region boundary \
                         (regions are {CLOCK_REGION_ROWS} rows); partial clock regions \
                         complicate routing and clock gating"
                    ),
                )
                .with_suggestion(format!(
                    "align region rows to multiples of {CLOCK_REGION_ROWS}"
                )),
            );
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use coyote_fabric::{DeviceKind, ShellProfile};

    #[test]
    fn preset_floorplans_are_clean() {
        for profile in [
            ShellProfile::HostOnly,
            ShellProfile::HostMemory,
            ShellProfile::HostMemoryNetwork,
        ] {
            for n in [1u8, 2, 4] {
                let fp = Floorplan::preset(DeviceKind::U55C, profile, n);
                let r = lint_floorplan(&fp);
                assert!(r.is_clean(), "{profile:?}/{n}: {}", r.render_human());
            }
        }
    }

    #[test]
    fn straddling_preset_warns_but_does_not_error() {
        // 3 vFPGAs on 100 rows: bands of 33 rows straddle the 25-row clock
        // regions without alignment.
        let fp = Floorplan::preset(DeviceKind::U55C, ShellProfile::HostMemory, 3);
        let r = lint_floorplan(&fp);
        assert!(r.of_rule("FP007").count() >= 1);
        assert_ne!(r.max_severity(), Some(Severity::Error));
    }
}
