//! Offline bitstream verification (BS001–BS006).
//!
//! The driver's ICAP load path validates blobs at reconfiguration time —
//! when a bad image already means a failed deployment. This module runs the
//! same structural checks *offline* over the raw bytes, plus deployment
//! checks the load path cannot do alone: does the blob target the card we
//! are about to flash (BS006), and do its frames stay inside the partition
//! the floorplan reserves for it (BS005)?

use crate::diag::{Diagnostic, Location, Report, Severity};
use coyote_fabric::{Bitstream, BitstreamError, BitstreamKind, DeviceKind, Floorplan};

/// Where a verified blob is about to be deployed.
#[derive(Debug, Clone)]
pub struct DeployContext<'a> {
    /// The card in the target node.
    pub device: DeviceKind,
    /// The floorplan the running shell was built against, if known.
    pub floorplan: Option<&'a Floorplan>,
}

fn loc(name: &str, path: &str) -> Location {
    Location::new(format!("bitstream:{name}"), path)
}

/// Verify one blob. `ctx` enables the deployment rules (BS005/BS006);
/// without it only the structural rules run.
pub fn lint_bitstream(name: &str, bytes: &[u8], ctx: Option<&DeployContext<'_>>) -> Report {
    let mut report = Report::new();
    let header = match Bitstream::validate(bytes) {
        Ok(header) => header,
        Err(e) => {
            let (rule, path) = match &e {
                BitstreamError::BadMagic
                | BitstreamError::BadVersion(_)
                | BitstreamError::UnknownDevice(_)
                | BitstreamError::BadKind(_) => ("BS001", "header".to_string()),
                BitstreamError::TooShort(_) | BitstreamError::Truncated { .. } => {
                    ("BS002", "body".to_string())
                }
                BitstreamError::CrcMismatch { .. } => ("BS003", "trailer".to_string()),
                BitstreamError::BadFrameAddress { index, .. } => {
                    ("BS004", format!("frame[{index}]"))
                }
            };
            report.push(
                Diagnostic::new(rule, Severity::Error, loc(name, &path), e.to_string())
                    .with_suggestion("re-run the build flow; do not hand-edit blobs"),
            );
            return report;
        }
    };

    let Some(ctx) = ctx else {
        return report;
    };

    // BS006: device identity. Loading a U250 image on a U55C bricks the
    // shell until a full reflash.
    if header.device != ctx.device {
        report.push(
            Diagnostic::new(
                "BS006",
                Severity::Error,
                loc(name, "header"),
                format!(
                    "bitstream targets {} but the node carries {}",
                    header.device.name(),
                    ctx.device.name()
                ),
            )
            .with_suggestion(format!("rebuild for {}", ctx.device.name())),
        );
    }

    // BS005: frame budget of the target partition. Frame addresses are
    // relative to the partition base, so a record count above the
    // partition's frame space means the tail frames configure tiles the
    // floorplan never granted to this image.
    if let Some(fp) = ctx.floorplan {
        let target = match header.kind {
            BitstreamKind::Full => "device".to_string(),
            BitstreamKind::Shell => "shell".to_string(),
            BitstreamKind::App { vfpga } => format!("vfpga({vfpga})"),
        };
        match fp.image(header.kind, header.digest) {
            None => {
                report.push(Diagnostic::new(
                    "BS005",
                    Severity::Error,
                    loc(name, "frames"),
                    format!(
                        "bitstream targets partition {target} which the floorplan does not define"
                    ),
                ));
            }
            Some(partition) => {
                let budget = partition.frames();
                if header.frames > budget {
                    report.push(
                        Diagnostic::new(
                            "BS005",
                            Severity::Error,
                            loc(name, "frames"),
                            format!(
                                "{} frames exceed partition {target}'s frame space of {budget} — \
                                 the tail frames address tiles outside the partition",
                                header.frames
                            ),
                        )
                        .with_suggestion("the image was built against a larger floorplan; rebuild"),
                    );
                }
            }
        }
    }

    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use coyote_fabric::{ShellProfile, FRAME_RECORD_BYTES, HEADER_BYTES};

    fn ctx(fp: &Floorplan) -> DeployContext<'_> {
        DeployContext {
            device: DeviceKind::U55C,
            floorplan: Some(fp),
        }
    }

    #[test]
    fn well_built_images_verify_clean() {
        let fp = Floorplan::preset(DeviceKind::U55C, ShellProfile::HostMemory, 2);
        for kind in [BitstreamKind::Shell, BitstreamKind::App { vfpga: 1 }] {
            let bs = fp.image(kind, 0xC0FFEE).unwrap();
            let r = lint_bitstream("image", bs.bytes(), Some(&ctx(&fp)));
            assert!(r.is_clean(), "{}", r.render_human());
        }
    }

    #[test]
    fn structural_failures_map_to_rules() {
        let fp = Floorplan::preset(DeviceKind::U55C, ShellProfile::HostOnly, 1);
        let good = Bitstream::assemble(DeviceKind::U55C, BitstreamKind::Shell, 8, 1);

        let mut bad_magic = good.bytes().to_vec();
        bad_magic[0] = b'Z';
        assert_eq!(
            lint_bitstream("m", &bad_magic, Some(&ctx(&fp))).diagnostics[0].rule_id,
            "BS001"
        );

        let mut short = good.bytes().to_vec();
        short.truncate(HEADER_BYTES);
        assert_eq!(
            lint_bitstream("s", &short, None).diagnostics[0].rule_id,
            "BS002"
        );

        let mut flipped = good.bytes().to_vec();
        let mid = flipped.len() / 2;
        flipped[mid] ^= 1;
        assert_eq!(
            lint_bitstream("c", &flipped, None).diagnostics[0].rule_id,
            "BS003"
        );

        let mut resequenced = good.bytes().to_vec();
        let off = HEADER_BYTES + 3 * FRAME_RECORD_BYTES;
        resequenced[off..off + 4].copy_from_slice(&77u32.to_le_bytes());
        let end = resequenced.len() - 4;
        let crc = coyote_fabric::crc32(&resequenced[..end]).to_le_bytes();
        resequenced[end..].copy_from_slice(&crc);
        let r = lint_bitstream("r", &resequenced, None);
        assert_eq!(r.diagnostics[0].rule_id, "BS004");
        assert_eq!(r.diagnostics[0].location.path, "frame[3]");
    }

    #[test]
    fn oversized_image_flagged_outside_partition() {
        let fp = Floorplan::preset(DeviceKind::U55C, ShellProfile::HostOnly, 1);
        let kind = BitstreamKind::App { vfpga: 0 };
        let budget = fp.image(kind, 2).unwrap().frames();
        let bs = Bitstream::assemble(DeviceKind::U55C, kind, budget + 1, 2);
        let r = lint_bitstream("big", bs.bytes(), Some(&ctx(&fp)));
        assert_eq!(r.of_rule("BS005").count(), 1, "{}", r.render_human());
    }

    #[test]
    fn missing_partition_and_wrong_device_flagged() {
        let fp = Floorplan::preset(DeviceKind::U55C, ShellProfile::HostOnly, 1);
        let bs = Bitstream::assemble(DeviceKind::U250, BitstreamKind::App { vfpga: 6 }, 4, 2);
        let r = lint_bitstream("b", bs.bytes(), Some(&ctx(&fp)));
        assert_eq!(r.of_rule("BS006").count(), 1);
        assert_eq!(r.of_rule("BS005").count(), 1);
    }
}
