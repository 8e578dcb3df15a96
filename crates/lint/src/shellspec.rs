//! The on-disk shell specification (`*.json`) the CLI lints.
//!
//! A deployment describes a shell as a JSON document — device, vFPGA count,
//! services, optional MMU geometry and QP parameters. This module parses
//! that document and converts each section to the runtime value that
//! judges it: the shell to a [`ShellConfig`] and the QP section to a
//! [`QpConfig`].

use coyote::config::{ShellConfig, ShellServices};
use coyote_fabric::DeviceKind;
use coyote_mem::PageSize;
use coyote_mmu::{MmuConfig, TlbConfig};
use coyote_net::QpConfig;
use serde::{Deserialize, Serialize};
use serde_json::Value;

/// One TLB's geometry in the spec file.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TlbSpec {
    /// Set count.
    pub sets: u64,
    /// Ways per set.
    pub ways: u64,
    /// Page size: `"4k"`, `"2m"` or `"1g"`.
    pub page: String,
}

impl TlbSpec {
    pub(crate) fn to_config(&self) -> Result<TlbConfig, String> {
        let page = match self.page.to_ascii_lowercase().as_str() {
            "4k" => PageSize::Small,
            "2m" => PageSize::Huge2M,
            "1g" => PageSize::Huge1G,
            other => return Err(format!("unknown page size '{other}' (use 4k, 2m or 1g)")),
        };
        Ok(TlbConfig {
            sets: self.sets as usize,
            ways: self.ways as usize,
            page,
        })
    }
}

/// MMU geometry in the spec file.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MmuSpec {
    /// Small-page TLB.
    pub stlb: TlbSpec,
    /// Huge-page TLB.
    pub ltlb: TlbSpec,
}

/// QP transport parameters in the spec file.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct QpSpec {
    /// Path MTU in bytes.
    pub mtu: u64,
    /// Outstanding-packet window.
    pub window: u64,
}

impl QpSpec {
    /// The runtime queue-pair parameters this section declares, on the
    /// loopback pair's addresses (only MTU and window are judged).
    pub fn to_qp_config(&self) -> QpConfig {
        QpConfig {
            mtu: usize::try_from(self.mtu).unwrap_or(usize::MAX),
            window: usize::try_from(self.window).unwrap_or(usize::MAX),
            ..QpConfig::pair(1, 2).0
        }
    }
}

/// A full shell specification document.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ShellSpec {
    /// Deployment name (used in diagnostic locations).
    pub name: String,
    /// Target card: `"u55c"`, `"u250"` or `"u280"`.
    pub device: String,
    /// vFPGA region count.
    pub n_vfpgas: u64,
    /// HBM/DDR channels for the memory service (0 disables it).
    pub memory_channels: u64,
    /// RoCE networking service.
    pub networking: bool,
    /// Traffic sniffer service.
    pub sniffer: bool,
    /// Host streams per vFPGA.
    pub n_host_streams: u64,
    /// Card streams per vFPGA.
    pub n_card_streams: u64,
    /// Node identity on the simulated fabric.
    pub node_id: u64,
    /// MMU geometry; the 2 MB default when absent.
    pub mmu: Option<MmuSpec>,
    /// QP transport parameters; linted only when present.
    pub qp: Option<QpSpec>,
}

/// The keys each object of a spec may hold, by its path from the top
/// level. The vendored serde has no `deny_unknown_fields`, so
/// [`ShellSpec::from_json`] checks them itself: a misspelt or retired key
/// (`qp.windw`, or the deleted `platform` and `reconfig` sections) would
/// otherwise be dropped, and the stale spec would lint clean.
const KEYS: [(&[&str], &[&str]); 5] = [
    (
        &[],
        &[
            "name",
            "device",
            "n_vfpgas",
            "memory_channels",
            "networking",
            "sniffer",
            "n_host_streams",
            "n_card_streams",
            "node_id",
            "mmu",
            "qp",
        ],
    ),
    (&["mmu"], &["stlb", "ltlb"]),
    (&["mmu", "stlb"], &["sets", "ways", "page"]),
    (&["mmu", "ltlb"], &["sets", "ways", "page"]),
    (&["qp"], &["mtu", "window"]),
];

/// Refuse the first key of `doc` that no spec field reads, naming it by its
/// dotted path.
fn refuse_unknown_keys(doc: &Value) -> Result<(), String> {
    for (path, keys) in KEYS {
        let section = path.iter().try_fold(doc, |v, k| v.get(k));
        let Some(fields) = section.and_then(Value::as_object) else {
            continue;
        };
        if let Some((key, _)) = fields.iter().find(|(k, _)| !keys.contains(&k.as_str())) {
            let at: Vec<&str> = path.iter().copied().chain([key.as_str()]).collect();
            return Err(format!(
                "unknown key `{}` (expected one of: {})",
                at.join("."),
                keys.join(", ")
            ));
        }
    }
    Ok(())
}

fn clamp_u8(v: u64) -> u8 {
    u8::try_from(v).unwrap_or(u8::MAX)
}

impl ShellSpec {
    /// Parse a spec document from JSON text, refusing any key no field
    /// reads, at the top level or inside a section.
    pub fn from_json(text: &str) -> Result<ShellSpec, String> {
        let doc = serde_json::value_from_slice(text.as_bytes()).map_err(|e| e.to_string())?;
        refuse_unknown_keys(&doc)?;
        ShellSpec::from_value(&doc).map_err(|e| serde_json::Error::from(e).to_string())
    }

    /// The typed shell configuration this spec describes. Out-of-range
    /// counts saturate (to 255) rather than wrap, so a nonsense value still
    /// trips the range checks in `ShellConfig::validate` instead of
    /// silently aliasing a valid one.
    pub fn to_shell_config(&self) -> Result<ShellConfig, String> {
        let device = match self.device.to_ascii_lowercase().as_str() {
            "u55c" => DeviceKind::U55C,
            "u250" => DeviceKind::U250,
            "u280" => DeviceKind::U280,
            other => return Err(format!("unknown device '{other}' (use u55c, u250 or u280)")),
        };
        let mmu = match &self.mmu {
            None => MmuConfig::default_2m(),
            Some(spec) => MmuConfig {
                stlb: spec.stlb.to_config()?,
                ltlb: spec.ltlb.to_config()?,
            },
        };
        Ok(ShellConfig {
            device,
            n_vfpgas: clamp_u8(self.n_vfpgas),
            services: ShellServices {
                memory_channels: self.memory_channels as usize,
                networking: self.networking,
                sniffer: self.sniffer,
            },
            mmu,
            n_host_streams: clamp_u8(self.n_host_streams),
            n_card_streams: clamp_u8(self.n_card_streams),
            sniffer_config: if self.sniffer {
                Some(coyote_net::SnifferConfig::default())
            } else {
                None
            },
            node_id: u16::try_from(self.node_id).unwrap_or(u16::MAX),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> ShellSpec {
        ShellSpec {
            name: "full".into(),
            device: "u55c".into(),
            n_vfpgas: 4,
            memory_channels: 32,
            networking: true,
            sniffer: false,
            n_host_streams: 4,
            n_card_streams: 16,
            node_id: 1,
            mmu: Some(MmuSpec {
                stlb: TlbSpec {
                    sets: 512,
                    ways: 4,
                    page: "4k".into(),
                },
                ltlb: TlbSpec {
                    sets: 32,
                    ways: 4,
                    page: "2m".into(),
                },
            }),
            qp: Some(QpSpec {
                mtu: 4096,
                window: 64,
            }),
        }
    }

    #[test]
    fn json_round_trip() {
        let spec = sample();
        let back = ShellSpec::from_json(&serde_json::to_string(&spec).unwrap()).unwrap();
        assert_eq!(back, spec);
    }

    #[test]
    fn converts_to_shell_config() {
        let cfg = sample().to_shell_config().unwrap();
        assert_eq!(cfg.device, DeviceKind::U55C);
        assert_eq!(cfg.n_vfpgas, 4);
        assert!(cfg.services.networking);
        assert_eq!(cfg.mmu.stlb.sets, 512);
        cfg.validate().unwrap();
        let qp = sample().qp.unwrap().to_qp_config();
        assert_eq!((qp.mtu, qp.window), (4096, 64));
        qp.validate().unwrap();
    }

    #[test]
    fn optional_sections_default() {
        let mut spec = sample();
        spec.mmu = None;
        spec.qp = None;
        let text = serde_json::to_string(&spec).unwrap();
        let back = ShellSpec::from_json(&text).unwrap();
        assert_eq!(back.mmu, None);
        let cfg = back.to_shell_config().unwrap();
        assert_eq!(cfg.mmu.stlb.sets, MmuConfig::default_2m().stlb.sets);
        assert!(back.qp.is_none());
    }

    #[test]
    fn bad_device_and_page_rejected() {
        let mut spec = sample();
        spec.device = "virtex2".into();
        assert!(spec.to_shell_config().is_err());

        let mut spec = sample();
        spec.mmu.as_mut().unwrap().stlb.page = "16k".into();
        assert!(spec.to_shell_config().is_err());
    }

    /// `sample()` as JSON text with `edit` applied to its value tree.
    fn edited(edit: impl FnOnce(&mut Vec<(String, Value)>)) -> String {
        let Value::Object(mut top) = sample().to_value() else {
            unreachable!("a spec serializes to an object")
        };
        edit(&mut top);
        serde_json::to_string(&Value::Object(top)).unwrap()
    }

    /// The fields of the section `key` of an object.
    fn section<'a>(obj: &'a mut [(String, Value)], key: &str) -> &'a mut Vec<(String, Value)> {
        match obj.iter_mut().find(|(k, _)| k == key) {
            Some((_, Value::Object(fields))) => fields,
            _ => panic!("no section `{key}`"),
        }
    }

    #[test]
    fn unknown_keys_are_refused_by_name() {
        // A spec still declaring a deleted section: the tenants of the
        // platform graph, or the completion-ring sizing (the ring has one
        // fixed size now).
        let ring = Value::Object(vec![("ring_slots".into(), Value::Int(4))]);
        for (key, section) in [("platform", Value::Object(vec![])), ("reconfig", ring)] {
            let stale = edited(|top| top.push((key.into(), section)));
            let err = ShellSpec::from_json(&stale).unwrap_err();
            assert!(err.contains(&format!("unknown key `{key}`")), "{err}");
        }

        // A misspelt section: without the check its QP parameters would
        // be dropped and the spec would lint clean.
        let typo = edited(|top| {
            let at = top.iter().position(|(k, _)| k == "qp").unwrap();
            top[at].0 = "qpp".into();
        });
        let err = ShellSpec::from_json(&typo).unwrap_err();
        assert!(err.contains("unknown key `qpp`"), "{err}");

        // Inside every section.
        let nested: [(&[&str], &str); 4] = [
            (&["mmu"], "mmu.utlb"),
            (&["mmu", "stlb"], "mmu.stlb.pages"),
            (&["mmu", "ltlb"], "mmu.ltlb.pages"),
            (&["qp"], "qp.ack_on_window_fill"),
        ];
        for (path, key) in nested {
            let text = edited(|top| {
                let fields = path.iter().fold(top, |obj, k| section(obj, k));
                let leaf = key.rsplit('.').next().unwrap();
                fields.push((leaf.into(), Value::Int(1)));
            });
            let err = ShellSpec::from_json(&text).unwrap_err();
            assert!(err.contains(&format!("unknown key `{key}`")), "{err}");
        }
    }

    #[test]
    fn key_lists_match_the_fields() {
        // Every field of every section, with every optional section set.
        let spec = sample();
        let doc = spec.to_value();
        for (path, keys) in KEYS {
            let fields = path.iter().try_fold(&doc, |v, k| v.get(k)).unwrap();
            let names: Vec<&str> = fields
                .as_object()
                .unwrap()
                .iter()
                .map(|(k, _)| k.as_str())
                .collect();
            assert_eq!(names, keys, "section {path:?}");
        }
        ShellSpec::from_json(&serde_json::to_string(&spec).unwrap()).unwrap();
    }

    #[test]
    fn oversized_counts_saturate_not_wrap() {
        let mut spec = sample();
        spec.n_vfpgas = 256; // u8 wrap would alias to 0… or worse, 256+1=1
        let cfg = spec.to_shell_config().unwrap();
        assert_eq!(cfg.n_vfpgas, 255);
        assert!(cfg.validate().is_err());
    }
}
