//! The networking service (§6.2) and its substrate: a byte-accurate RoCE v2
//! protocol implementation, a simulated switched 100G Ethernet fabric, the
//! traffic sniffer of §8, and a PCAP exporter.
//!
//! "One of the key services in Coyote v2 is BALBOA, a 100G, fully RoCE
//! v2-compliant networking stack, that enables the deployment of a Coyote
//! v2-powered FPGA in a heterogeneous networking environment."
//!
//! The paper's interoperability claim — the FPGA talks to commodity NICs
//! (Mellanox, BlueField) over a switched network — is reproduced by having
//! two *independent* endpoint types (the shell-side [`QueuePair`]s, and
//! [`CommodityNic`] standing in for a Mellanox adapter) exchange real
//! packets: Ethernet/IPv4/UDP/BTH framing with ICRC trailers, RC queue
//! pairs with PSN tracking, go-back-N retransmission and MTU segmentation.
//!
//! # Simplifications vs. the IBTA spec (documented per DESIGN.md)
//!
//! * RDMA READ responses are keyed by the request PSN plus a fragment
//!   index instead of occupying a PSN range on the requester's flow.
//! * The ICRC masks only the fields the spec masks *semantically* (TTL,
//!   DSCP/ECN, header checksum); the 64-bit 0xFF prefix is applied.
//! * No congestion control (the paper's stack relies on PFC; drops are
//!   injected only for retransmission testing).

#![forbid(unsafe_code)]

pub mod frame;
pub mod headers;
pub mod icrc;
pub mod nic;
pub mod packet;
pub mod pcap;
pub mod qp;
pub mod sniffer;
pub mod switch;
pub mod tcp;

pub use frame::{payload_copies, reset_payload_copies, Frame};
pub use headers::{EthernetHdr, Ipv4Hdr, MacAddr, UdpHdr, ROCE_UDP_PORT};
pub use nic::CommodityNic;
pub use packet::{BthOpcode, RocePacket};
pub use qp::{
    Completion, QpConfig, QpStats, QueuePair, RdmaMemory, RxAction, Verb,
    RUNTIME_ACK_ON_WINDOW_FILL,
};
pub use sniffer::{CaptureRecord, SnifferConfig, TrafficSniffer};
pub use switch::{Delivery, PortId, PortStats, Switch};
pub use tcp::{TcpSegment, TcpSocket, TcpStack, TcpState};
