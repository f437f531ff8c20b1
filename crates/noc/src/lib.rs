//! Flit-level 2D-mesh wormhole NoC simulator.
//!
//! §V of the DATE'21 paper targets MPSoCs whose interconnects are
//! "Networks-on-Chips featuring wormhole-switching and multistage
//! arbitration (e.g. iSLIP)", where "each router is conducting its
//! arbitration locally, i.e. packets are switched as soon as they arrive
//! and ongoing transmissions compete for link bandwidth and buffer space,
//! and independently from other routers". This crate provides exactly that
//! substrate:
//!
//! * [`topology`] — a 2D mesh with dimension-ordered (XY) routing;
//! * [`packet`] — packets decomposed into head/body/tail **flits** (the
//!   granularity mismatch of §V: applications issue transmissions, routers
//!   arbitrate flits);
//! * [`router`] — per-router input buffers, output-port locking (wormhole)
//!   and round-robin (iSLIP-style single-iteration) arbitration;
//! * [`network`] — the synchronous cycle-driven simulator with injection
//!   queues, per-flow latency statistics and back-pressure.
//!
//! The per-node rate limiters the admission-control layer of §V
//! configures are the clients of `autoplat-admission`.
//!
//! # Examples
//!
//! ```
//! use autoplat_noc::{NocConfig, NocSim};
//! use autoplat_noc::packet::Packet;
//! use autoplat_noc::topology::NodeId;
//!
//! let mut noc = NocSim::new(NocConfig::new(4, 4));
//! noc.inject(Packet::new(0, NodeId::at(0, 0, 4), NodeId::at(3, 3, 4), 4), 0);
//! noc.run_until_idle(10_000);
//! assert_eq!(noc.completed().len(), 1);
//! ```

pub mod network;
pub mod packet;
pub mod router;
pub mod topology;

pub use network::{NocConfig, NocEvent, NocSim, PacketRecord};
pub use packet::{Flit, FlitKind, Packet};
pub use topology::{Direction, Mesh, NodeId};
