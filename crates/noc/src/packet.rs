//! Packets and flits.
//!
//! An application data transmission "is decomposed into a number of
//! smaller flits or packets" (§V): here a [`Packet`] of `n` flits becomes
//! one head flit, `n − 2` body flits and one tail flit (a single-flit
//! packet is head and tail at once).

use crate::topology::NodeId;

/// Position of a flit within its packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum FlitKind {
    /// First flit: claims the wormhole path.
    Head,
    /// Middle flit.
    Body,
    /// Last flit: releases the wormhole path.
    Tail,
    /// Single-flit packet: head and tail at once.
    HeadTail,
}

impl FlitKind {
    /// True for flits that open a wormhole (head or head-tail).
    pub fn is_head(&self) -> bool {
        matches!(self, FlitKind::Head | FlitKind::HeadTail)
    }

    /// True for flits that close a wormhole (tail or head-tail).
    pub fn is_tail(&self) -> bool {
        matches!(self, FlitKind::Tail | FlitKind::HeadTail)
    }
}

/// One flow-control unit travelling the network.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct Flit {
    /// Owning packet.
    pub packet: u64,
    /// Kind within the packet.
    pub kind: FlitKind,
    /// Sequence number within the packet (0 = head).
    pub seq: u32,
    /// Destination node (carried by every flit for simplicity; real
    /// hardware only stores it in the head).
    pub dest: NodeId,
    /// Arbitration priority inherited from the packet (higher wins).
    pub priority: u8,
}

/// An application-level transmission: `flits` flow-control units from
/// `src` to `dest`.
///
/// # Examples
///
/// ```
/// use autoplat_noc::packet::{Packet, FlitKind};
/// use autoplat_noc::topology::NodeId;
///
/// let p = Packet::new(7, NodeId(0), NodeId(5), 3);
/// let flits = p.to_flits();
/// assert_eq!(flits.len(), 3);
/// assert_eq!(flits[0].kind, FlitKind::Head);
/// assert_eq!(flits[2].kind, FlitKind::Tail);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct Packet {
    /// Unique packet id.
    pub id: u64,
    /// Source node.
    pub src: NodeId,
    /// Destination node.
    pub dest: NodeId,
    /// Number of flits (>= 1).
    pub flits: u32,
    /// Arbitration priority (higher wins router arbitration — the MPAM
    /// priority-partitioning hook, §III-B.4). Default 0.
    pub priority: u8,
}

impl Packet {
    /// Creates a priority-0 packet.
    ///
    /// # Panics
    ///
    /// Panics if `flits` is zero.
    pub fn new(id: u64, src: NodeId, dest: NodeId, flits: u32) -> Self {
        assert!(flits >= 1, "a packet needs at least one flit");
        Packet {
            id,
            src,
            dest,
            flits,
            priority: 0,
        }
    }

    /// Builder-style arbitration priority.
    pub fn with_priority(mut self, priority: u8) -> Self {
        self.priority = priority;
        self
    }

    /// Flit `seq` of the packet (0 = head): the one definition of which
    /// flit is head, body or tail.
    pub fn flit(&self, seq: u32) -> Flit {
        debug_assert!(
            seq < self.flits,
            "flit {seq} of a {}-flit packet",
            self.flits
        );
        let kind = match (seq, self.flits) {
            (0, 1) => FlitKind::HeadTail,
            (0, _) => FlitKind::Head,
            (s, n) if s == n - 1 => FlitKind::Tail,
            _ => FlitKind::Body,
        };
        Flit {
            packet: self.id,
            kind,
            seq,
            dest: self.dest,
            priority: self.priority,
        }
    }

    /// Decomposes the packet into its flits.
    pub fn to_flits(&self) -> Vec<Flit> {
        (0..self.flits).map(|seq| self.flit(seq)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_flit_is_headtail() {
        let p = Packet::new(0, NodeId(0), NodeId(1), 1);
        let f = p.to_flits();
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].kind, FlitKind::HeadTail);
        assert!(f[0].kind.is_head() && f[0].kind.is_tail());
    }

    #[test]
    fn multi_flit_structure() {
        let p = Packet::new(1, NodeId(0), NodeId(1), 5);
        let f = p.to_flits();
        assert!(f[0].kind.is_head());
        assert!(f[4].kind.is_tail());
        for (i, fl) in f.iter().enumerate() {
            assert_eq!(fl.seq, i as u32);
            assert_eq!(fl.dest, NodeId(1));
            assert_eq!(fl.packet, 1);
        }
        assert!(f[1..4]
            .iter()
            .take(3)
            .all(|fl| fl.kind == FlitKind::Body || fl.kind.is_tail()));
        assert_eq!(f[1].kind, FlitKind::Body);
        assert_eq!(f[3].kind, FlitKind::Body);
    }

    #[test]
    fn two_flit_packet_has_no_body() {
        let p = Packet::new(2, NodeId(0), NodeId(1), 2);
        let f = p.to_flits();
        assert_eq!(f[0].kind, FlitKind::Head);
        assert_eq!(f[1].kind, FlitKind::Tail);
    }

    #[test]
    #[should_panic(expected = "at least one flit")]
    fn zero_flits_rejected() {
        let _ = Packet::new(0, NodeId(0), NodeId(0), 0);
    }
}
