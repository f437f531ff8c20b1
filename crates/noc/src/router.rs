//! Per-router arbitration state and the mesh's input buffers.
//!
//! A [`Router`] holds what its arbitration decides with: its `(x, y)`
//! position, the wormhole lock and the round-robin pointer of each output
//! port, and two bitmasks — the input ports holding a flit and the output
//! ports under a lock. The masks change only on a buffer push or pop and
//! on [`Router::set_lock`], so a cycle walks just the ports that can
//! move instead of scanning all five of each.
//!
//! Arbitration is a single-iteration round-robin grant per output port —
//! the degenerate (and common) form of iSLIP: each output independently
//! grants the next requesting input after its pointer, and the pointer
//! advances past a granted input so persistent requesters cannot starve
//! the others.
//!
//! [`InputBuffers`] holds the flits: every input buffer of every router
//! is a fixed-depth ring inside one flat allocation, addressed by the
//! port index `router * 5 + direction`.

use crate::packet::{Flit, Packet};
use crate::topology::NodeId;

/// A wormhole lock: `output` is reserved for `packet` arriving on
/// `in_port` until the tail flit passes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Lock {
    /// The input port the locked packet flows in from.
    pub in_port: usize,
    /// The packet holding the lock.
    pub packet: u64,
}

/// One mesh router's lock, round-robin and mask state.
#[derive(Debug, Clone, Copy)]
pub struct Router {
    x: u32,
    y: u32,
    /// Per output: the packet holding its lock (meaningful where
    /// `locked` has the output's bit).
    lock_packet: [u64; 5],
    /// Per output: the input port its lock holder flows in from.
    lock_input: [u8; 5],
    /// Per output: the input port arbitration tries first.
    rr: [u8; 5],
    /// Bit `p`: input port `p` holds at least one flit.
    occupied: u8,
    /// Bit `o`: output port `o` is locked.
    locked: u8,
}

impl Router {
    /// Creates an empty, unlocked router at mesh position `(x, y)`.
    pub fn new(x: u32, y: u32) -> Self {
        Router {
            x,
            y,
            lock_packet: [0; 5],
            lock_input: [0; 5],
            rr: [0; 5],
            occupied: 0,
            locked: 0,
        }
    }

    /// The router's mesh position.
    pub fn coords(&self) -> (u32, u32) {
        (self.x, self.y)
    }

    /// Input ports holding at least one flit, as a bitmask.
    pub fn occupied(&self) -> u8 {
        self.occupied
    }

    /// Records whether input `port` holds a flit. Call on the push that
    /// fills an empty buffer and on the pop that empties one.
    pub fn set_occupied(&mut self, port: usize, occupied: bool) {
        if occupied {
            self.occupied |= 1 << port;
        } else {
            self.occupied &= !(1 << port);
        }
    }

    /// Locked output ports, as a bitmask.
    pub fn locked(&self) -> u8 {
        self.locked
    }

    /// The current lock on `output`, if any.
    pub fn lock(&self, output: usize) -> Option<Lock> {
        (self.locked & 1 << output != 0).then(|| Lock {
            in_port: self.lock_input[output] as usize,
            packet: self.lock_packet[output],
        })
    }

    /// Installs (or, with `None`, clears) the lock on `output`.
    pub fn set_lock(&mut self, output: usize, lock: Option<Lock>) {
        match lock {
            Some(Lock { in_port, packet }) => {
                self.lock_input[output] = in_port as u8;
                self.lock_packet[output] = packet;
                self.locked |= 1 << output;
            }
            None => self.locked &= !(1 << output),
        }
    }

    /// Round-robin selection among the input ports in the `candidates`
    /// bitmask for `output`: the first candidate at or after the output's
    /// pointer, wrapping. The pointer advances past the grant.
    ///
    /// Returns `None` when `candidates` is empty.
    pub fn arbitrate(&mut self, output: usize, candidates: u8) -> Option<usize> {
        if candidates == 0 {
            return None;
        }
        let at_or_after = candidates & (0x1f << self.rr[output]);
        let grant = if at_or_after != 0 {
            at_or_after.trailing_zeros()
        } else {
            candidates.trailing_zeros()
        } as u8;
        self.rr[output] = if grant == 4 { 0 } else { grant + 1 };
        Some(grant as usize)
    }
}

/// Position of one input buffer's ring within its slots.
#[derive(Debug, Clone, Copy, Default)]
struct Ring {
    /// Slot offset of the oldest flit.
    head: u32,
    /// Flits held.
    len: u32,
}

/// Every input buffer of a mesh in one allocation: port `i` (the port
/// index `router * 5 + direction`) owns slots `i * depth .. (i + 1) *
/// depth`, used as a FIFO ring. Indices wrap by comparison, never by
/// division.
#[derive(Debug, Clone)]
pub struct InputBuffers {
    depth: u32,
    slots: Vec<Flit>,
    rings: Vec<Ring>,
}

impl InputBuffers {
    /// Creates empty buffers of `depth` flits for the five ports of each
    /// of `routers` routers.
    ///
    /// # Panics
    ///
    /// Panics if `depth` is zero or does not fit 32 bits.
    pub fn new(routers: usize, depth: usize) -> Self {
        assert!(depth > 0, "input buffers need capacity");
        let depth = u32::try_from(depth).expect("buffer depth fits 32 bits");
        let ports = routers * 5;
        let blank = Packet::new(0, NodeId(0), NodeId(0), 1).flit(0);
        InputBuffers {
            depth,
            slots: vec![blank; ports * depth as usize],
            rings: vec![Ring::default(); ports],
        }
    }

    /// Flits held at `port`.
    pub fn occupancy(&self, port: usize) -> usize {
        self.rings[port].len as usize
    }

    /// Whether `port` can accept a flit.
    pub fn has_space(&self, port: usize) -> bool {
        self.rings[port].len < self.depth
    }

    /// The oldest flit at `port`, if any.
    pub fn front(&self, port: usize) -> Option<&Flit> {
        let ring = self.rings[port];
        (ring.len > 0).then(|| &self.slots[self.slot(port, ring.head)])
    }

    /// Appends `flit` at `port`.
    ///
    /// # Panics
    ///
    /// Panics if the buffer is full (callers must check [`has_space`]).
    ///
    /// [`has_space`]: InputBuffers::has_space
    pub fn push(&mut self, port: usize, flit: Flit) {
        let ring = self.rings[port];
        assert!(
            ring.len < self.depth,
            "input buffer overflow at port {port}"
        );
        let mut tail = ring.head + ring.len;
        if tail >= self.depth {
            tail -= self.depth;
        }
        let slot = self.slot(port, tail);
        self.slots[slot] = flit;
        self.rings[port].len += 1;
    }

    /// Removes and returns the oldest flit at `port`.
    pub fn pop(&mut self, port: usize) -> Option<Flit> {
        let ring = self.rings[port];
        if ring.len == 0 {
            return None;
        }
        let flit = self.slots[self.slot(port, ring.head)];
        let next = ring.head + 1;
        self.rings[port] = Ring {
            head: if next == self.depth { 0 } else { next },
            len: ring.len - 1,
        };
        Some(flit)
    }

    fn slot(&self, port: usize, offset: u32) -> usize {
        port * self.depth as usize + offset as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::FlitKind;
    use crate::topology::Direction;

    fn flit(packet: u64) -> Flit {
        Packet::new(packet, NodeId(0), NodeId(1), 1).flit(0)
    }

    #[test]
    fn buffer_capacity_enforced() {
        let mut b = InputBuffers::new(2, 2);
        let north = 5 + Direction::North.index();
        assert!(b.has_space(north));
        b.push(north, flit(0));
        b.push(north, flit(1));
        assert!(!b.has_space(north));
        assert_eq!(b.occupancy(north), 2);
        // The same port of the other router is a separate ring.
        assert!(b.has_space(Direction::North.index()));
        assert_eq!(b.occupancy(Direction::North.index()), 0);
    }

    #[test]
    #[should_panic(expected = "overflow")]
    fn push_to_full_buffer_panics() {
        let mut b = InputBuffers::new(1, 1);
        b.push(Direction::East.index(), flit(0));
        b.push(Direction::East.index(), flit(1));
    }

    #[test]
    fn fifo_order_preserved() {
        let mut b = InputBuffers::new(1, 4);
        let w = Direction::West.index();
        b.push(w, flit(1));
        b.push(w, flit(2));
        assert_eq!(b.front(w).map(|f| f.packet), Some(1));
        assert_eq!(b.pop(w).map(|f| f.packet), Some(1));
        assert_eq!(b.pop(w).map(|f| f.packet), Some(2));
        assert_eq!(b.pop(w), None);
        assert_eq!(b.front(w), None);
    }

    #[test]
    fn rings_wrap_without_disturbing_neighbours() {
        // Depth 3 (not a power of two): push and pop past the end of the
        // port's slots many times while the neighbouring ports hold
        // sentinels that must never change.
        let mut b = InputBuffers::new(1, 3);
        b.push(0, flit(100));
        b.push(2, flit(200));
        let mut next_in = 0u64;
        let mut next_out = 0u64;
        for round in 0..20u64 {
            for _ in 0..=(round % 3) {
                if b.has_space(1) {
                    b.push(1, flit(next_in));
                    next_in += 1;
                }
            }
            for _ in 0..(round % 2 + 1) {
                if let Some(f) = b.pop(1) {
                    assert_eq!(f.packet, next_out, "FIFO across the wrap");
                    next_out += 1;
                }
            }
            assert_eq!(b.occupancy(1) as u64, next_in - next_out);
        }
        assert!(next_in > 10, "the ring wrapped several times");
        assert_eq!(b.front(0).map(|f| f.packet), Some(100));
        assert_eq!(b.front(2).map(|f| f.packet), Some(200));
    }

    #[test]
    fn round_robin_rotates_grants() {
        let mut r = Router::new(0, 0);
        // Inputs 1 and 3 persistently request output 0.
        let both = 1 << 1 | 1 << 3;
        let g1 = r.arbitrate(0, both).expect("grant");
        let g2 = r.arbitrate(0, both).expect("grant");
        let g3 = r.arbitrate(0, both).expect("grant");
        assert_ne!(g1, g2, "round robin must alternate");
        assert_eq!(g1, g3);
        assert_eq!(r.arbitrate(0, 0), None);
    }

    #[test]
    fn round_robin_matches_a_cyclic_scan() {
        // Every pointer position against every candidate set: the grant is
        // the first candidate at or after the pointer, wrapping past port 4.
        for start in 0..5usize {
            for candidates in 1..32u8 {
                let mut r = Router::new(0, 0);
                // Move output 2's pointer to `start` with a single-candidate
                // grant just before it.
                if start > 0 {
                    assert_eq!(r.arbitrate(2, 1 << (start - 1)), Some(start - 1));
                }
                let expected = (0..5)
                    .map(|k| (start + k) % 5)
                    .find(|p| candidates & 1 << p != 0);
                let grant = r.arbitrate(2, candidates);
                assert_eq!(grant, expected, "start {start} candidates {candidates:05b}");
                // The pointer moved just past the grant.
                let g = grant.expect("non-empty");
                assert_eq!(r.arbitrate(2, 0x1f), Some((g + 1) % 5));
            }
        }
    }

    #[test]
    fn pointers_independent_per_output() {
        let mut r = Router::new(0, 0);
        let a = r.arbitrate(0, 1 << 2 | 1 << 4).expect("grant");
        let b = r.arbitrate(1, 1 << 2 | 1 << 4).expect("grant");
        assert_eq!(a, b, "fresh pointers grant the same first input");
    }

    #[test]
    fn locks_set_and_clear() {
        let mut r = Router::new(0, 0);
        assert_eq!(r.lock(2), None);
        assert_eq!(r.locked(), 0);
        r.set_lock(
            2,
            Some(Lock {
                in_port: 1,
                packet: 9,
            }),
        );
        assert_eq!(
            r.lock(2),
            Some(Lock {
                in_port: 1,
                packet: 9
            })
        );
        assert_eq!(r.locked(), 1 << 2);
        r.set_lock(2, None);
        assert_eq!(r.lock(2), None);
        assert_eq!(r.locked(), 0);
    }

    #[test]
    fn occupied_mask_tracks_ports() {
        let mut r = Router::new(3, 1);
        assert_eq!(r.coords(), (3, 1));
        r.set_occupied(0, true);
        r.set_occupied(4, true);
        assert_eq!(r.occupied(), 0b1_0001);
        r.set_occupied(0, false);
        assert_eq!(r.occupied(), 0b1_0000);
    }

    #[test]
    fn head_and_tail_flit_kinds() {
        let p = Packet::new(5, NodeId(0), NodeId(3), 3);
        assert_eq!(p.flit(0).kind, FlitKind::Head);
        assert_eq!(p.flit(2).kind, FlitKind::Tail);
    }
}
