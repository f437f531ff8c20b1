//! A streaming single-channel DRAM service model.
//!
//! Where [`FrFcfsController`](crate::FrFcfsController) replays a whole
//! workload through the full FR-FCFS state machine, [`DramChannel`]
//! answers one question at a time — *when does this access finish?* —
//! with instantaneous math: a single `free_at` horizon, per-bank open
//! rows, and refreshes charged to the idle gaps they fall into. That
//! makes it the right memory backend for composed transaction-level
//! models ([`autoplat_core`]'s `Platform` and `CoSim`) that interleave
//! DRAM with caches, interconnect and regulation under one clock.
//!
//! [`autoplat_core`]: https://docs.rs/autoplat-core

use autoplat_sim::{SimDuration, SimTime};

use crate::timing::DramTiming;

/// The serviced-access answer of [`DramChannel::service`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChannelAccess {
    /// When the channel actually started the access (>= arrival).
    pub begin: SimTime,
    /// When the data burst completes.
    pub done: SimTime,
    /// Whether the access hit the bank's open row.
    pub row_hit: bool,
}

/// Single-channel DRAM with per-bank row buffers and periodic refresh,
/// serviced in arrival order with instantaneous timing math.
///
/// The four costs [`service`](Self::service) charges are converted from
/// the timing's nanoseconds once, at construction; the timing cannot
/// change afterwards, so they never go stale.
#[derive(Debug, Clone)]
pub struct DramChannel {
    timing: DramTiming,
    /// Refresh duration (`tRFC`).
    refresh: SimDuration,
    /// Refresh interval (`tREFI`).
    refresh_interval: SimDuration,
    /// A row hit: one burst.
    row_hit_cost: SimDuration,
    /// A row miss: precharge, activate, CAS and burst.
    row_miss_cost: SimDuration,
    row_bytes: u64,
    free_at: SimTime,
    next_refresh: SimTime,
    banks: Vec<Option<u64>>,
    busy: SimDuration,
    refreshes: u64,
}

impl DramChannel {
    /// Creates a channel with `banks` banks and `row_bytes`-sized rows.
    ///
    /// # Panics
    ///
    /// Panics if `banks` or `row_bytes` is zero, or the timing is
    /// invalid.
    pub fn new(timing: DramTiming, banks: usize, row_bytes: u64) -> Self {
        assert!(banks > 0, "need at least one bank");
        assert!(row_bytes > 0, "rows need bytes");
        timing.validate().expect("valid DRAM timing");
        let refresh_interval = SimDuration::from_ns(timing.t_refi);
        DramChannel {
            refresh: SimDuration::from_ns(timing.t_rfc),
            refresh_interval,
            row_hit_cost: SimDuration::from_ns(timing.t_burst),
            row_miss_cost: SimDuration::from_ns(
                timing.t_rp + timing.t_rcd + timing.t_cl + timing.t_burst,
            ),
            timing,
            row_bytes,
            free_at: SimTime::ZERO,
            next_refresh: SimTime::ZERO + refresh_interval,
            banks: vec![None; banks],
            busy: SimDuration::ZERO,
            refreshes: 0,
        }
    }

    /// The bank an address maps to.
    pub fn bank_of(&self, addr: u64) -> usize {
        ((addr / self.row_bytes) % self.banks.len() as u64) as usize
    }

    /// The row (within its bank) an address maps to.
    pub fn row_of(&self, addr: u64) -> u64 {
        addr / self.row_bytes / self.banks.len() as u64
    }

    /// Services one access arriving at `arrive`, advancing the channel.
    ///
    /// Refreshes due before the access starts are served first; those
    /// falling into idle gaps occupy the gaps rather than being charged
    /// serially to this access. A row miss pays the full
    /// precharge–activate–CAS–burst pipeline and leaves the row open.
    pub fn service(&mut self, addr: u64, arrive: SimTime) -> ChannelAccess {
        let mut begin = arrive.max(self.free_at);
        while self.next_refresh <= begin {
            let start = self.next_refresh.max(self.free_at);
            self.free_at = start + self.refresh;
            self.busy += self.refresh;
            self.next_refresh += self.refresh_interval;
            self.refreshes += 1;
            for b in &mut self.banks {
                *b = None;
            }
            begin = arrive.max(self.free_at);
        }
        let bank = self.bank_of(addr);
        let row = self.row_of(addr);
        let row_hit = self.banks[bank] == Some(row);
        let cost = if row_hit {
            self.row_hit_cost
        } else {
            self.banks[bank] = Some(row);
            self.row_miss_cost
        };
        self.free_at = begin + cost;
        self.busy += cost;
        ChannelAccess {
            begin,
            done: begin + cost,
            row_hit,
        }
    }

    /// Accumulated channel busy time (accesses plus refreshes).
    pub fn busy(&self) -> SimDuration {
        self.busy
    }

    /// When the channel next becomes free.
    pub fn free_at(&self) -> SimTime {
        self.free_at
    }

    /// Refreshes served so far.
    pub fn refreshes(&self) -> u64 {
        self.refreshes
    }

    /// The timing in use.
    pub fn timing(&self) -> &DramTiming {
        &self.timing
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::timing::presets::ddr3_1600;

    #[test]
    fn sequential_stream_hits_open_rows() {
        let mut ch = DramChannel::new(ddr3_1600(), 8, 8192);
        let first = ch.service(0, SimTime::ZERO);
        assert!(!first.row_hit, "cold row buffer");
        let second = ch.service(64, first.done);
        assert!(second.row_hit, "same row stays open");
        assert!(
            second.done.saturating_since(second.begin) < first.done.saturating_since(first.begin)
        );
    }

    #[test]
    fn refresh_in_idle_gap_is_not_charged_to_the_access() {
        let t = ddr3_1600();
        let mut ch = DramChannel::new(t.clone(), 8, 8192);
        // Arrive long after several refresh intervals: the refreshes fall
        // into the idle gap, so the access starts at its arrival.
        let arrive = SimTime::ZERO + SimDuration::from_ns(t.t_refi * 3.5);
        let a = ch.service(0, arrive);
        assert_eq!(a.begin, arrive, "idle-gap refreshes cost nothing here");
        assert_eq!(ch.refreshes(), 3);
    }

    #[test]
    fn busy_accumulates_access_and_refresh_time() {
        let t = ddr3_1600();
        let mut ch = DramChannel::new(t.clone(), 8, 8192);
        let a = ch.service(0, SimTime::ZERO);
        assert_eq!(ch.busy(), a.done.saturating_since(a.begin));
        assert_eq!(ch.free_at(), a.done);
    }
}
