//! Event-driven MemGuard replenishment on the shared simulation kernel.
//!
//! The synchronous [`MemGuard`] replenishes budgets lazily, on the first
//! access after a period boundary. In a composed simulation the regulator
//! shares a clock with other components, and budget state must be fresh at
//! boundaries even when no access happens to poke it — e.g. so a
//! co-simulated core's deferred retry sees replenished budgets the instant
//! its stall ends. [`MemGuardProcess`] runs the boundary roll as a
//! periodic timer event on [`autoplat_sim::Engine`]; both paths are
//! idempotent per period, so they compose.

use autoplat_sim::engine::{EventSink, Process};
use autoplat_sim::{SimDuration, SimTime};

use crate::memguard::{MemGuard, PerBankMemGuard};

/// Events driving the regulator on the kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RegulationEvent {
    /// A regulation-period boundary: replenish every core's budget.
    Replenish,
}

/// [`MemGuard`] driven by periodic replenishment events.
///
/// Schedule the first event at [`MemGuardProcess::first_boundary`]; the
/// process then re-arms itself every period until `horizon`, after which
/// it stops scheduling so a bounded run can drain.
#[derive(Debug, Clone)]
pub struct MemGuardProcess {
    mg: MemGuard,
    horizon: SimTime,
    replenishments: u64,
}

impl MemGuardProcess {
    /// Wraps `mg`, replenishing at every period boundary up to `horizon`.
    pub fn new(mg: MemGuard, horizon: SimTime) -> Self {
        MemGuardProcess {
            mg,
            horizon,
            replenishments: 0,
        }
    }

    /// The first period boundary, where the initial event belongs.
    pub fn first_boundary(&self) -> SimTime {
        SimTime::ZERO + self.mg.period()
    }

    /// The wrapped regulator.
    pub fn memguard(&self) -> &MemGuard {
        &self.mg
    }

    /// The wrapped regulator, mutably (for accesses and budget updates).
    pub fn memguard_mut(&mut self) -> &mut MemGuard {
        &mut self.mg
    }

    /// Number of boundary replenishments executed so far.
    pub fn replenishments(&self) -> u64 {
        self.replenishments
    }

    /// Unwraps the regulator.
    pub fn into_inner(self) -> MemGuard {
        self.mg
    }
}

impl Process for MemGuardProcess {
    type Event = RegulationEvent;

    fn handle(&mut self, _event: RegulationEvent, sink: &mut dyn EventSink<RegulationEvent>) {
        let now = sink.now();
        self.mg.replenish(now);
        self.replenishments += 1;
        let next = now + self.mg.period();
        if next <= self.horizon {
            sink.schedule_at(next, RegulationEvent::Replenish);
        }
    }
}

/// [`PerBankMemGuard`] driven by periodic replenishment events, the exact
/// per-bank analogue of [`MemGuardProcess`]: schedule the first event at
/// [`PerBankProcess::first_boundary`], the process re-arms itself every
/// period until `horizon`. Eager and lazy rolls stay idempotent per
/// period, so mixing event-driven replenishment with synchronous
/// [`PerBankMemGuard::try_access`] calls is safe.
#[derive(Debug, Clone)]
pub struct PerBankProcess {
    pb: PerBankMemGuard,
    horizon: SimTime,
    replenishments: u64,
}

impl PerBankProcess {
    /// Wraps `pb`, replenishing at every period boundary up to `horizon`.
    pub fn new(pb: PerBankMemGuard, horizon: SimTime) -> Self {
        PerBankProcess {
            pb,
            horizon,
            replenishments: 0,
        }
    }

    /// The first period boundary, where the initial event belongs.
    pub fn first_boundary(&self) -> SimTime {
        SimTime::ZERO + self.pb.period()
    }

    /// The wrapped regulator.
    pub fn regulator(&self) -> &PerBankMemGuard {
        &self.pb
    }

    /// The wrapped regulator, mutably (for accesses and budget updates).
    pub fn regulator_mut(&mut self) -> &mut PerBankMemGuard {
        &mut self.pb
    }

    /// Number of boundary replenishments executed so far.
    pub fn replenishments(&self) -> u64 {
        self.replenishments
    }

    /// Unwraps the regulator.
    pub fn into_inner(self) -> PerBankMemGuard {
        self.pb
    }
}

impl Process for PerBankProcess {
    type Event = RegulationEvent;

    fn handle(&mut self, _event: RegulationEvent, sink: &mut dyn EventSink<RegulationEvent>) {
        let now = sink.now();
        self.pb.replenish(now);
        self.replenishments += 1;
        let next = now + self.pb.period();
        if next <= self.horizon {
            sink.schedule_at(next, RegulationEvent::Replenish);
        }
    }
}

/// One period as a `SimDuration` multiple helper for schedulers that need
/// the boundary after an arbitrary instant.
pub fn boundary_after(period: SimDuration, now: SimTime) -> SimTime {
    let idx = now.as_ps() / period.as_ps();
    SimTime::from_ps((idx + 1).saturating_mul(period.as_ps()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use autoplat_sim::Engine;

    #[test]
    fn replenishment_timer_resets_usage_without_accesses() {
        let mut mg = MemGuard::new(SimDuration::from_us(1.0), vec![128]);
        assert!(matches!(
            mg.try_access(0, 128, SimTime::ZERO),
            crate::AccessDecision::Granted
        ));
        assert_eq!(mg.used(0), 128);

        let horizon = SimTime::from_us(3.5);
        let mut p = MemGuardProcess::new(mg, horizon);
        let mut engine = Engine::new();
        engine.schedule_at(p.first_boundary(), RegulationEvent::Replenish);
        engine.run_until(&mut p, horizon);

        // Three boundaries (1, 2, 3 µs) fired; usage reset eagerly, with
        // no access forcing a lazy roll.
        assert_eq!(p.replenishments(), 3);
        assert_eq!(p.memguard().used(0), 0);
        assert_eq!(engine.now(), SimTime::from_us(3.0));
        assert_eq!(engine.pending(), 0, "stops re-arming past the horizon");
    }

    #[test]
    fn perbank_replenishment_timer_resets_usage_without_accesses() {
        let mut pb = PerBankMemGuard::new(SimDuration::from_us(1.0), vec![128, 64]);
        assert!(matches!(
            pb.try_access(0, 128, SimTime::ZERO),
            crate::AccessDecision::Granted
        ));
        assert_eq!(pb.used(0), 128);

        let horizon = SimTime::from_us(3.5);
        let mut p = PerBankProcess::new(pb, horizon);
        let mut engine = Engine::new();
        engine.schedule_at(p.first_boundary(), RegulationEvent::Replenish);
        engine.run_until(&mut p, horizon);

        assert_eq!(p.replenishments(), 3);
        assert_eq!(p.regulator().used(0), 0);
        assert_eq!(engine.pending(), 0, "stops re-arming past the horizon");
        // Lifetime totals are untouched by rolls.
        assert_eq!(p.into_inner().granted_total(0), 128);
    }

    #[test]
    fn boundary_after_lands_on_next_multiple() {
        let period = SimDuration::from_us(1.0);
        assert_eq!(
            boundary_after(period, SimTime::from_ns(400.0)),
            SimTime::from_us(1.0)
        );
        assert_eq!(
            boundary_after(period, SimTime::from_us(1.0)),
            SimTime::from_us(2.0)
        );
    }
}
