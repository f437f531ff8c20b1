//! Typed errors for the admission-control layer.
//!
//! Validation of user-supplied latencies, rates and scenario scripts
//! surfaces as an [`AdmissionError`] instead of a panic, so callers can
//! handle misconfiguration gracefully. The panicking constructors remain
//! as thin `expect`-style wrappers for ergonomic doctests; every one of
//! them has a `try_` sibling returning `Result`.

use crate::app::AppId;

/// Everything that can go wrong configuring or driving admission control.
#[derive(Debug, Clone, PartialEq)]
pub enum AdmissionError {
    /// A message latency was negative, NaN or infinite.
    InvalidLatency {
        /// The offending value (ns).
        value: f64,
    },
    /// A rate or capacity was non-positive, NaN or infinite.
    InvalidRate {
        /// The offending value (items/cycle).
        value: f64,
    },
    /// A burst or floor parameter was negative, NaN or infinite.
    InvalidBurst {
        /// The offending value (items).
        value: f64,
    },
    /// A cycle interval (heartbeat period, backoff delay, watchdog
    /// timeout) must be positive.
    InvalidInterval {
        /// What the interval configures.
        what: &'static str,
    },
    /// A retry budget must allow at least one attempt.
    InvalidRetryBudget,
    /// Scenario events must be listed in non-decreasing cycle order
    /// ("events must be time-ordered").
    UnorderedEvents,
    /// The scenario horizon precedes its last scripted event.
    HorizonBeforeLastEvent {
        /// The last event cycle.
        last_event: u64,
        /// The configured horizon.
        horizon: u64,
    },
    /// The scenario sink node lies outside the mesh.
    SinkOutsideMesh,
    /// A scenario mesh has a zero dimension.
    EmptyMesh,
    /// An activated application sits on a node outside the scenario mesh.
    NodeOutsideMesh {
        /// The misplaced application.
        app: AppId,
    },
    /// The application is quarantined after repeated watchdog
    /// reclamations and cannot be admitted until the cooldown expires.
    Quarantined {
        /// The flapping application.
        app: AppId,
        /// First cycle at which admission may be retried.
        until_cycle: u64,
    },
    /// The RM is in safe mode: previous rates are retained and new
    /// admissions are refused until the degraded client is reclaimed.
    SafeMode,
    /// A fleet configuration is degenerate: no clusters under the
    /// hierarchy, a zero wave size or critical stride, or more crashes
    /// than clients.
    InvalidFleet {
        /// What is wrong with it.
        what: &'static str,
    },
}

impl std::fmt::Display for AdmissionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AdmissionError::InvalidLatency { value } => {
                write!(f, "invalid message latency: {value} ns")
            }
            AdmissionError::InvalidRate { value } => {
                write!(f, "invalid rate/capacity: {value} items/cycle")
            }
            AdmissionError::InvalidBurst { value } => {
                write!(f, "invalid burst/floor: {value} items")
            }
            AdmissionError::InvalidInterval { what } => {
                write!(f, "{what} must be a positive number of cycles")
            }
            AdmissionError::InvalidRetryBudget => {
                write!(f, "retry policy must allow at least one attempt")
            }
            AdmissionError::UnorderedEvents => write!(f, "events must be time-ordered"),
            AdmissionError::HorizonBeforeLastEvent {
                last_event,
                horizon,
            } => write!(
                f,
                "horizon before the last event: horizon {horizon} < event at {last_event}"
            ),
            AdmissionError::SinkOutsideMesh => write!(f, "sink outside mesh"),
            AdmissionError::EmptyMesh => write!(f, "mesh dimensions must be non-zero"),
            AdmissionError::NodeOutsideMesh { app } => write!(f, "{app} sits outside the mesh"),
            AdmissionError::Quarantined { app, until_cycle } => {
                write!(f, "{app} is quarantined until cycle {until_cycle}")
            }
            AdmissionError::SafeMode => {
                write!(f, "RM is in safe mode; new admissions are refused")
            }
            AdmissionError::InvalidFleet { what } => write!(f, "invalid fleet: {what}"),
        }
    }
}

impl std::error::Error for AdmissionError {}

/// Validates a finite, non-negative latency in nanoseconds.
pub(crate) fn check_latency(value: f64) -> Result<f64, AdmissionError> {
    if value.is_finite() && value >= 0.0 {
        Ok(value)
    } else {
        Err(AdmissionError::InvalidLatency { value })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        assert_eq!(
            AdmissionError::UnorderedEvents.to_string(),
            "events must be time-ordered"
        );
        assert!(AdmissionError::InvalidLatency { value: f64::NAN }
            .to_string()
            .contains("invalid message latency"));
        assert!(AdmissionError::Quarantined {
            app: AppId(4),
            until_cycle: 900
        }
        .to_string()
        .contains("app4"));
        let err: Box<dyn std::error::Error> = Box::new(AdmissionError::SafeMode);
        assert!(err.to_string().contains("safe mode"));
    }

    #[test]
    fn latency_check() {
        assert_eq!(check_latency(10.0), Ok(10.0));
        assert_eq!(check_latency(0.0), Ok(0.0));
        assert!(check_latency(-1.0).is_err());
        assert!(check_latency(f64::INFINITY).is_err());
        assert!(check_latency(f64::NAN).is_err());
    }
}
