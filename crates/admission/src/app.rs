//! Applications requesting end-to-end service.

/// Application identifier.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, serde::Serialize, serde::Deserialize,
)]
pub struct AppId(pub u32);

impl std::fmt::Display for AppId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "app{}", self.0)
    }
}

/// Importance of an application for non-symmetric rate allocation
/// (§V: "transmission rates depend not only on the current system mode
/// but also on the application's importance").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub enum Importance {
    /// Best-effort traffic: squeezed first when the system fills up.
    BestEffort,
    /// Critical traffic with a guaranteed minimum rate (items/cycle).
    Critical {
        /// The guaranteed minimum injection rate.
        guaranteed_rate_milli: u32,
    },
}

impl Importance {
    /// The guaranteed rate in thousandths of an item/cycle (0 for best
    /// effort): the exact value admission budgets add up.
    pub fn guaranteed_milli(&self) -> u64 {
        match self {
            Importance::BestEffort => 0,
            Importance::Critical {
                guaranteed_rate_milli,
            } => u64::from(*guaranteed_rate_milli),
        }
    }

    /// The guaranteed rate in items/cycle (0 for best effort).
    pub fn guaranteed_rate(&self) -> f64 {
        self.guaranteed_milli() as f64 / 1000.0
    }

    /// True for critical applications.
    pub fn is_critical(&self) -> bool {
        matches!(self, Importance::Critical { .. })
    }
}

/// An application known to the admission-control layer.
///
/// # Examples
///
/// ```
/// use autoplat_admission::{AppId, Application, Importance};
///
/// let camera = Application::critical(AppId(1), 3, 250);
/// assert!(camera.importance.is_critical());
/// assert_eq!(camera.importance.guaranteed_rate(), 0.25);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct Application {
    /// The application id.
    pub id: AppId,
    /// The NoC node it injects from.
    pub node: u32,
    /// Its importance class.
    pub importance: Importance,
}

impl Application {
    /// A best-effort application at `node`.
    pub fn best_effort(id: AppId, node: u32) -> Self {
        Application {
            id,
            node,
            importance: Importance::BestEffort,
        }
    }

    /// A critical application with a guaranteed rate in milli-items per
    /// cycle.
    pub fn critical(id: AppId, node: u32, guaranteed_rate_milli: u32) -> Self {
        Application {
            id,
            node,
            importance: Importance::Critical {
                guaranteed_rate_milli,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn importance_rates() {
        assert_eq!(Importance::BestEffort.guaranteed_rate(), 0.0);
        assert_eq!(Importance::BestEffort.guaranteed_milli(), 0);
        assert!(!Importance::BestEffort.is_critical());
        let c = Importance::Critical {
            guaranteed_rate_milli: 500,
        };
        assert_eq!(c.guaranteed_rate(), 0.5);
        assert_eq!(c.guaranteed_milli(), 500);
        assert!(c.is_critical());
    }

    #[test]
    fn constructors() {
        let be = Application::best_effort(AppId(0), 3);
        assert_eq!(be.node, 3);
        assert_eq!(be.importance, Importance::BestEffort);
        let cr = Application::critical(AppId(1), 4, 100);
        assert_eq!(cr.importance.guaranteed_rate(), 0.1);
    }

    #[test]
    fn app_id_display_and_order() {
        assert_eq!(AppId(3).to_string(), "app3");
        assert!(AppId(1) < AppId(2));
    }
}
