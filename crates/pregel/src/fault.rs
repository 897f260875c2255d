//! Fault injection: simulated worker crashes with a zeroed restart.
//!
//! Figure 8's caption notes "the sudden drop in throughput and superstep
//! time is due to a failure in one of the workers that led to the triggering
//! of recovery mechanism". This module reproduces that artefact: a scheduled
//! crash wipes the victim worker's in-memory vertex values and in-transit
//! messages (values restart from `Default`; topology and placement are
//! untouched), and charges a recovery penalty to simulated time for a few
//! supersteps.

use crate::worker::WorkerId;

/// One scheduled worker failure.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultEvent {
    /// Superstep at whose *start* the worker fails.
    pub superstep: usize,
    /// The victim worker.
    pub worker: WorkerId,
    /// Supersteps the recovery penalty lasts.
    pub recovery_supersteps: usize,
    /// Extra simulated time added to each affected superstep.
    pub recovery_penalty: f64,
}

/// A schedule of failures for a run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    events: Vec<FaultEvent>,
}

impl FaultPlan {
    /// No failures.
    pub fn none() -> Self {
        Self::default()
    }

    /// Adds a failure event.
    pub fn with_event(mut self, event: FaultEvent) -> Self {
        self.events.push(event);
        self
    }

    /// Crash that begins exactly at `superstep` (convenience).
    pub fn crash(superstep: usize, worker: WorkerId) -> Self {
        Self::none().with_event(FaultEvent {
            superstep,
            worker,
            recovery_supersteps: 5,
            recovery_penalty: 2000.0,
        })
    }

    /// Events whose crash fires at this superstep.
    pub fn crashes_at(&self, superstep: usize) -> impl Iterator<Item = &FaultEvent> {
        self.events.iter().filter(move |e| e.superstep == superstep)
    }

    /// Total recovery penalty applying to this superstep.
    pub fn penalty_at(&self, superstep: usize) -> f64 {
        self.events
            .iter()
            .filter(|e| superstep >= e.superstep && superstep < e.superstep + e.recovery_supersteps)
            .map(|e| e.recovery_penalty)
            .sum()
    }

    /// Whether any event exists.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn penalty_window() {
        let plan = FaultPlan::none().with_event(FaultEvent {
            superstep: 10,
            worker: 2,
            recovery_supersteps: 3,
            recovery_penalty: 100.0,
        });
        assert_eq!(plan.penalty_at(9), 0.0);
        assert_eq!(plan.penalty_at(10), 100.0);
        assert_eq!(plan.penalty_at(12), 100.0);
        assert_eq!(plan.penalty_at(13), 0.0);
    }

    #[test]
    fn crashes_fire_once() {
        let plan = FaultPlan::crash(5, 1);
        assert_eq!(plan.crashes_at(5).count(), 1);
        assert_eq!(plan.crashes_at(6).count(), 0);
    }

    #[test]
    fn overlapping_penalties_sum() {
        let plan = FaultPlan::none()
            .with_event(FaultEvent {
                superstep: 0,
                worker: 0,
                recovery_supersteps: 4,
                recovery_penalty: 10.0,
            })
            .with_event(FaultEvent {
                superstep: 2,
                worker: 1,
                recovery_supersteps: 4,
                recovery_penalty: 5.0,
            });
        assert_eq!(plan.penalty_at(2), 15.0);
    }
}
