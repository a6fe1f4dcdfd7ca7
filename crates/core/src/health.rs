//! Replica health tracking and online scrub scheduling.
//!
//! Self-healing happens in two layers. The crossbar layer detects and
//! repairs defects (`TileGrid::scrub`, on a single array and a sharded
//! fabric alike: BIST-style signature reads, in-place refresh for transient
//! faults, spare-row remapping for stuck cells). This module adds the
//! *policy* layer on top:
//!
//! * [`ReplicaHealth`] — the three-state machine a serving replica moves
//!   through: `Healthy` → `Degraded` (defects found, all repaired) →
//!   `Quarantined` (an unrepairable defect survived; terminal).
//! * [`ScrubPolicy`] — how often to scrub and how much effective threshold
//!   shift the signature check tolerates.
//! * [`ScrubScheduler`] — the countdown state machine driving periodic
//!   scrubs over one engine, mirroring `RecalibrationScheduler`: due checks
//!   with an unmoved state epoch collapse into integer-compare skips (no
//!   fault can have struck an untouched array), so background scrubbing is
//!   cheap enough to interleave with serving.
//!
//! The scheduler owns the health state so every consumer — simulation
//! loops, the serving pool's workers, the chaos tests — applies identical
//! transition rules.

use serde::{Deserialize, Serialize};

use febim_crossbar::ScrubOutcome;

use crate::backend::InferenceBackend;
use crate::engine::FebimEngine;
use crate::errors::{CoreError, Result};
use crate::scheduler::EpochScheduler;

/// Health of one serving replica, as decided by its scrub history.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum ReplicaHealth {
    /// No outstanding defects: the last scrub found nothing.
    #[default]
    Healthy,
    /// Defects were found and fully repaired (in place or via spare rows);
    /// the replica keeps serving but its spare budget is being consumed. A
    /// clean follow-up scrub recovers it to [`ReplicaHealth::Healthy`].
    Degraded,
    /// An unrepairable defect survived a scrub: the replica must stop
    /// taking traffic. Terminal — a stuck cell without a free spare row
    /// never heals.
    Quarantined,
}

impl ReplicaHealth {
    /// Whether a replica in this state may serve traffic.
    pub fn is_serving(self) -> bool {
        !matches!(self, Self::Quarantined)
    }

    /// Compact encoding for lock-free health flags (see `ServingPool`).
    pub fn as_u8(self) -> u8 {
        match self {
            Self::Healthy => 0,
            Self::Degraded => 1,
            Self::Quarantined => 2,
        }
    }

    /// Inverse of [`ReplicaHealth::as_u8`]; unknown encodings collapse to
    /// the safe state, [`ReplicaHealth::Quarantined`].
    pub fn from_u8(value: u8) -> Self {
        match value {
            0 => Self::Healthy,
            1 => Self::Degraded,
            _ => Self::Quarantined,
        }
    }

    /// The state after absorbing one scrub outcome: any unrepaired defect
    /// quarantines, repaired defects degrade, a clean pass recovers —
    /// except out of [`ReplicaHealth::Quarantined`], which is terminal.
    pub fn after_scrub(self, outcome: &ScrubOutcome) -> Self {
        if self == Self::Quarantined {
            return Self::Quarantined;
        }
        if !outcome.fully_repaired() {
            Self::Quarantined
        } else if outcome.is_clean() {
            Self::Healthy
        } else {
            Self::Degraded
        }
    }
}

/// When and how strictly to scrub a replica.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ScrubPolicy {
    /// Ticks between scrub checks (the scheduler's countdown period).
    pub check_interval_ticks: u64,
    /// Largest effective threshold-voltage shift (volts) a cell's read
    /// signature may deviate from its programmed target before the cell is
    /// classified defective.
    pub max_vth_shift: f64,
}

impl ScrubPolicy {
    /// A policy scrubbing every `check_interval_ticks` with signature
    /// tolerance `max_vth_shift` volts.
    pub fn new(check_interval_ticks: u64, max_vth_shift: f64) -> Self {
        Self {
            check_interval_ticks,
            max_vth_shift,
        }
    }

    /// Validates the policy.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] for a zero check interval or a
    /// non-positive / non-finite signature tolerance (the crossbar scrub
    /// requires a strictly positive tolerance).
    pub fn validate(&self) -> Result<()> {
        if self.check_interval_ticks == 0 {
            return Err(CoreError::InvalidConfig {
                name: "scrub",
                reason: "check interval must be at least one tick".to_string(),
            });
        }
        if !self.max_vth_shift.is_finite() || self.max_vth_shift <= 0.0 {
            return Err(CoreError::InvalidConfig {
                name: "scrub",
                reason: format!(
                    "signature tolerance must be finite and positive, got {}",
                    self.max_vth_shift
                ),
            });
        }
        Ok(())
    }
}

/// Running totals of one scheduler's scrub activity.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct ScrubReport {
    /// Scrub passes actually run.
    pub checks: u64,
    /// Due checks skipped because the state epoch had not moved.
    pub skipped_checks: u64,
    /// Scrubs that found at least one defective cell.
    pub faulty_scrubs: u64,
    /// Health-state transitions applied (each change of state counts once).
    pub transitions: u64,
    /// Merged scrub counters (cells checked/repaired, remaps, pulses,
    /// energy, per-defect reports).
    pub outcome: ScrubOutcome,
}

/// Drives periodic scrub passes and the health state machine of one engine.
///
/// Like `RecalibrationScheduler`, the scheduler owns no engine state — it
/// watches the backend's clock and state epoch through the engine it is
/// handed, so the same value works standalone (explicit
/// [`ScrubScheduler::tick`] calls in a simulation loop) and inside a
/// serving worker ([`ScrubScheduler::note_ticks`] between batches, where
/// the recalibration scheduler already advances the clock).
#[derive(Debug, Clone)]
pub struct ScrubScheduler {
    policy: ScrubPolicy,
    epoch: EpochScheduler,
    health: ReplicaHealth,
    report: ScrubReport,
}

impl ScrubScheduler {
    /// Creates a healthy scheduler with a full countdown until the first
    /// check.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] when the policy is invalid.
    pub fn new(policy: ScrubPolicy) -> Result<Self> {
        policy.validate()?;
        Ok(Self {
            policy,
            epoch: EpochScheduler::new(policy.check_interval_ticks),
            health: ReplicaHealth::Healthy,
            report: ScrubReport::default(),
        })
    }

    /// The policy this scheduler enforces.
    pub fn policy(&self) -> &ScrubPolicy {
        &self.policy
    }

    /// Current health of the watched replica.
    pub fn health(&self) -> ReplicaHealth {
        self.health
    }

    /// Running totals of checks, skips, defects and repair work.
    pub fn report(&self) -> &ScrubReport {
        &self.report
    }

    /// Advances the engine's physical clock by `ticks` (striking any
    /// scheduled faults that fall due) and runs every scrub check owed in
    /// that window — one per elapsed interval, so a large jump cannot
    /// silently swallow checks, though consecutive due checks with an
    /// unchanged epoch collapse into skips. Returns the merged outcome when
    /// at least one scrub found defects, `None` otherwise.
    ///
    /// # Errors
    ///
    /// Propagates programming errors from repair writes.
    pub fn tick<B: InferenceBackend>(
        &mut self,
        engine: &mut FebimEngine<B>,
        ticks: u64,
    ) -> Result<Option<ScrubOutcome>> {
        engine.advance_time(ticks);
        self.countdown(engine, ticks)
    }

    /// Counts `ticks` against the check interval **without advancing the
    /// engine's clock** — for callers that already aged the engine (a
    /// serving worker whose recalibration scheduler owns the clock) and
    /// must not apply the same wall time twice. Runs every check that falls
    /// due, exactly like [`ScrubScheduler::tick`].
    ///
    /// # Errors
    ///
    /// Propagates programming errors from repair writes.
    pub fn note_ticks<B: InferenceBackend>(
        &mut self,
        engine: &mut FebimEngine<B>,
        ticks: u64,
    ) -> Result<Option<ScrubOutcome>> {
        self.countdown(engine, ticks)
    }

    /// Shared countdown loop of [`ScrubScheduler::tick`] and
    /// [`ScrubScheduler::note_ticks`].
    fn countdown<B: InferenceBackend>(
        &mut self,
        engine: &mut FebimEngine<B>,
        ticks: u64,
    ) -> Result<Option<ScrubOutcome>> {
        let mut merged: Option<ScrubOutcome> = None;
        for _ in 0..self.epoch.due_checks(ticks) {
            if let Some(outcome) = self.check(engine)? {
                merged
                    .get_or_insert_with(ScrubOutcome::default)
                    .merge(&outcome);
            }
        }
        Ok(merged)
    }

    /// Runs one scrub check immediately, regardless of the countdown.
    ///
    /// Skips the pass entirely when the backend's state epoch has not
    /// moved since the previous check (no programming, aging, read or
    /// chaos event touched the array, so no new defect can exist);
    /// otherwise scrubs and feeds the outcome through the health state
    /// machine. Returns the outcome when defects were found.
    ///
    /// # Errors
    ///
    /// Propagates programming errors from repair writes.
    pub fn check<B: InferenceBackend>(
        &mut self,
        engine: &mut FebimEngine<B>,
    ) -> Result<Option<ScrubOutcome>> {
        let epoch = engine.state_epoch();
        if self.epoch.is_unmoved(epoch) {
            self.report.skipped_checks += 1;
            // The epoch snapshot was taken *after* the last repair pass, so
            // an unmoved epoch proves the array still sits in its verified
            // post-repair state: a degraded replica recovers without paying
            // for a rescan. (Quarantined stays terminal.)
            if self.health == ReplicaHealth::Degraded {
                self.health = ReplicaHealth::Healthy;
                self.report.transitions += 1;
            }
            return Ok(None);
        }
        self.report.checks += 1;
        let outcome = engine.scrub(self.policy.max_vth_shift)?;
        // Record the post-repair epoch so the pass itself does not force
        // the next check to rescan an untouched array.
        self.epoch.record(engine.state_epoch());
        let next = self.health.after_scrub(&outcome);
        if next != self.health {
            self.health = next;
            self.report.transitions += 1;
        }
        if outcome.is_clean() {
            return Ok(None);
        }
        self.report.faulty_scrubs += 1;
        self.report.outcome.merge(&outcome);
        Ok(Some(outcome))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use febim_crossbar::{FaultKind, FaultSchedule, ScheduledFault, TileShape};
    use febim_data::rng::seeded_rng;
    use febim_data::split::stratified_split;
    use febim_data::synthetic::iris_like;
    use febim_quant::QuantConfig;

    use crate::backend::{CrossbarBackend, TiledFabricBackend};
    use crate::config::EngineConfig;

    fn config() -> EngineConfig {
        EngineConfig::febim_default().with_quant(QuantConfig::febim_optimal())
    }

    fn crossbar_engine() -> FebimEngine<CrossbarBackend> {
        let dataset = iris_like(90).unwrap();
        let split = stratified_split(&dataset, 0.7, &mut seeded_rng(90)).unwrap();
        FebimEngine::fit(&split.train, config()).unwrap()
    }

    fn fabric_engine(spares: usize) -> FebimEngine<TiledFabricBackend> {
        let dataset = iris_like(90).unwrap();
        let split = stratified_split(&dataset, 0.7, &mut seeded_rng(90)).unwrap();
        let shape = TileShape::new(2, 24).unwrap().with_spare_rows(spares);
        FebimEngine::fit_tiled(&split.train, config(), shape).unwrap()
    }

    fn one_fault(at_tick: u64, permanent: bool) -> FaultSchedule {
        FaultSchedule::new(vec![ScheduledFault {
            at_tick,
            row: 1,
            column: 3,
            kind: FaultKind::StuckErased,
            permanent,
        }])
    }

    #[test]
    fn invalid_policies_are_rejected() {
        assert!(ScrubScheduler::new(ScrubPolicy::new(0, 1e-3)).is_err());
        assert!(ScrubScheduler::new(ScrubPolicy::new(10, 0.0)).is_err());
        assert!(ScrubScheduler::new(ScrubPolicy::new(10, -1e-3)).is_err());
        assert!(ScrubScheduler::new(ScrubPolicy::new(10, f64::NAN)).is_err());
        ScrubScheduler::new(ScrubPolicy::new(10, 1e-3)).unwrap();
    }

    #[test]
    fn health_encoding_round_trips_and_unknown_is_quarantined() {
        for health in [
            ReplicaHealth::Healthy,
            ReplicaHealth::Degraded,
            ReplicaHealth::Quarantined,
        ] {
            assert_eq!(ReplicaHealth::from_u8(health.as_u8()), health);
        }
        assert_eq!(ReplicaHealth::from_u8(250), ReplicaHealth::Quarantined);
        assert!(ReplicaHealth::Healthy.is_serving());
        assert!(ReplicaHealth::Degraded.is_serving());
        assert!(!ReplicaHealth::Quarantined.is_serving());
    }

    #[test]
    fn clean_scrubs_keep_the_replica_healthy_and_skip_on_unmoved_epochs() {
        let mut engine = crossbar_engine();
        let mut scheduler = ScrubScheduler::new(ScrubPolicy::new(10, 1e-6)).unwrap();
        assert!(scheduler.check(&mut engine).unwrap().is_none());
        assert_eq!(scheduler.health(), ReplicaHealth::Healthy);
        assert_eq!(scheduler.report().checks, 1);
        // Untouched array: follow-up checks cost one integer compare.
        for _ in 0..4 {
            assert!(scheduler.check(&mut engine).unwrap().is_none());
        }
        assert_eq!(scheduler.report().checks, 1);
        assert_eq!(scheduler.report().skipped_checks, 4);
        assert_eq!(scheduler.report().transitions, 0);
    }

    /// A transient chaos event is detected within one scrub period of its
    /// strike, healed in place, and the replica recovers on the next clean
    /// pass: Healthy → Degraded → Healthy.
    #[test]
    fn transient_fault_degrades_then_recovers() {
        let mut engine = crossbar_engine();
        engine.set_fault_schedule(one_fault(15, false));
        let mut scheduler = ScrubScheduler::new(ScrubPolicy::new(10, 1e-6)).unwrap();
        // First interval: nothing has struck yet.
        assert!(scheduler.tick(&mut engine, 10).unwrap().is_none());
        assert_eq!(scheduler.health(), ReplicaHealth::Healthy);
        // The fault strikes at tick 15; the tick-20 check catches it.
        let outcome = scheduler
            .tick(&mut engine, 10)
            .unwrap()
            .expect("the scrub one period after the strike must detect it");
        assert_eq!(outcome.cells_repaired, 1);
        assert!(outcome.fully_repaired());
        assert_eq!(scheduler.health(), ReplicaHealth::Degraded);
        // Next pass is clean: the replica recovers.
        assert!(scheduler.tick(&mut engine, 10).unwrap().is_none());
        assert_eq!(scheduler.health(), ReplicaHealth::Healthy);
        assert_eq!(scheduler.report().transitions, 2);
        assert_eq!(scheduler.report().faulty_scrubs, 1);
        assert_eq!(engine.worst_effective_shift(), 0.0);
    }

    /// A permanent fault on a spare-less monolithic array quarantines the
    /// replica, terminally: later clean-looking passes cannot resurrect it.
    #[test]
    fn permanent_fault_without_spares_quarantines_terminally() {
        let mut engine = crossbar_engine();
        engine.set_fault_schedule(one_fault(5, true));
        let mut scheduler = ScrubScheduler::new(ScrubPolicy::new(10, 1e-6)).unwrap();
        let outcome = scheduler
            .tick(&mut engine, 10)
            .unwrap()
            .expect("the stuck cell must be detected");
        assert!(!outcome.fully_repaired());
        assert_eq!(scheduler.health(), ReplicaHealth::Quarantined);
        assert!(!scheduler.health().is_serving());
        let transitions = scheduler.report().transitions;
        for _ in 0..3 {
            scheduler.tick(&mut engine, 10).unwrap();
            assert_eq!(scheduler.health(), ReplicaHealth::Quarantined);
        }
        assert_eq!(scheduler.report().transitions, transitions);
    }

    /// The same permanent fault on a fabric with spare rows is healed by a
    /// remap: the replica degrades instead of quarantining and its reads
    /// return to the fresh bit pattern.
    #[test]
    fn permanent_fault_with_spares_degrades_instead_of_quarantining() {
        let mut engine = fabric_engine(1);
        let fresh = engine.current_map();
        engine.set_fault_schedule(one_fault(5, true));
        let mut scheduler = ScrubScheduler::new(ScrubPolicy::new(10, 1e-6)).unwrap();
        let outcome = scheduler
            .tick(&mut engine, 10)
            .unwrap()
            .expect("the stuck cell must be detected");
        assert!(outcome.fully_repaired());
        assert_eq!(outcome.rows_remapped, 1);
        assert_eq!(scheduler.health(), ReplicaHealth::Degraded);
        assert_eq!(engine.current_map(), fresh, "remap must restore bit-exact");
        // Clean follow-up: recovered.
        scheduler.tick(&mut engine, 10).unwrap();
        assert_eq!(scheduler.health(), ReplicaHealth::Healthy);
    }

    /// `note_ticks` runs the same due checks as `tick` but never moves the
    /// engine clock — the serving-worker contract where the recalibration
    /// scheduler owns wall time.
    #[test]
    fn note_ticks_counts_down_without_aging() {
        let mut engine = crossbar_engine();
        engine.set_fault_schedule(one_fault(5, false));
        let mut scheduler = ScrubScheduler::new(ScrubPolicy::new(10, 1e-6)).unwrap();
        assert!(scheduler.note_ticks(&mut engine, 25).unwrap().is_none());
        assert_eq!(engine.clock(), 0, "note_ticks must not advance the clock");
        assert_eq!(engine.pending_faults(), 1, "unmoved clock, unstruck fault");
        let report = scheduler.report().clone();
        assert_eq!(report.checks + report.skipped_checks, 2);
        // The clock is advanced externally; note_ticks picks up the strike.
        engine.advance_time(10);
        let outcome = scheduler
            .note_ticks(&mut engine, 10)
            .unwrap()
            .expect("struck fault must be scrubbed");
        assert!(outcome.fully_repaired());
        assert_eq!(engine.clock(), 10);
    }

    #[test]
    fn software_engine_scrubs_are_clean_noops() {
        let dataset = iris_like(60).unwrap();
        let mut engine = FebimEngine::fit_software(&dataset, config()).unwrap();
        engine.set_fault_schedule(one_fault(1, true));
        assert_eq!(engine.pending_faults(), 0);
        let mut scheduler = ScrubScheduler::new(ScrubPolicy::new(10, 1e-6)).unwrap();
        for _ in 0..3 {
            assert!(scheduler.tick(&mut engine, 25).unwrap().is_none());
        }
        assert_eq!(scheduler.health(), ReplicaHealth::Healthy);
        assert_eq!(scheduler.report().faulty_scrubs, 0);
    }
}
