//! Online maintenance: drift recalibration and fault scrubbing on one
//! schedule.
//!
//! A programmed fabric loses its levels two ways: retention drift and read
//! disturb move cells off target slowly, and faults strike cells at once.
//! The crossbar layer repairs both (`TileGrid::recalibrate` rewrites the
//! drifted wordlines, `TileGrid::scrub` read-verifies every cell, rewrites
//! transient faults in place and remaps stuck wordlines onto spare rows).
//! This module decides *when* those passes run:
//!
//! * [`MaintenancePolicy`] — how often one pass checks and how much
//!   effective threshold shift it tolerates;
//! * [`Maintenance`] — one engine's schedule: an optional drift countdown,
//!   an optional scrub countdown, the [`ReplicaHealth`] machine the scrubs
//!   drive and a running [`MaintenanceReport`]. [`Maintenance::tick`] ages
//!   the engine once, then runs every drift check and every scrub that fell
//!   due, drift first.
//!
//! The report is the one place maintenance is counted: checks, skips,
//! failed passes, health transitions and the refresh and repair work. A
//! serving pool keeps no counters of its own; its
//! [`PoolStats::maintenance`](crate::PoolStats::maintenance) is the merge of
//! its tenants' reports.
//!
//! A due check whose backend still sits at the state epoch the previous
//! check left it at is skipped: no programming, aging, read or fault can
//! have touched the array, so the check costs one integer compare instead
//! of an O(cells) scan. That is what makes background maintenance cheap
//! enough to interleave with serving. The same value drives a simulation
//! loop and a serving worker alike.

use serde::Serialize;

use febim_crossbar::{RefreshOutcome, ScrubOutcome};

use crate::backend::InferenceBackend;
use crate::engine::FebimEngine;
use crate::errors::{CoreError, Result};

/// Health of one serving replica, as decided by its scrub history.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Default)]
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

/// When and how strictly one maintenance pass runs.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct MaintenancePolicy {
    /// Ticks between checks (the pass's countdown period).
    pub check_interval_ticks: u64,
    /// Largest effective threshold-voltage shift (volts) a cell may show
    /// before the pass rewrites it: drift past tolerance for a
    /// recalibration, a read signature off its programmed target for a
    /// scrub.
    pub max_vth_shift: f64,
}

impl MaintenancePolicy {
    /// A policy checking every `check_interval_ticks` with tolerance
    /// `max_vth_shift` volts.
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
    /// non-positive or non-finite tolerance (both crossbar passes reject a
    /// tolerance ≤ 0).
    pub fn validate(&self) -> Result<()> {
        let reason = if self.check_interval_ticks == 0 {
            "check interval must be at least one tick".to_string()
        } else if !self.max_vth_shift.is_finite() || self.max_vth_shift <= 0.0 {
            format!(
                "shift tolerance must be finite and positive, got {}",
                self.max_vth_shift
            )
        } else {
            return Ok(());
        };
        Err(CoreError::InvalidConfig {
            name: "maintenance",
            reason,
        })
    }
}

/// Running totals of one engine's maintenance, or the merge of several
/// engines' totals.
#[derive(Debug, Clone, PartialEq, Default, Serialize)]
pub struct MaintenanceReport {
    /// Drift checks that scanned the array (failed ones included).
    pub drift_checks: u64,
    /// Due drift checks skipped because the state epoch had not moved.
    pub drift_skips: u64,
    /// Drift checks whose recalibration pass failed with a programming
    /// error (the engine keeps serving on its drifted state).
    pub drift_failures: u64,
    /// Drift checks that reprogrammed at least one cell.
    pub recalibrations: u64,
    /// Merged refresh counters of those checks (cells checked/refreshed,
    /// pulses, energy).
    pub refresh: RefreshOutcome,
    /// Scrubs that read the array back (failed ones included).
    pub scrub_checks: u64,
    /// Due scrubs skipped because the state epoch had not moved.
    pub scrub_skips: u64,
    /// Scrubs whose repair pass failed with a programming error.
    pub scrub_failures: u64,
    /// Scrubs that found at least one defective cell.
    pub faulty_scrubs: u64,
    /// Health-state transitions applied (each change of state counts once).
    pub transitions: u64,
    /// Merged counters of those scrubs (cells checked/repaired, remaps,
    /// pulses, energy, per-defect reports).
    pub repair: ScrubOutcome,
}

impl MaintenanceReport {
    /// Folds another report's counts and merged outcomes into this one.
    pub(crate) fn merge(&mut self, other: &Self) {
        self.drift_checks += other.drift_checks;
        self.drift_skips += other.drift_skips;
        self.drift_failures += other.drift_failures;
        self.recalibrations += other.recalibrations;
        self.refresh.merge(&other.refresh);
        self.scrub_checks += other.scrub_checks;
        self.scrub_skips += other.scrub_skips;
        self.scrub_failures += other.scrub_failures;
        self.faulty_scrubs += other.faulty_scrubs;
        self.transitions += other.transitions;
        self.repair.merge(&other.repair);
    }
}

/// One pass's countdown and epoch gate.
#[derive(Debug, Clone)]
struct Countdown {
    policy: MaintenancePolicy,
    ticks_until_check: u64,
    /// The state epoch the previous check left the array at.
    last_epoch: Option<u64>,
}

impl Countdown {
    fn new(policy: MaintenancePolicy) -> Result<Self> {
        policy.validate()?;
        Ok(Self {
            policy,
            ticks_until_check: policy.check_interval_ticks,
            last_epoch: None,
        })
    }

    /// Counts `ticks` down and returns how many checks fell due: one per
    /// elapsed interval, so a large jump never swallows a check.
    /// Sub-interval remainders carry over, so split advances add up exactly
    /// like one large advance.
    fn due_checks(&mut self, ticks: u64) -> u64 {
        if ticks < self.ticks_until_check {
            self.ticks_until_check -= ticks;
            return 0;
        }
        let interval = self.policy.check_interval_ticks;
        let past_first = ticks - self.ticks_until_check;
        self.ticks_until_check = interval - past_first % interval;
        1 + past_first / interval
    }

    /// Whether the previous check left the array at `epoch`, so a check now
    /// would rescan an untouched array.
    fn is_unmoved(&self, epoch: u64) -> bool {
        self.last_epoch == Some(epoch)
    }
}

/// One engine's maintenance schedule: drift recalibration and fault
/// scrubbing, each optional, plus the health machine the scrubs drive.
///
/// The value owns no engine state — it watches the backend's clock and
/// state epoch through the engine it is handed, so it works standalone
/// (explicit [`Maintenance::tick`] calls in a simulation loop) and inside a
/// serving worker (ticked between batches) alike.
#[derive(Debug, Clone, Default)]
pub struct Maintenance {
    drift: Option<Countdown>,
    scrub: Option<Countdown>,
    health: ReplicaHealth,
    report: MaintenanceReport,
}

impl Maintenance {
    /// A healthy schedule that runs a drift check under `recalibration` and
    /// a scrub under `scrub`, with a full countdown until each pass's first
    /// check. A pass without a policy never runs.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] when either policy is invalid.
    pub fn new(
        recalibration: Option<MaintenancePolicy>,
        scrub: Option<MaintenancePolicy>,
    ) -> Result<Self> {
        Ok(Self {
            drift: recalibration.map(Countdown::new).transpose()?,
            scrub: scrub.map(Countdown::new).transpose()?,
            ..Self::default()
        })
    }

    /// Current health of the watched replica.
    pub fn health(&self) -> ReplicaHealth {
        self.health
    }

    /// Running totals of checks, skips, transitions and repair work.
    pub fn report(&self) -> &MaintenanceReport {
        &self.report
    }

    /// Advances the engine's physical clock by `ticks` (ageing its cells and
    /// striking any scheduled faults that fall due), then runs every drift
    /// check and every scrub owed in that window, drift first — one per
    /// elapsed interval, though consecutive due checks with an unchanged
    /// epoch collapse into skips. A zero tick is a no-op.
    ///
    /// Returns the drift and the scrub result, each merged over that pass's
    /// due checks: `Some` when at least one check refreshed cells or found
    /// defects. Each pass keeps its own result, so a failed drift check
    /// neither hides nor skips a scrub that falls due in the same tick; a
    /// failure ends only its own pass's remaining checks.
    pub fn tick<B: InferenceBackend>(
        &mut self,
        engine: &mut FebimEngine<B>,
        ticks: u64,
    ) -> (Result<Option<RefreshOutcome>>, Result<Option<ScrubOutcome>>) {
        if ticks == 0 {
            return (Ok(None), Ok(None));
        }
        engine.advance_time(ticks);
        let due = self.drift.as_mut().map_or(0, |pass| pass.due_checks(ticks));
        let refresh = run_due(due, || self.recalibrate(engine), RefreshOutcome::merge);
        let due = self.scrub.as_mut().map_or(0, |pass| pass.due_checks(ticks));
        let repair = run_due(due, || self.scrub(engine), ScrubOutcome::merge);
        (refresh, repair)
    }

    /// Runs one drift check now, regardless of the countdown (a no-op
    /// without a recalibration policy). Skipped when the state epoch has not
    /// moved since the previous check; otherwise reprograms every wordline
    /// holding a cell past tolerance. Returns the refresh when cells were
    /// reprogrammed.
    ///
    /// # Errors
    ///
    /// Propagates programming errors from the recalibration pass, counting
    /// each in [`MaintenanceReport::drift_failures`].
    pub fn recalibrate<B: InferenceBackend>(
        &mut self,
        engine: &mut FebimEngine<B>,
    ) -> Result<Option<RefreshOutcome>> {
        let Some(drift) = self.drift.as_mut() else {
            return Ok(None);
        };
        if drift.is_unmoved(engine.state_epoch()) {
            self.report.drift_skips += 1;
            return Ok(None);
        }
        self.report.drift_checks += 1;
        let outcome = engine
            .recalibrate(drift.policy.max_vth_shift)
            .inspect_err(|_| self.report.drift_failures += 1)?;
        // Record the post-refresh epoch so the pass itself does not force
        // the next check to rescan an untouched array.
        drift.last_epoch = Some(engine.state_epoch());
        if outcome.cells_refreshed == 0 {
            return Ok(None);
        }
        self.report.recalibrations += 1;
        self.report.refresh.merge(&outcome);
        Ok(Some(outcome))
    }

    /// Runs one scrub now, regardless of the countdown (a no-op without a
    /// scrub policy), and feeds its outcome through the health machine.
    /// Skipped when the state epoch has not moved since the previous scrub.
    /// Returns the outcome when defects were found.
    ///
    /// # Errors
    ///
    /// Propagates programming errors from repair writes, counting each in
    /// [`MaintenanceReport::scrub_failures`].
    pub fn scrub<B: InferenceBackend>(
        &mut self,
        engine: &mut FebimEngine<B>,
    ) -> Result<Option<ScrubOutcome>> {
        let Some(scrub) = self.scrub.as_mut() else {
            return Ok(None);
        };
        if scrub.is_unmoved(engine.state_epoch()) {
            self.report.scrub_skips += 1;
            // The epoch was recorded *after* the last repair, so an unmoved
            // epoch proves the array still sits in its verified state: a
            // degraded replica recovers without paying for a rescan.
            // (Quarantined stays terminal.)
            if self.health == ReplicaHealth::Degraded {
                self.set_health(ReplicaHealth::Healthy);
            }
            return Ok(None);
        }
        self.report.scrub_checks += 1;
        let outcome = engine
            .scrub(scrub.policy.max_vth_shift)
            .inspect_err(|_| self.report.scrub_failures += 1)?;
        scrub.last_epoch = Some(engine.state_epoch());
        self.set_health(self.health.after_scrub(&outcome));
        if outcome.is_clean() {
            return Ok(None);
        }
        self.report.faulty_scrubs += 1;
        self.report.repair.merge(&outcome);
        Ok(Some(outcome))
    }

    fn set_health(&mut self, next: ReplicaHealth) {
        if next != self.health {
            self.health = next;
            self.report.transitions += 1;
        }
    }
}

/// Runs `due` checks and merges the outcomes of those that did work; the
/// first error ends the run.
fn run_due<O: Default>(
    due: u64,
    mut check: impl FnMut() -> Result<Option<O>>,
    merge: fn(&mut O, &O),
) -> Result<Option<O>> {
    let mut merged = None;
    for _ in 0..due {
        if let Some(outcome) = check()? {
            merge(merged.get_or_insert_with(O::default), &outcome);
        }
    }
    Ok(merged)
}

#[cfg(test)]
mod tests {
    use super::*;
    use febim_crossbar::{FaultKind, FaultSchedule, ScheduledFault, TileShape};
    use febim_data::rng::seeded_rng;
    use febim_data::split::stratified_split;
    use febim_data::synthetic::iris_like;
    use febim_device::{NonIdealityStack, RetentionDrift};
    use febim_quant::QuantConfig;

    use crate::backend::{CrossbarBackend, TiledFabricBackend};
    use crate::config::EngineConfig;

    fn config() -> EngineConfig {
        EngineConfig::febim_default().with_quant(QuantConfig::febim_optimal())
    }

    fn drifting_engine() -> (FebimEngine<CrossbarBackend>, febim_data::Dataset) {
        let dataset = iris_like(90).unwrap();
        let split = stratified_split(&dataset, 0.7, &mut seeded_rng(90)).unwrap();
        let config = config().with_non_idealities(
            NonIdealityStack::ideal().with_drift(RetentionDrift::new(0.05, 100)),
        );
        let engine = FebimEngine::fit(&split.train, config).unwrap();
        (engine, split.test)
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

    fn drift(interval: u64, tolerance: f64) -> Maintenance {
        Maintenance::new(Some(MaintenancePolicy::new(interval, tolerance)), None).unwrap()
    }

    fn scrubber(interval: u64, tolerance: f64) -> Maintenance {
        Maintenance::new(None, Some(MaintenancePolicy::new(interval, tolerance))).unwrap()
    }

    const INVALID_POLICIES: [(u64, f64); 4] = [(0, 1e-3), (10, 0.0), (10, -1e-3), (10, f64::NAN)];

    #[test]
    fn invalid_drift_policies_are_rejected() {
        for (interval, tolerance) in INVALID_POLICIES {
            let policy = Some(MaintenancePolicy::new(interval, tolerance));
            assert!(Maintenance::new(policy, None).is_err());
        }
        Maintenance::new(Some(MaintenancePolicy::new(10, 1e-3)), None).unwrap();
    }

    #[test]
    fn invalid_scrub_policies_are_rejected() {
        for (interval, tolerance) in INVALID_POLICIES {
            let policy = Some(MaintenancePolicy::new(interval, tolerance));
            assert!(Maintenance::new(None, policy).is_err());
        }
        let policy = Some(MaintenancePolicy::new(10, 1e-3));
        Maintenance::new(None, policy).unwrap();
        Maintenance::new(policy, policy).unwrap();
    }

    #[test]
    fn zero_intervals_are_rejected() {
        let err = Countdown::new(MaintenancePolicy::new(0, 1e-3)).unwrap_err();
        assert!(err.to_string().contains("at least one tick"), "{err}");
    }

    #[test]
    fn epoch_gate_skips_only_the_recorded_epoch() {
        let mut countdown = Countdown::new(MaintenancePolicy::new(1, 1e-3)).unwrap();
        // No pass has run yet: the first check always scans.
        assert!(!countdown.is_unmoved(0));
        countdown.last_epoch = Some(7);
        assert!(countdown.is_unmoved(7));
        assert!(!countdown.is_unmoved(8));
        countdown.last_epoch = Some(8);
        assert!(countdown.is_unmoved(8));
        assert!(!countdown.is_unmoved(7));
    }

    #[test]
    fn sub_interval_ticks_accumulate_across_calls() {
        let mut countdown = Countdown::new(MaintenancePolicy::new(10, 1e-3)).unwrap();
        assert_eq!(countdown.due_checks(4), 0);
        assert_eq!(countdown.due_checks(5), 0);
        assert_eq!(countdown.ticks_until_check, 1);
        assert_eq!(countdown.due_checks(1), 1);
        assert_eq!(countdown.ticks_until_check, 10);
    }

    #[test]
    fn one_large_jump_owes_one_check_per_elapsed_interval() {
        let mut countdown = Countdown::new(MaintenancePolicy::new(10, 1e-3)).unwrap();
        assert_eq!(countdown.due_checks(50), 5);
        assert_eq!(countdown.ticks_until_check, 10);
        // A remainder re-arms a partial countdown.
        assert_eq!(countdown.due_checks(23), 2);
        assert_eq!(countdown.ticks_until_check, 7);
        assert_eq!(countdown.due_checks(0), 0);
        assert_eq!(countdown.ticks_until_check, 7);
    }

    #[test]
    fn closed_form_matches_the_reference_loop() {
        for interval in 1u64..8 {
            let mut fast = Countdown::new(MaintenancePolicy::new(interval, 1e-3)).unwrap();
            let mut remaining = interval;
            for ticks in [0u64, 1, 3, 7, 12, 100, 2, interval, interval * 3] {
                let mut elapsed = ticks;
                let mut due = 0u64;
                while elapsed >= remaining {
                    elapsed -= remaining;
                    remaining = interval;
                    due += 1;
                }
                remaining -= elapsed;
                assert_eq!(fast.due_checks(ticks), due);
                assert_eq!(fast.ticks_until_check, remaining);
            }
        }
    }

    #[test]
    fn scheduler_recalibrates_once_drift_exceeds_tolerance() {
        let (mut engine, _) = drifting_engine();
        let mut maintenance = drift(100, 2e-2);
        // Early ticks: drift is still below tolerance.
        assert!(maintenance.tick(&mut engine, 100).0.unwrap().is_none());
        assert_eq!(maintenance.report().drift_checks, 1);
        assert_eq!(maintenance.report().recalibrations, 0);
        // Age far enough that log-time drift clears one millivolt.
        let outcome = loop {
            if let Some(outcome) = maintenance.tick(&mut engine, 100).0.unwrap() {
                break outcome;
            }
            assert!(engine.clock() < 1_000_000, "drift never exceeded tolerance");
        };
        assert!(outcome.cells_refreshed > 0);
        assert!(outcome.pulses_applied > 0);
        assert!(outcome.energy_joules > 0.0);
        assert_eq!(maintenance.report().recalibrations, 1);
        assert!(engine.worst_effective_shift() <= 2e-2);
    }

    #[test]
    fn tick_runs_every_check_that_falls_due() {
        let (mut engine, _) = drifting_engine();
        let mut maintenance = drift(10, 1e3);
        // One jump spanning five intervals runs five due checks; the first
        // scans (epoch moved during the jump), the rest collapse into
        // epoch-unchanged skips.
        maintenance.tick(&mut engine, 50).0.unwrap();
        let report = maintenance.report().clone();
        assert_eq!(report.drift_checks + report.drift_skips, 5);
        assert_eq!(report.drift_checks, 1);
        // Sub-interval ticks accumulate across calls.
        maintenance.tick(&mut engine, 4).0.unwrap();
        maintenance.tick(&mut engine, 5).0.unwrap();
        let report = maintenance.report().clone();
        assert_eq!(report.drift_checks + report.drift_skips, 5);
        maintenance.tick(&mut engine, 1).0.unwrap();
        let report = maintenance.report().clone();
        assert_eq!(report.drift_checks + report.drift_skips, 6);
    }

    #[test]
    fn unchanged_epoch_skips_the_drift_scan() {
        let (mut engine, _) = drifting_engine();
        let mut maintenance = drift(10, 1e3);
        maintenance.recalibrate(&mut engine).unwrap();
        assert_eq!(maintenance.report().drift_checks, 1);
        // No aging, no reads: the epoch is unchanged, so repeated checks
        // cost an integer compare and never rescan.
        for _ in 0..5 {
            maintenance.recalibrate(&mut engine).unwrap();
        }
        assert_eq!(maintenance.report().drift_checks, 1);
        assert_eq!(maintenance.report().drift_skips, 5);
        // Aging bumps the epoch and re-arms the scan.
        engine.advance_time(10);
        maintenance.recalibrate(&mut engine).unwrap();
        assert_eq!(maintenance.report().drift_checks, 2);
    }

    #[test]
    fn software_engine_never_needs_recalibration() {
        let dataset = iris_like(60).unwrap();
        let engine_config = EngineConfig::febim_default();
        let mut engine = FebimEngine::fit_software(&dataset, engine_config).unwrap();
        let mut maintenance = drift(10, 1e-3);
        for _ in 0..3 {
            assert!(maintenance.tick(&mut engine, 25).0.unwrap().is_none());
        }
        assert_eq!(maintenance.report().recalibrations, 0);
        assert_eq!(maintenance.report().refresh, RefreshOutcome::default());
    }

    /// A recalibrated engine predicts bit-identically to a freshly
    /// programmed one: the scheduler restores accuracy, not just currents.
    #[test]
    fn recalibration_restores_fresh_predictions() {
        let (mut engine, test) = drifting_engine();
        let (fresh_engine, _) = drifting_engine();
        let mut fresh_scratch = fresh_engine.make_scratch();
        let mut scratch = engine.make_scratch();
        engine.advance_time(2_000_000);
        let mut maintenance = drift(1, 1e-4);
        let outcome = maintenance
            .recalibrate(&mut engine)
            .unwrap()
            .expect("drifted");
        assert!(outcome.cells_refreshed > 0);
        for index in 0..test.n_samples() {
            let sample = test.sample(index).unwrap();
            let recalibrated = engine.infer_into(sample, &mut scratch).unwrap();
            let fresh = fresh_engine.infer_into(sample, &mut fresh_scratch).unwrap();
            assert_eq!(recalibrated.prediction, fresh.prediction);
            assert_eq!(
                scratch.wordline_currents(),
                fresh_scratch.wordline_currents()
            );
        }
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
        let mut maintenance = scrubber(10, 1e-6);
        assert!(maintenance.scrub(&mut engine).unwrap().is_none());
        assert_eq!(maintenance.health(), ReplicaHealth::Healthy);
        assert_eq!(maintenance.report().scrub_checks, 1);
        // Untouched array: follow-up checks cost one integer compare.
        for _ in 0..4 {
            assert!(maintenance.scrub(&mut engine).unwrap().is_none());
        }
        assert_eq!(maintenance.report().scrub_checks, 1);
        assert_eq!(maintenance.report().scrub_skips, 4);
        assert_eq!(maintenance.report().transitions, 0);
    }

    /// A transient chaos event is detected within one scrub period of its
    /// strike, healed in place, and the replica recovers on the next clean
    /// pass: Healthy → Degraded → Healthy.
    #[test]
    fn transient_fault_degrades_then_recovers() {
        let mut engine = crossbar_engine();
        engine.set_fault_schedule(one_fault(15, false));
        let mut maintenance = scrubber(10, 1e-6);
        // First interval: nothing has struck yet.
        assert!(maintenance.tick(&mut engine, 10).1.unwrap().is_none());
        assert_eq!(maintenance.health(), ReplicaHealth::Healthy);
        // The fault strikes at tick 15; the tick-20 check catches it.
        let outcome = maintenance
            .tick(&mut engine, 10)
            .1
            .unwrap()
            .expect("the scrub one period after the strike must detect it");
        assert_eq!(outcome.cells_repaired, 1);
        assert!(outcome.fully_repaired());
        assert_eq!(maintenance.health(), ReplicaHealth::Degraded);
        // Next pass is clean: the replica recovers.
        assert!(maintenance.tick(&mut engine, 10).1.unwrap().is_none());
        assert_eq!(maintenance.health(), ReplicaHealth::Healthy);
        assert_eq!(maintenance.report().transitions, 2);
        assert_eq!(maintenance.report().faulty_scrubs, 1);
        assert_eq!(engine.worst_effective_shift(), 0.0);
    }

    /// A permanent fault on a spare-less monolithic array quarantines the
    /// replica, terminally: later clean-looking passes cannot resurrect it.
    #[test]
    fn permanent_fault_without_spares_quarantines_terminally() {
        let mut engine = crossbar_engine();
        engine.set_fault_schedule(one_fault(5, true));
        let mut maintenance = scrubber(10, 1e-6);
        let outcome = maintenance
            .tick(&mut engine, 10)
            .1
            .unwrap()
            .expect("the stuck cell must be detected");
        assert!(!outcome.fully_repaired());
        assert_eq!(maintenance.health(), ReplicaHealth::Quarantined);
        assert!(!maintenance.health().is_serving());
        let transitions = maintenance.report().transitions;
        for _ in 0..3 {
            maintenance.tick(&mut engine, 10).1.unwrap();
            assert_eq!(maintenance.health(), ReplicaHealth::Quarantined);
        }
        assert_eq!(maintenance.report().transitions, transitions);
    }

    /// The same permanent fault on a fabric with spare rows is healed by a
    /// remap: the replica degrades instead of quarantining and its reads
    /// return to the fresh bit pattern.
    #[test]
    fn permanent_fault_with_spares_degrades_instead_of_quarantining() {
        let mut engine = fabric_engine(1);
        let fresh = engine.current_map();
        engine.set_fault_schedule(one_fault(5, true));
        let mut maintenance = scrubber(10, 1e-6);
        let outcome = maintenance
            .tick(&mut engine, 10)
            .1
            .unwrap()
            .expect("the stuck cell must be detected");
        assert!(outcome.fully_repaired());
        assert_eq!(outcome.rows_remapped, 1);
        assert_eq!(maintenance.health(), ReplicaHealth::Degraded);
        assert_eq!(engine.current_map(), fresh, "remap must restore bit-exact");
        // Clean follow-up: recovered.
        maintenance.tick(&mut engine, 10).1.unwrap();
        assert_eq!(maintenance.health(), ReplicaHealth::Healthy);
    }

    #[test]
    fn software_engine_scrubs_are_clean_noops() {
        let dataset = iris_like(60).unwrap();
        let mut engine = FebimEngine::fit_software(&dataset, config()).unwrap();
        engine.set_fault_schedule(one_fault(1, true));
        assert_eq!(engine.pending_faults(), 0);
        let mut maintenance = scrubber(10, 1e-6);
        for _ in 0..3 {
            assert!(maintenance.tick(&mut engine, 25).1.unwrap().is_none());
        }
        assert_eq!(maintenance.health(), ReplicaHealth::Healthy);
        assert_eq!(maintenance.report().faulty_scrubs, 0);
    }
}
