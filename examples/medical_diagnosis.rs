//! Medical-diagnosis example: the kind of low-data, explainability-critical
//! workload that motivates Bayesian inference in the paper's introduction.
//!
//! A Gaussian naive Bayes classifier is trained on a small synthetic patient
//! cohort and deployed on the FeBiM crossbar, demonstrating that the
//! in-memory engine reaches the same diagnoses as the software model.
//!
//! Run with:
//!
//! ```text
//! cargo run --example medical_diagnosis
//! ```

use febim_suite::data::synthetic::{ClassSpec, SyntheticSpec};
use febim_suite::prelude::*;

/// Synthetic patient cohort: 3 diagnoses described by 4 continuous vitals
/// (temperature, respiratory rate, oxygen saturation, CRP level).
fn patient_cohort() -> SyntheticSpec {
    SyntheticSpec {
        name: "patients".to_string(),
        feature_names: vec![
            "temperature_c".to_string(),
            "respiratory_rate".to_string(),
            "spo2_percent".to_string(),
            "crp_mg_l".to_string(),
        ],
        classes: vec![
            // Healthy.
            ClassSpec::new(vec![36.8, 14.0, 98.0, 3.0], vec![0.3, 1.5, 1.0, 2.0], 60),
            // Flu.
            ClassSpec::new(vec![38.6, 18.0, 96.0, 25.0], vec![0.5, 2.0, 1.5, 10.0], 45),
            // Pneumonia.
            ClassSpec::new(vec![39.2, 26.0, 90.0, 120.0], vec![0.6, 3.0, 3.0, 40.0], 30),
        ],
    }
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("-- data-driven GNBC on the FeBiM crossbar --");
    let cohort = patient_cohort().generate(77)?;
    let split = stratified_split(&cohort, 0.5, &mut seeded_rng(77))?;
    let engine = FebimEngine::fit(&split.train, EngineConfig::febim_default())?;
    let report = engine.evaluate(&split.test)?;
    let software = engine.software_model().score(&split.test)?;
    println!(
        "crossbar geometry: {} classes x {} bitlines (prior column: {})",
        engine.array().layout().rows(),
        engine.array().layout().columns(),
        engine.array().layout().has_prior(),
    );
    println!("software accuracy : {:.2} %", 100.0 * software);
    println!("in-memory accuracy: {:.2} %", 100.0 * report.accuracy);
    println!(
        "energy per diagnosis: {:.2} fJ, delay {:.0} ps",
        report.mean_energy * 1e15,
        report.mean_delay * 1e12
    );

    // Diagnose three representative patients.
    let patients = [
        ("afebrile routine check", vec![36.7, 13.0, 98.5, 2.0]),
        ("feverish with mild cough", vec![38.8, 19.0, 95.5, 30.0]),
        ("severe respiratory distress", vec![39.5, 28.0, 88.0, 150.0]),
    ];
    for (description, vitals) in patients {
        let outcome = engine.infer(&vitals)?;
        let diagnosis = ["healthy", "flu", "pneumonia"][outcome.prediction];
        println!("{description}: diagnosed as {diagnosis}");
    }
    Ok(())
}
