//! A registry snapshot is untrusted input. This test mutates the JSON that
//! `ModelRegistry::snapshot` writes for a one-hot and a 4-bit bit-plane iris
//! tenant and restores every mutation into one long-lived one-bank registry
//! that also hosts the two healthy tenants the snapshots came from:
//!
//! * every number in the text is set, one at a time, to each of ten values
//!   (0, -1, ±1e300, 2^32, `u64::MAX`, 3, 1e-300, 0.5 and `null`);
//! * every array loses its last element, one array at a time.
//!
//! Each restore gets a fresh id (unless the mutated number is the id
//! itself). Every mutation must end, within [`DEADLINE`], in a typed error
//! or in a restored tenant that answers a request; and after each one the
//! healthy tenants must still answer bit-identically to their own engines.
//! A panic, an abort, a hang or a dead bank fails the test. The shim's
//! `json::Value` has no writer, so the mutations edit the text directly.

use std::ops::Range;
use std::sync::mpsc;
use std::thread;
use std::time::{Duration, Instant};

use febim_suite::core::{InferenceStep, ModelRegistry, RegistryConfig};
use febim_suite::prelude::*;
use febim_suite::quant::Encoding;

/// The values every number in a snapshot is set to, as JSON text.
const VALUES: [&str; 10] = [
    "0",
    "-1",
    "1e300",
    "-1e300",
    "4294967296",
    "18446744073709551615",
    "3",
    "1e-300",
    "0.5",
    "null",
];

/// How long one restore, and the serves that follow it, may take.
const DEADLINE: Duration = Duration::from_secs(10);

/// Ids of the two healthy tenants; restores use ids above them.
const HEALTHY: [u64; 2] = [1, 2];

/// Byte spans of a JSON text: every number literal, and for every
/// non-empty array the span its last element (with the comma before it)
/// covers.
#[derive(Debug, Default)]
struct Spans {
    numbers: Vec<Range<usize>>,
    last_elements: Vec<Range<usize>>,
}

/// Scans a well-formed JSON text for [`Spans`].
fn scan(text: &str) -> Spans {
    enum Open {
        Object,
        /// `cut` is where removing the last element starts: just past `[`,
        /// or the latest comma.
        Array {
            cut: usize,
            empty: bool,
        },
    }
    let bytes = text.as_bytes();
    let mut spans = Spans::default();
    let mut open: Vec<Open> = Vec::new();
    let mut index = 0;
    while index < bytes.len() {
        let byte = bytes[index];
        if let Some(Open::Array { empty, .. }) = open.last_mut() {
            if !matches!(byte, b',' | b']' | b' ' | b'\n' | b'\t' | b'\r') {
                *empty = false;
            }
        }
        match byte {
            b'"' => {
                index += 1;
                while bytes[index] != b'"' {
                    index += if bytes[index] == b'\\' { 2 } else { 1 };
                }
            }
            b'{' => open.push(Open::Object),
            b'[' => open.push(Open::Array {
                cut: index + 1,
                empty: true,
            }),
            b'}' => {
                open.pop();
            }
            b']' => {
                if let Some(Open::Array { cut, empty: false }) = open.pop() {
                    spans.last_elements.push(cut..index);
                }
            }
            b',' => {
                if let Some(Open::Array { cut, .. }) = open.last_mut() {
                    *cut = index;
                }
            }
            b'-' | b'0'..=b'9' => {
                let start = index;
                while index + 1 < bytes.len()
                    && matches!(
                        bytes[index + 1],
                        b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E'
                    )
                {
                    index += 1;
                }
                spans.numbers.push(start..index + 1);
            }
            _ => {}
        }
        index += 1;
    }
    spans
}

/// Rewrites `span` of `text` to `with`, and the id (`id_span`) to `id`
/// unless the rewritten span is the id itself.
fn mutate(text: &str, id_span: &Range<usize>, id: u64, span: &Range<usize>, with: &str) -> String {
    if span == id_span {
        return format!("{}{with}{}", &text[..span.start], &text[span.end..]);
    }
    assert!(span.start >= id_span.end, "the id is the first field");
    format!(
        "{}{id}{}{with}{}",
        &text[..id_span.start],
        &text[id_span.end..span.start],
        &text[span.end..]
    )
}

/// A healthy tenant: its engine's encoding, its test samples and its own
/// per-sample answers.
struct Tenant {
    samples: Vec<Vec<f64>>,
    reference: Vec<InferenceStep>,
}

fn fit_tenant(
    registry: &ModelRegistry,
    id: u64,
    encoding: Encoding,
) -> Result<Tenant, Box<dyn std::error::Error>> {
    let dataset = iris_like(4_242)?;
    let split = stratified_split(&dataset, 0.7, &mut seeded_rng(4_242))?;
    let config = EngineConfig::febim_default().with_encoding(encoding);
    let engine = FebimEngine::fit_tiled(&split.train, config, TileShape::new(2, 24)?)?;
    let samples = split.test.samples().to_vec();
    let mut scratch = engine.make_scratch();
    let reference = samples
        .iter()
        .map(|sample| engine.infer_into(sample, &mut scratch))
        .collect::<Result<_, _>>()?;
    registry.register_engine(id, engine)?;
    Ok(Tenant { samples, reference })
}

/// Restores `text` and, when it restored, serves the restored tenant once;
/// then serves every healthy tenant one sample (the `round`-th, cycling)
/// and checks the answer bit for bit. Returns whether the mutation
/// restored; `Err` names what broke.
fn replay(
    registry: &ModelRegistry,
    tenants: &[Tenant],
    text: &str,
    round: usize,
) -> Result<bool, String> {
    let restored = registry.restore(text).ok();
    if let Some(placement) = &restored {
        let _ = registry
            .serve(placement.model, &tenants[0].samples[0])
            .map_err(|err| format!("restored tenant failed to serve: {err}"))?;
    }
    for (tenant, id) in tenants.iter().zip(HEALTHY) {
        let index = round % tenant.samples.len();
        let outcome = registry
            .serve(id, &tenant.samples[index])
            .map_err(|err| format!("healthy tenant {id} failed: {err}"))?;
        let step = &tenant.reference[index];
        if (
            outcome.prediction,
            outcome.tie_broken,
            outcome.delay,
            outcome.energy,
        ) != (step.prediction, step.tie_broken, step.delay, step.energy)
        {
            return Err(format!("healthy tenant {id} answered differently"));
        }
    }
    Ok(restored.is_some())
}

#[test]
fn every_snapshot_mutation_ends_typed_and_leaves_the_bank_serving() {
    let registry = ModelRegistry::new(RegistryConfig::new(1, 16)).unwrap();
    let tenants = vec![
        fit_tenant(&registry, HEALTHY[0], Encoding::OneHot).unwrap(),
        fit_tenant(&registry, HEALTHY[1], Encoding::BitPlane { bits: 4 }).unwrap(),
    ];
    let mut mutations = Vec::new();
    let mut fresh = 1_000;
    for id in HEALTHY {
        let text = registry.snapshot(id).unwrap();
        let spans = scan(&text);
        assert!(text.starts_with("{\"id\":"), "{text}");
        let id_span = spans.numbers[0].clone();
        for span in &spans.numbers {
            for value in VALUES {
                fresh += 1;
                let label = format!("tenant {id}: `{}` -> {value}", &text[span.clone()]);
                mutations.push((label, mutate(&text, &id_span, fresh, span, value)));
            }
        }
        for span in &spans.last_elements {
            fresh += 1;
            let label = format!("tenant {id}: drop `{}`", &text[span.clone()]);
            mutations.push((label, mutate(&text, &id_span, fresh, span, "")));
        }
        // A one-hot snapshot has 58 numbers and a bit-plane one 59 (its
        // cell width); each has 9 non-empty arrays.
        assert!(spans.numbers.len() >= 58, "{} numbers", spans.numbers.len());
        assert!(spans.last_elements.len() >= 9, "{text}");
    }

    // One replay thread works through the mutations in order, so a hang is
    // caught by the deadline below rather than hanging the test; it is
    // joined only once it has answered everything.
    let total = mutations.len();
    let (sender, replies) = mpsc::channel();
    let started = Instant::now();
    let labels: Vec<String> = mutations.iter().map(|(label, _)| label.clone()).collect();
    let replayer = thread::spawn(move || {
        for (round, (_, text)) in mutations.iter().enumerate() {
            let verdict = replay(&registry, &tenants, text, round);
            if sender.send(verdict).is_err() {
                return;
            }
        }
        let stats = registry.shutdown();
        let _ = sender.send(if stats.failed_requests == 0 {
            Ok(true)
        } else {
            Err(format!("{} failed requests", stats.failed_requests))
        });
    });
    let mut served = 0;
    for label in &labels {
        match replies.recv_timeout(DEADLINE) {
            Ok(Ok(restored)) => served += usize::from(restored),
            Ok(Err(broke)) => panic!("{label}: {broke}"),
            Err(mpsc::RecvTimeoutError::Timeout) => panic!("{label}: no answer in {DEADLINE:?}"),
            Err(mpsc::RecvTimeoutError::Disconnected) => panic!("{label}: the restore panicked"),
        }
    }
    let shutdown = replies.recv_timeout(DEADLINE).expect("registry shuts down");
    assert_eq!(shutdown, Ok(true));
    replayer.join().expect("replay thread finished cleanly");
    eprintln!(
        "{total} snapshot mutations replayed in {:?}: {served} restored and served, {} rejected",
        started.elapsed(),
        total - served
    );
}
