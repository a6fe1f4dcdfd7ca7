//! Serving: concurrent clients querying one compiled model through a
//! [`ServingPool`].
//!
//! A trained + quantized model is deployed once (here on the tiled fabric),
//! replicated across pool workers, and four client threads fire independent
//! requests at the bounded queue. The pool coalesces them into batches,
//! serves every batch through the grouped-read path, and reports per-batch
//! amortized delay/energy telemetry alongside each answer. Backpressure and
//! graceful shutdown are demonstrated on the way.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example serving
//! ```

use std::sync::Arc;

use febim_suite::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Train, quantize and deploy the model across a 2x3 grid of 2x24
    //    tiles, then replicate the engine into a 2-worker serving pool.
    let dataset = iris_like(7)?;
    let split = stratified_split(&dataset, 0.7, &mut seeded_rng(7))?;
    let engine = FebimEngine::fit_tiled(
        &split.train,
        EngineConfig::febim_default(),
        TileShape::new(2, 24)?,
    )?;
    let plan = *engine.tiled_program().plan();
    let serving = ServingConfig::febim_default()
        .with_max_batch(8)
        .with_queue_depth(32);
    let pool = Arc::new(ServingPool::replicate(&engine, 2, serving)?);
    println!(
        "pool: {} replicas of a {}x{} tile grid, batches up to {}, queue depth {}",
        pool.replicas(),
        plan.row_tiles(),
        plan.col_tiles(),
        pool.config().max_batch,
        pool.config().queue_depth,
    );

    // 2. Four concurrent clients, each classifying a slice of the test set.
    let samples: Arc<Vec<Vec<f64>>> = Arc::new(
        (0..split.test.n_samples())
            .map(|index| split.test.sample(index).expect("in-range sample").to_vec())
            .collect(),
    );
    let clients = 4;
    let mut handles = Vec::new();
    for client in 0..clients {
        let pool = Arc::clone(&pool);
        let samples = Arc::clone(&samples);
        handles.push(std::thread::spawn(move || {
            let mut answered = 0usize;
            let mut grouped = 0usize;
            for sample in samples.iter().skip(client).step_by(clients) {
                // Non-blocking submit with retry demonstrates backpressure:
                // a full queue bounces the request instead of buffering it
                // without limit.
                let ticket = loop {
                    match pool.submit(sample.clone()) {
                        Ok(ticket) => break ticket,
                        Err(ServingError::QueueFull { .. }) => std::thread::yield_now(),
                        Err(err) => panic!("submit failed: {err}"),
                    }
                };
                // Bounded wait: `wait_timeout` hands the ticket back on
                // expiry instead of blocking forever, so a client can
                // interleave other work (or give up) while the answer is
                // still in flight. Here it simply retries until served.
                let mut pending = ticket;
                let outcome = loop {
                    match pending.wait_timeout(10_000) {
                        Ok(result) => break result.expect("served answer"),
                        Err(ticket) => pending = ticket,
                    }
                };
                answered += 1;
                if outcome.batch.reads > 1 {
                    grouped += 1;
                }
            }
            (client, answered, grouped)
        }));
    }
    for handle in handles {
        let (client, answered, grouped) = handle.join().expect("client thread");
        println!("client {client}: {answered} answers, {grouped} rode in multi-request batches");
    }

    // 3. Graceful shutdown drains the queue and returns the run statistics.
    let pool = Arc::into_inner(pool).expect("all clients done");
    let stats = pool.shutdown();
    println!(
        "served {} requests in {} batches (mean batch {:.2}, largest {})",
        stats.requests, stats.batches, stats.mean_batch_size, stats.largest_batch,
    );
    println!(
        "amortized grouped reads: delay x{:.3}, energy x{:.3} of the sequential baseline",
        stats.delay_ratio(),
        stats.energy_ratio(),
    );
    for (worker, report) in stats.workers.iter().enumerate() {
        println!(
            "  worker {worker}: {} requests over {} batches",
            report.requests, report.batches,
        );
    }
    Ok(())
}
