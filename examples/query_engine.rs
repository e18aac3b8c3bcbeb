//! A resident verification engine answering a mixed query batch
//! (DESIGN.md §8): train a tiny classifier, mount it in a
//! `fannet_engine::Engine`, and push tolerance + check traffic through
//! the subsumption-aware verdict cache — twice, to watch re-analysis
//! become free.
//!
//! ```text
//! cargo run --release --example query_engine
//! ```

use std::time::Instant;

use fannet::data::normalize::Affine;
use fannet::data::Dataset;
use fannet::engine::protocol::{handle, parse_request, render_response, Response};
use fannet::engine::{Engine, EngineConfig};
use fannet::nn::{fold, init, quantize, train, Activation};
use rand::SeedableRng;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. The quickstart's toy problem: class 0 near (100, 10), class 1
    //    near (10, 100), trained with the paper's schedule and folded
    //    back to raw integer readings.
    let xs: Vec<Vec<f64>> = vec![
        vec![100.0, 10.0],
        vec![120.0, 5.0],
        vec![90.0, 20.0],
        vec![10.0, 110.0],
        vec![5.0, 130.0],
        vec![20.0, 95.0],
    ];
    let ys = vec![0, 0, 0, 1, 1, 1];
    let data = Dataset::new(xs.clone(), ys.clone(), 2)?;
    let norm = Affine::fit_max_abs(&data);
    let normalized = norm.apply_dataset(&data);
    let mut rng = rand::rngs::StdRng::seed_from_u64(7);
    let mut net = init::fresh_network(
        &mut rng,
        &[2, 8, 2],
        Activation::ReLU,
        init::Init::XavierUniform,
    );
    train::train(
        &mut net,
        normalized.samples(),
        normalized.labels(),
        &train::TrainConfig::paper(),
    )?;
    let exact =
        quantize::to_rational_default(&fold::fold_input_affine(&net, norm.scale(), norm.offset())?);

    // 2. Mount the network in a resident engine. The fingerprint is the
    //    cache namespace: verdicts can never leak across models.
    let engine = Engine::new(exact, EngineConfig::serving());
    println!("engine up, network fingerprint {}", engine.fingerprint());

    // 3. A mixed batch in the JSONL wire format `fannet serve` speaks:
    //    one radius search plus sweep-style checks per training input.
    let mut lines = Vec::new();
    for (i, (x, &y)) in xs.iter().zip(&ys).enumerate() {
        let input = format!("[\"{}\",\"{}\"]", x[0], x[1]);
        lines.push(format!(
            "{{\"op\":\"tolerance\",\"id\":{},\"input\":{input},\"label\":{y},\"max_delta\":100}}",
            10 * i
        ));
        for (j, delta) in [10i64, 30, 60, 90].into_iter().enumerate() {
            lines.push(format!(
                "{{\"op\":\"check\",\"id\":{},\"input\":{input},\"label\":{y},\"delta\":{delta}}}",
                10 * i + j + 1
            ));
        }
    }
    let requests: Vec<_> = lines
        .iter()
        .map(|l| parse_request(l).expect("well-formed request"))
        .collect();

    // 4. Round one: the cache is cold, most queries reach the solver.
    let t = Instant::now();
    let responses: Vec<Response> = requests.iter().map(|r| handle(&engine, r)).collect();
    let cold = t.elapsed();
    for response in responses.iter().take(5) {
        println!("  {}", render_response(response));
    }
    println!("  … {} responses in {cold:?}", responses.len());
    let s = engine.counters().region.cache;
    println!(
        "round 1: {} queries → {} exact hits, {} subsumption hits, {} misses",
        s.lookups(),
        s.exact_hits,
        s.subsumption_hits,
        s.misses
    );

    // 5. Round two: identical traffic, warm cache — re-analysis is
    //    answered without a single fresh branch-and-bound.
    let before = engine.counters().region.cache;
    let t = Instant::now();
    let warm_responses: Vec<Response> = requests.iter().map(|r| handle(&engine, r)).collect();
    let warm = t.elapsed();
    // Only the `source` attribution (and its zeroed solver counters) may
    // change between rounds — verdicts and witnesses never do.
    let verdicts = |responses: &[Response]| -> Vec<String> {
        responses
            .iter()
            .map(|r| {
                render_response(r)
                    .split(",\"source\":")
                    .next()
                    .expect("split yields a prefix")
                    .to_string()
            })
            .collect()
    };
    assert_eq!(
        verdicts(&responses),
        verdicts(&warm_responses),
        "cache reuse never changes answers"
    );
    let s = engine.counters().region.cache;
    println!(
        "round 2: +{} exact hits, +{} subsumption hits, +{} misses in {warm:?}",
        s.exact_hits - before.exact_hits,
        s.subsumption_hits - before.subsumption_hits,
        s.misses - before.misses,
    );
    let region = engine.counters().region;
    println!(
        "cumulative solver work: {} boxes across {} cached verdicts",
        region.solver.boxes_visited, region.len
    );
    Ok(())
}
