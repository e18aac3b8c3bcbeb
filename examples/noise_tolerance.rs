//! Noise-tolerance deep dive (paper §V-C.1/2): per-input robustness radii,
//! the Fig. 4 misclassification sweep and boundary analysis.
//!
//! ```text
//! cargo run --release --example noise_tolerance
//! ```

use fannet::core::behavior;
use fannet::core::casestudy::{build, CaseStudyConfig};
use fannet::core::{boundary, tolerance};

fn main() {
    let cs = build(&CaseStudyConfig::paper());
    let correct = behavior::correctly_classified(&cs.exact_net, &cs.test5);
    println!(
        "analysing {} correctly classified of {} test inputs",
        correct.len(),
        cs.test5.len()
    );

    // --- per-input radii + tolerance -------------------------------------
    let report = tolerance::analyze(&cs.exact_net, &cs.test5, &correct, 50);
    println!("\nnoise tolerance: ±{}% (paper: ±11%)", report.tolerance());
    println!("\nper-input robustness radii:");
    for r in &report.per_input {
        match r.radius {
            Some(radius) => println!(
                "  test[{:2}] (L{}): first flip at ±{radius}%",
                r.index, r.label
            ),
            None => println!("  test[{:2}] (L{}): robust through ±50%", r.index, r.label),
        }
    }

    // --- the Fig. 4 sweep -------------------------------------------------
    println!("\nFig. 4 sweep (misclassified inputs per noise range):");
    for row in report.sweep(&[5, 10, 15, 20, 25, 30, 35, 40]) {
        let bar = "#".repeat(row.misclassified_inputs);
        println!(
            "  [-{:2},+{:2}] {:3}/{}  {bar}",
            row.delta, row.delta, row.misclassified_inputs, row.total_inputs
        );
    }

    // --- boundary analysis -------------------------------------------------
    let bd = boundary::analyze(&cs.exact_net, &cs.test5, &report, 15);
    println!(
        "\nboundary analysis: near (radius ≤ 15): {:?}",
        bd.near_boundary()
    );
    println!("far (robust at ±50%): {:?}", bd.far_from_boundary());
    println!(
        "margin/radius concordance: {:.2} (1.0 = identical orderings)",
        bd.margin_radius_concordance()
    );
}
