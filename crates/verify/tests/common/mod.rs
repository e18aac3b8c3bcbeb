//! Random networks and noise boxes shared by the kernel bit properties.

use fannet_nn::{Activation, DenseLayer, Network, Readout};
use fannet_numeric::Rational;
use fannet_tensor::Matrix;
use fannet_verify::region::NoiseRegion;
use rand::rngs::StdRng;
use rand::Rng;

/// A parameter k/3, k/7 or k/2^20, zero one time in six.
pub fn parameter(rng: &mut StdRng) -> Rational {
    match rng.gen_range(0..6u32) {
        0 => Rational::ZERO,
        1 | 2 => Rational::new(rng.gen_range(-30i64..=30).into(), 3),
        3 => Rational::new(rng.gen_range(-30i64..=30).into(), 7),
        _ => Rational::new(rng.gen_range(-(1i64 << 22)..=1 << 22).into(), 1 << 20),
    }
}

/// A 2- or 3-layer network with ReLU hidden layers and an Identity or
/// ReLU output layer.
pub fn random_net(rng: &mut StdRng) -> Network<Rational> {
    let inputs = rng.gen_range(1..=5usize);
    let mut widths = vec![inputs];
    for _ in 0..rng.gen_range(1..=2usize) {
        widths.push(rng.gen_range(1..=8usize));
    }
    widths.push(rng.gen_range(2..=3usize));
    let last = widths.len() - 2;
    let layers = widths
        .windows(2)
        .enumerate()
        .map(|(i, pair)| {
            let rows = (0..pair[1])
                .map(|_| (0..pair[0]).map(|_| parameter(rng)).collect())
                .collect();
            let biases = (0..pair[1]).map(|_| parameter(rng)).collect();
            let activation = if i < last || rng.gen_range(0..2u32) == 0 {
                Activation::ReLU
            } else {
                Activation::Identity
            };
            DenseLayer::new(
                Matrix::from_rows(rows).expect("rectangular"),
                biases,
                activation,
            )
            .expect("matching biases")
        })
        .collect();
    Network::new(layers, Readout::MaxPool).expect("consistent widths")
}

/// A noise box of random percent ranges within ±100.
pub fn random_region(rng: &mut StdRng, nodes: usize) -> NoiseRegion {
    NoiseRegion::new(
        (0..nodes)
            .map(|_| {
                let lo = rng.gen_range(-100i64..=100);
                (lo, rng.gen_range(lo..=100))
            })
            .collect(),
    )
}
