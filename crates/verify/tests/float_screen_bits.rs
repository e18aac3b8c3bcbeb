//! Pins the bits of the float screen's kernel where no golden reaches.
//!
//! The paper network and the serve model have dyadic weights. Their
//! input-noise goldens and counters therefore exercise only the
//! point-factor multiply; the fault counters add interval weights and the
//! stuck-at override on that one network. This property compares
//! [`FloatShadow::output_intervals`] with a row-by-row reference loop
//! built from four-product multiplies and `std`'s one-ulp steps, endpoint
//! by endpoint via `to_bits`, on random ReLU networks whose weights mix
//! non-dyadic (k/3, k/7) and dyadic (k/2^20) values, zeros and negatives,
//! over random boxes and inputs large enough for products to overflow.
//! Each network is screened twice: as the shadow of the rational network
//! ([`FloatShadow::new`]), and as a shadow built from interval enclosures
//! of its parameters with stuck-at overrides, negative ones on `ReLU`
//! layers included ([`FloatShadow::from_enclosures`], the fault domain's
//! float screen).

mod common;

use common::{parameter, random_net, random_region};
use fannet_nn::{Activation, Network};
use fannet_numeric::{FloatInterval, Rational};
use fannet_verify::propagate::{float_factor, FloatShadow, LayerEnclosures};
use fannet_verify::region::NoiseRegion;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One outward step per endpoint with `std`'s `next_down`/`next_up`; a
/// NaN endpoint degrades to the whole line.
fn ref_widen(lo: f64, hi: f64) -> FloatInterval {
    if lo.is_nan() || hi.is_nan() {
        return FloatInterval::EVERYTHING;
    }
    FloatInterval::new(lo.next_down(), hi.next_up())
}

fn ref_add(a: &FloatInterval, b: &FloatInterval) -> FloatInterval {
    ref_widen(a.lo() + b.lo(), a.hi() + b.hi())
}

/// The four-product multiply: `min`/`max` over every endpoint product.
fn ref_mul(a: &FloatInterval, b: &FloatInterval) -> FloatInterval {
    if !(a.lo().is_finite() && a.hi().is_finite() && b.lo().is_finite() && b.hi().is_finite()) {
        return FloatInterval::EVERYTHING;
    }
    let p1 = a.lo() * b.lo();
    let p2 = a.lo() * b.hi();
    let p3 = a.hi() * b.lo();
    let p4 = a.hi() * b.hi();
    ref_widen(p1.min(p2).min(p3).min(p4), p1.max(p2).max(p3).max(p4))
}

fn ref_relu(z: &FloatInterval) -> FloatInterval {
    if z.lo().is_nan() || z.hi().is_nan() {
        return FloatInterval::EVERYTHING;
    }
    FloatInterval::new(z.lo().max(0.0), z.hi().max(0.0))
}

/// The float screen as a row-by-row dot product: each output starts at
/// its bias and adds `a_c · w_rc` for `c = 0..n` in order, then takes
/// its activation and any stuck-at override.
fn reference_outputs(
    layers: &[LayerEnclosures],
    x_enclosure: &[FloatInterval],
    region: &NoiseRegion,
) -> Vec<FloatInterval> {
    let mut acts: Vec<FloatInterval> = x_enclosure
        .iter()
        .zip(region.ranges())
        .map(|(xk, &(lo, hi))| ref_mul(xk, &float_factor(lo, hi)))
        .collect();
    for layer in layers {
        let cols = acts.len();
        let rows = layer.params.len() / (cols + 1);
        let mut next = Vec::with_capacity(rows);
        for r in 0..rows {
            let mut z = layer.params[rows * cols + r];
            for (c, a) in acts.iter().enumerate() {
                z = ref_add(&z, &ref_mul(a, &layer.params[r * cols + c]));
            }
            next.push(match layer.activation {
                Activation::Identity => z,
                Activation::ReLU => ref_relu(&z),
                Activation::Sigmoid => unreachable!("only piecewise-linear layers are generated"),
            });
        }
        for &(neuron, value) in &layer.stuck {
            next[neuron] = value;
        }
        acts = next;
    }
    acts
}

/// The enclosures [`FloatShadow::new`] takes of a rational network.
fn point_enclosures(net: &Network<Rational>) -> Vec<LayerEnclosures> {
    let enclose = |&v: &Rational| FloatInterval::from_rational_point(v);
    net.layers()
        .iter()
        .map(|layer| LayerEnclosures {
            params: (layer.weights().as_slice().iter().chain(layer.biases()))
                .map(enclose)
                .collect(),
            activation: layer.activation(),
            stuck: Vec::new(),
        })
        .collect()
}

/// `net`'s parameter enclosures widened into intervals two times in three,
/// with up to two stuck-at overrides per layer at parameter values (k/3,
/// k/7 or k/2^20, so some negative on `ReLU` layers).
fn interval_enclosures(rng: &mut StdRng, net: &Network<Rational>) -> Vec<LayerEnclosures> {
    let mut widen = |iv: FloatInterval| {
        if rng.gen_range(0..3u32) == 0 {
            iv
        } else {
            FloatInterval::new(
                iv.lo() - rng.gen_range(0.0..2.0),
                iv.hi() + rng.gen_range(0.0..2.0),
            )
        }
    };
    let mut layers = point_enclosures(net);
    for layer in &mut layers {
        layer.params.iter_mut().for_each(|p| *p = widen(*p));
    }
    for (layer, net_layer) in layers.iter_mut().zip(net.layers()) {
        let outputs = net_layer.outputs();
        layer.stuck = (0..rng.gen_range(0..=2u32))
            .map(|_| {
                let value = FloatInterval::from_rational_point(parameter(rng));
                (rng.gen_range(0..outputs), value)
            })
            .collect();
    }
    layers
}

/// An input enclosure of magnitude 10^-6 … 10^308, one in four above
/// 10^299 so that some products overflow: a point half the time (an
/// exactly converted input), otherwise a short interval.
fn random_input(rng: &mut StdRng) -> FloatInterval {
    let exponent = if rng.gen_range(0..4u32) == 0 {
        rng.gen_range(300i32..=308)
    } else {
        rng.gen_range(-5i32..=300)
    };
    let magnitude = 10f64.powi(exponent) * rng.gen_range(0.1..1.0);
    let v = if rng.gen_range(0..2u32) == 0 {
        magnitude
    } else {
        -magnitude
    };
    if rng.gen_range(0..2u32) == 0 {
        FloatInterval::new(v, v)
    } else {
        FloatInterval::new(v, v + v.abs() * rng.gen_range(0.0..1.0))
    }
}

fn bits(iv: &FloatInterval) -> (u64, u64) {
    (iv.lo().to_bits(), iv.hi().to_bits())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The shadow's output endpoints have exactly the reference loop's
    /// bits, overflowed (`EVERYTHING`) outputs included.
    #[test]
    fn shadow_kernel_matches_row_by_row_reference_bit_for_bit(seed in 0u64..u64::MAX) {
        let mut rng = StdRng::seed_from_u64(seed);
        let net = random_net(&mut rng);
        let intervals = interval_enclosures(&mut rng, &net);
        let shadows = [
            (FloatShadow::new(&net), point_enclosures(&net)),
            (FloatShadow::from_enclosures(net.inputs(), intervals.clone()), intervals),
        ];
        for _ in 0..4 {
            let x: Vec<FloatInterval> = (0..net.inputs()).map(|_| random_input(&mut rng)).collect();
            let region = random_region(&mut rng, net.inputs());
            for (shadow, layers) in &shadows {
                let fast = shadow.output_intervals(&x, &region);
                let reference = reference_outputs(layers, &x, &region);
                prop_assert_eq!(fast.len(), reference.len());
                for (k, (f, r)) in fast.iter().zip(&reference).enumerate() {
                    prop_assert_eq!(
                        bits(f),
                        bits(r),
                        "output {} of {:?} on {:?} under {:?}: {:?} vs reference {:?}",
                        k, layers, x, region, f, r
                    );
                }
            }
        }
    }
}
