//! Property-based invariants for the matrix substrate.

use hmmm_matrix::dense::ZeroRowPolicy;
use hmmm_matrix::{Matrix, ProbVector, StochasticMatrix};
use proptest::prelude::*;

fn finite_positive() -> impl Strategy<Value = f64> {
    (0.001f64..1000.0).prop_map(|v| v)
}

fn small_matrix() -> impl Strategy<Value = Matrix> {
    (1usize..8, 1usize..8)
        .prop_flat_map(|(r, c)| {
            proptest::collection::vec(finite_positive(), r * c).prop_map(move |data| {
                Matrix::from_vec(r, c, data).expect("shape matches by construction")
            })
        })
}

proptest! {
    /// Any positive matrix row-normalizes into a valid stochastic matrix.
    #[test]
    fn normalization_yields_stochastic_rows(m in small_matrix()) {
        let s = StochasticMatrix::normalize(m, ZeroRowPolicy::Uniform).unwrap();
        for i in 0..s.rows() {
            let sum: f64 = s.row(i).iter().sum();
            prop_assert!((sum - 1.0).abs() < 1e-8, "row {} sums to {}", i, sum);
            prop_assert!(s.row(i).iter().all(|&v| (0.0..=1.0 + 1e-12).contains(&v)));
        }
    }

    /// Normalization is idempotent: normalizing twice equals normalizing once.
    #[test]
    fn normalization_is_idempotent(m in small_matrix()) {
        let once = StochasticMatrix::normalize(m.clone(), ZeroRowPolicy::Uniform).unwrap();
        let twice =
            StochasticMatrix::normalize(once.as_matrix().clone(), ZeroRowPolicy::Uniform).unwrap();
        let dist = once
            .as_matrix()
            .frobenius_distance(twice.as_matrix())
            .unwrap();
        prop_assert!(dist < 1e-9);
    }

    /// Row scaling is invariant under normalization: scaling a row by a
    /// positive constant does not change the normalized result.
    #[test]
    fn normalization_scale_invariant(m in small_matrix(), alpha in 0.01f64..100.0) {
        let a = StochasticMatrix::normalize(m.clone(), ZeroRowPolicy::Uniform).unwrap();
        let mut scaled = m;
        scaled.scale(alpha);
        let b = StochasticMatrix::normalize(scaled, ZeroRowPolicy::Uniform).unwrap();
        let dist = a.as_matrix().frobenius_distance(b.as_matrix()).unwrap();
        prop_assert!(dist < 1e-7);
    }

    /// ProbVector::from_counts always produces a unit-mass distribution.
    #[test]
    fn prob_vector_mass_is_one(counts in proptest::collection::vec(0.0f64..100.0, 1..32)) {
        prop_assume!(counts.iter().sum::<f64>() > 0.0);
        let pi = ProbVector::from_counts(&counts).unwrap();
        let mass: f64 = pi.as_slice().iter().sum();
        prop_assert!((mass - 1.0).abs() < 1e-9);
        prop_assert!(pi.as_slice().iter().all(|&p| p >= 0.0));
    }

    /// Entropy of any distribution is within [0, ln n].
    #[test]
    fn entropy_bounds(counts in proptest::collection::vec(0.0f64..100.0, 1..32)) {
        prop_assume!(counts.iter().sum::<f64>() > 0.0);
        let pi = ProbVector::from_counts(&counts).unwrap();
        let h = pi.entropy();
        prop_assert!(h >= -1e-12);
        prop_assert!(h <= (pi.len() as f64).ln() + 1e-9);
    }

    /// Matrix serde round-trip is lossless.
    #[test]
    fn matrix_serde_round_trip(m in small_matrix()) {
        let json = serde_json::to_string(&m).unwrap();
        let back: Matrix = serde_json::from_str(&json).unwrap();
        prop_assert_eq!(m, back);
    }
}
