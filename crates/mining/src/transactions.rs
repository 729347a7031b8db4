//! Randomized response over binary transaction data and support estimation.
//!
//! The privacy-preserving association-rule mining line of work the paper
//! cites (Rizvi & Haritsa; Evfimievski et al.) disguises each item's
//! presence bit independently with a per-item RR matrix (a 2x2 matrix over
//! {absent, present}) and reconstructs itemset supports from the disguised
//! transactions. This module implements that per-bit disguise and the
//! support estimator for itemsets of arbitrary size (via the Kronecker
//! structure of the joint disguise matrix over the itemset's bits).

use crate::error::{MiningError, Result};
use datagen::TransactionDataset;
use linalg::{invert, Matrix, Vector};
use rand::Rng;
use rr::RrMatrix;

/// Disguises every item bit of every transaction independently with the
/// same 2-category RR matrix (`category 0 = absent`, `1 = present`).
pub fn disguise_transactions<R: Rng + ?Sized>(
    matrix: &RrMatrix,
    data: &TransactionDataset,
    rng: &mut R,
) -> Result<TransactionDataset> {
    if matrix.num_categories() != 2 {
        return Err(MiningError::InvalidParameter {
            name: "matrix categories",
            value: matrix.num_categories() as f64,
            constraint: "transaction disguise needs a 2-category RR matrix",
        });
    }
    if data.is_empty() {
        return Err(MiningError::EmptyData);
    }
    let absent = matrix.randomization_distribution(0)?;
    let present = matrix.randomization_distribution(1)?;
    let mut disguised = Vec::with_capacity(data.len());
    for idx in 0..data.len() {
        let bits = data.bitmap(idx).expect("index within bounds");
        let mut out = Vec::new();
        for (item, bit) in bits.iter().enumerate() {
            let reported = if *bit {
                present.sample(rng)
            } else {
                absent.sample(rng)
            };
            if reported == 1 {
                out.push(item);
            }
        }
        disguised.push(out);
    }
    Ok(TransactionDataset::new(data.num_items(), disguised)?)
}

/// Estimates the *original* support of an itemset from disguised
/// transactions.
///
/// Each bit is disguised independently, so the joint distribution of the
/// itemset's disguised bits is the Kronecker product of the per-bit RR
/// matrix applied to the joint original distribution. Inverting that
/// product (equivalently, applying the 2x2 inverse per bit) recovers the
/// original joint distribution, whose all-ones cell is the support
/// (Rizvi–Haritsa's estimator generalized to arbitrary itemset size).
pub fn estimate_support(
    matrix: &RrMatrix,
    disguised: &TransactionDataset,
    itemset: &[usize],
) -> Result<f64> {
    if matrix.num_categories() != 2 {
        return Err(MiningError::InvalidParameter {
            name: "matrix categories",
            value: matrix.num_categories() as f64,
            constraint: "transaction support estimation needs a 2-category RR matrix",
        });
    }
    if disguised.is_empty() {
        return Err(MiningError::EmptyData);
    }
    if itemset.is_empty() {
        return Ok(1.0);
    }
    if itemset.len() > 20 {
        return Err(MiningError::InvalidParameter {
            name: "itemset size",
            value: itemset.len() as f64,
            constraint: "support estimation is exponential in itemset size; limit is 20",
        });
    }
    if let Some(&bad) = itemset.iter().find(|&&i| i >= disguised.num_items()) {
        return Err(MiningError::InvalidParameter {
            name: "item",
            value: bad as f64,
            constraint: "must be < num_items",
        });
    }

    let k = itemset.len();
    let cells = 1usize << k;
    // Empirical joint distribution of the disguised bits over the itemset.
    let mut counts = vec![0.0_f64; cells];
    for idx in 0..disguised.len() {
        let bits = disguised.bitmap(idx).expect("index within bounds");
        let mut cell = 0usize;
        for (pos, &item) in itemset.iter().enumerate() {
            if bits[item] {
                cell |= 1 << pos;
            }
        }
        counts[cell] += 1.0;
    }
    let n = disguised.len() as f64;
    let observed = Vector::from_vec(counts.into_iter().map(|c| c / n).collect());

    // Joint disguise matrix = k-fold Kronecker product of the 2x2 matrix.
    let base = matrix.as_matrix().clone();
    let mut joint = Matrix::identity(1);
    for _ in 0..k {
        joint = kronecker(&joint, &base);
    }
    let inverse = invert(&joint).map_err(rr::RrError::from)?;
    let original = inverse.mul_vector(&observed).map_err(rr::RrError::from)?;
    // The all-ones cell (every bit present) is the itemset support.
    Ok(original[cells - 1].clamp(0.0, 1.0))
}

/// Kronecker product of two matrices.
fn kronecker(a: &Matrix, b: &Matrix) -> Matrix {
    let (ar, ac) = a.shape();
    let (br, bc) = b.shape();
    let mut out = Matrix::zeros(ar * br, ac * bc);
    for i in 0..ar {
        for j in 0..ac {
            let scale = a[(i, j)];
            if scale == 0.0 {
                continue;
            }
            for p in 0..br {
                for q in 0..bc {
                    out[(i * br + p, j * bc + q)] = scale * b[(p, q)];
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use datagen::transactions::{generate, TransactionConfig};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use rr::schemes::warner;

    /// Two planted itemsets over 20 items and 5,000 transactions.
    fn config() -> TransactionConfig {
        TransactionConfig {
            num_items: 20,
            num_transactions: 5_000,
            background_prob: 0.05,
            planted_itemsets: vec![(vec![0, 1], 0.30), (vec![2, 3, 4], 0.20)],
            seed: 7,
        }
    }

    fn rr2(p: f64) -> RrMatrix {
        warner(2, p).unwrap()
    }

    #[test]
    fn kronecker_product_shape_and_values() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]).unwrap();
        let b = Matrix::identity(2);
        let k = kronecker(&a, &b);
        assert_eq!(k.shape(), (4, 4));
        assert_eq!(k[(0, 0)], 1.0);
        assert_eq!(k[(1, 1)], 1.0);
        assert_eq!(k[(0, 2)], 2.0);
        assert_eq!(k[(2, 0)], 3.0);
        assert_eq!(k[(3, 3)], 4.0);
        assert_eq!(k[(0, 1)], 0.0);
    }

    #[test]
    fn disguise_validates_inputs() {
        let data = generate(&config()).unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        assert!(disguise_transactions(&warner(3, 0.8).unwrap(), &data, &mut rng).is_err());
        let empty = TransactionDataset::new(5, vec![]).unwrap();
        assert!(matches!(
            disguise_transactions(&rr2(0.9), &empty, &mut rng),
            Err(MiningError::EmptyData)
        ));
    }

    #[test]
    fn identity_disguise_preserves_transactions() {
        let data = generate(&config()).unwrap();
        let mut rng = StdRng::seed_from_u64(2);
        let disguised =
            disguise_transactions(&RrMatrix::identity(2).unwrap(), &data, &mut rng).unwrap();
        assert_eq!(disguised, data);
    }

    #[test]
    fn support_estimation_recovers_planted_itemsets() {
        let cfg = TransactionConfig {
            num_transactions: 20_000,
            ..config()
        };
        let data = generate(&cfg).unwrap();
        let m = rr2(0.85);
        let mut rng = StdRng::seed_from_u64(3);
        let disguised = disguise_transactions(&m, &data, &mut rng).unwrap();

        // Single-item support.
        let true_s0 = data.support(&[0]);
        let est_s0 = estimate_support(&m, &disguised, &[0]).unwrap();
        assert!(
            (est_s0 - true_s0).abs() < 0.03,
            "item 0: {est_s0} vs {true_s0}"
        );

        // Planted pair {0,1}.
        let true_pair = data.support(&[0, 1]);
        let est_pair = estimate_support(&m, &disguised, &[0, 1]).unwrap();
        assert!(
            (est_pair - true_pair).abs() < 0.04,
            "pair: {est_pair} vs {true_pair}"
        );

        // Planted triple {2,3,4}.
        let true_triple = data.support(&[2, 3, 4]);
        let est_triple = estimate_support(&m, &disguised, &[2, 3, 4]).unwrap();
        assert!(
            (est_triple - true_triple).abs() < 0.05,
            "triple: {est_triple} vs {true_triple}"
        );

        // An unplanted pair has near-zero support both ways.
        let est_rare = estimate_support(&m, &disguised, &[10, 11]).unwrap();
        assert!(est_rare < 0.05);
    }

    #[test]
    fn support_estimation_validates_inputs() {
        let data = generate(&config()).unwrap();
        let m = rr2(0.9);
        let mut rng = StdRng::seed_from_u64(4);
        let disguised = disguise_transactions(&m, &data, &mut rng).unwrap();
        assert!(estimate_support(&warner(3, 0.9).unwrap(), &disguised, &[0]).is_err());
        assert!(estimate_support(&m, &disguised, &[999]).is_err());
        assert_eq!(estimate_support(&m, &disguised, &[]).unwrap(), 1.0);
        let empty = TransactionDataset::new(5, vec![]).unwrap();
        assert!(estimate_support(&m, &empty, &[0]).is_err());
        let oversized: Vec<usize> = (0..21).collect();
        let wide = TransactionDataset::new(30, vec![vec![0]]).unwrap();
        assert!(estimate_support(&m, &wide, &oversized).is_err());
    }

    #[test]
    fn singular_bit_matrix_is_rejected() {
        let data = generate(&config()).unwrap();
        let m = RrMatrix::uniform(2).unwrap();
        let mut rng = StdRng::seed_from_u64(5);
        let disguised = disguise_transactions(&m, &data, &mut rng).unwrap();
        assert!(estimate_support(&m, &disguised, &[0]).is_err());
    }
}
