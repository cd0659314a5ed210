//! Percentiles and the per-op normalisation.

use std::time::Instant;

/// A p90 is reported only from at least this many samples of its class.
pub const MIN_P90_SAMPLES: usize = 100;

/// Nearest-rank percentile of `values` (any order): the smallest sample
/// such that at least `p` percent of all samples are at or below it.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    assert!(!values.is_empty(), "percentile of no samples");
    assert!((0.0..=100.0).contains(&p), "percentile {p} out of range");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0)
}

/// One timed op and the reference-kernel sample taken right before it.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    pub op_ns: u64,
    pub ref_ns: u64,
}

impl Sample {
    /// The op's time in units of the kernel sample beside it.
    pub fn ratio(self) -> f64 {
        self.op_ns as f64 / self.ref_ns as f64
    }
}

/// Summary of one class of ops in a run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub p50_rel: f64,
    pub p90_rel: f64,
    pub raw_p50_ms: f64,
}

/// Percentiles over the per-op ratios (never a ratio of percentiles).
/// Refuses a p90 from fewer than [`MIN_P90_SAMPLES`] samples.
pub fn summarize(samples: &[Sample]) -> Result<Summary, String> {
    if samples.len() < MIN_P90_SAMPLES {
        return Err(format!(
            "{} samples; a p90 needs at least {MIN_P90_SAMPLES}",
            samples.len()
        ));
    }
    let ratios: Vec<f64> = samples.iter().map(|s| s.ratio()).collect();
    let raw: Vec<f64> = samples.iter().map(|s| s.op_ns as f64 / 1e6).collect();
    Ok(Summary {
        p50_rel: median(&ratios),
        p90_rel: percentile(&ratios, 90.0),
        raw_p50_ms: median(&raw),
    })
}

/// Ops completed per kernel-sample duration: the op count over the sum of
/// the per-op ratios.
pub fn throughput_rel(samples: &[Sample]) -> f64 {
    let total: f64 = samples.iter().map(|s| s.ratio()).sum();
    samples.len() as f64 / total
}

/// Median of the per-op ratios.
pub fn p50_rel(samples: &[Sample]) -> f64 {
    median(&samples.iter().map(|s| s.ratio()).collect::<Vec<_>>())
}

/// Median kernel sample, ms.
pub fn ref_ms(samples: &[Sample]) -> f64 {
    median(
        &samples
            .iter()
            .map(|s| s.ref_ns as f64 / 1e6)
            .collect::<Vec<_>>(),
    )
}

/// Nanoseconds `f` took, with its result.
pub fn timed<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let t0 = Instant::now();
    let out = f();
    (t0.elapsed().as_nanos() as u64, out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=10).rev().map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 5.0);
        assert_eq!(percentile(&v, 90.0), 9.0);
        assert_eq!(percentile(&v, 91.0), 10.0);
        assert_eq!(percentile(&v, 100.0), 10.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(median(&[3.0]), 3.0);
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&hundred, 90.0), 90.0);
        assert_eq!(median(&hundred), 50.0);
    }

    #[test]
    fn p90_needs_enough_samples() {
        let s = Sample {
            op_ns: 2,
            ref_ns: 1,
        };
        assert!(summarize(&vec![s; MIN_P90_SAMPLES - 1]).is_err());
        assert!(summarize(&vec![s; MIN_P90_SAMPLES]).is_ok());
    }

    #[test]
    fn normalisation_is_per_op() {
        // The host slows down 2x halfway through: raw times double, the
        // kernel beside them doubles too, and every ratio stays 1.5.
        let mut samples = Vec::new();
        for i in 0..200u64 {
            let slow = if i < 100 { 1 } else { 2 };
            samples.push(Sample {
                op_ns: 3_000_000 * slow,
                ref_ns: 2_000_000 * slow,
            });
        }
        let s = summarize(&samples).unwrap();
        assert_eq!(s.p50_rel, 1.5);
        assert_eq!(s.p90_rel, 1.5);
        assert_eq!(s.raw_p50_ms, 3.0);
        assert!((throughput_rel(&samples) - 1.0 / 1.5).abs() < 1e-12);

        // Percentiles are taken over per-op ratios, not as a ratio of
        // percentiles: pairing matters.
        let paired = [
            Sample {
                op_ns: 10,
                ref_ns: 10,
            },
            Sample {
                op_ns: 40,
                ref_ns: 20,
            },
            Sample {
                op_ns: 90,
                ref_ns: 30,
            },
        ];
        let ratios: Vec<f64> = paired.iter().map(|s| s.ratio()).collect();
        assert_eq!(ratios, vec![1.0, 2.0, 3.0]);
        assert_eq!(median(&ratios), 2.0);
        assert_eq!(throughput_rel(&paired), 3.0 / 6.0);
    }
}
