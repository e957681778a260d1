//! The workload type: a per-second submission-rate curve.

use core::fmt;

/// A workload: for each whole second of the experiment, the number of
/// transactions per second that Diablo submits during that second.
#[derive(Debug, Clone, PartialEq)]
pub struct Workload {
    name: String,
    /// Rate (TPS) per one-second bucket.
    rates: Vec<f64>,
}

impl Workload {
    /// Builds a workload from explicit per-second rates.
    ///
    /// # Panics
    ///
    /// Panics on negative rates.
    pub fn from_rates(name: impl Into<String>, rates: Vec<f64>) -> Self {
        assert!(
            rates.iter().all(|r| *r >= 0.0),
            "rates must be non-negative"
        );
        Workload {
            name: name.into(),
            rates,
        }
    }

    /// Builds a workload from a piecewise-constant load specification in
    /// the style of the paper's configuration language: `(start_second,
    /// tps)` breakpoints, ending with an implicit stop at `end_second`.
    ///
    /// ```
    /// use diablo_workloads::Workload;
    /// // The paper's §4 example: 4432 TPS for 50 s, then 4438 TPS until
    /// // second 120.
    /// let w = Workload::piecewise("dota-client", &[(0, 4432.0), (50, 4438.0)], 120);
    /// assert_eq!(w.duration_secs(), 120);
    /// assert_eq!(w.rate_at(0), 4432.0);
    /// assert_eq!(w.rate_at(49), 4432.0);
    /// assert_eq!(w.rate_at(50), 4438.0);
    /// ```
    ///
    /// # Panics
    ///
    /// Panics if breakpoints are not strictly increasing or start after
    /// `end_second`.
    pub fn piecewise(name: impl Into<String>, points: &[(u64, f64)], end_second: u64) -> Self {
        assert!(!points.is_empty(), "need at least one breakpoint");
        assert!(
            points.windows(2).all(|w| w[0].0 < w[1].0),
            "breakpoints must increase"
        );
        assert!(points[0].0 == 0, "the first breakpoint must be at second 0");
        assert!(
            points.last().expect("non-empty").0 < end_second,
            "breakpoints must precede end"
        );
        let mut rates = vec![0.0; end_second as usize];
        let mut idx = 0;
        for (sec, rate) in rates.iter_mut().enumerate() {
            while idx + 1 < points.len() && points[idx + 1].0 as usize <= sec {
                idx += 1;
            }
            *rate = points[idx].1;
        }
        Workload::from_rates(name, rates)
    }

    /// The workload name (used in reports).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Experiment duration in whole seconds.
    pub fn duration_secs(&self) -> usize {
        self.rates.len()
    }

    /// Submission rate during second `sec` (0 outside the experiment).
    pub fn rate_at(&self, sec: usize) -> f64 {
        self.rates.get(sec).copied().unwrap_or(0.0)
    }

    /// The raw per-second rates.
    pub fn rates(&self) -> &[f64] {
        &self.rates
    }

    /// Peak one-second rate.
    pub fn peak_tps(&self) -> f64 {
        self.rates.iter().copied().fold(0.0, f64::max)
    }

    /// Mean rate over the experiment.
    pub fn mean_tps(&self) -> f64 {
        if self.rates.is_empty() {
            0.0
        } else {
            self.rates.iter().sum::<f64>() / self.rates.len() as f64
        }
    }

    /// Total transactions submitted over the experiment (exact count
    /// after deterministic rounding, i.e. the sum of [`Workload::ticks`]
    /// at any tick size).
    pub fn total_txs(&self) -> u64 {
        whole_txs(self.rates.iter().fold(0.0, |acc, r| acc + r))
    }

    /// Scales every rate by `factor` (used to split load between
    /// Secondaries or to stress-test multiples of a trace).
    pub fn scale(&self, factor: f64) -> Workload {
        assert!(factor >= 0.0, "scale factor must be non-negative");
        Workload {
            name: self.name.clone(),
            rates: self.rates.iter().map(|r| r * factor).collect(),
        }
    }

    /// Renames the workload.
    pub fn named(mut self, name: impl Into<String>) -> Workload {
        self.name = name.into();
        self
    }

    /// Expands the curve into per-tick transaction counts: tick `k`
    /// carries the whole transactions the curve's running integral
    /// gains over it. The integral at each second boundary is the same
    /// float sum [`Workload::total_txs`] takes, so the ticks always sum
    /// to exactly that total, and the sum over any prefix is within one
    /// transaction of the integral.
    ///
    /// # Panics
    ///
    /// Panics if `tick_ms` is zero or does not divide 1000.
    pub fn ticks(&self, tick_ms: u64) -> Vec<u64> {
        assert!(
            tick_ms > 0 && 1000 % tick_ms == 0,
            "tick must divide one second"
        );
        let per_sec = (1000 / tick_ms) as usize;
        let mut out = Vec::with_capacity(self.rates.len() * per_sec);
        // The integral at the start of the current second, and the whole
        // transactions emitted so far.
        let mut base = 0.0;
        let mut emitted = 0u64;
        for &rate in &self.rates {
            let end = base + rate;
            for j in 1..=per_sec {
                let upto = if j == per_sec {
                    end
                } else {
                    base + rate * j as f64 / per_sec as f64
                };
                let whole = whole_txs(upto);
                out.push(whole - emitted);
                emitted = whole;
            }
            base = end;
        }
        out
    }

    /// Splits the workload evenly across `n` generators such that the
    /// per-tick sum of the parts equals the whole (the Primary's
    /// dispatching of load between Secondaries, §4).
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn split(&self, n: usize) -> Vec<Workload> {
        assert!(n > 0, "cannot split across zero secondaries");
        (0..n)
            .map(|i| Workload {
                name: format!("{}[{}/{}]", self.name, i, n),
                rates: self.rates.iter().map(|r| r / n as f64).collect(),
            })
            .collect()
    }
}

impl fmt::Display for Workload {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: {}s, mean {:.0} TPS, peak {:.0} TPS, {} txs",
            self.name,
            self.duration_secs(),
            self.mean_tps(),
            self.peak_tps(),
            self.total_txs()
        )
    }
}

/// Whole transactions in a running integral of the rate curve. The
/// small tolerance absorbs float summation error, so a curve of
/// 443.2 tx per 100 ms tick reaches 4432 at one second, not 4431.
fn whole_txs(integral: f64) -> u64 {
    (integral + 1e-9).floor() as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn piecewise_matches_paper_example() {
        let w = Workload::piecewise("dota", &[(0, 4432.0), (50, 4438.0)], 120);
        assert_eq!(w.duration_secs(), 120);
        assert_eq!(w.rate_at(0), 4432.0);
        assert_eq!(w.rate_at(49), 4432.0);
        assert_eq!(w.rate_at(50), 4438.0);
        assert_eq!(w.rate_at(119), 4438.0);
        assert_eq!(w.rate_at(120), 0.0);
        let total = 4432 * 50 + 4438 * 70;
        assert_eq!(w.total_txs(), total);
    }

    #[test]
    fn ticks_conserve_totals() {
        // A seeded random curve with fractional rates, up to dota's
        // magnitude.
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let random: Vec<f64> = (0..300)
            .map(|_| {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (x >> 11) as f64 / (1u64 << 53) as f64 * 5_000.0
            })
            .collect();
        let curves = [
            vec![10.5, 0.25, 1000.0, 3.3],
            // 443.2 tx per 100 ms tick: the ticks must reach 4432.
            vec![4432.0],
            random,
        ];
        for rates in curves {
            let w = Workload::from_rates("x", rates);
            for tick_ms in [1000, 500, 100, 50, 10] {
                let ticks = w.ticks(tick_ms);
                assert_eq!(ticks.len(), w.duration_secs() * (1000 / tick_ms as usize));
                let sum: u64 = ticks.iter().sum();
                assert_eq!(sum, w.total_txs(), "tick {tick_ms}ms");
            }
        }
        let one_second = Workload::from_rates("x", vec![4432.0]).ticks(100);
        assert_eq!(one_second.iter().sum::<u64>(), 4432);
    }

    #[test]
    fn ticks_spread_evenly() {
        let w = Workload::from_rates("x", vec![1000.0]);
        let ticks = w.ticks(100);
        assert_eq!(ticks, vec![100; 10]);
    }

    #[test]
    fn split_conserves_load() {
        let w = Workload::from_rates("x", vec![999.0, 500.0, 1.0]);
        let parts = w.split(7);
        assert_eq!(parts.len(), 7);
        for sec in 0..3 {
            let sum: f64 = parts.iter().map(|p| p.rate_at(sec)).sum();
            assert!((sum - w.rate_at(sec)).abs() < 1e-9);
        }
    }

    #[test]
    fn stats() {
        let w = Workload::from_rates("x", vec![100.0, 300.0, 200.0]);
        assert_eq!(w.peak_tps(), 300.0);
        assert!((w.mean_tps() - 200.0).abs() < 1e-12);
        assert_eq!(w.total_txs(), 600);
    }

    #[test]
    fn scale_multiplies() {
        let w = Workload::from_rates("x", vec![100.0]).scale(2.5);
        assert_eq!(w.rate_at(0), 250.0);
    }

    #[test]
    #[should_panic(expected = "divide one second")]
    fn bad_tick_panics() {
        Workload::from_rates("x", vec![1.0]).ticks(300);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_rate_panics() {
        Workload::from_rates("x", vec![-1.0]);
    }
}
