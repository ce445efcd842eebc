//! The benchmark's own arithmetic: medians, tails, per-second slices and
//! the open-loop due-time latency. Everything here is pure and
//! unit-tested.
//!
//! A run's median and its rates are taken per one-second slice of the
//! measured phase and then the median over slices: a burst of contention
//! from outside the program (other tenants of the machine) then moves a
//! few slices, not the figure.

/// Percentiles a tail may be read at, lowest first. The ladder stops at
/// p90: deeper percentiles read the rarer stalls of a shared machine and
/// did not repeat from run to run within a metric's bound.
const TAIL_LADDER: [f64; 3] = [50.0, 75.0, 90.0];

/// Length of one slice of the measured phase, in seconds.
pub const SLICE_S: f64 = 1.0;

fn slice_of(at_s: f64) -> usize {
    (at_s.max(0.0) / SLICE_S) as usize
}

/// Samples a tail percentile must leave beyond it: with fewer, the
/// percentile's own sampling error exceeds the bounds the benchmark sets.
pub const TAIL_MIN_BEYOND: usize = 25;

/// The value at percentile `p` of ascending `sorted` samples, by nearest
/// rank: the smallest sample with at least `p`% of the samples at or
/// below it.
pub fn nearest_rank(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    sorted[rank(sorted.len(), p) - 1]
}

/// 1-based nearest rank of percentile `p` among `n` samples.
fn rank(n: usize, p: f64) -> usize {
    ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n)
}

/// A latency distribution summarized as the benchmark reports it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Samples taken.
    pub count: usize,
    /// Median (nearest rank).
    pub p50: f64,
    /// The tail: value at [`Summary::tail_pct`].
    pub tail: f64,
    /// The highest ladder percentile with at least
    /// [`TAIL_MIN_BEYOND`] samples beyond it (50 when none has).
    pub tail_pct: f64,
}

/// Summarize samples (any order); `None` when there are none.
pub fn summarize(samples: &[f64]) -> Option<Summary> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let tail_pct =
        TAIL_LADDER.iter().copied().rfind(|&p| n - rank(n, p) >= TAIL_MIN_BEYOND).unwrap_or(50.0);
    Some(Summary {
        count: n,
        p50: nearest_rank(&sorted, 50.0),
        tail: nearest_rank(&sorted, tail_pct),
        tail_pct,
    })
}

/// Latency samples, each stamped with when it completed (seconds since
/// the start of the measured phase).
#[derive(Debug, Clone, Default)]
pub struct Samples {
    values: Vec<f64>,
    slices: Vec<usize>,
}

impl Samples {
    pub fn push(&mut self, at_s: f64, value: f64) {
        self.values.push(value);
        self.slices.push(slice_of(at_s));
    }

    pub fn extend(&mut self, other: &Samples) {
        self.values.extend_from_slice(&other.values);
        self.slices.extend_from_slice(&other.slices);
    }

    pub fn len(&self) -> usize {
        self.values.len()
    }

    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// The median over slices of each slice's median, and the tail of all
    /// samples.
    pub fn summary(&self) -> Option<Summary> {
        let mut all = summarize(&self.values)?;
        let mut by_slice: Vec<Vec<f64>> = Vec::new();
        for (&v, &s) in self.values.iter().zip(&self.slices) {
            if by_slice.len() <= s {
                by_slice.resize(s + 1, Vec::new());
            }
            by_slice[s].push(v);
        }
        let medians: Vec<f64> = by_slice.iter().filter_map(|v| median(v)).collect();
        all.p50 = median(&medians)?;
        Some(all)
    }
}

/// Events per second, measured per slice: work counted in each slice
/// over the slice's length minus the time the workload spent paused in
/// it, then the median over the slices the phase covered entirely.
#[derive(Debug, Clone, Default)]
pub struct Rate {
    counts: Vec<f64>,
    paused: Vec<f64>,
}

impl Rate {
    fn slot(v: &mut Vec<f64>, at_s: f64) -> &mut f64 {
        let s = slice_of(at_s);
        if v.len() <= s {
            v.resize(s + 1, 0.0);
        }
        &mut v[s]
    }

    /// Count `n` events completed at `at_s`.
    pub fn add(&mut self, at_s: f64, n: f64) {
        *Self::slot(&mut self.counts, at_s) += n;
    }

    /// Charge a pause of `secs` that began at `at_s` to its slice.
    pub fn pause(&mut self, at_s: f64, secs: f64) {
        *Self::slot(&mut self.paused, at_s) += secs;
    }

    /// Add another meter's counts and pauses, slice by slice.
    pub fn merge(&mut self, other: &Rate) {
        for (mine, theirs) in [(&mut self.counts, &other.counts), (&mut self.paused, &other.paused)]
        {
            if mine.len() < theirs.len() {
                mine.resize(theirs.len(), 0.0);
            }
            for (m, t) in mine.iter_mut().zip(theirs) {
                *m += t;
            }
        }
    }

    /// Median per-slice rate over the whole slices of an `elapsed_s`
    /// phase (slices paused for most of their length are skipped).
    pub fn median(&self, elapsed_s: f64) -> Option<f64> {
        let whole = (elapsed_s / SLICE_S) as usize;
        let rates: Vec<f64> = (0..whole)
            .filter_map(|s| {
                let busy = SLICE_S - self.paused.get(s).copied().unwrap_or(0.0);
                (busy > SLICE_S / 4.0).then(|| self.counts.get(s).copied().unwrap_or(0.0) / busy)
            })
            .collect();
        median(&rates)
    }
}

/// Median of the samples (nearest rank); `None` when empty.
pub fn median(samples: &[f64]) -> Option<f64> {
    summarize(samples).map(|s| s.p50)
}

/// Latency of one open-loop request: from when it was *due* to when it
/// completed, so a stalled generator charges its stall to every request
/// it delayed. Returns `(latency, lateness)` in the inputs' unit, where
/// lateness is how far behind schedule the request was sent.
pub fn open_loop_latency(due: f64, sent: f64, done: f64) -> (f64, f64) {
    (done - due, (sent - due).max(0.0))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn tail_is_highest_percentile_with_enough_beyond() {
        // 250 samples: p90 leaves exactly 25 beyond.
        let s = summarize(&ramp(250)).unwrap();
        assert_eq!((s.tail_pct, s.tail, s.p50), (90.0, 225.0, 125.0));
        // The ladder stops at p90, however many samples there are.
        let s = summarize(&ramp(100_000)).unwrap();
        assert_eq!((s.tail_pct, s.tail), (90.0, 90_000.0));
        // 249 samples: p90 rank is ceil(224.1) = 225, leaving 24 — too
        // few, so the tail falls back to p75.
        let s = summarize(&ramp(249)).unwrap();
        assert_eq!((s.tail_pct, s.tail), (75.0, 187.0));
        // 150 samples: p75 leaves 37, p90 only 15.
        let s = summarize(&ramp(150)).unwrap();
        assert_eq!((s.tail_pct, s.tail), (75.0, 113.0));
        // Too few samples for any tail: p50 stands in.
        let s = summarize(&ramp(40)).unwrap();
        assert_eq!((s.tail_pct, s.tail, s.p50), (50.0, 20.0, 20.0));
    }

    #[test]
    fn summary_ignores_input_order() {
        let mut v = ramp(200);
        v.reverse();
        let s = summarize(&v).unwrap();
        assert_eq!((s.count, s.p50, s.tail_pct, s.tail), (200, 100.0, 75.0, 150.0));
        assert!(summarize(&[]).is_none());
    }

    #[test]
    fn p50_is_the_median_of_slice_medians() {
        // Slices 0..5 hold latencies near 10; slice 5 is a burst of slow
        // samples that would drag a pooled median but moves one slice.
        let mut s = Samples::default();
        for slice in 0..5 {
            for i in 0..10 {
                s.push(slice as f64 + 0.05 * i as f64, 10.0 + i as f64 * 0.1);
            }
        }
        for i in 0..60 {
            s.push(5.0 + i as f64 / 100.0, 50.0);
        }
        let summary = s.summary().unwrap();
        assert_eq!(summary.count, 110);
        assert_eq!(summary.p50, 10.4);
        assert_eq!(summarize(s.values()).unwrap().p50, 50.0);
    }

    #[test]
    fn rate_is_the_median_slice_rate_net_of_pauses() {
        let mut r = Rate::default();
        for slice in 0..4 {
            r.add(slice as f64 + 0.5, 100.0);
        }
        // Slice 1 was paused for half its length: 100 events in 0.5 s.
        r.pause(1.2, 0.5);
        // Slice 3 is not whole in a 3.9 s phase and is left out.
        r.add(3.1, 1e6);
        assert_eq!(r.median(3.9), Some(100.0));
        // A quiet slice is a zero rate: the median of 0, 200 and 100.
        let mut q = Rate::default();
        q.add(1.5, 100.0);
        q.pause(1.0, 0.5);
        q.add(2.5, 100.0);
        assert_eq!(q.median(3.0), Some(100.0));
        assert_eq!(Rate::default().median(0.5), None);
    }

    #[test]
    fn open_loop_latency_counts_from_due_time() {
        // Sent on time: latency is the service time, no lateness.
        assert_eq!(open_loop_latency(10.0, 10.0, 12.5), (2.5, 0.0));
        // Sent 4 late because the generator stalled: the stall counts.
        assert_eq!(open_loop_latency(10.0, 14.0, 15.0), (5.0, 4.0));
        // Sent early never reports negative lateness.
        assert_eq!(open_loop_latency(10.0, 9.0, 11.0), (1.0, 0.0));
    }
}
