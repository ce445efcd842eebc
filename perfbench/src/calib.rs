//! Machine-speed calibration.
//!
//! The benchmark runs on shared machines whose speed drifts for minutes at
//! a time with what other tenants run: on a 2-vCPU VM (Xeon, 300 MiB L3
//! shared with the host) the same code ran 30-35% faster at the end of a
//! six-minute set of runs than at its start, in every timing at once. A
//! fixed routine of the benchmark's own — no program code — is timed a
//! few times a second on the measuring thread: it tokenizes SQL-like
//! text, interns the tokens in a hash map, sorts each text's token ids
//! and compares neighbouring texts by Jaccard similarity, the kind of
//! branchy, hash- and allocation-heavy work the program's featurize,
//! clustering and reads do. [`REFERENCE_MS`] over the run's median pass
//! is the run's speed factor: a CPU-bound timing times the factor (a
//! rate divided by it) reads as on a machine where the pass takes the
//! reference time. A change to the program moves the scaled figure as
//! much as the raw one; the machine's drift largely cancels. Over ten
//! history-read runs whose raw timings drifted by a quarter, the spread
//! of `close_ack_p50_ms` fell from 0.17 to 0.04 and that of
//! `fresh_read_p50_ms` from 0.27 to 0.10.

use std::cell::RefCell;
use std::collections::HashMap;
use std::hint::black_box;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Median pass on the machine the baseline was taken on, in ms. It only
/// sets the scale the figures are reported at.
pub const REFERENCE_MS: f64 = 0.95;
/// A thread runs a pass at most this often.
const EVERY: Duration = Duration::from_millis(250);
/// Texts tokenized by one pass.
const TEXTS: usize = 384;

/// Every pass of the run in ms, from every thread.
static PASSES: Mutex<Vec<f64>> = Mutex::new(Vec::new());

thread_local! {
    static ROUTINE: RefCell<(Vec<String>, Option<Instant>)> = RefCell::new((texts(), None));
}

/// The routine's fixed input: SQL-like statements with literal constants.
fn texts() -> Vec<String> {
    let mut x = 0x2545_f491_4f6c_dd1du64;
    let mut next = move |n: u64| {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x % n
    };
    (0..TEXTS)
        .map(|_| {
            let (t, c, d) = (next(40), next(12), next(12));
            format!(
                "SELECT c{c}, c{d}, SUM(amount) FROM t{t} JOIN u{} ON t{t}.id = u{}.tid \
                 WHERE c{c} = {} AND region = 'r{}' GROUP BY c{d} ORDER BY 3 DESC",
                next(9),
                next(9),
                next(100_000),
                next(50)
            )
        })
        .collect()
}

fn run(texts: &[String]) {
    let mut ids: HashMap<String, u32> = HashMap::new();
    let mut bags: Vec<Vec<u32>> = Vec::with_capacity(texts.len());
    for text in texts {
        let mut bag = Vec::new();
        for token in text.split(|c: char| !c.is_ascii_alphanumeric()).filter(|t| !t.is_empty()) {
            let token = token.to_ascii_lowercase();
            let next = ids.len() as u32;
            bag.push(*ids.entry(token).or_insert(next));
        }
        bag.sort_unstable();
        bag.dedup();
        bags.push(bag);
    }
    let mut similarity = 0.0;
    for pair in bags.windows(2) {
        let (a, b) = (&pair[0], &pair[1]);
        let (mut i, mut j, mut common) = (0, 0, 0);
        while i < a.len() && j < b.len() {
            match a[i].cmp(&b[j]) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    common += 1;
                    i += 1;
                    j += 1;
                }
            }
        }
        similarity += common as f64 / (a.len() + b.len() - common) as f64;
    }
    black_box(similarity);
}

/// Run a pass on this thread if one is due. Returns the seconds spent,
/// which the caller keeps out of its rates (0 when no pass ran).
pub fn tick() -> f64 {
    let now = Instant::now();
    let pass = ROUTINE.with(|r| {
        let mut r = r.borrow_mut();
        if r.1.is_some_and(|at| now < at) {
            return None;
        }
        r.1 = Some(now + EVERY);
        // The first run loads the routine's data into this core's caches,
        // whatever the program left there; the second is timed.
        run(&r.0);
        let t = Instant::now();
        run(&r.0);
        Some(t.elapsed().as_secs_f64() * 1e3)
    });
    match pass {
        Some(p) => {
            PASSES.lock().unwrap_or_else(|e| e.into_inner()).push(p);
            now.elapsed().as_secs_f64()
        }
        None => 0.0,
    }
}

/// Median pass of the run so far (ms, NaN before the first) and the
/// number of passes.
pub fn median_pass() -> (f64, usize) {
    let passes = PASSES.lock().unwrap_or_else(|e| e.into_inner()).clone();
    (crate::stats::median(&passes).unwrap_or(f64::NAN), passes.len())
}

/// Scale a measured value in `unit` by `factor`, the reference pass time
/// over the run's median pass (below 1 when the machine ran slower than
/// the reference): times shrink by it, rates grow by it, other units
/// stay as they are.
pub fn scale(value: f64, unit: &str, factor: f64) -> f64 {
    match unit {
        "s" | "ms" | "us" | "ns" => value * factor,
        u if u.ends_with("/s") => value / factor,
        _ => value,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaling_takes_out_the_machine_speed() {
        // A machine at 80% of the reference speed: passes take 1.25
        // times the reference, so the factor is 0.8.
        assert_eq!(scale(10.0, "ms", 0.8), 8.0);
        assert_eq!(scale(1000.0, "records/s", 0.8), 1250.0);
        assert_eq!(scale(3.0, "ratio", 0.8), 3.0);
        assert_eq!(scale(7.0, "MiB", 0.8), 7.0);
    }

    #[test]
    fn a_pass_runs_at_most_once_a_period() {
        assert!(tick() > 0.0);
        assert_eq!(tick(), 0.0);
        assert!(median_pass().0 > 0.0);
    }
}
