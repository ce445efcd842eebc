//! The in-process read client: one closed-loop reader over
//! `Engine::snapshot()`, classifying each read as fresh (the first on a
//! newly published snapshot, which pays the history summary), an
//! estimate, or a ranked (advise) read.
//!
//! The ranked reads of a mix differ in cost by two orders of magnitude,
//! so a median over single ranked reads falls on whichever kind sits at
//! the middle and jumps between kinds from run to run. An advise sample
//! is therefore one pass over every ranked read of the mix (the advisory
//! panel a user asks for), reported as the mean ranked read of the pass.
//! Estimate reads differ by predicate shape in the same way, so the
//! estimate median is taken over each pass's mean estimate read too; the
//! tail is taken over single estimate reads.

use crate::common::{answer_in_range, run_read, Report};
use crate::gen::Read;
use crate::stats::Samples;
use crate::trace;
use logr::Engine;
use std::time::Instant;

#[derive(Debug)]
pub struct Reader {
    /// Start of the measured phase (samples are stamped against it).
    start: Instant,
    /// `windows_closed` of the last snapshot read from.
    last_windows: Option<usize>,
    next: usize,
    /// Single estimate reads (µs), for the tail.
    pub estimate_us: Samples,
    /// Mean estimate read (µs) of each complete pass over the mix.
    pub estimate_pass_us: Samples,
    /// Mean ranked read (ms) of each complete pass over the mix.
    pub advise_ms: Samples,
    /// Ranked and estimate read time (ms) and count of the current pass.
    pass_ms: f64,
    pass_reads: usize,
    pass_estimate_ms: f64,
    pass_estimates: usize,
    pub fresh_ms: Samples,
    pub attempted: u64,
    pub errors: Vec<String>,
    pub out_of_range: u64,
}

impl Reader {
    pub fn new(start: Instant) -> Reader {
        Reader {
            start,
            last_windows: None,
            next: 0,
            estimate_us: Samples::default(),
            estimate_pass_us: Samples::default(),
            advise_ms: Samples::default(),
            pass_ms: 0.0,
            pass_reads: 0,
            pass_estimate_ms: 0.0,
            pass_estimates: 0,
            fresh_ms: Samples::default(),
            attempted: 0,
            errors: Vec::new(),
            out_of_range: 0,
        }
    }

    /// The next read is on another engine: it counts as fresh.
    pub fn forget_snapshot(&mut self) {
        self.last_windows = None;
    }

    /// Run the next read of `mix`; `req` tags its spans.
    pub fn read_next(&mut self, engine: &Engine, mix: &[Read], req: u64) {
        if self.next.is_multiple_of(mix.len()) {
            (self.pass_ms, self.pass_reads) = (0.0, 0);
            (self.pass_estimate_ms, self.pass_estimates) = (0.0, 0);
        }
        let read = &mix[self.next % mix.len()];
        self.next += 1;
        self.attempted += 1;
        let t = Instant::now();
        let snap = {
            let _s = trace::span("engine.snapshot", req);
            engine.snapshot()
        };
        let snap = match snap {
            Ok(s) => s,
            Err(e) => return self.errors.push(format!("{e:?}")),
        };
        let fresh = self.last_windows != Some(snap.windows_closed());
        if fresh {
            self.last_windows = Some(snap.windows_closed());
            let _s = trace::span("engine.summary", req);
            if let Err(e) = snap.summary() {
                return self.errors.push(format!("{e:?}"));
            }
        }
        match run_read(&snap, read, req) {
            Ok(answer) => {
                let dt = t.elapsed().as_secs_f64();
                let at = self.start.elapsed().as_secs_f64();
                if fresh {
                    self.fresh_ms.push(at, dt * 1e3);
                } else if read.is_estimate() {
                    self.estimate_us.push(at, dt * 1e6);
                    self.pass_estimate_ms += dt * 1e3;
                    self.pass_estimates += 1;
                } else {
                    self.pass_ms += dt * 1e3;
                    self.pass_reads += 1;
                }
                // A pass counts when none of its reads was a fresh one.
                if self.next.is_multiple_of(mix.len()) {
                    let estimates = mix.iter().filter(|r| r.is_estimate()).count();
                    if self.pass_estimates == estimates && estimates > 0 {
                        let mean_us = self.pass_estimate_ms * 1e3 / estimates as f64;
                        self.estimate_pass_us.push(at, mean_us);
                    }
                    let ranked = mix.len() - estimates;
                    if self.pass_reads == ranked && ranked > 0 {
                        self.advise_ms.push(at, self.pass_ms / ranked as f64);
                    }
                }
                if !answer_in_range(answer, snap.history().total_queries()) {
                    self.out_of_range += 1;
                }
            }
            Err(e) => self.errors.push(format!("{e:?}")),
        }
    }

    /// Median estimate, advise and fresh read latency in µs.
    pub fn median_us(&self) -> (f64, f64, f64) {
        let med = |s: &Samples, scale: f64| {
            crate::stats::median(s.values()).map_or(f64::NAN, |v| v * scale)
        };
        (med(&self.estimate_us, 1.0), med(&self.advise_ms, 1e3), med(&self.fresh_ms, 1e3))
    }

    /// Fold the reader's counts and checks into `report`.
    pub fn finish(&self, report: &mut Report) {
        report.attempted += self.attempted;
        for e in &self.errors {
            let code = e.split(|c: char| !c.is_alphanumeric()).next().unwrap_or("Engine");
            report.fail_op(code);
        }
        report.check(
            self.out_of_range == 0,
            format!(
                "{} of {} read answers in range",
                self.attempted - self.out_of_range,
                self.attempted
            ),
        );
        let first: Vec<_> = self.errors.iter().take(3).collect();
        report.check(self.errors.is_empty(), format!("no read failed (first failures: {first:?})"));
    }
}
