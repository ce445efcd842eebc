//! Seeded inputs. The program under test only ever receives what these
//! generators produce: SQL records, service-log lines and the read mixes.

use logr::analytics::Pred;
use logr::feature::{Feature, FeatureClass};
use logr::workload::{generate_usbank, UsBankConfig};
use std::sync::OnceLock;

/// SplitMix64: small, fast, and the same sequence on every platform.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x9E37_79B9_7F4A_7C15)
    }

    /// An independent stream for one purpose of one seed.
    pub fn derive(seed: u64, stream: u64) -> Rng {
        let mut r = Rng::new(seed.wrapping_mul(0x2545_F491_4F6C_DD1D) ^ stream);
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }
}

/// The US-bank statement universe (`generate_usbank`, default config),
/// sampled by multiplicity: a record is statement `i` with probability
/// proportional to its count. Statements carry literal constants, so a
/// window holds many distinct texts.
pub struct UsBank {
    statements: Vec<String>,
    cumulative: Vec<u64>,
}

impl UsBank {
    pub fn new() -> UsBank {
        let log = generate_usbank(&UsBankConfig::default());
        let mut cumulative = Vec::with_capacity(log.statements.len());
        let mut acc = 0u64;
        for (_, c) in &log.statements {
            acc += c;
            cumulative.push(acc);
        }
        UsBank { statements: log.statements.into_iter().map(|(s, _)| s).collect(), cumulative }
    }

    pub fn sample(&self, rng: &mut Rng) -> &str {
        let total = *self.cumulative.last().expect("non-empty universe");
        let x = rng.below(total);
        let i = self.cumulative.partition_point(|&c| c <= x);
        &self.statements[i]
    }

    /// The first `n` records of the stream seeded by `rng`.
    pub fn stream(&self, rng: &mut Rng, n: usize) -> Vec<String> {
        (0..n).map(|_| self.sample(rng).to_string()).collect()
    }
}

/// The repository's service-log sample: the template miner's golden
/// corpus, ten line shapes in near-equal proportions.
const SERVICE_CORPUS: &str = include_str!("../../crates/source/tests/data/service_500.log");

fn service_corpus() -> &'static [&'static str] {
    static LINES: OnceLock<Vec<&'static str>> = OnceLock::new();
    LINES.get_or_init(|| SERVICE_CORPUS.lines().filter(|l| !l.is_empty()).collect())
}

/// One free-form service-log line: a line of the service-log corpus
/// drawn uniformly, so the stream keeps the corpus's shapes, their mix
/// and its parameter values.
pub fn service_line(rng: &mut Rng) -> String {
    let lines = service_corpus();
    lines[rng.below(lines.len() as u64) as usize].to_string()
}

/// One read of a read mix.
#[derive(Debug, Clone)]
pub enum Read {
    Frequency(Pred),
    Share(Pred),
    Conditional(Pred, Pred),
    TopK(FeatureClass, usize),
    Cooccurrence(FeatureClass),
    Index(f64),
    View(f64),
    Recommend(String, f64),
    Drift(f64),
}

impl Read {
    /// Metric family: estimates are point reads, everything else is a
    /// ranked (advise) read.
    pub fn is_estimate(&self) -> bool {
        matches!(self, Read::Frequency(_) | Read::Share(_) | Read::Conditional(..))
    }

    /// The `analytics.<op>` span (and per-layer metric) this read
    /// belongs to; `or` and `not` are the frequency and share reads whose
    /// predicate has that shape.
    pub fn span_name(&self) -> &'static str {
        match self {
            Read::Frequency(p) | Read::Share(p) => match p {
                Pred::Or(_) => "analytics.or",
                Pred::Not(_) => "analytics.not",
                Pred::And(items) if items.iter().any(|i| matches!(i, Pred::Not(_))) => {
                    "analytics.not"
                }
                _ if matches!(self, Read::Share(_)) => "analytics.share",
                _ => "analytics.frequency",
            },
            Read::Conditional(..) => "analytics.conditional",
            Read::TopK(..) => "analytics.top_k",
            Read::Cooccurrence(_) => "analytics.cooccurrence",
            Read::Index(_) => "analytics.index",
            Read::View(_) => "analytics.view",
            Read::Recommend(..) => "analytics.recommend",
            Read::Drift(_) => "analytics.drift",
        }
    }
}

/// The fixed SQL read mix over `tables` and `atoms`, the most frequent
/// FROM tables and WHERE atoms of the store, chosen before the measured
/// phase so every predicate resolves. Predicates pair features by rank,
/// so every seed reads nearly the same mix. The mix covers frequency,
/// share and conditional over and/or/not predicates, then top-k,
/// co-occurrence and the four advisors.
pub fn sql_read_mix(tables: &[Feature], atoms: &[Feature]) -> Vec<Read> {
    let pick = |v: &[Feature], i: usize| Pred::feature(v[i % v.len()].clone());
    let mut mix = Vec::new();
    for i in 0..4 {
        let (t, a, u) = (pick(tables, i), pick(atoms, i), pick(tables, i + 1));
        mix.push(Read::Frequency(t.clone().and(a.clone())));
        mix.push(Read::Share(t.clone()));
        mix.push(Read::Conditional(t.clone(), a.clone()));
        mix.push(Read::Frequency(t.clone().or(u.clone())));
        mix.push(Read::Frequency(t.clone().and(a.not())));
    }
    let partial = format!("SELECT * FROM {}", tables[0].text);
    mix.push(Read::TopK(FeatureClass::From, 10));
    mix.push(Read::TopK(FeatureClass::Where, 10));
    mix.push(Read::Cooccurrence(FeatureClass::From));
    mix.push(Read::Index(0.01));
    mix.push(Read::View(0.01));
    mix.push(Read::Recommend(partial, 0.2));
    mix.push(Read::Drift(0.05));
    mix
}

/// Service-log read mix over mined templates that exist in `templates`:
/// template, param and negated predicates, top-k, co-occurrence and the
/// four advisors (the SQL-shaped ones find nothing here, at their cost).
pub fn template_read_mix(templates: &[Feature]) -> Vec<Read> {
    let pick = |i: usize| Pred::feature(templates[i % templates.len()].clone());
    let mut mix = Vec::new();
    for i in 0..3 {
        let (t, u) = (pick(i), pick(i + 1));
        mix.push(Read::Frequency(t.clone()));
        mix.push(Read::Frequency(Pred::param("num")));
        mix.push(Read::Frequency(t.clone().and(Pred::param("ip").not())));
        mix.push(Read::Share(t.clone().or(u)));
        mix.push(Read::Conditional(Pred::param("num"), t));
    }
    mix.push(Read::Share(Pred::param("ip")));
    mix.push(Read::TopK(FeatureClass::Template, 5));
    mix.push(Read::TopK(FeatureClass::Param, 5));
    mix.push(Read::Cooccurrence(FeatureClass::Param));
    mix.push(Read::Index(0.05));
    mix.push(Read::View(0.05));
    mix.push(Read::Recommend("SELECT * FROM events".to_string(), 0.2));
    mix.push(Read::Drift(0.05));
    mix
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs() {
        let (mut a, mut b) = (Rng::derive(7, 1), Rng::derive(7, 1));
        let la: Vec<String> = (0..50).map(|_| service_line(&mut a)).collect();
        let lb: Vec<String> = (0..50).map(|_| service_line(&mut b)).collect();
        assert_eq!(la, lb);
        let mut c = Rng::derive(8, 1);
        assert_ne!(la, (0..50).map(|_| service_line(&mut c)).collect::<Vec<_>>());
    }

    #[test]
    fn below_stays_in_range() {
        let mut r = Rng::new(3);
        for n in [1u64, 2, 7, 1000] {
            assert!((0..200).all(|_| r.below(n) < n));
        }
    }
}
