//! # LogR — query log compression for workload analytics
//!
//! A Rust implementation of *"Query Log Compression for Workload
//! Analytics"* (Xie, Chandola, Kennedy — VLDB 2018): lossy compression of
//! SQL query logs into **pattern mixture encodings** that support fast,
//! provably-bounded estimation of aggregate workload statistics — the
//! counts that index selection, materialized-view selection, and online
//! workload monitoring all reduce to.
//!
//! ## Quickstart: the [`Engine`]
//!
//! One session object covers both batch and streaming ingestion, with
//! durability and concurrent reads built in. Batch is just the degenerate
//! stream — ingest everything, flush, read the summary:
//!
//! ```
//! use logr::analytics::{Advisor, IndexAdvisor, Pred, QueryRecommender};
//! use logr::Engine;
//!
//! let engine = Engine::builder().clusters(2).in_memory()?;
//! for _ in 0..900 {
//!     engine.ingest("SELECT id, body FROM messages WHERE status = ?")?;
//! }
//! for _ in 0..100 {
//!     engine.ingest("SELECT balance FROM accounts WHERE owner = ? AND open = ?")?;
//! }
//! engine.flush()?;
//!
//! // Statistics come from the summary, never the raw log: typed
//! // predicates, composable with `and`/`or`.
//! let snapshot = engine.snapshot()?;
//! let query = snapshot.query()?.expect("non-empty workload");
//! let est = query.frequency(&Pred::table("messages").and(Pred::column_eq("status")))?;
//! assert!((est - 900.0).abs() < 1.0);
//!
//! // The §2 index-advisor question — one of a family of advisors
//! // ([`analytics::ViewAdvisor`], [`analytics::QueryRecommender`], …)
//! // that all read the same snapshot, concurrently with ingestion.
//! let advice = IndexAdvisor::new(0.5).advise(&*snapshot)?;
//! assert!(advice.iter().any(|a| a.subject == "status = ?"));
//! let next = QueryRecommender::new("SELECT id FROM messages", 0.5).advise(&*snapshot)?;
//! assert!(next.iter().any(|a| a.subject == "status = ?"));
//! # Ok::<(), logr::Error>(())
//! ```
//!
//! Durable, always-on sessions open on a directory instead:
//! `Engine::builder().open(dir)?` resumes bit-identically from the last
//! checkpoint (window summaries, drift, novelty, history summaries — see
//! [`Engine::open`]), while readers on other threads answer statistics
//! from [`Engine::snapshot`] views that one writer keeps advancing.
//!
//! The engine has **one ingest path** and **one read surface**. Every
//! record goes in through [`Engine::ingest_with`] (record text,
//! multiplicity, optional timestamp — [`Engine::ingest`] is its
//! multiplicity-1 shorthand), and partial windows close with
//! [`Engine::flush`]. Every question — the history summary, drift,
//! estimates ([`EngineSnapshot::query`]) and advice (the
//! [`analytics::Advisor`] family) — is answered from the
//! [`EngineSnapshot`] that [`Engine::snapshot`] returns.
//!
//! The layers underneath remain public for direct use — `LogIngest` →
//! `LogR::compress` for one-shot batch compression
//! ([`core::LogR`]), `StreamSummarizer` for hand-driven streaming
//! ([`core::StreamSummarizer`]) — and the engine is a thin, durable,
//! lock-disciplined shell over exactly those pieces.
//!
//! ## Pluggable sources: beyond SQL
//!
//! The paper's pipeline — anonymize each record into feature sets,
//! cluster, encode per-cluster naive mixtures — never actually requires
//! SQL; SQL is just the featurizer the paper evaluates. The
//! [`source`] crate (`logr-source`) makes that seam explicit: a
//! [`source::Featurizer`] turns one raw record into anonymized feature
//! branches, and everything downstream (windows, drift, spill,
//! recovery, analytics) is source-agnostic. Two featurizers ship:
//!
//! * [`SourceConfig::Sql`] (default) — the paper's path: parse,
//!   regularize, emit `⟨class, text⟩` features per conjunctive branch.
//!   Byte-compatible with every pre-source store.
//! * [`SourceConfig::Template`] — a Drain-style **template miner** for
//!   free-form service logs: a fixed-depth parse tree buckets each line
//!   by token count and leading tokens, matches it against leaf
//!   templates by similarity, and promotes disagreeing positions to
//!   `<*>` wildcards. Each line becomes one `⟨template⟩` feature plus a
//!   `⟨class, param⟩` feature per wildcard (classes: `num`, `ip`,
//!   `uuid`, `hex`, `path`, `id`, `str`), so "which message shapes
//!   dominate, and what drifted" is answered by the same estimators
//!   that answer "which predicates dominate".
//!
//! Select the source at build time and feed raw records through the same
//! [`Engine::ingest`] call — nothing on the write path assumes SQL:
//!
//! ```
//! use logr::core::SourceConfig;
//! use logr::Engine;
//!
//! let engine = Engine::builder()
//!     .source(SourceConfig::template())
//!     .window(4)
//!     .clusters(2)
//!     .in_memory()?;
//! engine.ingest("request 9001 served in 35 ms")?;
//! engine.ingest("request 9002 served in 41 ms")?;
//! engine.ingest("connection from 10.0.0.7 port 6033 established")?;
//! engine.ingest("request 9003 served in 9 ms")?;
//! engine.flush()?;
//! assert!(engine.snapshot()?.total_queries() >= 4);
//! # Ok::<(), logr::Error>(())
//! ```
//!
//! The miner's learned state (its journal of distinct first-seen lines)
//! is part of the engine's durable state: full manifests carry the
//! whole journal, delta records carry each close's increment, and
//! recovery replays the journal through the same mining code — so a
//! resumed engine assigns every future line the exact template and
//! parameter features the original would have. SQL-source stores
//! carry an empty journal.
//!
//! ## Crate map
//!
//! | Module | Backing crate | Contents |
//! |---|---|---|
//! | crate root | `logr` | [`Engine`] session façade, [`Error`] (the one error type), store [`manifest`] |
//! | [`analytics`] | `logr` | typed predicates ([`analytics::Pred`]), the [`analytics::WorkloadQuery`] evaluator, and the pluggable [`analytics::Advisor`] family ([`analytics::IndexAdvisor`], [`analytics::ViewAdvisor`], [`analytics::QueryRecommender`], [`analytics::DriftAdvisor`]) |
//! | [`sql`] | `logr-sql` | lexer, parser, printer, conjunctive regularizer |
//! | [`source`] | `logr-source` | pluggable record → feature sources: the [`source::Featurizer`] trait, the SQL featurizer, and the Drain-style [`source::TemplateMiner`] for free-form service logs (see *Pluggable sources*) |
//! | [`feature`] | `logr-feature` | Aligon features, codebook, vectors, [`feature::QueryLog`] |
//! | [`cluster`] | `logr-cluster` | k-means, spectral, hierarchical clustering; sharded condensed matrices ([`cluster::ShardedPointSet`]), the versioned spill store ([`cluster::spill`]), and the injectable storage layer ([`cluster::vfs`]: [`cluster::vfs::RealFs`], the fault-injecting [`cluster::vfs::FaultFs`], and the power-cut simulator) |
//! | [`core`] | `logr-core` | encodings, Reproduction Error, max-ent, mixtures, the [`core::LogR`] batch compressor, the [`core::StreamSummarizer`] streaming subsystem (windows, drift, novelty), portable summaries |
//! | [`baselines`] | `logr-baselines` | Laserlight & MTV reimplementations + mixture generalizations |
//! | [`workload`] | `logr-workload` | synthetic PocketData / US-bank / Mushroom / Income generators |
//! | [`math`] | `logr-math` | matrices, eigensolvers, projections, entropies |
//! | — | `logr-server` | multi-tenant ingestion daemon: line-delimited JSON protocol over TCP, per-tenant engines under one root, group-committed (fsync-coalesced) window closes, a global resident budget apportioned across tenants, and the whole analytics read surface as wire ops — see the `logr-server` crate docs for the protocol reference |
//! | — | `logr-lint` | workspace invariant checker (`cargo run -p logr-lint -- --deny`): machine-enforces the contracts below — see *Workspace invariants* |
//!
//! ## Durability & crash-consistency guarantees
//!
//! Durable engines promise exactly this: **after a crash — including a
//! power cut that loses every unsynced page — [`EngineBuilder::resume`]
//! recovers the store bit-identically to the last durable checkpoint, or
//! fails with one typed [`Error`]. Never a panic, never silently
//! different data.** The guarantee is enforced mechanically: the test
//! suite replays every prefix of the engine's real IO trace (plus torn-
//! and unsynced-final-write variants) through a simulated power cut and
//! asserts the property at each one (`tests/power_cut_replay.rs`).
//!
//! What is durable when:
//!
//! * **Window close** — persists automatically: shard files first, then
//!   an `O(window)` delta record appended (and fsynced) to the manifest's
//!   checksummed append log (`engine.delta`), so per-close write cost
//!   tracks the window, not the whole history. Recovery replays the
//!   valid prefix of the log over the base manifest; a crash mid-append
//!   costs at most the record being appended, and a torn tail is
//!   detected per record and ignored.
//! * **[`Engine::checkpoint`]** — additionally captures the half-filled
//!   window buffer and **folds** the delta log back into a full base
//!   manifest; after it returns, a crash loses nothing at all. The
//!   engine folds automatically once the log outgrows its base (and on
//!   every writable resume that replayed records).
//! * **[`Engine::compact`]** — rewrites the manifest to the merged
//!   shard; the replaced files persist until the next writable resume
//!   garbage-collects them, so a crash at any point leaves one complete
//!   referenced set.
//! * **Between persists** — ingested-but-unflushed statements in the
//!   window buffer since the last window close/checkpoint are lost, by
//!   design (window granularity).
//!
//! Every whole file in the store is written by one protocol — write a
//! `.tmp` sibling, `fsync` it, rename over the final name, `fsync` the
//! directory — so a durable file name never holds partial content. The
//! one sequential-growth file, the delta log, commits by append→fsync
//! instead, and every record carries its own checksum so a torn tail is
//! detected rather than replayed.
//! Transient IO errors (`EINTR`/`EAGAIN`) are retried with bounded
//! backoff; `ENOSPC` fails fast as [`Error::StorageExhausted`] and
//! leaves the store openable at its previous checkpoint. One writable
//! engine owns a store at a time ([`Error::StoreLocked`], `O_EXCL` lock
//! files with verified-stale takeover); read-only opens
//! ([`EngineBuilder::read_only`]) take no lock, delete nothing, and
//! serve the full read surface beside a live writer — see
//! `examples/degraded_read_only.rs`. All of it runs over an injectable
//! [`cluster::vfs::Vfs`], which is how the fault-injection and
//! power-cut suites drive the real engine through simulated disasters.
//!
//! ## Workspace invariants (machine-enforced)
//!
//! The guarantees above rest on coding contracts that `rustc` cannot
//! check, so the workspace ships its own checker: `logr-lint`
//! (`crates/lint`), run locally and in CI as
//! `cargo run -p logr-lint -- --deny`. It lexes every source file
//! (comments and string/char literals never count), skips test code
//! (`#[cfg(test)]` regions, `tests/`, `benches/`, `examples/`), and
//! enforces five rules:
//!
//! * **`vfs-bypass`** — no `std::fs` / `File::` / `OpenOptions` in
//!   library code outside `cluster::vfs` itself. Every file operation
//!   must flow through the injectable [`cluster::vfs::Vfs`], because
//!   that is the seam the fault-injection and power-cut-replay suites
//!   drive; a raw `std::fs` call is a write the crash tests can never
//!   see.
//! * **`no-panic-paths`** — no `.unwrap()` / `.expect(` / `panic!`-family
//!   macros in library code of the durability-critical crates (this
//!   facade, `logr-cluster`, `logr-core`, `logr-server`). The recovery
//!   contract is "a typed [`Error`], never a panic"; a panic
//!   mid-persist is how stores tear — and in the daemon, how one
//!   tenant's bad frame would take down every other tenant.
//! * **`sync-protocol`** — every `rename` call in library code must sit
//!   in a function that also calls `fsync` and `sync_dir`: the
//!   write→fsync→rename→sync_dir protocol documented above. Rename-only
//!   replacement is atomic but *not durable* — after power loss the new
//!   name can point at unwritten pages. Likewise every `append` call
//!   must pair with an `fsync` in the same function (the delta-log
//!   commit protocol; appends never change the namespace, so no
//!   `sync_dir` is required).
//! * **`typed-errors`** — public functions of this facade (and of
//!   `logr-server`, whose `ServerError` wraps it) must not expose
//!   `Box<dyn Error>` or a bare `io::Error`; callers match the one
//!   `#[non_exhaustive]` [`Error`] enum and lower-level failures
//!   arrive through `From` conversions.
//! * **`no-debug-output`** — no `println!` / `eprintln!` / `dbg!` in
//!   library code; binaries are exempt (their stdout is the interface),
//!   and library code whose output *is* the contract writes through an
//!   explicit `io::Write` handle.
//!
//! Exemptions are inline, per line, and must be justified:
//! `code(); // lint:allow(<rule>): <why this exemption is sound>` — a
//! bare allow with no justification, a typo'd rule name, or malformed
//! syntax is itself a finding. The linter's conformance suite
//! (`crates/lint/tests/`) gives every rule positive and negative
//! fixtures, and `cargo test` also re-scans the workspace, so the
//! invariants hold on every green build, not just in CI.
//!
//! Reproduction of every table and figure in the paper: see `DESIGN.md`
//! (experiment index) and run `cargo run --release -p logr-bench --bin
//! repro -- all`.

#![warn(missing_docs)]

pub use logr_baselines as baselines;
pub use logr_cluster as cluster;
pub use logr_core as core;
pub use logr_feature as feature;
pub use logr_math as math;
pub use logr_source as source;
pub use logr_sql as sql;
pub use logr_workload as workload;

pub mod analytics;
mod engine;
mod error;
pub mod manifest;

pub use engine::{Engine, EngineBuilder, EngineSnapshot};
pub use error::Error;
// The source selector rides at the root so `.source(...)` call sites
// need not name the backing crate.
pub use logr_source::{SourceConfig, TemplateConfig};
