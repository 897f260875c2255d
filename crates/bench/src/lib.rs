//! Benchmark harness regenerating every table and figure of the paper's
//! evaluation (§4).
//!
//! Each experiment lives in [`experiments`] as a pure function from
//! parameters to result rows, shared by three consumers:
//!
//! * the `fig*`/`table1` binaries (`cargo run -p apg-bench --release --bin fig1`),
//!   which print the series the paper plots;
//! * the Criterion benches (`cargo bench`), which run scaled-down versions;
//! * the integration tests, which assert the paper's *qualitative* claims
//!   (who wins, by roughly what factor).
//!
//! Absolute numbers differ from the paper — their substrate was a 63-blade
//! cluster, ours is a simulator with an explicit cost model — but the shape
//! of every curve is expected to hold.

pub mod experiments;
pub mod scale;

pub use scale::Scale;
