//! Regenerates the entire paper suite as one merged parallel plan.
//!
//! ```text
//! cargo run --release -p rfnoc-bench --bin run_all -- --jobs $(nproc)
//! ```
//!
//! Flags:
//! - `--jobs N` / `-j N`: worker threads (default: available parallelism)
//! - `--filter S`: only figure `S` when `S` is a figure name, otherwise
//!   every figure whose name contains `S` (repeatable; reaches probes)
//! - `--quick`: shortened windows and trace sets (smoke test, not paper numbers)
//! - `--all`: also include probe figures that are off by default (`tune_load`)
//! - `--quiet`: suppress per-point progress lines
//!
//! All figures' plans are merged and deduplicated (shared baselines run
//! once), then executed as a single work pool; each figure's tables, CSVs,
//! and `results/json/<name>.json` artifact are rendered from the shared
//! results, plus a combined `results/json/run_all.json`.

fn main() {
    rfnoc_bench::suite::run_all_main();
}
