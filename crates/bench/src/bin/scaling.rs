//! Thread-scaling benchmark for the sharded decision sweep, parallel
//! apply, and sharded cut recount; writes `BENCH_scaling.json` next to the
//! working directory.
//!
//! Default (quick) scale already runs the ≥100k-vertex power-law
//! configuration; `--scale paper` raises it to one million vertices and
//! `--scale xl` to ten million (single repetition, the opt-in stress
//! run).

use apg_bench::experiments::scaling;
use apg_bench::scale::RunArgs;

fn main() {
    let args = RunArgs::from_env();
    let result = scaling::run(args.scale, args.reps(), args.seed);
    scaling::print(&result);
    apg_bench::write_report("BENCH_scaling.json", &scaling::to_json(&result));
}
