//! Active-set sweep benchmark (full vs exhaustive decision sweep on the
//! 100k-vertex power-law scenario); writes `BENCH_sweep.json` next to the
//! working directory.
//!
//! `--scale tiny|quick|paper` sizes the run.

use apg_bench::experiments::sweep;
use apg_bench::scale::RunArgs;

fn main() {
    let args = RunArgs::from_env();
    let result = sweep::run(args.scale, args.seed);
    sweep::print(&result);
    apg_bench::write_report("BENCH_sweep.json", &sweep::to_json(&result));
}
