//! Active-set sweep benchmark (full vs exhaustive decision sweep on the
//! 100k-vertex power-law scenario); writes `BENCH_sweep.json` next to the
//! working directory.
//!
//! `--scale tiny|quick|paper` sizes the run (CI passes `--scale tiny` as a
//! smoke cap so the binary cannot rot without slowing the pipeline).

use apg_bench::experiments::sweep;
use apg_bench::scale::RunArgs;

fn main() {
    let args = RunArgs::from_env();
    let result = sweep::run(args.scale, args.seed);
    sweep::print(&result);

    // The exactness contract is the point of this bench: divergence is a
    // bug, not a data point, so fail loudly instead of shipping a JSON a
    // CI grep might read from a stale checkout.
    if !result.identical_trajectories() {
        eprintln!("FATAL: active-set sweep diverged from the exhaustive sweep");
        std::process::exit(1);
    }

    let path = "BENCH_sweep.json";
    match std::fs::write(path, sweep::to_json(&result)) {
        Ok(()) => println!("wrote {path}"),
        Err(e) => {
            eprintln!("could not write {path}: {e}");
            std::process::exit(1);
        }
    }
}
