//! Serving-locality benchmark (query mix × churn rate × partitioner arm on
//! the CDR churn stream); writes `BENCH_serve.json` next to the working
//! directory.
//!
//! `--scale tiny|quick|paper` sizes the run (CI passes `--scale tiny` as a
//! smoke cap so the binary cannot rot without slowing the pipeline).

use apg_bench::experiments::serve;
use apg_bench::scale::RunArgs;

fn main() {
    let args = RunArgs::from_env();
    let result = serve::run(args.scale, args.seed);
    serve::print(&result);

    // Both contracts are the point of this bench: a parallelism-dependent
    // serve timeline or an adaptive arm that never beats hash is a bug, not
    // a data point, so fail loudly instead of shipping a JSON a CI grep
    // might read from a stale checkout.
    if !result.parallelism_invariant {
        eprintln!("FATAL: serve timelines diverged across parallelism levels");
        std::process::exit(1);
    }
    if !result.adaptive_beats_hash() {
        eprintln!("FATAL: adaptive partitioning never beat the hash baseline on local hops");
        std::process::exit(1);
    }

    let path = "BENCH_serve.json";
    match std::fs::write(path, serve::to_json(&result)) {
        Ok(()) => println!("wrote {path}"),
        Err(e) => {
            eprintln!("could not write {path}: {e}");
            std::process::exit(1);
        }
    }
}
