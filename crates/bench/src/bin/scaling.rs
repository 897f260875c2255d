//! Thread-scaling benchmark for the sharded decision sweep, parallel
//! apply, and sharded cut recount; writes `BENCH_scaling.json` next to the
//! working directory.
//!
//! Default (quick) scale already runs the ≥100k-vertex power-law
//! configuration; `--scale paper` raises it to one million vertices and
//! `--scale xl` to ten million (single repetition, the opt-in stress
//! run). CI passes `--scale tiny` as a smoke cap so the binary cannot rot
//! without slowing the pipeline.

use apg_bench::experiments::scaling;
use apg_bench::scale::RunArgs;

fn main() {
    let args = RunArgs::from_env();
    let result = scaling::run(args.scale, args.reps(), args.seed);
    scaling::print(&result);

    // Determinism and apply-equivalence are the contracts this bench
    // exists to witness: divergence is a bug, not a data point, so fail
    // loudly instead of shipping a JSON a CI grep might misread.
    if !result.deterministic_across_threads() {
        eprintln!("FATAL: iteration history varies across thread counts");
        std::process::exit(1);
    }
    if !result.apply_parallel_equals_serial {
        eprintln!("FATAL: sharded apply diverged from the serial apply");
        std::process::exit(1);
    }
    if !result.layout_equals_reference {
        eprintln!("FATAL: slab adjacency diverged from the boxed reference layout");
        std::process::exit(1);
    }

    let path = "BENCH_scaling.json";
    match std::fs::write(path, scaling::to_json(&result)) {
        Ok(()) => println!("wrote {path}"),
        Err(e) => {
            eprintln!("could not write {path}: {e}");
            std::process::exit(1);
        }
    }
}
