//! Checkpoint-overhead benchmark: the CDR stream driven at several
//! snapshot cadences through the `apg-persist` checkpoint/compact/resume
//! loop; writes `BENCH_persist.json`.

use apg_bench::experiments::persist;
use apg_bench::scale::RunArgs;

fn main() {
    let args = RunArgs::from_env();
    let result = persist::run(args.scale, args.reps(), args.seed);
    persist::print(&result);
    apg_bench::write_report("BENCH_persist.json", &persist::to_json(&result));
}
