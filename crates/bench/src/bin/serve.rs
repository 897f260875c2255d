//! Serving-locality benchmark (query mix × churn rate × partitioner arm on
//! the CDR churn stream); writes `BENCH_serve.json` next to the working
//! directory.
//!
//! `--scale tiny|quick|paper` sizes the run.

use apg_bench::experiments::serve;
use apg_bench::scale::RunArgs;

fn main() {
    let args = RunArgs::from_env();
    let result = serve::run(args.scale, args.seed);
    serve::print(&result);
    apg_bench::write_report("BENCH_serve.json", &serve::to_json(&result));
}
