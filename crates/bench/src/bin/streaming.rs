//! Streaming-ingestion benchmark: CDR weeks, Twitter windows and a
//! forest-fire burst, each swept over batch sizes through the canonical
//! `StreamSource` → `StreamingRunner` path; writes `BENCH_streaming.json`.

use apg_bench::experiments::streaming;
use apg_bench::scale::RunArgs;

fn main() {
    let args = RunArgs::from_env();
    let result = streaming::run(args.scale, args.reps(), args.seed);
    streaming::print(&result);
    apg_bench::write_report("BENCH_streaming.json", &streaming::to_json(&result));
}
