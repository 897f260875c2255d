//! Regenerates Figure 7 (biomedical mesh: re-arrangement + burst).

use apg_bench::experiments::fig7;
use apg_bench::scale::RunArgs;
use apg_bench::Scale;

fn main() {
    let args = RunArgs::from_env();
    let result = fig7::run(args.scale, args.seed);
    let stride = match args.scale {
        Scale::Paper => 10,
        Scale::Quick => 5,
        Scale::Tiny => 2,
    };
    fig7::print(&result, stride);
}
