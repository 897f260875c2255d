//! Runs every table and figure in sequence (the full evaluation).

use apg_bench::experiments::*;
use apg_bench::scale::RunArgs;
use apg_bench::Scale;

fn main() {
    let args = RunArgs::from_env();
    let banner = |s: &str| println!("\n=== {s} ===\n");

    banner("Table 1");
    table1::print(&table1::run(args.scale, args.seed));

    banner("Figure 1");
    for (name, graph) in headline_graphs(args.scale, args.seed) {
        fig1::print(
            name,
            &fig1::sweep(&graph, &fig1::S_VALUES, args.reps(), args.seed),
        );
    }

    banner("Figure 4");
    for (name, graph) in headline_graphs(args.scale, args.seed) {
        let rows = fig4::run(&graph, args.reps(), args.seed);
        fig4::print(name, &rows, fig4::metis_baseline(&graph, args.seed));
    }

    banner("Figure 5");
    fig5::print(&fig5::run(args.scale, args.reps(), args.seed));

    banner("Figure 6");
    fig6::print(
        &fig6::run_mesh(args.scale, args.reps(), args.seed),
        &fig6::run_powerlaw(args.scale, args.reps(), args.seed),
    );

    banner("Figure 7");
    let stride = if args.scale == Scale::Paper { 10 } else { 5 };
    fig7::print(&fig7::run(args.scale, args.seed), stride);

    banner("Figure 8");
    fig8::print(&fig8::run(args.scale, args.seed));

    banner("Figure 9");
    fig9::print(&fig9::run(args.scale, args.seed));
}
