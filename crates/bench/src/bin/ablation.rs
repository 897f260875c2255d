//! Quality ablations over the design choices DESIGN.md calls out:
//!
//! * quota rule `C/(k-1)` vs unbounded migration (node densification);
//! * counting the vertex itself in `Γ(v,t)` (stickiness) vs neighbours only;
//! * constant willingness values (the paper's recommendation is s = 0.5);
//! * vertex-balanced vs edge-balanced capacities (the paper's §6 future
//!   work) on a skewed power-law graph;
//! * constant vs annealed willingness schedules;
//! * hot-spot capacity scaling (paper §6's runtime-statistics hook).

use apg_bench::scale::RunArgs;
use apg_core::{AdaptiveConfig, AdaptivePartitioner, QuotaRule};
use apg_graph::gen;
use apg_partition::{edge_imbalance, vertex_imbalance, InitialStrategy};

fn main() {
    let args = RunArgs::from_env();
    let mesh = gen::mesh3d(16, 16, 16);
    let plaw = gen::holme_kim(5000, 8, 0.1, args.seed);

    println!("Ablation 1: capacity quota rule (mesh 16^3, k=9, 120 iterations)");
    println!(
        "{:>18} {:>10} {:>12} {:>12}",
        "rule", "cut", "imbalance", "max part"
    );
    for (name, rule) in [
        ("C/(k-1) split", QuotaRule::PerSourceSplit),
        ("unbounded", QuotaRule::Unbounded),
    ] {
        let cfg = AdaptiveConfig::builder(9).quota_rule(rule).build().unwrap();
        let mut p =
            AdaptivePartitioner::with_strategy(&mesh, InitialStrategy::Hash, &cfg, args.seed);
        p.run_for(120);
        println!(
            "{:>18} {:>10.4} {:>12.3} {:>12}",
            name,
            p.cut_ratio(),
            vertex_imbalance(p.partitioning()),
            p.partitioning().sizes().iter().max().unwrap()
        );
    }

    println!("\nAblation 2: candidate set includes self (mesh 16^3, k=9, to convergence)");
    println!("{:>18} {:>10} {:>14}", "variant", "cut", "conv (iters)");
    for (name, count_self) in [("neighbours only", false), ("self included", true)] {
        let cfg = AdaptiveConfig::builder(9)
            .count_self(count_self)
            .max_iterations(600)
            .build()
            .unwrap();
        let mut p =
            AdaptivePartitioner::with_strategy(&mesh, InitialStrategy::Hash, &cfg, args.seed);
        let report = p.run_to_convergence();
        println!(
            "{:>18} {:>10.4} {:>14}",
            name,
            report.final_cut_ratio(),
            report.convergence_time()
        );
    }

    println!("\nAblation 3: willingness to move (mesh 16^3, k=9, to convergence)");
    println!("{:>18} {:>10} {:>14}", "s", "cut", "conv (iters)");
    for s in [0.1, 0.3, 0.5, 0.7, 0.9, 1.0] {
        let cfg = AdaptiveConfig::builder(9)
            .willingness(s)
            .max_iterations(400)
            .build()
            .unwrap();
        let mut p =
            AdaptivePartitioner::with_strategy(&mesh, InitialStrategy::Hash, &cfg, args.seed);
        let report = p.run_to_convergence();
        println!(
            "{:>18.1} {:>10.4} {:>14}",
            s,
            report.final_cut_ratio(),
            if report.converged() {
                report.convergence_time().to_string()
            } else {
                "no convergence".to_string()
            }
        );
    }

    println!("\nAblation 4: balance objective on a power-law graph (k=9, 150 iterations)");
    println!(
        "{:>18} {:>10} {:>12} {:>12}",
        "objective", "cut", "vertex imb", "edge imb"
    );
    for (name, edges) in [("vertices (paper)", false), ("edges (paper s6)", true)] {
        let cfg = AdaptiveConfig::builder(9)
            .balance_on_edges(edges)
            .build()
            .unwrap();
        let mut p =
            AdaptivePartitioner::with_strategy(&plaw, InitialStrategy::Hash, &cfg, args.seed);
        p.run_for(150);
        println!(
            "{:>18} {:>10.4} {:>12.3} {:>12.3}",
            name,
            p.cut_ratio(),
            vertex_imbalance(p.partitioning()),
            edge_imbalance(&plaw, p.partitioning())
        );
    }

    println!("\nAblation 5: willingness schedule (mesh 16^3, k=9, to convergence)");
    println!("{:>24} {:>10} {:>14}", "schedule", "cut", "conv (iters)");
    let schedules = [
        ("constant 0.5", AdaptiveConfig::builder(9)),
        (
            "anneal 0.9 -> 0.3/60",
            AdaptiveConfig::builder(9).anneal_willingness(0.9, 0.3, 60),
        ),
        (
            "anneal 0.9 -> 0.1/40",
            AdaptiveConfig::builder(9).anneal_willingness(0.9, 0.1, 40),
        ),
    ];
    for (name, schedule) in schedules {
        let cfg = schedule.max_iterations(600).build().unwrap();
        let mut p =
            AdaptivePartitioner::with_strategy(&mesh, InitialStrategy::Hash, &cfg, args.seed);
        let report = p.run_to_convergence();
        println!(
            "{:>24} {:>10.4} {:>14}",
            name,
            report.final_cut_ratio(),
            report.convergence_time()
        );
    }

    println!("\nAblation 6: hot-spot capacity scaling on the busiest partition");
    println!("{:>18} {:>10} {:>14}", "variant", "cut", "hot-part mass");
    for (name, scale) in [("uniform caps", 1.0f64), ("hot spot +30%", 1.3)] {
        let cfg = AdaptiveConfig::builder(9).build().unwrap();
        let mut p =
            AdaptivePartitioner::with_strategy(&plaw, InitialStrategy::Hash, &cfg, args.seed);
        p.run_for(40);
        if scale > 1.0 {
            // Grant the partition with the highest degree mass extra room,
            // as the paper's runtime-statistics hook would.
            let hot = (0..9u16)
                .max_by_key(|&q| p.degree_mass()[q as usize])
                .unwrap();
            let mut caps = p.capacities();
            caps.scale_partition(hot, scale);
            p.set_fixed_capacities(caps);
        }
        p.run_for(110);
        let hot_mass = *p.degree_mass().iter().max().unwrap();
        println!("{:>18} {:>10.4} {:>14}", name, p.cut_ratio(), hot_mass);
    }
}
