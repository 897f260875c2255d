//! Reproduction of the paper's Video 1: a 2-D slice of a 3-D mesh rendered
//! while the iterative algorithm pulls neighbouring vertices into the same
//! partition. Each character cell is a mesh vertex; each glyph/colour a
//! partition. Also writes PPM frames (`mesh_frame_*.ppm`) for real colour.
//!
//! ```text
//! cargo run --release --example mesh_visualize
//! ```

use apg::core::{AdaptiveConfig, AdaptivePartitioner};
use apg::graph::gen;
use apg::partition::{InitialStrategy, Partitioning};

const SIDE: usize = 40;
const SLICE_Z: usize = 0;

fn render(partitioning: &Partitioning) -> String {
    // Palette: one glyph per partition, doubled for squarer pixels.
    const GLYPHS: [char; 9] = ['.', '#', 'o', '+', '@', '*', '=', '%', '~'];
    let mut out = String::new();
    for x in 0..SIDE {
        for y in 0..SIDE {
            let v = ((x * SIDE + y) * SIDE + SLICE_Z) as u32;
            let p = partitioning.partition_of(v) as usize;
            out.push(GLYPHS[p % GLYPHS.len()]);
            out.push(GLYPHS[p % GLYPHS.len()]);
        }
        out.push('\n');
    }
    out
}

/// Writes the slice as a PPM image, one pixel per vertex.
fn write_ppm(partitioning: &Partitioning, path: &str) -> std::io::Result<()> {
    use std::io::Write;
    const PALETTE: [(u8, u8, u8); 9] = [
        (230, 25, 75),
        (60, 180, 75),
        (255, 225, 25),
        (0, 130, 200),
        (245, 130, 48),
        (145, 30, 180),
        (70, 240, 240),
        (240, 50, 230),
        (128, 128, 128),
    ];
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "P6 {SIDE} {SIDE} 255")?;
    for x in 0..SIDE {
        for y in 0..SIDE {
            let v = ((x * SIDE + y) * SIDE + SLICE_Z) as u32;
            let (r, g, b) = PALETTE[partitioning.partition_of(v) as usize % PALETTE.len()];
            out.write_all(&[r, g, b])?;
        }
    }
    Ok(())
}

fn main() {
    // A 2-D slice of the paper's 64kcube (40^3), 9 partitions from hash.
    let graph = gen::mesh3d(SIDE, SIDE, SIDE);
    let config = AdaptiveConfig::builder(9).build().unwrap();
    let mut partitioner =
        AdaptivePartitioner::with_strategy(&graph, InitialStrategy::Hash, &config, 3);

    for checkpoint in [0usize, 5, 20, 60] {
        while partitioner.iteration() < checkpoint {
            partitioner.iterate();
        }
        println!(
            "\n=== iteration {:>3}  cut ratio {:.3} ===",
            partitioner.iteration(),
            partitioner.cut_ratio()
        );
        println!("{}", render(partitioner.partitioning()));
        let frame = format!("mesh_frame_{:03}.ppm", partitioner.iteration());
        if let Err(e) = write_ppm(partitioner.partitioning(), &frame) {
            eprintln!("could not write {frame}: {e}");
        } else {
            println!("(wrote {frame})");
        }
    }
    println!("(hash scatter dissolves into contiguous regions, as in the paper's video)");
}
