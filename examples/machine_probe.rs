//! What this machine gives a second thread, and what one fan-out costs:
//! the ceiling every parallel speed-up measured on it has to be read against.

use std::hint::black_box;
use std::time::Instant;

use apg::exec::fanout;

/// A compute-bound loop with no memory traffic (xorshift64).
fn spin(seed: u64) -> u64 {
    (0..200_000_000u32).fold(seed | 1, |x, _| {
        let x = x ^ (x << 13);
        let x = x ^ (x >> 7);
        x ^ (x << 17)
    })
}

fn main() {
    let start = Instant::now();
    black_box(spin(black_box(1)));
    let one = start.elapsed().as_secs_f64();
    let start = Instant::now();
    std::thread::scope(|scope| {
        scope.spawn(|| black_box(spin(black_box(2))));
        black_box(spin(black_box(3)));
    });
    let two = start.elapsed().as_secs_f64();
    let speedup = 2.0 * one / two;

    let start = Instant::now();
    for _ in 0..500 {
        black_box(fanout::map_items(2, vec![(), ()], |_, ()| ()));
    }
    let fanout_us = start.elapsed().as_secs_f64() * 1e6 / 500.0;

    println!("available_parallelism {}", fanout::available_parallelism());
    println!("one loop on one thread {one:.3} s, two loops on two threads {two:.3} s");
    println!("two-thread speed-up {speedup:.2}x of a possible 2.00x");
    println!("empty two-thread fan-out {fanout_us:.0} us per call");
}
