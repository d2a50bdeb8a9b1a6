//! Runs every figure of the evaluation in sequence. Pass `--full` for paper-scale runs.

use triad_bench::experiments::{
    fig10_breakdown, fig11_wa_ra, fig2_background_io, fig7_profiles, fig9a_production,
    fig9d_io_time, grid, summary, write_scaling,
};
use triad_bench::Scale;

fn main() {
    let scale = Scale::from_args();
    println!("Running every TRIAD evaluation figure at {scale:?} scale...");
    fig7_profiles::run(scale).expect("figure 7/8");
    fig2_background_io::run(scale).expect("figure 2");
    fig9a_production::run(scale).expect("figure 9A");
    let points = grid::run_grid(scale).expect("figure 9B/9C grid");
    grid::print_throughput(&points);
    grid::print_write_amplification(&points);
    fig9d_io_time::run(scale).expect("figure 9D");
    fig10_breakdown::run(scale).expect("figure 10");
    fig11_wa_ra::run_write_amplification(scale).expect("figure 11 WA");
    fig11_wa_ra::run_read_amplification(scale).expect("figure 11 RA");
    summary::run(scale).expect("summary");
    write_scaling::run(scale).expect("write scaling");
    println!("\nAll figures regenerated.");
}
