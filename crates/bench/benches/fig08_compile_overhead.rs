//! Figure 8: compilation-related overhead — TPAL binaries with heartbeat
//! interrupts turned off versus the plain serial program, single worker.
//!
//! The paper's point: serial-by-default code versioning leaves the
//! common path nearly untouched (≤6% except kmeans's auxiliary
//! structure and knapsack's promotion-mark bookkeeping). Our analogue
//! measures the heartbeat kernels with `HeartbeatSource::Disabled`:
//! what remains is the promotion-point instrumentation (the polling
//! check standing in for rollforward, §6's ~2% budget) and any
//! structural differences in the parallel-ready kernels.

use tpal_bench::{banner, geomean, ms, paper_then_streaming, scale, time_native, STREAMING_ROWS};
use tpal_rt::{HeartbeatSource, RtConfig, Runtime};
use tpal_workloads::Workload;

fn main() {
    banner(
        "Figure 8",
        "TPAL with interrupts off vs serial (instrumentation only), 1 worker",
    );
    let rt = Runtime::new(
        RtConfig::default()
            .workers(1)
            .source(HeartbeatSource::Disabled),
    );

    println!(
        "\n{:<22} {:>11} {:>12} {:>9}",
        "benchmark", "serial ms", "tpal-off ms", "ratio"
    );
    // Times one workload and prints its row: the overhead ratio.
    let row = |w: &dyn Workload| {
        let p = w.prepare(scale());
        let expected = p.expected();
        let t_serial = time_native(expected, || p.run_serial());
        rt.reset_stats();
        let t_off = time_native(expected, || rt.run(|ctx| p.run_heartbeat(ctx)));
        assert_eq!(
            rt.stats().tasks_created,
            0,
            "interrupts off must stay serial"
        );
        let r = t_off.as_secs_f64() / t_serial.as_secs_f64();
        println!(
            "{:<22} {:>11.2} {:>12.2} {:>8.2}x",
            w.name(),
            ms(t_serial),
            ms(t_off),
            r,
        );
        r
    };
    let (paper, streaming) = paper_then_streaming();
    let ratios: Vec<f64> = paper.iter().map(|w| row(w.as_ref())).collect();
    println!(
        "\ngeomean instrumentation overhead: {:.2}x",
        geomean(&ratios)
    );
    println!("{STREAMING_ROWS}");
    for w in &streaming {
        row(w.as_ref());
    }
    println!();
    println!(
        "paper's shape: ≈1.0x across the suite (worst cases kmeans 1.17x,\n\
         knapsack 1.51x from promotion-mark maintenance)."
    );
}
