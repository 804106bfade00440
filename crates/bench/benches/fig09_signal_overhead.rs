//! Figure 9: single-worker overhead of the Linux (ping-thread) heartbeat
//! mechanism — interrupts only, and interrupts plus promotions — at
//! ♥ = 100µs and ♥ = 20µs, normalised to serial.
//!
//! "Interrupts only" runs the TPAL kernels with promotions suppressed:
//! signals are delivered and serviced but no tasks are created, exactly
//! the paper's `Serial, N µs interrupts` bars.

use std::time::Duration;

use tpal_bench::{banner, geomean, paper_then_streaming, scale, time_native, STREAMING_ROWS};
use tpal_rt::{HeartbeatSource, RtConfig, Runtime};
use tpal_workloads::Workload;

fn measure(source: HeartbeatSource, banner_name: &str) {
    println!(
        "\n{:<22} {:>9} {:>9} {:>9} {:>9}",
        banner_name, "int 100µs", "all 100µs", "int 20µs", "all 20µs"
    );
    let configs: Vec<(Runtime, &str)> = vec![
        (
            Runtime::new(
                RtConfig::default()
                    .workers(1)
                    .source(source)
                    .heartbeat(Duration::from_micros(100))
                    .suppress_promotions(true),
            ),
            "int100",
        ),
        (
            Runtime::new(
                RtConfig::default()
                    .workers(1)
                    .source(source)
                    .heartbeat(Duration::from_micros(100)),
            ),
            "all100",
        ),
        (
            Runtime::new(
                RtConfig::default()
                    .workers(1)
                    .source(source)
                    .heartbeat(Duration::from_micros(20))
                    .suppress_promotions(true),
            ),
            "int20",
        ),
        (
            Runtime::new(
                RtConfig::default()
                    .workers(1)
                    .source(source)
                    .heartbeat(Duration::from_micros(20)),
            ),
            "all20",
        ),
    ];

    // Times one workload under every configuration and prints its row.
    let row = |w: &dyn Workload| {
        let p = w.prepare(scale());
        let expected = p.expected();
        let t_serial = time_native(expected, || p.run_serial());
        let mut line = format!("{:<22}", w.name());
        let ratios: Vec<f64> = configs
            .iter()
            .map(|(rt, _)| {
                let t = time_native(expected, || rt.run(|ctx| p.run_heartbeat(ctx)));
                t.as_secs_f64() / t_serial.as_secs_f64()
            })
            .collect();
        for r in &ratios {
            line.push_str(&format!(" {:>8.2}x", r));
        }
        println!("{line}");
        ratios
    };
    let (paper, streaming) = paper_then_streaming();
    let rows: Vec<Vec<f64>> = paper.iter().map(|w| row(w.as_ref())).collect();
    print!("{:<22}", "geomean");
    for k in 0..configs.len() {
        let column: Vec<f64> = rows.iter().map(|r| r[k]).collect();
        print!(" {:>8.2}x", geomean(&column));
    }
    println!();
    println!("{STREAMING_ROWS}");
    for w in &streaming {
        row(w.as_ref());
    }
}

fn main() {
    banner(
        "Figure 9",
        "1-worker overhead of Linux ping-thread heartbeats (interrupts only / +promotions)",
    );
    measure(HeartbeatSource::PingThread, "ping-thread (Linux)");
    println!(
        "\npaper's shape: ~3% interrupt-only at 100µs (geomean), up to ~16% at\n\
         20µs; promotions add a few percent at 100µs and become costly at 20µs."
    );
}
