//! Figure 13: the Figure 9 measurement under the Nautilus-style
//! per-core timer mechanism (local deadline checks instead of a ping
//! thread). The paper's finding: the precise, per-core mechanism masks
//! the interrupt cost that Linux signalling makes visible, even at 20µs.

use std::time::Duration;

use tpal_bench::{banner, geomean, paper_then_streaming, scale, time_native, STREAMING_ROWS};
use tpal_rt::{HeartbeatSource, RtConfig, Runtime};
use tpal_workloads::Workload;

fn main() {
    banner(
        "Figure 13",
        "1-worker overhead of per-core-timer (Nautilus) heartbeats",
    );

    let configs: Vec<(Runtime, &str)> = vec![
        (
            Runtime::new(
                RtConfig::default()
                    .workers(1)
                    .source(HeartbeatSource::LocalTimer)
                    .heartbeat(Duration::from_micros(100))
                    .suppress_promotions(true),
            ),
            "int 100µs",
        ),
        (
            Runtime::new(
                RtConfig::default()
                    .workers(1)
                    .source(HeartbeatSource::LocalTimer)
                    .heartbeat(Duration::from_micros(100)),
            ),
            "all 100µs",
        ),
        (
            Runtime::new(
                RtConfig::default()
                    .workers(1)
                    .source(HeartbeatSource::LocalTimer)
                    .heartbeat(Duration::from_micros(20))
                    .suppress_promotions(true),
            ),
            "int 20µs",
        ),
        (
            Runtime::new(
                RtConfig::default()
                    .workers(1)
                    .source(HeartbeatSource::LocalTimer)
                    .heartbeat(Duration::from_micros(20)),
            ),
            "all 20µs",
        ),
    ];

    println!(
        "\n{:<22} {:>9} {:>9} {:>9} {:>9}",
        "benchmark", configs[0].1, configs[1].1, configs[2].1, configs[3].1
    );
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
    println!(
        "\npaper's shape: interrupt-only overhead is fully masked at 100µs and\n\
         at most ~5% at 20µs — compare against fig09 (Linux ping thread)."
    );
}
