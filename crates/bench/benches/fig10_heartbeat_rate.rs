//! Figure 10, native half: achieved versus target heartbeat rate, the
//! real ping thread (sleep-based) versus the real local timer on this
//! machine's workers, at the leisurely and aggressive intervals,
//! measured over a fixed busy workload. The simulated half (15 cores,
//! where the sequential ping round cannot meet `P × latency > ♥`) is a
//! figure of the `figures` table.

use std::time::Duration;

use tpal_bench::{banner, scale};
use tpal_rt::{HeartbeatSource, RtConfig, Runtime};

fn native_rate(source: HeartbeatSource, us: u64, workers: usize) -> (f64, f64) {
    let rt = Runtime::new(
        RtConfig::default()
            .workers(workers)
            .source(source)
            .heartbeat(Duration::from_micros(us)),
    );
    let t = std::time::Instant::now();
    // A busy parallel workload, repeated until the run is long enough
    // to average over many beats.
    let n = 8_000_000usize;
    let budget = match scale() {
        tpal_workloads::Scale::Quick => Duration::from_millis(120),
        tpal_workloads::Scale::Full => Duration::from_millis(1_000),
    };
    while t.elapsed() < budget {
        let s = rt.run(|ctx| {
            ctx.reduce(
                0..n,
                0u64,
                |_, i, a| a ^ (i as u64).wrapping_mul(0x9E3779B97F4A7C15),
                |a, b| a ^ b,
            )
        });
        std::hint::black_box(s);
    }
    let elapsed = t.elapsed();
    let delivered = rt.stats().heartbeats_delivered as f64;
    let target = (elapsed.as_micros() as f64 / us as f64) * workers as f64;
    (delivered / elapsed.as_secs_f64(), delivered / target)
}

fn main() {
    banner(
        "Figure 10",
        "native: achieved vs target heartbeat rate (ping thread vs local timer)",
    );

    let workers = tpal_bench::native_workers();
    println!("\nnative ({workers} workers): delivered heartbeats per second (and % of target)");
    println!(
        "{:<22} {:>20} {:>20}",
        "interval", "ping thread", "local timer"
    );
    for us in [100u64, 20] {
        let (rp, fp) = native_rate(HeartbeatSource::PingThread, us, workers);
        let (rl, fl) = native_rate(HeartbeatSource::LocalTimer, us, workers);
        println!(
            "{:<22} {:>11.0}/s ({:>3.0}%) {:>11.0}/s ({:>3.0}%)",
            format!("♥ = {us}µs"),
            rp,
            fp * 100.0,
            rl,
            fl * 100.0
        );
    }
    println!(
        "\npaper's shape: the ping thread misses the target — mildly at 100µs,\n\
         by 2.7–9x at 20µs — while the per-core timer consistently hits it.\n\
         (Natively, only busy workers poll, so the achievable ceiling is\n\
         busy-workers/total; on this machine's single CPU the sleep-based ping\n\
         thread additionally contends with the workers for the core — an\n\
         exaggerated form of the Linux delivery problems of §4.4.)"
    );
}
