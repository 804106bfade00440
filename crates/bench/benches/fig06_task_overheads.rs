//! Figure 6: task-creation overheads on a single worker.
//!
//! The paper runs every benchmark on one core under Cilk Plus and under
//! TPAL (♥ = 100µs) and normalises to the serial program. Cilk pays its
//! eager decomposition even with nobody to steal (up to 16× on
//! fine-grained benchmarks); TPAL stays near 1× because tasks are only
//! created on beats.
//!
//! Reproduced natively: one worker thread, `tpal-cilk` vs `tpal-rt`
//! (ping-thread source at 100µs), normalised to the plain serial kernel.

use std::time::Duration;

use tpal_bench::{banner, geomean, ms, paper_then_streaming, scale, time_native, STREAMING_ROWS};
use tpal_cilk::CilkRuntime;
use tpal_rt::{HeartbeatSource, RtConfig, Runtime};
use tpal_workloads::Workload;

fn main() {
    banner(
        "Figure 6",
        "single-worker task-creation overhead, normalised to serial",
    );
    let cilk = CilkRuntime::new(1);
    let hb = Runtime::new(
        RtConfig::default()
            .workers(1)
            .source(HeartbeatSource::PingThread)
            .heartbeat(Duration::from_micros(100)),
    );

    println!(
        "\n{:<22} {:>10} {:>10} {:>10} {:>8} {:>8} {:>9} {:>9}",
        "benchmark", "serial ms", "cilk ms", "tpal ms", "cilk x", "tpal x", "cilk tsk", "tpal tsk"
    );

    // Times one workload and prints its row: (cilk x, tpal x).
    let row = |w: &dyn Workload| {
        let p = w.prepare(scale());
        let expected = p.expected();

        let t_serial = time_native(expected, || p.run_serial());

        cilk.reset_stats();
        let t_cilk = time_native(expected, || cilk.run(|ctx| p.run_cilk(ctx)));
        let cilk_tasks = cilk.stats().tasks_created / tpal_bench::trials() as u64;

        hb.reset_stats();
        let t_tpal = time_native(expected, || hb.run(|ctx| p.run_heartbeat(ctx)));
        let tpal_tasks = hb.stats().tasks_created / tpal_bench::trials() as u64;

        let rc = t_cilk.as_secs_f64() / t_serial.as_secs_f64();
        let rt = t_tpal.as_secs_f64() / t_serial.as_secs_f64();
        println!(
            "{:<22} {:>10.2} {:>10.2} {:>10.2} {:>7.2}x {:>7.2}x {:>9} {:>9}",
            w.name(),
            ms(t_serial),
            ms(t_cilk),
            ms(t_tpal),
            rc,
            rt,
            cilk_tasks,
            tpal_tasks
        );
        (rc, rt)
    };

    let (paper, streaming) = paper_then_streaming();
    let mut cilk_ratios_iter = Vec::new();
    let mut tpal_ratios_iter = Vec::new();
    let mut cilk_ratios_rec = Vec::new();
    let mut tpal_ratios_rec = Vec::new();
    for w in &paper {
        let (rc, rt) = row(w.as_ref());
        if w.is_recursive() {
            cilk_ratios_rec.push(rc);
            tpal_ratios_rec.push(rt);
        } else {
            cilk_ratios_iter.push(rc);
            tpal_ratios_iter.push(rt);
        }
    }

    println!(
        "\ngeomean slowdown vs serial  (iterative): cilk {:.2}x   tpal {:.2}x",
        geomean(&cilk_ratios_iter),
        geomean(&tpal_ratios_iter)
    );
    println!(
        "geomean slowdown vs serial  (recursive): cilk {:.2}x   tpal {:.2}x",
        geomean(&cilk_ratios_rec),
        geomean(&tpal_ratios_rec)
    );
    println!("{STREAMING_ROWS}");
    for w in &streaming {
        row(w.as_ref());
    }
    println!(
        "\npaper's shape: TPAL ≈ serial everywhere (worst case knapsack);\n\
         Cilk shows large single-core slowdowns on fine-grained benchmarks."
    );
}
