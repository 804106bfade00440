//! Integration tests of the native heartbeat runtime: correctness under
//! every heartbeat source, promotion accounting, and the serial-by-default
//! guarantee.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use tpal_rt::{run_stages, Channel, HeartbeatSource, Promotion, RtConfig, Runtime, WorkerCtx};

/// `Σ i` over `0..n` as a latent reduce whose accumulator the optimiser
/// cannot see through: with a plain `a + i` body LLVM folds each block
/// to a closed form, a multi-million-iteration loop ends before its
/// first beat, and every "must promote" assertion below fails in
/// release builds only.
fn opaque_sum(ctx: &WorkerCtx<'_>, n: usize) {
    let body = |_: &WorkerCtx<'_>, i, a| std::hint::black_box(a + i as u64);
    let total = ctx.reduce(0..n, 0u64, body, |a, b| a + b);
    assert_eq!(total, (n as u64 - 1) * n as u64 / 2);
}

fn rt(workers: usize, source: HeartbeatSource, us: u64) -> Runtime {
    Runtime::new(
        RtConfig::default()
            .workers(workers)
            .source(source)
            .heartbeat(Duration::from_micros(us)),
    )
}

#[test]
fn reduce_sums_correctly_all_sources() {
    for source in [
        HeartbeatSource::Disabled,
        HeartbeatSource::LocalTimer,
        HeartbeatSource::PingThread,
        HeartbeatSource::TimerSignal,
    ] {
        let rt = rt(2, source, 50);
        let n = 2_000_000usize;
        let total = rt.run(|ctx| ctx.reduce(0..n, 0u64, |_, i, acc| acc + i as u64, |a, b| a + b));
        assert_eq!(total, (n as u64 - 1) * n as u64 / 2, "{source:?}");
    }
}

#[test]
fn disabled_source_never_promotes() {
    let rt = rt(2, HeartbeatSource::Disabled, 50);
    let total = rt.run(|ctx| ctx.reduce(0..500_000, 0u64, |_, i, a| a + i as u64, |a, b| a + b));
    assert_eq!(total, 499_999u64 * 500_000 / 2);
    let stats = rt.stats();
    assert_eq!(stats.tasks_created, 0);
    assert_eq!(stats.promotions, 0);
}

#[test]
fn local_timer_promotes_long_loops() {
    let rt = rt(2, HeartbeatSource::LocalTimer, 100);
    rt.run(|ctx| opaque_sum(ctx, 4_000_000));
    let stats = rt.stats();
    assert!(
        stats.tasks_created > 0,
        "a multi-ms loop at ♥=100µs must promote: {stats:?}"
    );
    // Amortisation: at most one task per serviced heartbeat.
    assert!(stats.tasks_created <= stats.heartbeats_serviced.max(1));
}

#[test]
fn parallel_for_writes_all_slots() {
    let rt = rt(3, HeartbeatSource::LocalTimer, 80);
    let n = 300_000usize;
    let out: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
    rt.run(|ctx| {
        ctx.parallel_for(0..n, |_, i| {
            out[i].fetch_add(i + 1, Ordering::Relaxed);
        })
    });
    for (i, c) in out.iter().enumerate() {
        assert_eq!(c.load(Ordering::Relaxed), i + 1, "slot {i}");
    }
}

fn fib(ctx: &tpal_rt::WorkerCtx<'_>, n: u64) -> u64 {
    if n < 2 {
        return n;
    }
    let (a, b) = ctx.join2(|ctx| fib(ctx, n - 1), |ctx| fib(ctx, n - 2));
    a + b
}

#[test]
fn join2_fib_all_sources() {
    for source in [
        HeartbeatSource::Disabled,
        HeartbeatSource::LocalTimer,
        HeartbeatSource::PingThread,
        HeartbeatSource::TimerSignal,
    ] {
        let rt = rt(2, source, 60);
        let f = rt.run(|ctx| fib(ctx, 27));
        assert_eq!(f, 196_418, "{source:?}");
    }
}

#[test]
fn join2_serial_by_default() {
    // With heartbeats disabled, join2 must create zero tasks — the
    // "near zero-cost abstraction" property.
    let rt = rt(2, HeartbeatSource::Disabled, 60);
    let f = rt.run(|ctx| fib(ctx, 24));
    assert_eq!(f, 46_368);
    assert_eq!(rt.stats().tasks_created, 0);
}

#[test]
fn join2_promotes_under_heartbeat() {
    let rt = rt(2, HeartbeatSource::LocalTimer, 60);
    let f = rt.run(|ctx| fib(ctx, 29));
    assert_eq!(f, 514_229);
    let stats = rt.stats();
    assert!(stats.tasks_created > 0, "{stats:?}");
    assert!(stats.promotions == stats.tasks_created);
}

#[test]
fn nested_loops_and_forks_compose() {
    // join2 over two reduces, nested under another join2.
    let rt = rt(2, HeartbeatSource::LocalTimer, 60);
    let n = 200_000usize;
    let result = rt.run(|ctx| {
        let ((a, b), c) = ctx.join2(
            |ctx| {
                ctx.join2(
                    |ctx| ctx.reduce(0..n, 0u64, |_, i, s| s + i as u64, |a, b| a + b),
                    |ctx| ctx.reduce(0..n, 0u64, |_, i, s| s + 2 * i as u64, |a, b| a + b),
                )
            },
            |ctx| ctx.reduce(0..n, 0u64, |_, i, s| s + 3 * i as u64, |a, b| a + b),
        );
        a + b + c
    });
    let base = (n as u64 - 1) * n as u64 / 2;
    assert_eq!(result, base * 6);
}

#[test]
fn run_returns_values_and_can_rerun() {
    let rt = rt(2, HeartbeatSource::LocalTimer, 100);
    let a = rt.run(|_| 41);
    let b = rt.run(|_| a + 1);
    assert_eq!(b, 42);
}

#[test]
fn ping_thread_delivers_heartbeats() {
    let rt = rt(2, HeartbeatSource::PingThread, 100);
    // Busy work long enough (milliseconds) to see several beats.
    let x = rt.run(|ctx| {
        ctx.reduce(
            0..30_000_000usize,
            0u64,
            |_, i, a| a ^ (i as u64).wrapping_mul(0x9E3779B97F4A7C15),
            |a, b| a ^ b,
        )
    });
    std::hint::black_box(x);
    let stats = rt.stats();
    assert!(
        stats.heartbeats_delivered > 0,
        "ping thread should have delivered: {stats:?}"
    );
}

#[test]
fn stats_reset() {
    let rt = rt(2, HeartbeatSource::LocalTimer, 50);
    rt.run(|ctx| {
        ctx.reduce(
            0..1_000_000usize,
            0u64,
            |_, i, a| a + i as u64,
            |a, b| a + b,
        )
    });
    rt.reset_stats();
    let s = rt.stats();
    assert_eq!(s.tasks_created, 0);
    assert_eq!(s.heartbeats_delivered, 0);
}

#[test]
fn stats_reset_isolates_trials() {
    // Regression: a reset must clear per-worker delivery cells, not only
    // the shared counters. Run a workload, reset, run another — the
    // post-reset snapshot must reflect the second run alone. A reset that
    // skips `HeartbeatCell::delivered` fails here: the first run's
    // deliveries leak into the second snapshot, pushing `delivered` far
    // past what one trial plus the idle window in between can produce.
    let work = |rt: &Runtime, n: usize| {
        std::hint::black_box(rt.run(move |ctx| {
            ctx.reduce(
                0..n,
                0u64,
                |_, i, a| a ^ (i as u64).wrapping_mul(0x9E3779B97F4A7C15),
                |a, b| a ^ b,
            )
        }));
    };
    let rt = rt(2, HeartbeatSource::LocalTimer, 50);
    // Long first trial, short second: delivery counts scale with trial
    // length, so a snapshot contaminated by the first trial cannot stay
    // below the first trial's own count.
    work(&rt, 20_000_000);
    let first = rt.stats();
    assert!(first.heartbeats_delivered > 0, "{first:?}");

    rt.reset_stats();
    assert_eq!(
        rt.stats().heartbeats_delivered,
        0,
        "reset must zero delivery"
    );
    work(&rt, 1_000_000);
    let second = rt.stats();
    assert!(second.heartbeats_delivered > 0, "{second:?}");
    // A leaked first trial would make `second >= first`; a clean reset
    // leaves roughly a twentieth (plus a few idle-window expiries).
    assert!(
        second.heartbeats_delivered < first.heartbeats_delivered,
        "delivered {} after reset vs {} in the 20x longer first trial: first trial leaked",
        second.heartbeats_delivered,
        first.heartbeats_delivered
    );
}

#[test]
fn trace_records_scheduling_events() {
    // Tracing on: a promoting workload must leave delivered/serviced
    // events consistent with the counter snapshot, and tracing must
    // default to off (take_trace -> None).
    let rt = Runtime::new(
        RtConfig::default()
            .workers(2)
            .source(HeartbeatSource::LocalTimer)
            .heartbeat(Duration::from_micros(50))
            .trace(true),
    );
    rt.run(|ctx| opaque_sum(ctx, 3_000_000));
    let stats = rt.stats();
    let trace = rt.take_trace().expect("tracing was enabled");
    assert_eq!(trace.tracks.len(), 2);
    let report = tpal_trace::MetricsReport::from_trace(&trace);
    assert_eq!(report.heartbeats_serviced, stats.heartbeats_serviced);
    assert_eq!(report.tasks_created, stats.tasks_created);
    assert_eq!(report.promotions, stats.promotions);
    // Delivery events cover at least the beats the workers consumed
    // (counter and event are recorded at the same poll for LocalTimer;
    // idle-window expiries can add more on the counter read later).
    assert!(report.heartbeats_delivered > 0);
    // Chrome rendering of a runtime trace must validate like a sim one.
    let json = tpal_trace::chrome::chrome_json(&trace);
    tpal_trace::chrome::validate(&json).expect("runtime trace renders valid Chrome JSON");

    let untraced = crate::rt(2, HeartbeatSource::LocalTimer, 50);
    assert!(untraced.take_trace().is_none(), "tracing defaults to off");
}

#[test]
fn per_worker_stats_sum_to_aggregate() {
    // The sharded counters must be a partition, not a resample: the
    // field-wise sum of `per_worker_stats` equals `stats` exactly.
    let rt = rt(3, HeartbeatSource::LocalTimer, 50);
    rt.run(|ctx| opaque_sum(ctx, 4_000_000));

    let agg = rt.stats();
    let per = rt.per_worker_stats();
    assert_eq!(per.len(), 3);
    assert_eq!(
        per.iter().map(|s| s.promotions).sum::<u64>(),
        agg.promotions
    );
    assert_eq!(
        per.iter().map(|s| s.tasks_created).sum::<u64>(),
        agg.tasks_created
    );
    assert_eq!(per.iter().map(|s| s.steals).sum::<u64>(), agg.steals);
    assert_eq!(
        per.iter().map(|s| s.heartbeats_serviced).sum::<u64>(),
        agg.heartbeats_serviced
    );
    assert!(agg.tasks_created > 0, "workload should promote: {agg:?}");

    // Reset clears every shard.
    rt.reset_stats();
    for s in rt.per_worker_stats() {
        assert_eq!(s.tasks_created, 0);
        assert_eq!(s.steals, 0);
    }
}

#[test]
fn report_per_worker_totals_match_counters() {
    // MetricsReport's per-core steal/promotion tallies (derived from the
    // trace) must sum to the counter-shard totals for traced events.
    let rt = Runtime::new(
        RtConfig::default()
            .workers(2)
            .source(HeartbeatSource::LocalTimer)
            .heartbeat(Duration::from_micros(50))
            .trace(true),
    );
    let n = 4_000_000usize;
    let total = rt.run(|ctx| ctx.reduce(0..n, 0u64, |_, i, a| a + i as u64, |a, b| a + b));
    assert_eq!(total, (n as u64 - 1) * n as u64 / 2);
    let stats = rt.stats();
    let trace = rt.take_trace().expect("tracing enabled");
    let report = tpal_trace::MetricsReport::from_trace(&trace);
    assert_eq!(report.per_core_promotions.len(), 2);
    assert_eq!(
        report.per_core_promotions.iter().sum::<u64>(),
        stats.promotions
    );
    assert_eq!(report.per_core_steals.iter().sum::<u64>(), stats.steals);
}

#[test]
fn concurrent_external_submitters() {
    // Many external threads calling `run` concurrently hammer the
    // injector's lock, the result latch, and the eventcount wake
    // protocol at once. Every submission must complete with the right
    // answer, none lost, none doubled.
    let rt = std::sync::Arc::new(crate::rt(4, HeartbeatSource::LocalTimer, 50));
    let submitters = 6usize;
    let rounds = 40usize;
    let handles: Vec<_> = (0..submitters)
        .map(|t| {
            let rt = std::sync::Arc::clone(&rt);
            std::thread::spawn(move || {
                for r in 0..rounds {
                    let n = 10_000 + t * 1_000 + r;
                    let total = rt.run(move |ctx| {
                        ctx.reduce(0..n, 0u64, |_, i, a| a + i as u64, |a, b| a + b)
                    });
                    assert_eq!(total, (n as u64 - 1) * n as u64 / 2, "t{t} r{r}");
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
}

#[test]
fn many_workers_oversubscribed() {
    // More workers than cores (this machine has one): correctness must
    // not depend on real parallelism.
    let rt = rt(8, HeartbeatSource::LocalTimer, 50);
    let n = 1_000_000usize;
    let total = rt.run(|ctx| ctx.reduce(0..n, 0u64, |_, i, a| a + i as u64, |a, b| a + b));
    assert_eq!(total, (n as u64 - 1) * n as u64 / 2);
}

#[test]
fn poll_subsample_paces_beat_detection() {
    // The fork-point clock-poll subsample is a constant: under a fixed
    // stride a LocalTimer loop checks the deadline only every 32nd poll,
    // and that must still detect beats promptly — a multi-ms loop at
    // ♥ = 100µs services several of them, and the result is exact.
    let rt = Runtime::new(
        RtConfig::default()
            .workers(1)
            .source(HeartbeatSource::LocalTimer)
            .heartbeat(Duration::from_micros(100))
            .poll_adaptive(false),
    );
    let n = 8_000_000usize;
    let mix = |i: usize| (i as u64).wrapping_mul(0x9E3779B97F4A7C15);
    let total = rt.run(|ctx| ctx.reduce(0..n, 0u64, |_, i, a| a ^ mix(i), |a, b| a ^ b));
    assert_eq!(total, (0..n).fold(0, |a, i| a ^ mix(i)));
    let serviced = rt.stats().heartbeats_serviced;
    assert!(
        serviced > 0,
        "a multi-ms loop at ♥=100µs with the constant subsample must service beats"
    );
}

#[test]
fn pending_stage_survives_heartbeat_signals() {
    // A pipeline stage pending on a full channel while its worker takes
    // a per-worker timer signal every ♥ = 100µs: the sink spins ~30 ms
    // between pops, so hundreds of deliveries land while the feeder
    // waits. Under a broken handler installation the raw signal would
    // kill the process outright; a lost wake would end in `Deadlock`.
    let rt = rt(1, HeartbeatSource::TimerSignal, 100);
    let got = rt.run(|_| {
        let ch = Channel::with_capacity(1);
        let feed = async {
            for v in 1..=3 {
                ch.push(v).await.expect("channel open");
            }
            ch.close();
        };
        let sink = async {
            let mut got = Vec::new();
            while let Some(v) = ch.pop().await {
                spin_us(30_000);
                got.push(v);
            }
            got
        };
        run_stages(sink, vec![Box::pin(feed)])
    });
    assert_eq!(got, Ok(vec![1, 2, 3]));
}

#[test]
fn ping_thread_runtime_drops_quickly_with_large_heartbeat() {
    // ISSUE 8 regression: `ping_main` used to sleep a whole ♥ between
    // shutdown checks, so dropping a PingThread runtime with a large ♥
    // blocked for up to one full heartbeat period. With ♥ = 1s the drop
    // must still return in milliseconds (bounded by the ping thread's
    // shutdown-poll slice, not by ♥).
    let rt = rt(2, HeartbeatSource::PingThread, 1_000_000); // ♥ = 1s
    let n = 10_000usize;
    let total = rt.run(|ctx| ctx.reduce(0..n, 0u64, |_, i, a| a + i as u64, |a, b| a + b));
    assert_eq!(total, (n as u64 - 1) * n as u64 / 2);
    let t = std::time::Instant::now();
    drop(rt);
    let elapsed = t.elapsed();
    assert!(
        elapsed < Duration::from_millis(250),
        "PingThread runtime drop took {elapsed:?}; shutdown latency must \
         be bounded independent of ♥"
    );
}

// ---- Promotion order in loop nests (Appendix B.2: oldest mark first) ----

/// Busy-waits `us` microseconds: work with no poll point in it, as long
/// in a debug build as in a release one.
fn spin_us(us: u64) {
    let start = Instant::now();
    while start.elapsed() < Duration::from_micros(us) {
        std::hint::spin_loop();
    }
}

#[test]
fn nested_loops_promote_outermost_first() {
    // No clock anywhere: `eager` promotes at every poll whatever the
    // source says, the source is off, every block is one iteration and
    // the one worker runs its own tasks in a fixed order. So the run is
    // exact: each poll, an inner loop's included, must hand off *outer*
    // rows while the outer chunk has two or more unstarted, and only
    // then split the row it is in.
    const ROWS: usize = 64;
    const COLS: usize = 64;
    let rt = Runtime::new(
        RtConfig::default()
            .workers(1)
            .source(HeartbeatSource::Disabled)
            .promotion(Promotion::Eager)
            .poll_adaptive(false)
            .poll_stride(1),
    );
    // Set by a row's inner `merge`, which runs only if the row was split.
    let row_split: Vec<AtomicBool> = (0..ROWS).map(|_| AtomicBool::new(false)).collect();
    // The outer accumulator lists the rows of each chunk: every chunk
    // folds from a clone of the identity (one empty list), `merge`
    // concatenates.
    let chunks = rt.run(|ctx| {
        ctx.reduce(
            0..ROWS,
            vec![Vec::new()],
            |ctx, r, mut chunks: Vec<Vec<usize>>| {
                let sum = ctx.reduce(
                    0..COLS,
                    0usize,
                    |_, k, s| s + k,
                    |a, b| {
                        row_split[r].store(true, Ordering::Relaxed);
                        a + b
                    },
                );
                assert_eq!(sum, COLS * (COLS - 1) / 2);
                chunks.last_mut().unwrap().push(r);
                chunks
            },
            |mut a, mut b| {
                a.append(&mut b);
                a
            },
        )
    });
    let chunks: Vec<Vec<usize>> = chunks.into_iter().filter(|c| !c.is_empty()).collect();
    let mut rows: Vec<usize> = chunks.iter().flatten().copied().collect();
    rows.sort_unstable();
    assert_eq!(
        rows,
        (0..ROWS).collect::<Vec<_>>(),
        "every row exactly once"
    );
    for chunk in &chunks {
        assert!(chunk.windows(2).all(|w| w[1] == w[0] + 1), "{chunk:?}");
        let last = *chunk.last().unwrap();
        for &r in chunk {
            // A chunk only ever shrinks, so the rows after `r` in the
            // final chunk were all unstarted while row `r` ran.
            assert!(
                !row_split[r].load(Ordering::Relaxed) || last - r < 2,
                "row {r} was split with rows up to {last} of its chunk unstarted"
            );
        }
    }
    assert!(
        chunks.len() >= ROWS.ilog2() as usize,
        "{} chunks",
        chunks.len()
    );
    assert!(
        row_split.iter().any(|s| s.load(Ordering::Relaxed)),
        "no row was ever split: the order was not exercised"
    );
}

#[test]
fn latent_fork_is_promoted_before_the_loops_under_it() {
    // Oldest first across kinds: a join2 whose left branch is a loop
    // nest five beats long. The first beat must take the fork, so the
    // right branch — the first job the idle second worker can steal —
    // runs before any chunk of either loop has started anywhere. Were
    // loops promoted ahead of the older fork, the second worker would
    // be running split-off rows long before the fork's turn came.
    //
    // Clock-bound (a fork is only latent past its own fork point if
    // promotions wait for beats): it fails spuriously only if the idle
    // worker takes more than one 40 ms beat to steal and run the
    // promoted branch.
    const ROWS: usize = 32;
    const COLS: usize = 64;
    let rt = rt(2, HeartbeatSource::LocalTimer, 40_000);
    let loop_split = AtomicBool::new(false);
    let nest_done = AtomicBool::new(false);
    let seen_by_fork = Mutex::new(None);
    // Counts iterations; a chunk that starts from the identity anywhere
    // but at index 0 is a split-off one.
    let count = |first: usize, n: usize| {
        if n == 0 && first != 0 {
            loop_split.store(true, Ordering::Relaxed);
        }
        n + 1
    };
    rt.run(|ctx| {
        ctx.join2(
            |ctx| {
                let rows = ctx.reduce(
                    0..ROWS,
                    0usize,
                    |ctx, r, n| {
                        let cols = ctx.reduce(
                            0..COLS,
                            0usize,
                            |_, k, n| {
                                spin_us(100);
                                count(k, n)
                            },
                            |a, b| a + b,
                        );
                        assert_eq!(cols, COLS);
                        count(r, n)
                    },
                    |a, b| a + b,
                );
                assert_eq!(rows, ROWS);
                nest_done.store(true, Ordering::Relaxed);
            },
            |_| {
                let seen = (
                    loop_split.load(Ordering::Relaxed),
                    nest_done.load(Ordering::Relaxed),
                );
                *seen_by_fork.lock().unwrap() = Some(seen);
            },
        )
    });
    let (split_first, nest_first) = seen_by_fork.into_inner().unwrap().unwrap();
    assert!(
        !nest_first,
        "a five-beat nest never promoted the fork above it"
    );
    assert!(
        !split_first,
        "a loop was split while an older fork was latent"
    );
    assert!(
        loop_split.load(Ordering::Relaxed),
        "no loop was ever split: the order was not exercised"
    );
}

#[test]
fn inner_loops_do_not_pace_the_outer_loop() {
    // Pacer isolation. The first block of rows runs long, cheap inner
    // loops, whose sub-nanosecond iterations ramp *their* stride to tens
    // of thousands; the other rows are 2 us of plain work each, so from
    // there on the outer loop's block boundaries are the only poll
    // points. With one stride shared across the nest the outer loop
    // inherited the inner one, ran its remaining 10 000 rows as a
    // single block and serviced no beat in them.
    const LONG_ROWS: usize = 32;
    const ROWS: usize = LONG_ROWS + 10_000;
    let rt = rt(1, HeartbeatSource::LocalTimer, 100);
    let start = Instant::now();
    rt.run(|ctx| {
        ctx.parallel_for(0..ROWS, |ctx, r| {
            if r >= LONG_ROWS {
                return spin_us(2);
            }
            let x = ctx.reduce_blocks(
                0..70_000,
                0u64,
                |_, block, a| block.fold(a, |a, i| a ^ (i as u64).wrapping_mul(0x9E3779B97F4A7C15)),
                |a, b| a ^ b,
            );
            std::hint::black_box(x);
        })
    });
    let beats = start.elapsed().as_micros() as u64 / 100;
    let serviced = rt.stats().heartbeats_serviced;
    assert!(
        serviced * 4 >= beats,
        "serviced {serviced} of the ~{beats} beats of the nest"
    );
}

/// Row `r` of the stress nests: Zipf-long, so early rows are split
/// internally and late ones take the one-block path.
fn zipf_len(r: usize) -> usize {
    20_000 / (r + 1) + 1
}

/// `Σ_{k < len} (r + 1)(k + 1)`, in closed form.
fn row_sum(r: usize, len: usize) -> u64 {
    ((r + 1) * len * (len + 1) / 2) as u64
}

fn latent_row_sum(ctx: &WorkerCtx<'_>, r: usize, cols: std::ops::Range<usize>) -> u64 {
    let term = |_: &WorkerCtx<'_>, k, s| s + ((r + 1) * (k + 1)) as u64;
    ctx.reduce(cols, 0u64, term, |a, b| a + b)
}

#[test]
fn nest_shapes_hold_checksums_under_every_source() {
    // Loop-in-loop and loop-in-fork-in-loop, beats every 20 us so that
    // every level is promoted in every run: a lost, doubled or misplaced
    // iteration — an outer split racing a block in flight, a frame
    // promoted after its pop — shows in the sum.
    const ROWS: usize = 200;
    let expected: u64 = (0..ROWS).map(|r| row_sum(r, zipf_len(r))).sum();
    for source in [
        HeartbeatSource::LocalTimer,
        HeartbeatSource::PingThread,
        HeartbeatSource::TimerSignal,
    ] {
        for workers in 1..=4 {
            let rt = rt(workers, source, 20);
            for rep in 0..20 {
                let flat = rt.run(|ctx| {
                    ctx.reduce(
                        0..ROWS,
                        0u64,
                        |ctx, r, s| s + latent_row_sum(ctx, r, 0..zipf_len(r)),
                        |a, b| a + b,
                    )
                });
                assert_eq!(flat, expected, "loop-in-loop {source:?} w{workers} #{rep}");
                let forked = rt.run(|ctx| {
                    ctx.reduce(
                        0..ROWS,
                        0u64,
                        |ctx, r, s| {
                            let (len, mid) = (zipf_len(r), zipf_len(r) / 3);
                            let (a, b) = ctx.join2(
                                |ctx| latent_row_sum(ctx, r, 0..mid),
                                |ctx| latent_row_sum(ctx, r, mid..len),
                            );
                            s + a + b
                        },
                        |a, b| a + b,
                    )
                });
                assert_eq!(
                    forked, expected,
                    "loop-in-fork-in-loop {source:?} w{workers} #{rep}"
                );
            }
        }
    }
}
