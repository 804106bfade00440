//! The simulated figures, checked: the Quick table is pinned by a golden
//! file, EXPERIMENTS.md quotes every figure rendered from it, and each of
//! the paper's shape claims is a test named after it.
//!
//! A deliberate change to the simulator, the lowering or a workload
//! re-blesses the golden file by replacing it with the table
//! `quick_table_matches_golden` prints when it fails, and EXPERIMENTS.md
//! with the output of `cargo bench -p tpal-bench --bench figures`.

use std::sync::OnceLock;

use tpal_bench::figures::{tuned, Figure, Table};
use tpal_workloads::{all_workloads, Scale};

struct Quick {
    table: Table,
    figures: Vec<Figure>,
}

fn quick() -> &'static Quick {
    static QUICK: OnceLock<Quick> = OnceLock::new();
    QUICK.get_or_init(|| {
        let table = Table::simulate(Scale::Quick);
        let figures = table.figures();
        Quick { table, figures }
    })
}

/// The figure whose title starts with `title`.
fn fig(title: &str) -> &'static Figure {
    let found = quick().figures.iter().find(|f| f.title.starts_with(title));
    found.unwrap_or_else(|| panic!("no figure {title}"))
}

/// The paper's twelve workloads (the streaming three are ours).
fn paper() -> Vec<&'static str> {
    let paper = all_workloads().into_iter().filter(|w| !w.is_streaming());
    paper.map(|w| w.name()).collect()
}

#[test]
fn quick_table_matches_golden() {
    let actual = quick().table.golden();
    let golden = include_str!("figures_quick.txt");
    if actual != golden {
        let differing = actual
            .lines()
            .zip(golden.lines())
            .find(|(a, g)| a != g)
            .map(|(a, g)| format!("first differing row:\n  actual {a}\n  golden {g}"))
            .unwrap_or_else(|| "the tables differ in length".to_owned());
        panic!("{differing}\n--- the whole actual table ---\n{actual}--- end ---");
    }
}

#[test]
fn experiments_md_quotes_the_quick_table() {
    let doc = include_str!("../../../EXPERIMENTS.md");
    for f in &quick().figures {
        assert!(
            doc.contains(&f.text),
            "EXPERIMENTS.md does not quote {:?} as rendered:\n{}",
            f.title,
            f.text
        );
    }
}

#[test]
fn group_geomeans_cover_the_papers_twelve_only() {
    for id in ["Figure 7:", "Figure 14"] {
        let f = fig(id);
        assert_eq!(
            (f.group(false).count(), f.group(true).count()),
            (9, 3),
            "{id}"
        );
        assert_eq!(f.rows.len(), 15, "{id}: the streaming rows are shown");
    }
}

#[test]
fn fig07_tpal_beats_cilk_in_both_groups() {
    let f = fig("Figure 7:");
    for recursive in [false, true] {
        let (cilk, tpal) = (
            f.group_geomean("cilk x", recursive),
            f.group_geomean("tpal x", recursive),
        );
        assert!(
            tpal > cilk,
            "recursive={recursive}: tpal {tpal:.2} <= cilk {cilk:.2}"
        );
    }
    let ratio = f.group_geomean("tpal x", true) / f.group_geomean("cilk x", true);
    assert!(ratio >= 2.0, "recursive tpal/cilk {ratio:.2} < 2");
}

#[test]
fn fig07_cilk_knapsack_is_below_serial() {
    let x = fig("Figure 7:").get("knapsack", "cilk x");
    assert!(x < 1.0, "cilk knapsack {x:.2}x");
}

#[test]
fn fig07_tpal_wins_the_irregular_matrices() {
    let f = fig("Figure 7:");
    for (w, at_least) in [("spmv-powerlaw", 2.0), ("spmv-arrowhead", 1.5)] {
        let ratio = f.get(w, "tpal x") / f.get(w, "cilk x");
        assert!(ratio >= at_least, "{w}: tpal/cilk {ratio:.2} < {at_least}");
    }
}

#[test]
fn fig10_ping_chain_misses_the_aggressive_beat() {
    let f = fig("Figure 10");
    for w in paper() {
        let rate = f.get(w, "linux 600 rate");
        assert!(rate < 50.0, "{w}: linux at ♥ = 600 reaches {rate:.0}%");
    }
}

#[test]
fn fig10_per_core_timers_meet_both_beats() {
    let f = fig("Figure 10");
    for w in paper().into_iter().filter(|w| *w != "knapsack") {
        for col in ["naut 3000 rate", "naut 600 rate"] {
            let rate = f.get(w, col);
            assert!(rate >= 95.0, "{w}: {col} reaches {rate:.0}%");
        }
    }
}

/// The workloads whose curve (five core counts, `prefix` 1..15) falls
/// somewhere, each with its last point over its peak.
fn falling_curves(prefix: &str) -> Vec<(&'static str, f64)> {
    let f = fig("Figure 11");
    let mut falling = Vec::new();
    for w in paper() {
        let curve: Vec<f64> = [1, 2, 4, 8, 15]
            .iter()
            .map(|p| f.get(w, &format!("{prefix} {p} x")))
            .collect();
        if curve.windows(2).any(|p| p[1] < p[0]) {
            let peak = curve.iter().cloned().fold(0.0, f64::max);
            falling.push((w, curve[4] / peak));
        }
    }
    falling
}

#[test]
fn fig11_cilk_curves_rise() {
    assert_eq!(falling_curves("cilk"), []);
}

#[test]
fn fig11_tpal_curves_rise_except_starved_inputs() {
    let falling = falling_curves("tpal");
    let names: Vec<&str> = falling.iter().map(|(w, _)| *w).collect();
    assert_eq!(names, ["floyd-warshall-small", "knapsack"]);
    for (w, of_peak) in falling {
        assert!(
            of_peak >= 0.95,
            "{w}: ends at {:.1}% of its peak",
            of_peak * 100.0
        );
    }
}

#[test]
fn fig14_nautilus_ge_linux_gt_cilk_in_both_groups() {
    let f = fig("Figure 14");
    for recursive in [false, true] {
        let g = |c| f.group_geomean(c, recursive);
        let (cilk, linux, naut) = (g("cilk x"), g("linux x"), g("naut x"));
        assert!(
            naut >= linux && linux > cilk,
            "recursive={recursive}: {cilk:.2} {linux:.2} {naut:.2}"
        );
    }
    assert!(f.get("mandelbrot", "naut x") >= f.get("mandelbrot", "linux x"));
}

#[test]
fn fig15_tpal_creates_10x_fewer_tasks_on_recursion() {
    let f = fig("Figure 15");
    for w in ["mergesort-uniform", "mergesort-exp", "knapsack"] {
        let ratio = f.get(w, "cilk tasks") / f.get(w, "tpal tasks");
        assert!(ratio >= 10.0, "{w}: cilk/tpal tasks {ratio:.1}");
    }
}

#[test]
fn fig15_cilk_knapsack_is_busier_yet_slower() {
    let f = fig("Figure 15");
    let g = |c| f.get("knapsack", c);
    assert!(
        g("cilk util") > g("tpal util"),
        "{} <= {}",
        g("cilk util"),
        g("tpal util")
    );
    assert!(
        g("cilk x") < g("tpal x"),
        "{} >= {}",
        g("cilk x"),
        g("tpal x")
    );
}

#[test]
fn tuner_overhead_falls_speedup_is_unimodal_knee_in_3000_to_6000() {
    let f = fig("Heartbeat tuner");
    let col = |c| {
        f.rows
            .iter()
            .map(|(r, _)| f.get(r, c))
            .collect::<Vec<f64>>()
    };
    let overhead = col("1-core ovh");
    assert!(overhead.windows(2).all(|p| p[1] <= p[0]), "{overhead:?}");
    let speedup = col("15-core x");
    let peak = speedup
        .iter()
        .cloned()
        .enumerate()
        .fold((0, 0.0), |b, (i, x)| if x > b.1 { (i, x) } else { b })
        .0;
    assert!(
        speedup[..=peak].windows(2).all(|p| p[1] >= p[0]),
        "{speedup:?}"
    );
    assert!(
        speedup[peak..].windows(2).all(|p| p[1] <= p[0]),
        "{speedup:?}"
    );
    assert_eq!(tuned(f), "♥ = 6000");
}

#[test]
fn ablation_block_style_expanded_serial_path_is_serial() {
    let f = fig("Ablation (§D.5)");
    assert_eq!(f.get("expanded", "instrs"), f.get("serial", "instrs"));
    assert_eq!(
        f.get("reduced", "instrs") - f.get("expanded", "instrs"),
        2.0 * 2_000.0
    );
    assert_eq!(
        f.get("reduced", "powerlaw x"),
        f.get("expanded", "powerlaw x")
    );
}

#[test]
fn ablation_promotion_order_outermost_never_loses() {
    let f = fig("Ablation (§2.3)");
    for w in ["plus-reduce-array", "spmv-powerlaw", "mandelbrot"] {
        assert_eq!(f.get(w, "old x"), f.get(w, "new x"), "{w}");
    }
    for w in ["mergesort-uniform", "knapsack"] {
        assert!(f.get(w, "old x") > f.get(w, "new x"), "{w}");
    }
}

#[test]
fn ablation_cilk_grain_best_grain_depends_on_input() {
    let f = fig("Ablation (§4.3)");
    let best = |w: &str| {
        let p = [1, 4, 15, 60, 240]
            .into_iter()
            .map(|p| (p, f.get(&format!("{w} P={p}"), "speed-up x")));
        p.fold((0, 0.0), |b, (p, x)| if x > b.1 { (p, x) } else { b })
            .0
    };
    assert_eq!(best("floyd-warshall-small"), 1);
    assert_eq!(best("floyd-warshall-large"), 4);
}

#[test]
fn ablation_delivery_rate_falls_once_cores_times_latency_exceeds_beat() {
    let f = fig("Ablation (§5)");
    let rates: Vec<(u64, f64)> = [5, 20, 60, 110, 200, 400]
        .into_iter()
        .map(|l| (l, f.get(&format!("latency {l}"), "rate")))
        .collect();
    for (l, rate) in &rates {
        if 15 * l <= 600 {
            assert!(*rate >= 99.5, "latency {l}: {rate:.1}%");
        }
    }
    let late: Vec<f64> = rates
        .iter()
        .filter(|(l, _)| 15 * l > 600)
        .map(|r| r.1)
        .collect();
    assert!(late.windows(2).all(|p| p[1] <= p[0]), "{rates:?}");
}
