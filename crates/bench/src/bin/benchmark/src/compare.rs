//! `benchmark compare A.json B.json`: per (metric, workload), both
//! medians, the ratio with its base, the bound, and a verdict.
//!
//! * `ok` — B's median is no worse than A's by more than the bound;
//! * `worse` — it is;
//! * `unresolved` — the run-to-run spread (the wider interquartile
//!   distance of the two sides, over A's median) exceeds the bound, so
//!   neither can be said;
//! * `differs` — an exact-valued count changed (same seeds assumed).
//!
//! A difference smaller than A's own interquartile distance is never
//! called a change: the note column says `within A/A spread`.

use std::process::ExitCode;

use crate::registry::{Better, END_TO_END, PER_LAYER, WORKLOADS};
use crate::report::Results;
use crate::stats::{ratio, Summary};

#[derive(Debug, PartialEq, Eq, Clone, Copy)]
pub enum Verdict {
    Ok,
    Worse,
    Unresolved,
}

/// The rule, on two summaries of the same (metric, workload).
pub fn verdict(a: Summary, b: Summary, better: Better, bound: f64) -> (Verdict, bool) {
    let spread = ratio((a.q3 - a.q1).max(b.q3 - b.q1), a.median.abs());
    let worse_by = match better {
        Better::Lower => ratio(b.median - a.median, a.median.abs()),
        Better::Higher => ratio(a.median - b.median, a.median.abs()),
    };
    let within_noise = (b.median - a.median).abs() <= a.q3 - a.q1;
    let verdict = if spread > bound {
        Verdict::Unresolved
    } else if worse_by > bound {
        Verdict::Worse
    } else {
        Verdict::Ok
    };
    (verdict, within_noise)
}

pub fn compare(a: &Results, b: &Results) -> ExitCode {
    println!("A = {} ({} runs)", a.path, a.runs.len());
    println!("B = {} ({} runs)", b.path, b.runs.len());
    println!(
        "{:<14} {:<16} {:>14} {:>14} {:>9} {:>6}  verdict",
        "workload", "metric", "A median", "B median", "B/A", "bound"
    );
    let mut worse = 0;
    let mut unresolved = 0;
    for w in &WORKLOADS {
        for m in &END_TO_END {
            let (sa, sb) = (a.summary(w.name, m.name), b.summary(w.name, m.name));
            if sa.n == 0 || sb.n == 0 {
                continue;
            }
            let (v, within_noise) = verdict(sa, sb, m.better, m.bound);
            worse += usize::from(v == Verdict::Worse);
            unresolved += usize::from(v == Verdict::Unresolved);
            println!(
                "{:<14} {:<16} {:>14.4} {:>14.4} {:>8.4}x {:>6}  {}{}",
                w.name,
                m.name,
                sa.median,
                sb.median,
                ratio(sb.median, sa.median),
                m.bound,
                match v {
                    Verdict::Ok => "ok",
                    Verdict::Worse => "worse",
                    Verdict::Unresolved => "unresolved",
                },
                if within_noise && sa.n > 1 {
                    " (within A/A spread: not a change)"
                } else if sa.n == 1 {
                    " (n=1: no spread known)"
                } else {
                    ""
                }
            );
        }
    }
    // Exact-valued per-layer counts must be identical on equal seeds.
    let mut differs = 0;
    for w in &WORKLOADS {
        for m in PER_LAYER.iter().filter(|m| m.exact) {
            let (mut va, mut vb) = (a.values(w.name, m.name), b.values(w.name, m.name));
            va.sort_by(f64::total_cmp);
            vb.sort_by(f64::total_cmp);
            if !va.is_empty() && !vb.is_empty() && va != vb {
                differs += 1;
                println!("{:<14} {:<32} differs: {va:?} vs {vb:?}", w.name, m.name);
            }
        }
    }
    let failed = |r: &Results| r.runs.iter().map(|run| run.failed).sum::<u64>();
    println!(
        "{worse} worse, {unresolved} unresolved, {differs} exact counts differ; \
         failed ops: A {} B {}",
        failed(a),
        failed(b)
    );
    if worse == 0 && differs == 0 && failed(b) <= failed(a) {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(median: f64, q1: f64, q3: f64) -> Summary {
        Summary {
            n: 10,
            median,
            q1,
            q3,
        }
    }

    #[test]
    fn the_rule_separates_ok_worse_and_unresolved() {
        let a = s(100.0, 99.0, 101.0);
        assert_eq!(
            verdict(a, s(105.0, 104.0, 106.0), Better::Lower, 0.1).0,
            Verdict::Ok
        );
        assert_eq!(
            verdict(a, s(115.0, 114.0, 116.0), Better::Lower, 0.1).0,
            Verdict::Worse
        );
        assert_eq!(
            verdict(a, s(115.0, 114.0, 116.0), Better::Higher, 0.1).0,
            Verdict::Ok
        );
        assert_eq!(
            verdict(a, s(85.0, 84.0, 86.0), Better::Higher, 0.1).0,
            Verdict::Worse
        );
        // Spread wider than the bound: neither better nor worse.
        assert_eq!(
            verdict(
                s(100.0, 90.0, 110.0),
                s(130.0, 120.0, 140.0),
                Better::Lower,
                0.1
            )
            .0,
            Verdict::Unresolved
        );
    }

    #[test]
    fn a_difference_inside_the_quartile_distance_is_not_a_change() {
        let a = s(100.0, 98.0, 102.0);
        assert!(verdict(a, s(103.0, 101.0, 105.0), Better::Lower, 0.1).1);
        assert!(!verdict(a, s(106.0, 104.0, 108.0), Better::Lower, 0.1).1);
    }
}
