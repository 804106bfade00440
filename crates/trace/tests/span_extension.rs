//! `TraceBuilder` extends a track's last span in place when the next
//! one continues it. That must be invisible to every consumer: for any
//! recording, the extended trace and the same spans kept apart give the
//! same metrics report, the same work/span profile, and the same
//! activity on every cycle of every track.

use std::collections::BTreeMap;

use proptest::prelude::*;
use tpal_trace::{
    EventKind, MetricsReport, OverheadKind, Trace, TraceBuilder, TraceEvent, Track, WorkSpanProfile,
};

const TRACKS: usize = 3;

/// One generated record: where, what, and how far after the track's
/// previous span it starts (0 = exactly where that one ended).
type Op = (usize, u8, u64, u64, u64);

/// Turns generated ops into `(track, ts, dur, kind)` records. A task
/// lives on one track (ids `4·track ..`), as in a real run, where a task
/// occupies one core at a time — the premise of in-place extension.
fn records(ops: &[Op]) -> Vec<(usize, u64, u64, EventKind)> {
    let mut cursor = [0u64; TRACKS];
    let mut out = Vec::new();
    for &(track, what, a, b, gap) in ops {
        let own = |k: u64| 4 * track as u64 + k % 4;
        let task = own(a);
        let ts = cursor[track] + gap;
        let (dur, kind) = match what {
            0..=3 => (b, EventKind::Work { task: own(a % 2) }),
            4 | 5 => {
                let retries = a % 3;
                let cost = if b % 2 == 0 { 50 } else { 7 };
                (
                    if retries == 0 { 1 } else { retries * cost },
                    EventKind::Idle { retries },
                )
            }
            6 => (
                b,
                EventKind::Overhead {
                    what: OverheadKind::Fork,
                },
            ),
            _ => (
                0,
                match b % 8 {
                    0 => EventKind::TaskSpawn {
                        parent: task,
                        child: own(a + 1),
                    },
                    1 => EventKind::JoinStash {
                        task,
                        node: (a % 2) as u32,
                    },
                    2 => EventKind::JoinMerge {
                        task,
                        node: (a % 2) as u32,
                        merged: own(a + 2),
                    },
                    3 => EventKind::JoinContinue {
                        task,
                        resumed: own(a + 3),
                    },
                    4 => EventKind::ChanPush {
                        ch: (a % 2) as u32,
                        task,
                    },
                    5 => EventKind::ChanPop {
                        ch: (a % 2) as u32,
                        task,
                    },
                    6 => EventKind::TaskEnd { task },
                    _ => EventKind::HeartbeatDelivered,
                },
            ),
        };
        cursor[track] = ts + dur;
        out.push((track, ts, dur, kind));
    }
    out
}

/// What each covered cycle of each track was spent on.
fn coverage(trace: &Trace) -> Vec<BTreeMap<u64, String>> {
    trace
        .tracks
        .iter()
        .map(|track| {
            let mut cycles = BTreeMap::new();
            for e in &track.events {
                let class = match e.kind {
                    EventKind::Work { task } => format!("work {task}"),
                    EventKind::Idle { .. } => "idle".to_owned(),
                    EventKind::Overhead { .. } => "overhead".to_owned(),
                    _ => continue,
                };
                for t in e.ts..e.ts + e.dur {
                    cycles.insert(t, class.clone());
                }
            }
            cycles
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn in_place_extension_is_invisible_to_consumers(
        ops in proptest::collection::vec(
            (
                0usize..TRACKS,
                0u8..9,
                0u64..8,
                1u64..30,
                proptest::sample::select(&[0u64, 0, 0, 1, 9][..]),
            ),
            0..120,
        ),
    ) {
        let records = records(&ops);
        let mut builder = TraceBuilder::new(TRACKS, "cycles", 10);
        let mut apart: Vec<Vec<TraceEvent>> = vec![Vec::new(); TRACKS];
        for (seq, &(track, ts, dur, kind)) in records.iter().enumerate() {
            builder.record(track, ts, dur, kind);
            apart[track].push(TraceEvent { seq: seq as u64, ts, dur, kind });
        }
        let extended = builder.finish();
        let apart = Trace {
            tracks: apart
                .into_iter()
                .enumerate()
                .map(|(i, events)| Track { name: format!("core {i}"), events })
                .collect(),
            ..extended.clone()
        };

        prop_assert!(extended.len() <= apart.len());
        prop_assert_eq!(MetricsReport::from_trace(&extended), MetricsReport::from_trace(&apart));
        prop_assert_eq!(
            WorkSpanProfile::from_trace(&extended),
            WorkSpanProfile::from_trace(&apart)
        );
        prop_assert_eq!(coverage(&extended), coverage(&apart));
        // Spans are maximal: no task's work is left in two touching pieces.
        for track in &extended.tracks {
            for w in track.events.windows(2) {
                if let (EventKind::Work { task: a }, EventKind::Work { task: b }) =
                    (w[0].kind, w[1].kind)
                {
                    prop_assert!(a != b || w[0].ts + w[0].dur != w[1].ts, "{:?}", w);
                }
            }
        }
    }
}
