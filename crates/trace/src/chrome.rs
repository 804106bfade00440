//! Chrome `trace_event` JSON backend.
//!
//! Renders a [`Trace`] in the [Trace Event Format] (JSON object form,
//! `{"traceEvents": [...]}`), loadable in `chrome://tracing` or
//! Perfetto. Each core/worker becomes one thread track of a single
//! process: a `"M"` metadata event names the track, `"X"` complete
//! events carry the activity spans (work / overhead / idle), and `"i"`
//! instant events carry the task-lifecycle markers.
//!
//! [Trace Event Format]:
//! https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU
//!
//! Timestamps are nominally microseconds in the format; we map one time
//! unit (cycle/tick) to one microsecond, which only rescales the ruler.
//! [`validate`] re-parses rendered output and checks the invariants CI
//! relies on: a well-formed document, required keys per event, and
//! per-track monotone timestamps.

use std::fmt::Write as _;

use crate::event::{EventKind, Trace, TraceEvent};
use crate::json::{self, Json};

/// The process id all tracks share.
const PID: u64 = 1;

fn instant_name(kind: &EventKind) -> Option<&'static str> {
    Some(match kind {
        EventKind::TaskSpawn { .. } => "spawn",
        EventKind::TaskPromote { .. } => "promote",
        EventKind::HeartbeatDelivered => "hb-delivered",
        EventKind::HeartbeatServiced => "hb-serviced",
        EventKind::Steal { .. } => "steal-in",
        EventKind::JoinStash { .. } => "join-stash",
        EventKind::JoinMerge { .. } => "join-merge",
        EventKind::JoinContinue { .. } => "join-continue",
        EventKind::TaskEnd { .. } => "halt",
        EventKind::TaskDetach { .. } => "detach",
        EventKind::ChanPush { .. } => "chan-push",
        EventKind::ChanPop { .. } => "chan-pop",
        EventKind::ChanClose { .. } => "chan-close",
        EventKind::ChanBlock { .. } => "chan-block",
        EventKind::ChanResume { .. } => "chan-wake",
        EventKind::Work { .. } | EventKind::Overhead { .. } | EventKind::Idle { .. } => {
            return None
        }
    })
}

fn push_args(out: &mut String, kind: &EventKind) {
    match kind {
        EventKind::Work { task } => {
            let _ = write!(out, r#","args":{{"task":{task}}}"#);
        }
        EventKind::TaskSpawn { parent, child } => {
            let _ = write!(out, r#","args":{{"parent":{parent},"child":{child}}}"#);
        }
        EventKind::TaskPromote { task } | EventKind::TaskEnd { task } => {
            let _ = write!(out, r#","args":{{"task":{task}}}"#);
        }
        EventKind::Steal { victim } => {
            let _ = write!(out, r#","args":{{"victim":{victim}}}"#);
        }
        EventKind::JoinStash { task, node } => {
            let _ = write!(out, r#","args":{{"task":{task},"node":{node}}}"#);
        }
        EventKind::JoinMerge { task, node, merged } => {
            let _ = write!(
                out,
                r#","args":{{"task":{task},"node":{node},"merged":{merged}}}"#
            );
        }
        EventKind::JoinContinue { task, resumed } => {
            let _ = write!(out, r#","args":{{"task":{task},"resumed":{resumed}}}"#);
        }
        EventKind::TaskDetach { parent, child } => {
            let _ = write!(out, r#","args":{{"parent":{parent},"child":{child}}}"#);
        }
        EventKind::ChanPush { ch, task }
        | EventKind::ChanPop { ch, task }
        | EventKind::ChanClose { ch, task }
        | EventKind::ChanResume { ch, task } => {
            let _ = write!(out, r#","args":{{"ch":{ch},"task":{task}}}"#);
        }
        EventKind::ChanBlock { ch, task, push } => {
            let _ = write!(out, r#","args":{{"ch":{ch},"task":{task},"push":{push}}}"#);
        }
        EventKind::Idle { retries } => {
            let _ = write!(out, r#","args":{{"retries":{retries}}}"#);
        }
        EventKind::Overhead { .. }
        | EventKind::HeartbeatDelivered
        | EventKind::HeartbeatServiced => {}
    }
}

fn push_event(out: &mut String, tid: u64, e: &TraceEvent) {
    match &e.kind {
        EventKind::Work { .. } => {
            let _ = write!(
                out,
                r#"{{"name":"work","ph":"X","pid":{PID},"tid":{tid},"ts":{},"dur":{}"#,
                e.ts, e.dur
            );
        }
        EventKind::Overhead { what } => {
            let _ = write!(
                out,
                r#"{{"name":"{}","ph":"X","pid":{PID},"tid":{tid},"ts":{},"dur":{}"#,
                what.label(),
                e.ts,
                e.dur
            );
        }
        EventKind::Idle { .. } => {
            let _ = write!(
                out,
                r#"{{"name":"idle","ph":"X","pid":{PID},"tid":{tid},"ts":{},"dur":{}"#,
                e.ts, e.dur
            );
        }
        kind => {
            let name = instant_name(kind).expect("span kinds handled above");
            let _ = write!(
                out,
                r#"{{"name":"{name}","ph":"i","s":"t","pid":{PID},"tid":{tid},"ts":{}"#,
                e.ts
            );
        }
    }
    push_args(out, &e.kind);
    out.push('}');
}

/// Renders `trace` as a Chrome `trace_event` JSON document.
///
/// The viewer expects monotone `ts` per thread track. Record order
/// already is, on every track the simulator records and on a runtime
/// track with one producer, so those are written straight through; a
/// track that is not (concurrent producers stamping one runtime track)
/// is sorted by timestamp first, stably, so same-tick events keep their
/// causal sequence order.
pub fn chrome_json(trace: &Trace) -> String {
    let mut out = String::with_capacity(64 + trace.len() * 96);
    out.push_str("{\"traceEvents\":[");
    let mut first = true;
    let mut sep = |out: &mut String| {
        if first {
            first = false;
        } else {
            out.push_str(",\n");
        }
    };
    for (tid, track) in trace.tracks.iter().enumerate() {
        let tid = tid as u64;
        sep(&mut out);
        let _ = write!(
            out,
            r#"{{"name":"thread_name","ph":"M","pid":{PID},"tid":{tid},"args":{{"name":"{}"}}}}"#,
            json::escape(&track.name)
        );
        // After its track's metadata record, so never the first.
        let mut emit = |e: &TraceEvent| {
            out.push_str(",\n");
            push_event(&mut out, tid, e);
        };
        if track.events.is_sorted_by_key(|e| e.ts) {
            track.events.iter().for_each(&mut emit);
        } else {
            let mut events: Vec<&TraceEvent> = track.events.iter().collect();
            events.sort_by_key(|e| (e.ts, e.seq));
            events.into_iter().for_each(&mut emit);
        }
    }
    let _ = write!(
        out,
        "],\n\"displayTimeUnit\":\"ns\",\"otherData\":{{\"timeUnit\":\"{}\",\"heartbeat\":{},\"policy\":\"{}\",\"source\":\"{}\"}}}}",
        json::escape(trace.time_unit),
        trace.heartbeat,
        json::escape(&trace.policy),
        json::escape(&trace.source)
    );
    out
}

fn event_f64(e: &Json, key: &str, i: usize) -> Result<f64, String> {
    e.get(key)
        .and_then(Json::as_num)
        .ok_or_else(|| format!("event {i}: missing or non-numeric \"{key}\""))
}

/// Validates a rendered Chrome trace document.
///
/// Checks that the text parses as JSON, has a `traceEvents` array, that
/// every event carries the keys its phase requires (`name`, `ph`,
/// `pid`, `tid`, `ts` — plus `dur` for `"X"`), that phases are ones we
/// emit, that channel instants (`chan-push`, `chan-pop`, `chan-close`,
/// `chan-block`, `chan-wake`) carry a numeric `args.ch` (plus a boolean
/// `args.push` for `chan-block`), and that within each `(pid, tid)`
/// track the non-metadata timestamps are monotonically non-decreasing.
/// Returns the number of events checked.
pub fn validate(text: &str) -> Result<usize, String> {
    let doc = json::parse(text)?;
    let events = doc
        .get("traceEvents")
        .and_then(Json::as_arr)
        .ok_or("missing \"traceEvents\" array")?;
    // (pid, tid) -> last seen ts.
    let mut last_ts: std::collections::BTreeMap<(u64, u64), f64> = Default::default();
    for (i, e) in events.iter().enumerate() {
        let ph = e
            .get("ph")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("event {i}: missing \"ph\""))?;
        let name = e
            .get("name")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("event {i}: missing \"name\""))?;
        if let "chan-push" | "chan-pop" | "chan-close" | "chan-block" | "chan-wake" = name {
            let args = e
                .get("args")
                .ok_or_else(|| format!("event {i}: channel instant missing \"args\""))?;
            args.get("ch")
                .and_then(Json::as_num)
                .ok_or_else(|| format!("event {i}: {name} missing numeric \"args.ch\""))?;
            if name == "chan-block" {
                args.get("push")
                    .and_then(Json::as_bool)
                    .ok_or_else(|| format!("event {i}: chan-block missing bool \"args.push\""))?;
            }
        }
        let pid = event_f64(e, "pid", i)? as u64;
        let tid = event_f64(e, "tid", i)? as u64;
        match ph {
            "M" => continue,
            "X" => {
                event_f64(e, "dur", i)?;
            }
            "i" => {
                e.get("s")
                    .and_then(Json::as_str)
                    .ok_or_else(|| format!("event {i}: instant missing scope \"s\""))?;
            }
            other => return Err(format!("event {i}: unexpected phase {other:?}")),
        }
        let ts = event_f64(e, "ts", i)?;
        let slot = last_ts.entry((pid, tid)).or_insert(f64::NEG_INFINITY);
        if ts < *slot {
            return Err(format!(
                "event {i}: ts {ts} < previous {} on track ({pid},{tid}) — not monotone",
                *slot
            ));
        }
        *slot = ts;
    }
    Ok(events.len())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{OverheadKind, TraceBuilder};

    fn sample() -> Trace {
        let mut b = TraceBuilder::new(2, "cycles", 100);
        b.record(0, 0, 10, EventKind::Work { task: 0 });
        b.record(
            0,
            10,
            0,
            EventKind::TaskSpawn {
                parent: 0,
                child: 1,
            },
        );
        b.record(
            0,
            10,
            2,
            EventKind::Overhead {
                what: OverheadKind::Fork,
            },
        );
        b.record(1, 12, 0, EventKind::Steal { victim: 0 });
        // Recorded after a later event on its own track (as racing
        // runtime producers can): the renderer must sort it into place.
        b.record(1, 0, 12, EventKind::Idle { retries: 3 });
        b.record(1, 12, 5, EventKind::Work { task: 1 });
        b.record(0, 20, 0, EventKind::TaskEnd { task: 0 });
        b.finish()
    }

    #[test]
    fn rendered_trace_validates() {
        let text = chrome_json(&sample());
        let n = validate(&text).expect("should validate");
        // 7 events + 2 thread_name metadata records.
        assert_eq!(n, 9);
        assert!(
            text.contains(
                r#""name":"idle","ph":"X","pid":1,"tid":1,"ts":0,"dur":12,"args":{"retries":3}"#
            ),
            "idle spans carry their retry count: {text}"
        );
    }

    #[test]
    fn rendered_trace_is_sorted_per_track() {
        let doc = json::parse(&chrome_json(&sample())).unwrap();
        let events = doc.get("traceEvents").unwrap().as_arr().unwrap();
        // Track 1's idle (ts 0) must precede its steal-in (ts 12).
        let track1: Vec<&str> = events
            .iter()
            .filter(|e| {
                e.get("tid").unwrap().as_num() == Some(1.0)
                    && e.get("ph").unwrap().as_str() != Some("M")
            })
            .map(|e| e.get("name").unwrap().as_str().unwrap())
            .collect();
        assert_eq!(track1, ["idle", "steal-in", "work"]);
    }

    #[test]
    fn validator_rejects_non_monotone_ts() {
        let bad = r#"{"traceEvents":[
            {"name":"work","ph":"X","pid":1,"tid":0,"ts":10,"dur":1},
            {"name":"work","ph":"X","pid":1,"tid":0,"ts":5,"dur":1}]}"#;
        let err = validate(bad).unwrap_err();
        assert!(err.contains("not monotone"), "{err}");
    }

    #[test]
    fn validator_rejects_missing_keys_and_bad_phase() {
        assert!(validate(r#"{"traceEvents":[{"ph":"X"}]}"#).is_err());
        assert!(
            validate(r#"{"traceEvents":[{"name":"x","ph":"B","pid":1,"tid":0,"ts":0}]}"#).is_err()
        );
        assert!(validate(r#"{"notTraceEvents":[]}"#).is_err());
        assert!(validate("not json").is_err());
    }

    #[test]
    fn channel_instants_render_and_validate() {
        let mut b = TraceBuilder::new(1, "cycles", 8);
        b.record(
            0,
            0,
            0,
            EventKind::TaskDetach {
                parent: 0,
                child: 1,
            },
        );
        b.record(0, 1, 0, EventKind::ChanPush { ch: 1, task: 1 });
        b.record(
            0,
            2,
            0,
            EventKind::ChanBlock {
                ch: 1,
                task: 1,
                push: false,
            },
        );
        b.record(0, 3, 0, EventKind::ChanResume { ch: 1, task: 1 });
        b.record(0, 4, 0, EventKind::ChanPop { ch: 1, task: 0 });
        b.record(0, 5, 0, EventKind::ChanClose { ch: 1, task: 1 });
        let text = chrome_json(&b.finish());
        assert_eq!(validate(&text).unwrap(), 7); // 6 events + 1 metadata
        for name in [
            "detach",
            "chan-push",
            "chan-block",
            "chan-wake",
            "chan-pop",
            "chan-close",
        ] {
            assert!(text.contains(&format!("\"name\":\"{name}\"")), "{name}");
        }
        assert!(text.contains(r#""push":false"#));
    }

    #[test]
    fn validator_schema_checks_channel_instants() {
        // A channel instant without args.ch is malformed.
        let bad = r#"{"traceEvents":[
            {"name":"chan-push","ph":"i","s":"t","pid":1,"tid":0,"ts":0,"args":{"task":1}}]}"#;
        assert!(validate(bad).unwrap_err().contains("args.ch"));
        // chan-block additionally needs the boolean direction.
        let bad = r#"{"traceEvents":[
            {"name":"chan-block","ph":"i","s":"t","pid":1,"tid":0,"ts":0,"args":{"ch":1}}]}"#;
        assert!(validate(bad).unwrap_err().contains("args.push"));
    }

    #[test]
    fn empty_trace_renders_and_validates() {
        let text = chrome_json(&TraceBuilder::new(1, "cycles", 0).finish());
        assert_eq!(validate(&text).unwrap(), 1); // just the metadata record
    }

    #[test]
    fn policy_tag_lands_in_other_data() {
        let trace = TraceBuilder::new(1, "cycles", 5)
            .policy("never/sequence")
            .finish();
        let doc = json::parse(&chrome_json(&trace)).unwrap();
        let other = doc.get("otherData").unwrap();
        assert_eq!(
            other.get("policy").and_then(Json::as_str),
            Some("never/sequence")
        );
    }

    #[test]
    fn source_tag_lands_in_other_data() {
        let trace = TraceBuilder::new(1, "cycles", 5)
            .source("timer-signal")
            .finish();
        let doc = json::parse(&chrome_json(&trace)).unwrap();
        let other = doc.get("otherData").unwrap();
        assert_eq!(
            other.get("source").and_then(Json::as_str),
            Some("timer-signal")
        );
    }
}
