//! The JSON request protocol: a `POST /run` body names a program, a
//! run spec, and optional report attachments.
//!
//! ```json
//! {
//!   "source": "fn main(n) { ... }",
//!   "ir": true,
//!   "mode": "heartbeat",
//!   "substrate": "sim",
//!   "cores": 4,
//!   "linux": false,
//!   "workers": 2,
//!   "heartbeat": 3000,
//!   "policy": "heartbeat/uniform",
//!   "heartbeat_source": "signal",
//!   "tier": "threaded",
//!   "seed": 123,
//!   "step_limit": 200000000,
//!   "sets": { "n": 1000 },
//!   "include": ["trace", "profile", "metrics"]
//! }
//! ```
//!
//! Only `source` is required: everything else defaults to a
//! single-core simulator run of a TPAL-assembly program with the
//! service defaults; a field of the wrong JSON type is an error naming
//! it, never a silent default. Integer fields accept either JSON numbers
//! or decimal strings (`"seed": "18446744073709551615"`): JSON numbers
//! are read as `f64`, which carries integers exactly only up to ±2⁵³, so
//! a number beyond that (or with a fraction or an exponent that leaves
//! the target type) is rejected with a pointer to the string form rather
//! than rounded.
//!
//! `workers` (rt substrate, 1..=64) is validated and travels in the
//! replay token but does not size anything: a TPAL program's promoted
//! tasks never leave the pool worker interpreting it. The server sizes
//! each rt pool by its own executor count instead, so concurrent
//! requests of one shape run side by side.
//!
//! `policy` is `heartbeat`, `eager` or `never`, optionally followed by
//! the substrate's victim segment — `/uniform` on `sim`, `/uniform` or
//! `/sequence` on `rt` (each substrate steals by one rule of its own, so
//! only the promotion rule is a choice). A retired spelling —
//! `adaptive:N`, `locality`, `sequence` on `sim`, a third segment — is a
//! 400 naming the value. The engine refuses a `step_limit` above
//! [`SERVICE_STEP_LIMIT`](crate::engine::SERVICE_STEP_LIMIT) and an `rt`
//! `heartbeat` below [`MIN_RT_HEARTBEAT_US`](crate::engine::MIN_RT_HEARTBEAT_US),
//! as it refuses `cores` / `workers` out of range and a `sim` `heartbeat`
//! at or below the per-core timer's service cost (5 cycles; `linux`
//! delivery has no such floor).

use tpal_core::tier::ExecTier;
use tpal_sched::{HeartbeatSource, Promotion};
use tpal_trace::json::{escape, parse_exact, Json};

use crate::engine::RunInclude;
use crate::spec::{ProgramSrc, RunSpec, Substrate};

/// A parsed `POST /run` request.
#[derive(Debug, Clone)]
pub struct RunRequest {
    /// The submitted program.
    pub src: ProgramSrc,
    /// The run configuration (canonicalized).
    pub spec: RunSpec,
    /// Requested report attachments.
    pub include: RunInclude,
}

/// Parses a `POST /run` JSON body.
///
/// # Errors
///
/// A description of the malformation: bad JSON, missing `source`, a
/// field of the wrong type, unknown substrate/tier names, a policy label
/// outside the vocabulary (named, retired ones included), or integers a
/// JSON number cannot carry exactly.
pub fn parse_run_request(body: &str) -> Result<RunRequest, String> {
    let doc = parse_exact(body).map_err(|e| format!("request body: {e}"))?;
    if !matches!(doc, Json::Obj(_)) {
        return Err("request body must be a JSON object".to_owned());
    }
    let source = doc
        .get("source")
        .and_then(Json::as_str)
        .ok_or_else(|| "request needs a string `source` field".to_owned())?
        .to_owned();
    let src = ProgramSrc {
        source,
        ir: opt_bool(&doc, "ir")?,
        mode: opt_str(&doc, "mode")?.unwrap_or("heartbeat").to_owned(),
    };

    let substrate = match opt_str(&doc, "substrate")? {
        None | Some("sim") => Substrate::Sim {
            cores: opt_u64(&doc, "cores")?.unwrap_or(1) as usize,
            linux: opt_bool(&doc, "linux")?,
        },
        Some("rt") => Substrate::Rt {
            workers: opt_u64(&doc, "workers")?.unwrap_or(2) as usize,
        },
        Some(other) => return Err(format!("unknown substrate `{other}` (sim|rt)")),
    };
    let promotion = match opt_str(&doc, "policy")? {
        Some(label) => {
            Promotion::parse(label, substrate.domain()).map_err(|e| format!("`policy`: {e}"))?
        }
        None => Promotion::default(),
    };
    let source = match opt_str(&doc, "heartbeat_source")? {
        None => HeartbeatSource::LocalTimer,
        Some(label) => {
            if matches!(substrate, Substrate::Sim { .. }) {
                return Err(
                    "`heartbeat_source` needs the rt substrate (the simulator models \
                     delivery through `linux`)"
                        .to_owned(),
                );
            }
            HeartbeatSource::parse(label).ok_or_else(|| {
                format!("unknown heartbeat_source `{label}` (ping|local-timer|signal)")
            })?
        }
    };
    let tier = match opt_str(&doc, "tier")? {
        Some(label) => ExecTier::parse(label)
            .ok_or_else(|| format!("unknown tier `{label}` (ref|decoded|threaded)"))?,
        None => ExecTier::default(),
    };
    let mut sets = Vec::new();
    match doc.get("sets") {
        None => {}
        Some(Json::Obj(m)) => {
            for (name, v) in m {
                let v = match v {
                    Json::Num(n) => exact_int(*n).map_err(|e| format!("set `{name}`: {e}"))?,
                    Json::Str(s) => s.parse::<i64>().map_err(|e| format!("set `{name}`: {e}"))?,
                    _ => return Err(format!("set `{name}` must be an integer")),
                };
                sets.push((name.clone(), v));
            }
        }
        Some(_) => return Err("`sets` must be an object of integers".to_owned()),
    }
    let mut spec = RunSpec {
        substrate,
        heartbeat: opt_u64(&doc, "heartbeat")?,
        promotion,
        source,
        tier,
        seed: opt_u64(&doc, "seed")?.unwrap_or(0xDEC0DE),
        step_limit: opt_u64(&doc, "step_limit")?,
        sets,
    };
    spec.canonicalize();

    let mut include = RunInclude::default();
    match doc.get("include") {
        None => {}
        Some(Json::Arr(items)) => {
            for item in items {
                match item.as_str() {
                    Some("trace") => include.trace = true,
                    Some("profile") => include.profile = true,
                    Some("metrics") => include.metrics = true,
                    _ => return Err("`include` entries must be trace|profile|metrics".to_owned()),
                }
            }
        }
        Some(_) => return Err("`include` must be an array of strings".to_owned()),
    }
    Ok(RunRequest { src, spec, include })
}

/// Reads an optional string field; any other JSON type is an error.
pub(crate) fn opt_str<'a>(doc: &'a Json, key: &str) -> Result<Option<&'a str>, String> {
    match doc.get(key) {
        None => Ok(None),
        Some(Json::Str(s)) => Ok(Some(s)),
        Some(_) => Err(format!("`{key}` must be a string")),
    }
}

/// Reads an optional boolean field (absent = `false`); any other JSON
/// type is an error.
pub(crate) fn opt_bool(doc: &Json, key: &str) -> Result<bool, String> {
    match doc.get(key) {
        None => Ok(false),
        Some(Json::Bool(b)) => Ok(*b),
        Some(_) => Err(format!("`{key}` must be a boolean")),
    }
}

/// Reads an optional non-negative integer field, accepting either a
/// JSON number (if it is an integer `f64` carries exactly) or a decimal
/// string.
pub(crate) fn opt_u64(doc: &Json, key: &str) -> Result<Option<u64>, String> {
    match doc.get(key) {
        None | Some(Json::Null) => Ok(None),
        Some(Json::Num(n)) => match exact_int(*n) {
            Ok(v) => u64::try_from(v)
                .map(Some)
                .map_err(|_| format!("`{key}` must be a non-negative integer")),
            Err(e) => Err(format!("`{key}`: {e}")),
        },
        Some(Json::Str(s)) => s
            .parse::<u64>()
            .map(Some)
            .map_err(|e| format!("`{key}`: {e}")),
        Some(_) => Err(format!("`{key}` must be a non-negative integer")),
    }
}

/// The integer a JSON number denotes, if `f64` carries it exactly:
/// integral and within ±2⁵³. ([`parse_exact`] has already refused
/// integer *literals* beyond that range, which the `f64` reader would
/// have rounded into it; this catches `1e300` and `1.5`.)
fn exact_int(n: f64) -> Result<i64, String> {
    const LIMIT: f64 = (1u64 << 53) as f64;
    if n.fract() == 0.0 && n.abs() <= LIMIT {
        Ok(n as i64)
    } else {
        Err(format!(
            "{n} is not an integer a JSON number carries exactly (|n| <= 2^53); \
             send larger values as a decimal string"
        ))
    }
}

/// Renders the standard error body.
pub fn error_body(msg: &str) -> String {
    format!("{{\"error\":\"{}\",\"ok\":false}}", escape(msg))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn minimal_request_defaults() {
        let req = parse_run_request(r#"{"source": "main: [.]\n    halt"}"#).unwrap();
        assert!(!req.src.ir);
        assert_eq!(
            req.spec.substrate,
            Substrate::Sim {
                cores: 1,
                linux: false
            }
        );
        assert_eq!(req.spec.seed, 0xDEC0DE);
        assert!(req.spec.heartbeat.is_none());
        assert_eq!(req.spec.source, HeartbeatSource::LocalTimer);
        assert!(!req.include.trace);
    }

    #[test]
    fn full_request_round_trips() {
        let req = parse_run_request(
            r#"{
                "source": "fn main(n) { return n; }",
                "ir": true,
                "mode": "serial",
                "substrate": "rt",
                "workers": 3,
                "heartbeat": 250,
                "policy": "eager/uniform",
                "heartbeat_source": "signal",
                "tier": "decoded",
                "seed": "18446744073709551615",
                "sets": { "n": 7, "m": "-3" }
            }"#,
        )
        .unwrap();
        assert!(req.src.ir);
        assert_eq!(req.src.mode, "serial");
        assert_eq!(req.spec.substrate, Substrate::Rt { workers: 3 });
        assert_eq!(req.spec.heartbeat, Some(250));
        assert_eq!(req.spec.promotion, Promotion::Eager);
        assert_eq!(
            req.spec.promotion.label(req.spec.substrate.domain()),
            "eager/sequence"
        );
        assert_eq!(req.spec.source, HeartbeatSource::TimerSignal);
        assert_eq!(req.spec.tier, ExecTier::Decoded);
        assert_eq!(req.spec.seed, u64::MAX);
        assert_eq!(
            req.spec.sets,
            vec![("m".to_owned(), -3), ("n".to_owned(), 7)],
            "sets are canonicalized (sorted)"
        );
    }

    /// A field of the wrong JSON type is an error naming it, never the
    /// default configuration.
    #[test]
    fn wrong_typed_fields_name_the_field() {
        for (field, value) in [
            ("ir", "1"),
            ("mode", "7"),
            ("substrate", r#"["rt"]"#),
            ("linux", r#""true""#),
            ("policy", "null"),
            ("tier", "3"),
            ("heartbeat_source", "7"),
            ("sets", "[]"),
            ("include", r#""trace""#),
            ("cores", "true"),
            ("seed", "[1]"),
        ] {
            // `heartbeat_source` is read on the rt substrate only.
            let rt = if field == "heartbeat_source" {
                r#""substrate": "rt", "#
            } else {
                ""
            };
            let body = format!(r#"{{"source": "x", {rt}"{field}": {value}}}"#);
            let e = parse_run_request(&body).unwrap_err();
            assert!(e.contains(&format!("`{field}`")), "{body}: {e}");
        }
        assert!(parse_run_request(r#"{"source": "x", "linux": true}"#).is_ok());
    }

    /// JSON numbers are accepted exactly as far as `f64` carries them:
    /// 2^53 in, 2^53 + 1 and exponent forms beyond the type out, and the
    /// same value as a decimal string in.
    #[test]
    fn integers_arrive_exactly_or_not_at_all() {
        const P53: u64 = 1 << 53;
        let req = |field: &str, value: &str| {
            let body = if field == "n" {
                format!(r#"{{"source": "x", "sets": {{"n": {value}}}}}"#)
            } else {
                format!(r#"{{"source": "x", "{field}": {value}}}"#)
            };
            parse_run_request(&body)
        };
        for field in ["cores", "heartbeat", "seed", "step_limit", "n"] {
            let get = |r: RunRequest| -> u64 {
                match field {
                    "cores" => match r.spec.substrate {
                        Substrate::Sim { cores, .. } => cores as u64,
                        Substrate::Rt { .. } => unreachable!(),
                    },
                    "heartbeat" => r.spec.heartbeat.unwrap(),
                    "seed" => r.spec.seed,
                    "step_limit" => r.spec.step_limit.unwrap(),
                    _ => r.spec.sets[0].1 as u64,
                }
            };
            assert_eq!(get(req(field, &P53.to_string()).unwrap()), P53, "{field}");
            let e = req(field, &(P53 + 1).to_string()).unwrap_err();
            assert!(e.contains("decimal string"), "{field}: {e}");
            let quoted = format!("\"{}\"", P53 + 1);
            assert_eq!(get(req(field, &quoted).unwrap()), P53 + 1, "{field}");
            for inexact in ["1e300", "1e30", "1.5"] {
                let e = req(field, inexact).unwrap_err();
                assert!(e.contains("decimal string"), "{field} = {inexact}: {e}");
            }
        }
        // Signed range for `sets`, unsigned for the rest.
        assert_eq!(
            req("n", &format!("-{P53}")).unwrap().spec.sets[0].1,
            -(P53 as i64)
        );
        assert!(req("n", &format!("-{}", P53 + 1)).is_err());
        assert_eq!(
            req("n", "\"-9223372036854775808\"").unwrap().spec.sets[0].1,
            i64::MIN
        );
        assert!(req("seed", "-1").unwrap_err().contains("non-negative"));
        assert_eq!(
            req("seed", "\"18446744073709551615\"").unwrap().spec.seed,
            u64::MAX
        );
        let rt = r#"{"source": "x", "substrate": "rt", "workers": 1e30}"#;
        assert!(parse_run_request(rt).unwrap_err().contains("`workers`"));
    }

    /// A policy label is read for the request's substrate: retired
    /// spellings are errors naming the value, and an rt request may name
    /// either victim.
    #[test]
    fn policy_labels_are_read_per_substrate() {
        let req = |substrate: &str, policy: &str| {
            parse_run_request(&format!(
                r#"{{"source": "x", "substrate": "{substrate}", "policy": "{policy}"}}"#
            ))
        };
        for (substrate, policy, names) in [
            ("sim", "adaptive:40/uniform", "`adaptive:40`"),
            ("sim", "eager/locality", "`locality`"),
            ("sim", "heartbeat/sequence", "`sequence`"),
            ("sim", "heartbeat/uniform/random", "`random`"),
            ("rt", "never/locality", "`locality`"),
        ] {
            let e = req(substrate, policy).unwrap_err();
            assert!(e.contains("`policy`") && e.contains(names), "{policy}: {e}");
        }
        assert_eq!(
            req("sim", "never").unwrap().spec.promotion,
            Promotion::Never
        );
        for policy in ["eager/uniform", "eager/sequence"] {
            assert_eq!(req("rt", policy).unwrap().spec.promotion, Promotion::Eager);
        }
        let rt = parse_run_request(r#"{"source": "x", "substrate": "rt"}"#).unwrap();
        assert_eq!(rt.spec.promotion, Promotion::Heartbeat);
    }

    #[test]
    fn malformed_requests_are_rejected() {
        for bad in [
            "",
            "[]",
            "{}",
            r#"{"source": 5}"#,
            r#"{"source": "x", "substrate": "gpu"}"#,
            r#"{"source": "x", "tier": "jit"}"#,
            r#"{"source": "x", "sets": {"n": 1.5}}"#,
            r#"{"source": "x", "include": ["flamegraph"]}"#,
            r#"{"source": "x", "substrate": "rt", "heartbeat_source": "smoke"}"#,
            r#"{"source": "x", "substrate": "rt", "heartbeat_source": 7}"#,
            r#"{"source": "x", "substrate": "sim", "heartbeat_source": "signal"}"#,
        ] {
            assert!(parse_run_request(bad).is_err(), "{bad:?} should fail");
        }
    }
}
