//! Run specifications, content hashing, and deterministic replay
//! tokens.
//!
//! A submitted program is identified by the FNV-1a content hash of its
//! source text plus frontend flags (`ir`, lowering mode) — the decode
//! cache key. A *run* is a program hash plus every knob that can change
//! the outcome: substrate, ♥, promotion rule, execution tier, seed, step
//! limit, and the argument registers. The replay token is the run spec itself,
//! canonically serialized and hex-armoured, so `GET /replay/<token>`
//! needs no server-side registry beyond the program cache: the token
//! alone names a bit-reproducible run.

use std::fmt;
use std::time::Duration;

use tpal_core::machine::MachineConfig;
use tpal_core::tier::ExecTier;
use tpal_rt::RtConfig;
use tpal_sched::{Domain, HeartbeatSource, InterruptModel, Promotion};
use tpal_sim::SimConfig;
use tpal_trace::json::{parse_exact, write_escaped, Json};

use crate::engine::RunConfig;
use crate::proto::{opt_bool, opt_str, opt_u64};

/// Incremental FNV-1a (64-bit) hasher — the dependency-free content
/// hash behind the decode cache and replay tokens.
#[derive(Debug, Clone, Copy)]
pub struct Fnv1a(u64);

impl Fnv1a {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;

    /// A fresh hasher at the FNV offset basis.
    pub fn new() -> Fnv1a {
        Fnv1a(Self::OFFSET)
    }

    /// Folds `bytes` into the hash.
    pub fn write(&mut self, bytes: &[u8]) -> &mut Self {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(Self::PRIME);
        }
        self
    }

    /// The current hash value.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

impl Default for Fnv1a {
    fn default() -> Self {
        Fnv1a::new()
    }
}

/// A submitted program: source text plus the frontend that turns it
/// into a validated TPAL [`tpal_core::program::Program`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProgramSrc {
    /// TPAL assembly (`ir == false`) or task-parallel source
    /// (`ir == true`).
    pub source: String,
    /// Whether `source` goes through the `tpal-ir` frontend.
    pub ir: bool,
    /// The lowering mode name (`serial`, `heartbeat`, `expanded`,
    /// `eager`); only meaningful with `ir == true`.
    pub mode: String,
}

impl ProgramSrc {
    /// TPAL assembly source.
    pub fn asm(source: impl Into<String>) -> ProgramSrc {
        ProgramSrc {
            source: source.into(),
            ir: false,
            mode: "heartbeat".to_owned(),
        }
    }

    /// Task-parallel (`.tpl`) source, lowered in `mode`.
    pub fn tpl(source: impl Into<String>, mode: impl Into<String>) -> ProgramSrc {
        ProgramSrc {
            source: source.into(),
            ir: true,
            mode: mode.into(),
        }
    }

    /// The content hash identifying this program in the decode cache:
    /// FNV-1a over the source bytes, the frontend flag, and (for IR
    /// programs) the lowering mode. Two submissions with identical
    /// bytes and flags share one decode.
    pub fn content_hash(&self) -> u64 {
        let mut h = Fnv1a::new();
        h.write(self.source.as_bytes());
        h.write(&[0x1f, self.ir as u8]);
        if self.ir {
            h.write(self.mode.as_bytes());
        }
        h.finish()
    }
}

/// The execution substrate of one run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Substrate {
    /// The deterministic multicore simulator (`tpal-sim`): bit-for-bit
    /// reproducible registers, statistics, and makespan from the spec
    /// alone.
    Sim {
        /// Simulated core count `P`.
        cores: usize,
        /// Ping-thread (Linux-like) interrupt delivery instead of
        /// per-core timers.
        linux: bool,
    },
    /// The native heartbeat runtime (`tpal-rt`): real-time heartbeats,
    /// so registers are reproducible but scheduling statistics are
    /// observational.
    Rt {
        /// Requested worker count: validated and kept in the token, but
        /// a program is interpreted on one worker whatever it says (see
        /// [`crate::proto`]).
        workers: usize,
    },
}

impl Substrate {
    /// The policy-label domain of this substrate.
    pub fn domain(self) -> Domain {
        match self {
            Substrate::Sim { .. } => Domain::Sim,
            Substrate::Rt { .. } => Domain::Rt,
        }
    }
}

/// Everything besides the program that determines a run's outcome.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunSpec {
    /// Where the run executes.
    pub substrate: Substrate,
    /// The heartbeat interval ♥ in the substrate's unit (simulator:
    /// cycles, default 3000; runtime: µs, default 100). `None` applies
    /// the substrate default.
    pub heartbeat: Option<u64>,
    /// When promotion-ready points promote. It travels as the token's
    /// `policy` label, whose victim segment is the substrate's own steal
    /// rule (`heartbeat/uniform` on the simulator, `heartbeat/sequence`
    /// on the runtime).
    pub promotion: Promotion,
    /// Heartbeat delivery mechanism (native-runtime runs; the simulator
    /// models delivery through its own `InterruptModel` and ignores
    /// this).
    pub source: HeartbeatSource,
    /// Interpreter tier for straight-line execution.
    pub tier: ExecTier,
    /// RNG seed (simulator victim selection and delivery jitter).
    pub seed: u64,
    /// Instruction budget before the run is aborted. `None` applies the
    /// caller's default ([`RunSpec::config`]).
    pub step_limit: Option<u64>,
    /// Argument registers, as submitted (IR parameter names are mapped
    /// to lowered register names at execution time). Kept sorted by
    /// name — [`RunSpec::canonicalize`].
    pub sets: Vec<(String, i64)>,
}

impl RunSpec {
    /// A default-config simulator run.
    pub fn sim(cores: usize) -> RunSpec {
        RunSpec {
            substrate: Substrate::Sim {
                cores,
                linux: false,
            },
            heartbeat: None,
            promotion: Promotion::default(),
            source: HeartbeatSource::LocalTimer,
            tier: ExecTier::default(),
            seed: 0xDEC0DE,
            step_limit: None,
            sets: Vec::new(),
        }
    }

    /// A default-config native-runtime run.
    pub fn rt(workers: usize) -> RunSpec {
        RunSpec {
            substrate: Substrate::Rt { workers },
            ..RunSpec::sim(0)
        }
    }

    /// Adds an argument register.
    pub fn set(mut self, name: impl Into<String>, value: i64) -> RunSpec {
        self.sets.push((name.into(), value));
        self
    }

    /// The substrate configuration this spec names: the one place the
    /// ♥ defaults (3 000 cycles on the simulator; 100 µs on the runtime,
    /// which is also the machine's ♥ of 100 instructions), the interrupt
    /// model, tier, promotion rule, seed and step limit are applied.
    /// `trace` records a scheduling trace; `step_limit` is the default
    /// for an absent [`RunSpec::step_limit`] (`None`: the substrate's
    /// own). The native-runtime config names one worker: the
    /// [`Engine`](crate::engine::Engine) sizes its pools.
    ///
    /// # Errors
    ///
    /// A spec no substrate can run, naming the field: zero cores or
    /// workers, or a simulated per-core-timer ♥ at or below the timer's
    /// service cost — every beat would be serviced before an instruction
    /// ran, so not even the step limit could end the run.
    pub fn config(&self, trace: bool, step_limit: Option<u64>) -> Result<RunConfig, String> {
        let step_limit = self.step_limit.or(step_limit);
        match self.substrate {
            Substrate::Sim { cores: 0, .. } => Err("cores must be at least 1, got 0".to_owned()),
            Substrate::Rt { workers: 0 } => Err("workers must be at least 1, got 0".to_owned()),
            Substrate::Sim { cores, linux } => {
                let heartbeat = self.heartbeat.unwrap_or(3_000);
                let mut config = if linux {
                    SimConfig::linux(cores, heartbeat)
                } else {
                    SimConfig::nautilus(cores, heartbeat)
                };
                if let InterruptModel::PerCoreTimer { service_cost } = config.interrupt {
                    if heartbeat <= service_cost {
                        return Err(format!(
                            "heartbeat must exceed the per-core timer's service cost of \
                             {service_cost} cycles, got {heartbeat}"
                        ));
                    }
                }
                config.promotion = self.promotion;
                config.exec_tier = self.tier;
                config.seed = self.seed;
                config.step_limit = step_limit.unwrap_or(config.step_limit);
                config.record_trace = trace;
                Ok(RunConfig::Sim(config))
            }
            Substrate::Rt { .. } => {
                let heartbeat = self.heartbeat.unwrap_or(100);
                let mut machine = MachineConfig::default()
                    .with_heartbeat(heartbeat)
                    .with_exec_tier(self.tier);
                machine.step_limit = step_limit.unwrap_or(machine.step_limit);
                let rt = RtConfig::with_workers(1)
                    .heartbeat(Duration::from_micros(heartbeat))
                    .promotion(self.promotion)
                    .source(self.source)
                    .trace(trace);
                Ok(RunConfig::Machine(machine, Some(rt)))
            }
        }
    }

    /// Sorts the argument list so equal specs serialize identically.
    pub fn canonicalize(&mut self) {
        self.sets.sort();
    }

    /// Renders the deterministic replay token for this spec against
    /// program `prog_hash`: `r1-` plus the hex-armoured canonical JSON
    /// of every outcome-determining knob. Identical (program, spec)
    /// pairs always yield identical tokens.
    pub fn token(&self, prog_hash: u64) -> String {
        // One buffer: the payload is armoured as it is rendered.
        let mut token = String::with_capacity(512);
        token.push_str("r1-");
        self.render(&mut HexWriter(&mut token), prog_hash)
            .expect("writing to a String cannot fail");
        token
    }

    /// The token's payload: canonical JSON, fields in fixed
    /// (alphabetical) order; integers that exceed f64's exact range
    /// travel as hex/decimal strings (`hb` only above 2⁵³, so every
    /// token minted with a smaller ♥ keeps its bytes).
    fn render(&self, out: &mut impl fmt::Write, prog_hash: u64) -> fmt::Result {
        let (sub, cores, linux, workers) = match self.substrate {
            Substrate::Sim { cores, linux } => ("sim", cores, linux, 0),
            Substrate::Rt { workers } => ("rt", 0, false, workers),
        };
        write!(out, "{{\"cores\":{cores},")?;
        match self.heartbeat {
            Some(hb) if hb > 1 << 53 => write!(out, "\"hb\":\"{hb}\",")?,
            Some(hb) => write!(out, "\"hb\":{hb},")?,
            None => out.write_str("\"hb\":null,")?,
        }
        write!(out, "\"hbsrc\":\"{}\",", self.source.label())?;
        write!(out, "\"linux\":{linux},\"policy\":\"")?;
        write_escaped(out, &self.promotion.label(self.substrate.domain()))?;
        write!(out, "\",\"prog\":\"{prog_hash:016x}\",")?;
        write!(out, "\"seed\":\"{:x}\",\"sets\":{{", self.seed)?;
        // A canonical spec is already sorted; any other takes the detour.
        if self.sets.is_sorted() {
            write_sets(out, self.sets.iter())?;
        } else {
            let mut sorted: Vec<_> = self.sets.iter().collect();
            sorted.sort();
            write_sets(out, sorted.into_iter())?;
        }
        out.write_str("},")?;
        match self.step_limit {
            Some(sl) => write!(out, "\"sl\":\"{sl}\",")?,
            None => out.write_str("\"sl\":null,")?,
        }
        write!(out, "\"sub\":\"{sub}\",\"tier\":\"{}\",", self.tier.label())?;
        write!(out, "\"workers\":{workers}}}")
    }

    /// Decodes a replay token back into `(program hash, spec)` — the
    /// spec it names or an error, never a neighbouring one: a field of
    /// the wrong JSON type, a fraction, or an integer the payload's
    /// number form cannot carry exactly is refused by name. (`cores` and
    /// `workers` are decoded as written; [`Engine`](crate::engine::Engine)
    /// refuses the ones it cannot run.)
    ///
    /// # Errors
    ///
    /// A description of the malformation: wrong prefix, bad hex, bad
    /// JSON, a missing, wrong-typed or out-of-range field, or a retired
    /// policy label (named).
    pub fn from_token(token: &str) -> Result<(u64, RunSpec), String> {
        let hex = token
            .strip_prefix("r1-")
            .ok_or_else(|| "replay token must start with `r1-`".to_owned())?;
        let bytes = hex_decode(hex)?;
        let body = String::from_utf8(bytes).map_err(|_| "token payload is not UTF-8".to_owned())?;
        let doc = parse_exact(&body).map_err(|e| format!("token payload: {e}"))?;
        let field = |e: String| format!("token field {e}");
        let str_field = |k: &str| -> Result<&str, String> {
            opt_str(&doc, k)
                .map_err(field)?
                .ok_or_else(|| format!("token missing string field `{k}`"))
        };
        let count_field = |k: &str| -> Result<usize, String> {
            let n = opt_u64(&doc, k)
                .map_err(field)?
                .ok_or_else(|| format!("token missing numeric field `{k}`"))?;
            usize::try_from(n).map_err(|_| format!("token field `{k}` out of range"))
        };
        let prog_hash = u64::from_str_radix(str_field("prog")?, 16)
            .map_err(|e| format!("token `prog`: {e}"))?;
        let substrate = match str_field("sub")? {
            "sim" => Substrate::Sim {
                cores: count_field("cores")?,
                linux: opt_bool(&doc, "linux").map_err(field)?,
            },
            "rt" => Substrate::Rt {
                workers: count_field("workers")?,
            },
            other => return Err(format!("token substrate `{other}` unknown")),
        };
        let promotion = Promotion::parse(str_field("policy")?, substrate.domain())
            .map_err(|e| format!("token `policy`: {e}"))?;
        // Tokens minted before the delivery-source knob existed carry no
        // `hbsrc`; they replay under the historical default.
        let source = match opt_str(&doc, "hbsrc").map_err(field)? {
            None => HeartbeatSource::LocalTimer,
            Some(s) => HeartbeatSource::parse(s)
                .ok_or_else(|| format!("token names an unknown heartbeat source `{s}`"))?,
        };
        let tier = ExecTier::parse(str_field("tier")?)
            .ok_or_else(|| "token names an unknown exec tier".to_owned())?;
        let seed = u64::from_str_radix(str_field("seed")?, 16)
            .map_err(|e| format!("token `seed`: {e}"))?;
        let mut sets = Vec::new();
        match doc.get("sets") {
            None => {}
            Some(Json::Obj(m)) => {
                for (name, v) in m {
                    let v = v
                        .as_str()
                        .ok_or_else(|| format!("token set `{name}` must be a decimal string"))?
                        .parse::<i64>()
                        .map_err(|e| format!("token set `{name}`: {e}"))?;
                    sets.push((name.clone(), v));
                }
            }
            Some(_) => return Err("token field `sets` must be an object".to_owned()),
        }
        let mut spec = RunSpec {
            substrate,
            heartbeat: opt_u64(&doc, "hb").map_err(field)?,
            promotion,
            source,
            tier,
            seed,
            step_limit: opt_u64(&doc, "sl").map_err(field)?,
            sets,
        };
        spec.canonicalize();
        Ok((prog_hash, spec))
    }
}

/// The members of a token's `sets` object, in the order given.
fn write_sets<'a>(
    out: &mut impl fmt::Write,
    sets: impl Iterator<Item = &'a (String, i64)>,
) -> fmt::Result {
    for (i, (name, v)) in sets.enumerate() {
        if i > 0 {
            out.write_char(',')?;
        }
        out.write_char('"')?;
        write_escaped(out, name)?;
        write!(out, "\":\"{v}\"")?;
    }
    Ok(())
}

/// Hex-armours what is written through it, appending to the string it
/// wraps.
struct HexWriter<'a>(&'a mut String);

impl fmt::Write for HexWriter<'_> {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        push_hex(self.0, s.as_bytes());
        Ok(())
    }
}

/// Two table-driven lowercase digits per byte.
fn push_hex(out: &mut String, bytes: &[u8]) {
    const DIGITS: &[u8; 16] = b"0123456789abcdef";
    out.reserve(2 * bytes.len());
    for b in bytes {
        out.push(DIGITS[usize::from(b >> 4)] as char);
        out.push(DIGITS[usize::from(b & 0xf)] as char);
    }
}

/// Lowercase hex armour for token payloads.
pub fn hex_encode(bytes: &[u8]) -> String {
    let mut s = String::new();
    push_hex(&mut s, bytes);
    s
}

/// Inverse of [`hex_encode`].
pub fn hex_decode(s: &str) -> Result<Vec<u8>, String> {
    if !s.len().is_multiple_of(2) {
        return Err("odd-length hex payload".to_owned());
    }
    let digits: Vec<u8> = s
        .bytes()
        .map(|b| match b {
            b'0'..=b'9' => Ok(b - b'0'),
            b'a'..=b'f' => Ok(b - b'a' + 10),
            b'A'..=b'F' => Ok(b - b'A' + 10),
            _ => Err(format!("bad hex byte `{}`", b as char)),
        })
        .collect::<Result<_, _>>()?;
    Ok(digits.chunks(2).map(|d| (d[0] << 4) | d[1]).collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_is_stable_and_input_sensitive() {
        let h = |s: &str| Fnv1a::new().write(s.as_bytes()).finish();
        assert_eq!(h(""), 0xcbf2_9ce4_8422_2325);
        assert_ne!(h("a"), h("b"));
        assert_ne!(
            ProgramSrc::asm("x").content_hash(),
            ProgramSrc::tpl("x", "heartbeat").content_hash(),
            "frontend flag participates in the content hash"
        );
        assert_ne!(
            ProgramSrc::tpl("x", "serial").content_hash(),
            ProgramSrc::tpl("x", "heartbeat").content_hash(),
            "lowering mode participates in the content hash"
        );
    }

    #[test]
    fn token_round_trips() {
        let mut spec = RunSpec::sim(4).set("main.n", 1_000).set("a", -7);
        spec.heartbeat = Some(500);
        spec.seed = u64::MAX - 3; // exceeds f64's exact integer range
        spec.step_limit = Some(10_000_000_000); // exceeds 2^32
        spec.canonicalize();
        let token = spec.token(0xdead_beef_0123_4567);
        let (hash, decoded) = RunSpec::from_token(&token).unwrap();
        assert_eq!(hash, 0xdead_beef_0123_4567);
        assert_eq!(decoded, spec);
        // Determinism: same spec, same token — even with sets given in
        // a different order.
        let mut shuffled = RunSpec::sim(4).set("a", -7).set("main.n", 1_000);
        shuffled.heartbeat = Some(500);
        shuffled.seed = u64::MAX - 3;
        shuffled.step_limit = Some(10_000_000_000);
        assert_eq!(shuffled.token(0xdead_beef_0123_4567), token);
    }

    #[test]
    fn rt_token_round_trips() {
        let spec = RunSpec::rt(3).set("n", 20);
        let token = spec.token(1);
        let (hash, decoded) = RunSpec::from_token(&token).unwrap();
        assert_eq!(hash, 1);
        assert_eq!(decoded, spec);
        assert_eq!(
            decoded.promotion.label(decoded.substrate.domain()),
            "heartbeat/sequence"
        );
    }

    #[test]
    fn heartbeat_source_round_trips_and_distinguishes_tokens() {
        let mut spec = RunSpec::rt(2).set("n", 10);
        spec.source = HeartbeatSource::TimerSignal;
        let token = spec.token(7);
        let (_, decoded) = RunSpec::from_token(&token).unwrap();
        assert_eq!(decoded.source, HeartbeatSource::TimerSignal);
        let mut ping = spec.clone();
        ping.source = HeartbeatSource::PingThread;
        assert_ne!(ping.token(7), token, "the source is outcome-determining");
    }

    #[test]
    fn tokens_without_a_source_field_replay_under_the_default() {
        // A pre-source token: the spec's own token with `hbsrc` edited
        // out, as a token minted by an older server would look.
        let spec = RunSpec::rt(2).set("n", 10);
        let token = edited_token(&spec, "\"hbsrc\":\"local-timer\",", "");
        let (_, decoded) = RunSpec::from_token(&token).unwrap();
        assert_eq!(decoded.source, HeartbeatSource::LocalTimer);
        assert_eq!(decoded, spec);
    }

    /// The payload of `spec`'s token with one edit, re-armoured.
    fn edited_token(spec: &RunSpec, from: &str, to: &str) -> String {
        let body = String::from_utf8(hex_decode(&spec.token(7)["r1-".len()..]).unwrap()).unwrap();
        let edited = body.replace(from, to);
        assert_ne!(edited, body, "`{from}` must occur in {body}");
        format!("r1-{}", hex_encode(edited.as_bytes()))
    }

    /// A token decodes to the spec it names or to an error naming the
    /// field that does not fit — never to a default, a clamp or a
    /// rounded neighbour.
    #[test]
    fn wrong_typed_or_inexact_token_fields_name_the_field() {
        let mut sim = RunSpec::sim(4).set("n", 10);
        sim.heartbeat = Some(500);
        sim.step_limit = Some(1_000);
        let rt = RunSpec::rt(2);
        for (spec, from, to, names) in [
            (&sim, "\"linux\":false", "\"linux\":\"true\"", "`linux`"),
            (&sim, "\"linux\":false", "\"linux\":1", "`linux`"),
            (
                &sim,
                "\"sets\":{\"n\":\"10\"}",
                "\"sets\":[\"n\"]",
                "`sets`",
            ),
            (&sim, "\"sets\":{\"n\":\"10\"}", "\"sets\":\"n\"", "`sets`"),
            (&sim, "\"n\":\"10\"", "\"n\":10", "`n`"),
            (&sim, "\"n\":\"10\"", "\"n\":\"1e3\"", "`n`"),
            (&sim, "\"cores\":4", "\"cores\":4.5", "`cores`"),
            (&sim, "\"cores\":4", "\"cores\":-1", "`cores`"),
            (&sim, "\"cores\":4", "\"cores\":1e30", "`cores`"),
            (&sim, "\"cores\":4", "\"cores\":\"four\"", "`cores`"),
            (&sim, "\"cores\":4", "\"cores\":true", "`cores`"),
            (&rt, "\"workers\":2", "\"workers\":2.5", "`workers`"),
            (&rt, "\"workers\":2", "\"workers\":null", "`workers`"),
            (&sim, "\"hb\":500", "\"hb\":500.5", "`hb`"),
            (&sim, "\"hb\":500", "\"hb\":-500", "`hb`"),
            (&sim, "\"hb\":500", "\"hb\":[500]", "`hb`"),
            // 2^53 + 1 as a bare number: the payload is read exactly.
            (
                &sim,
                "\"hb\":500",
                "\"hb\":9007199254740993",
                "decimal string",
            ),
            (&sim, "\"sl\":\"1000\"", "\"sl\":1e30", "`sl`"),
            (&sim, "\"sl\":\"1000\"", "\"sl\":\"-1\"", "`sl`"),
            (&sim, "\"sl\":\"1000\"", "\"sl\":false", "`sl`"),
            (
                &sim,
                "\"policy\":\"heartbeat/uniform\"",
                "\"policy\":7",
                "`policy`",
            ),
            (&sim, "\"tier\":\"threaded\"", "\"tier\":null", "`tier`"),
            (&sim, "\"sub\":\"sim\"", "\"sub\":[\"sim\"]", "`sub`"),
            (&sim, "\"hbsrc\":\"local-timer\"", "\"hbsrc\":0", "`hbsrc`"),
            (&sim, "\"seed\":\"dec0de\"", "\"seed\":14597342", "`seed`"),
            (
                &sim,
                "\"prog\":\"0000000000000007\"",
                "\"prog\":7",
                "`prog`",
            ),
        ] {
            let e = RunSpec::from_token(&edited_token(spec, from, to)).unwrap_err();
            assert!(e.contains(names), "{to}: {e}");
        }
        // Counts arrive as written — the engine, not the decoder,
        // refuses the ones it cannot run — and take the string form too.
        for (to, cores) in [("0", 0), ("1000000000", 1_000_000_000), ("\"8\"", 8)] {
            let token = edited_token(&sim, "\"cores\":4", &format!("\"cores\":{to}"));
            let (_, decoded) = RunSpec::from_token(&token).unwrap();
            assert_eq!(
                decoded.substrate,
                Substrate::Sim {
                    cores,
                    linux: false
                }
            );
        }
        let token = edited_token(&sim, "\"linux\":false", "\"linux\":true");
        assert_eq!(
            RunSpec::from_token(&token).unwrap().1.substrate,
            Substrate::Sim {
                cores: 4,
                linux: true
            }
        );
    }

    /// `from_token(token(spec)) == spec` at the edges of every integer a
    /// token carries, and ♥ at or below 2⁵³ keeps its bare-number form.
    #[test]
    fn token_round_trips_at_the_integer_boundaries() {
        const EDGES: [u64; 4] = [0, 1 << 53, (1 << 53) + 1, u64::MAX];
        for substrate in [RunSpec::sim(3), RunSpec::rt(2)] {
            for &hb in &EDGES {
                for &sl in &EDGES {
                    for &seed in &EDGES {
                        let mut spec = substrate
                            .clone()
                            .set("hi", i64::MAX)
                            .set("lo", i64::MIN)
                            .set("zero", 0);
                        spec.heartbeat = Some(hb);
                        spec.step_limit = Some(sl);
                        spec.seed = seed;
                        let token = spec.token(u64::MAX);
                        let (hash, decoded) = RunSpec::from_token(&token).unwrap();
                        assert_eq!((hash, &decoded), (u64::MAX, &spec), "hb {hb} sl {sl}");
                    }
                }
            }
        }
        let payload = |hb: u64| {
            let mut spec = RunSpec::sim(1);
            spec.heartbeat = Some(hb);
            String::from_utf8(hex_decode(&spec.token(0)["r1-".len()..]).unwrap()).unwrap()
        };
        assert!(payload(1 << 53).contains("\"hb\":9007199254740992,"));
        assert!(payload((1 << 53) + 1).contains("\"hb\":\"9007199254740993\","));
    }

    #[test]
    fn malformed_tokens_are_rejected() {
        for bad in [
            "",
            "r1-",
            "r2-00",
            "r1-zz",
            "r1-7b7d",             // "{}" — missing fields
            "r1-6e6f74206a736f6e", // "not json"
        ] {
            assert!(RunSpec::from_token(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn hex_round_trips() {
        let data: Vec<u8> = (0..=255).collect();
        assert_eq!(hex_decode(&hex_encode(&data)).unwrap(), data);
        assert!(hex_decode("abc").is_err());
        assert!(hex_decode("g0").is_err());
    }
}
