//! What the benchmark writes besides a run's own table: the results
//! file `compare` and `baseline` read, and the texts rendered from the
//! registry — `BENCHMARK.json` and the README's tables — so neither is
//! typed by hand.

use std::collections::BTreeMap;

use tpal_trace::json::{escape, parse, Json};

use crate::harness;
use crate::registry::{END_TO_END, PER_LAYER, RUN_SECONDS, WORKLOADS};
use crate::stats::Summary;

/// The directory `BENCHMARK.json` names, relative to the repository root.
pub const BENCHMARK_DIR: &str = "crates/bench/src/bin/benchmark";

/// The host and build a result was measured on.
pub struct Provenance(BTreeMap<&'static str, String>);

impl Provenance {
    pub fn collect(seed: u64, seconds: f64) -> Provenance {
        let load = harness::load_average().map_or("unknown".to_owned(), |l| l.to_string());
        Provenance(BTreeMap::from([
            ("nproc", harness::nproc().to_string()),
            ("cpu", harness::cpu_model()),
            ("rustc", harness::tool_line("rustc", &["--version"])),
            (
                "git",
                harness::tool_line("git", &["rev-parse", "--short", "HEAD"]),
            ),
            ("seed", seed.to_string()),
            ("seconds", seconds.to_string()),
            ("load1", load),
        ]))
    }

    pub fn banner(&self) -> String {
        let fields: Vec<String> = self.0.iter().map(|(k, v)| format!("{k}=\"{v}\"")).collect();
        format!("# benchmark {}", fields.join(" "))
    }
}

/// One run of one workload, as its JSON line reported it.
pub struct Run {
    pub workload: String,
    pub seed: u64,
    pub traced: bool,
    pub attempted: u64,
    pub failed: u64,
    /// Name to (value, unit).
    pub metrics: BTreeMap<String, (f64, String)>,
}

impl Run {
    /// Parses the last line a single-workload run printed.
    pub fn parse(workload: &str, seed: u64, traced: bool, line: &str) -> Option<Run> {
        Run::from_json(workload.to_owned(), seed, traced, &parse(line).ok()?)
    }

    fn from_json(workload: String, seed: u64, traced: bool, doc: &Json) -> Option<Run> {
        let Json::Obj(metrics) = doc.get("metrics")? else {
            return None;
        };
        Some(Run {
            workload,
            seed,
            traced,
            attempted: doc.get("attempted")?.as_num()? as u64,
            failed: doc.get("failed")?.as_num()? as u64,
            metrics: metrics
                .iter()
                .filter_map(|(name, m)| {
                    let unit = m.get("unit")?.as_str()?.to_owned();
                    Some((name.clone(), (m.get("value")?.as_num()?, unit)))
                })
                .collect(),
        })
    }
}

/// One metric as the driver's result line and the results file carry it.
pub fn metric_json(name: &str, value: f64, unit: &str) -> String {
    format!("\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}")
}

pub fn results_json(provenance: &Provenance, runs: &[Run]) -> String {
    let fields: Vec<String> = provenance
        .0
        .iter()
        .map(|(k, v)| format!("\"{k}\":\"{}\"", escape(v)))
        .collect();
    let runs: Vec<String> = runs
        .iter()
        .map(|r| {
            let metrics: Vec<String> = r
                .metrics
                .iter()
                .map(|(name, (v, unit))| metric_json(name, *v, unit))
                .collect();
            format!(
                "{{\"workload\":\"{}\",\"seed\":{},\"trace\":{},\"attempted\":{},\"failed\":{},\
                 \"metrics\":{{{}}}}}",
                r.workload,
                r.seed,
                u8::from(r.traced),
                r.attempted,
                r.failed,
                metrics.join(",")
            )
        })
        .collect();
    format!(
        "{{\"provenance\":{{{}}},\n\"runs\":[\n{}\n]}}\n",
        fields.join(","),
        runs.join(",\n")
    )
}

/// A results file read back.
pub struct Results {
    pub path: String,
    pub provenance: BTreeMap<String, String>,
    pub runs: Vec<Run>,
}

impl Results {
    pub fn load(path: &str) -> Result<Results, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        Results::parse(path, &text)
    }

    pub fn parse(path: &str, text: &str) -> Result<Results, String> {
        let doc = parse(text).map_err(|e| format!("{path}: {e}"))?;
        let provenance = match doc.get("provenance") {
            Some(Json::Obj(fields)) => fields
                .iter()
                .filter_map(|(k, v)| Some((k.clone(), v.as_str()?.to_owned())))
                .collect(),
            _ => BTreeMap::new(),
        };
        let runs = doc
            .get("runs")
            .and_then(Json::as_arr)
            .ok_or_else(|| format!("{path}: no `runs` array"))?
            .iter()
            .map(|run| {
                let field = |k: &str| run.get(k).and_then(Json::as_num);
                Run::from_json(
                    run.get("workload")?.as_str()?.to_owned(),
                    field("seed")? as u64,
                    field("trace")? != 0.0,
                    run,
                )
            })
            .collect::<Option<Vec<Run>>>()
            .ok_or_else(|| format!("{path}: malformed run"))?;
        Ok(Results {
            path: path.to_owned(),
            provenance,
            runs,
        })
    }

    /// The values of `metric` on `workload` over this file's runs.
    pub fn values(&self, workload: &str, metric: &str) -> Vec<f64> {
        self.runs
            .iter()
            .filter(|r| r.workload == workload)
            .filter_map(|r| r.metrics.get(metric).map(|(v, _)| *v))
            .collect()
    }

    pub fn summary(&self, workload: &str, metric: &str) -> Summary {
        Summary::of(&self.values(workload, metric))
    }
}

/// `BENCHMARK.json`, from the registry.
pub fn manifest_json() -> String {
    let workloads: Vec<String> = WORKLOADS
        .iter()
        .map(|w| {
            format!(
                "    {{\"name\": \"{}\", \"why\": \"{}\"}}",
                w.name,
                escape(w.why)
            )
        })
        .collect();
    let end_to_end: Vec<String> = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                m.name,
                m.unit,
                m.better.label(),
                m.bound
            )
        })
        .collect();
    let per_layer: Vec<String> = PER_LAYER
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                m.name,
                m.unit,
                m.better.label()
            )
        })
        .collect();
    format!(
        "{{\n  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--quiet\", \
         \"--manifest-path\", \"{BENCHMARK_DIR}/Cargo.toml\", \"--\"],\n  \
         \"paths\": [\"{BENCHMARK_DIR}\"],\n  \"run_seconds\": {RUN_SECONDS},\n  \
         \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \"per_layer\": [\n{}\n  ]\n}}\n",
        workloads.join(",\n"),
        end_to_end.join(",\n"),
        per_layer.join(",\n")
    )
}

/// The README's workload, end-to-end and per-layer tables.
pub fn glossary_markdown() -> String {
    let mut out = String::from("### Workloads\n\n| name | runs | why it exists |\n|---|---|---|\n");
    for w in &WORKLOADS {
        out.push_str(&format!(
            "| `{}` | {} | {} |\n",
            w.name,
            w.runs.join(", "),
            w.why
        ));
    }
    out.push_str(
        "\n### End-to-end metrics\n\n| name | unit | better | bound | on `sim_*` | on `rt_*` | on `serve_*` |\n|---|---|---|---|---|---|---|\n",
    );
    for m in &END_TO_END {
        out.push_str(&format!(
            "| `{}` | {} | {} | {} | {} | {} | {} |\n",
            m.name,
            m.unit,
            m.better.label(),
            m.bound,
            m.sim,
            m.rt,
            m.serve
        ));
    }
    out.push_str(
        "\n### Per-layer metrics and the end-to-end metric each should move\n\n| name | unit | better | should move | definition |\n|---|---|---|---|---|\n",
    );
    for m in PER_LAYER {
        out.push_str(&format!(
            "| `{}` | {} | {} | {} | {} |\n",
            m.name,
            m.unit,
            m.better.label(),
            m.moves,
            m.what
        ));
    }
    out
}

/// Four significant digits, no exponent.
fn digits(v: f64) -> String {
    let decimals = match v.abs() {
        a if a >= 1000.0 => 0,
        a if a >= 100.0 => 1,
        a if a >= 10.0 => 2,
        a if a >= 1.0 => 3,
        _ => 4,
    };
    format!("{v:.decimals$}")
}

fn median_and_quartiles(s: Summary) -> String {
    if s.n < 2 {
        return digits(s.median);
    }
    format!("{} [{}, {}]", digits(s.median), digits(s.q1), digits(s.q3))
}

/// Interquartile distance over the median, as the driver computes it.
fn spread_percent(s: Summary) -> String {
    format!(
        "{:.1} %",
        crate::stats::ratio(s.q3 - s.q1, s.median) * 100.0
    )
}

/// The README's baseline: every end-to-end metric (median and quartiles
/// over the file's runs, then their run-to-run spread), and every
/// per-layer metric some workload exercises.
pub fn baseline_markdown(results: &Results) -> String {
    let fields: Vec<String> = results
        .provenance
        .iter()
        .map(|(k, v)| format!("{k}: {v}"))
        .collect();
    let runs_per = results
        .runs
        .iter()
        .filter(|r| r.workload == WORKLOADS[0].name && !r.traced)
        .count();
    let mut out = format!(
        "Measured by `benchmark --repeat {runs_per} --trace --out …` ({}): \
         {runs_per} runs per workload with consecutive seeds.\n\n",
        fields.join("; ")
    );
    let header: Vec<String> = WORKLOADS.iter().map(|w| format!("`{}`", w.name)).collect();
    let rule = "|---".repeat(WORKLOADS.len() + 2);
    let mut table = |title: &str, rows: &[(&str, &str)], render: fn(Summary) -> String| {
        out.push_str(&format!(
            "#### {title}\n\n| metric | unit | {} |\n{rule}|\n",
            header.join(" | ")
        ));
        for (name, unit) in rows {
            let cells: Vec<Summary> = WORKLOADS
                .iter()
                .map(|w| results.summary(w.name, name))
                .collect();
            if cells.iter().all(|s| s.n == 0 || s.median == 0.0) {
                continue;
            }
            let cells: Vec<String> = cells
                .into_iter()
                .map(|s| {
                    if s.median == 0.0 {
                        "·".to_owned()
                    } else {
                        render(s)
                    }
                })
                .collect();
            out.push_str(&format!("| `{name}` | {unit} | {} |\n", cells.join(" | ")));
        }
        out.push('\n');
    };
    let rows: Vec<(&str, &str)> = END_TO_END.iter().map(|m| (m.name, m.unit)).collect();
    table(
        "End to end (spans off): median [quartiles]",
        &rows,
        median_and_quartiles,
    );
    table(
        "End to end: run-to-run spread (interquartile distance over median)",
        &rows,
        spread_percent,
    );
    let rows: Vec<(&str, &str)> = PER_LAYER.iter().map(|m| (m.name, m.unit)).collect();
    table(
        "Per layer (traced run): median; `·` = layer not exercised",
        &rows,
        |s| digits(s.median),
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A file at the repository root: the nearest directory above the
    /// test's that holds `BENCHMARK.json`.
    fn root_file(name: &str) -> String {
        let mut dir = std::env::current_dir().unwrap();
        while !dir.join("BENCHMARK.json").is_file() {
            assert!(dir.pop(), "no BENCHMARK.json above the test's directory");
        }
        std::fs::read_to_string(dir.join(name)).unwrap_or_else(|e| panic!("{name}: {e}"))
    }

    /// The settings of a manifest's `[profile.release]` table, sorted.
    fn release_profile(manifest: &str) -> Vec<String> {
        let mut settings: Vec<String> = manifest
            .lines()
            .skip_while(|l| l.trim() != "[profile.release]")
            .skip(1)
            .take_while(|l| !l.starts_with('['))
            .map(|l| l.replace(' ', ""))
            .filter(|l| !l.is_empty() && !l.starts_with('#'))
            .collect();
        settings.sort();
        settings
    }

    /// The benchmark is built as users' binaries are.
    #[test]
    fn release_profile_is_the_root_manifests() {
        let own = release_profile(include_str!("../Cargo.toml"));
        assert!(!own.is_empty());
        assert_eq!(own, release_profile(&root_file("Cargo.toml")));
    }

    /// The committed `BENCHMARK.json` is the registry's rendering.
    #[test]
    fn committed_manifest_matches_the_registry() {
        let committed = root_file("BENCHMARK.json");
        assert_eq!(
            committed,
            manifest_json(),
            "run `benchmark manifest > BENCHMARK.json`"
        );
        let doc = parse(&committed).expect("BENCHMARK.json is JSON");
        let Json::Obj(keys) = &doc else {
            panic!("not an object")
        };
        let keys: Vec<&str> = keys.keys().map(String::as_str).collect();
        assert_eq!(
            keys,
            [
                "command",
                "end_to_end",
                "paths",
                "per_layer",
                "run_seconds",
                "workloads"
            ]
        );
        assert!(committed.len() <= 64 << 10);
    }

    #[test]
    fn a_results_file_round_trips() {
        let line = "{\"correct\":true,\"attempted\":10,\"failed\":0,\"metrics\":\
                    {\"setup_s\":{\"value\":0.25,\"unit\":\"s\"}}}";
        let run = Run::parse("sim_loops", 4, false, line).unwrap();
        let json = results_json(&Provenance::collect(4, 1.0), &[run]);
        let back = Results::parse("memory", &json).unwrap();
        assert_eq!(back.values("sim_loops", "setup_s"), [0.25]);
        assert_eq!(back.runs[0].seed, 4);
        assert_eq!(back.provenance["seed"], "4");
    }
}
