//! Response checking, statistics, and the result artifacts.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;

use planartest_service::wire::Value;

use crate::client::Sample;
use crate::workload::{Entry, Expect, Member, Op, Prop};

/// What one response says, once checked against its request and the
/// corpus certificates.
#[derive(Debug, Default, Clone)]
pub struct Judged {
    /// `ok:true` and shaped like an answer to this very request.
    pub answered: bool,
    /// Verdicts the response carries.
    pub verdicts: u64,
    /// Verdicts a certificate pins down.
    pub checked: u64,
    /// Verdicts that contradict their certificate.
    pub wrong: u64,
    /// `(rounds, messages)` of every query in the response.
    pub cost: Vec<(u64, u64)>,
    /// Per query: answered from a reject certificate, so `cost` is the
    /// certifying run's, not this seed's.
    pub certificate: Vec<bool>,
    /// Per query: `[queue, resolve, execute, respond, total]` µs.
    pub stages: Vec<[u64; 5]>,
    /// Some query of the response paid an engine pass.
    pub cold: bool,
}

fn prop_name(prop: Prop) -> &'static str {
    match prop {
        Prop::Planarity => "planarity",
        Prop::CycleFreeness => "cycle_freeness",
        Prop::Bipartiteness => "bipartiteness",
    }
}

/// Checks one response line against the request that caused it.
pub fn judge(sample: &Sample, corpus: &[Entry]) -> Judged {
    let mut j = Judged::default();
    let Some(line) = &sample.resp else {
        return j;
    };
    let Ok(v) = Value::parse(line.trim()) else {
        return j;
    };
    if v.get("ok").and_then(Value::as_bool) != Some(true) {
        return j;
    }
    j.answered = match &sample.req.op {
        Op::Query(m) => judge_query(&v, m, corpus, &mut j),
        Op::Batch(members) => match v.get("responses").and_then(Value::as_arr) {
            Some(rs) if rs.len() == members.len() => {
                let mut all = true;
                for (r, m) in rs.iter().zip(members) {
                    all &= r.get("ok").and_then(Value::as_bool) == Some(true)
                        && judge_query(r, m, corpus, &mut j);
                }
                all
            }
            _ => false,
        },
        Op::Ingest(name) => v.get("name").and_then(Value::as_str) == Some(name.as_str()),
        Op::Stats => v.get("graphs").is_some(),
    };
    j
}

fn judge_query(v: &Value, m: &Member, corpus: &[Entry], j: &mut Judged) -> bool {
    let accepted = match v.get("verdict").and_then(Value::as_str) {
        Some("accept") => true,
        Some("reject") => false,
        _ => return false,
    };
    let cache = v.get("cache").and_then(Value::as_str).unwrap_or("");
    // A certificate replays the certifying run, so it carries that
    // run's seed; every other answer is for the seed asked.
    let seed_ok = cache == "certificate" || v.get("seed").and_then(Value::as_u64) == Some(m.seed);
    let prop_ok = v.get("property").and_then(Value::as_str) == Some(prop_name(m.prop));
    j.verdicts += 1;
    match corpus[m.graph].expect(m.prop) {
        Expect::Accept => {
            j.checked += 1;
            j.wrong += u64::from(!accepted);
        }
        Expect::Reject => {
            j.checked += 1;
            j.wrong += u64::from(accepted);
        }
        Expect::Either => {}
    }
    let num = |k: &str| v.get(k).and_then(Value::as_u64);
    j.cost
        .push((num("rounds").unwrap_or(0), num("messages").unwrap_or(0)));
    let stage = |k: &str| {
        v.get("stages")
            .and_then(|s| s.get(k))
            .and_then(Value::as_u64)
            .unwrap_or(0)
    };
    j.stages.push([
        stage("queue_micros"),
        stage("resolve_micros"),
        stage("execute_micros"),
        stage("respond_micros"),
        stage("total_micros"),
    ]);
    j.certificate.push(cache == "certificate");
    j.cold |= cache == "cold";
    seed_ok && prop_ok && num("rounds").is_some()
}

/// Nearest-rank percentile (0 when empty).
pub fn percentile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

pub fn median(values: &[f64]) -> f64 {
    percentile(values, 0.5)
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Named metrics with units, in insertion order.
#[derive(Debug, Default)]
pub struct Metrics(pub Vec<(String, f64, &'static str)>);

impl Metrics {
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        self.0.push((name.to_string(), value, unit));
    }

    /// `{"name":{"value":v,"unit":"u"},...}`; a non-finite value is
    /// written as 0 (the caller reports such a run as incorrect).
    pub fn json(&self) -> String {
        let mut out = String::from("{");
        for (i, (name, value, unit)) in self.0.iter().enumerate() {
            let v = if value.is_finite() { *value } else { 0.0 };
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(out, "{sep}\"{name}\":{{\"value\":{v},\"unit\":\"{unit}\"}}");
        }
        out.push('}');
        out
    }

    pub fn value(&self) -> Value {
        self.0.iter().fold(Value::obj(), |acc, (name, v, unit)| {
            acc.field(name, Value::obj().field("value", *v).field("unit", *unit))
        })
    }

    pub fn all_finite(&self) -> bool {
        self.0.iter().all(|(_, v, _)| v.is_finite())
    }
}

/// Where this run happened: commit, source digest, hardware and
/// toolchain.
pub fn stamp(digest: &str) -> Value {
    let run = |cmd: &str, args: &[&str]| {
        std::process::Command::new(cmd)
            .args(args)
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
            .unwrap_or_else(|| "unknown".to_string())
    };
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|l| l.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    Value::obj()
        .field("commit", run("git", &["rev-parse", "HEAD"]))
        .field("source_digest", digest)
        .field("nproc", nproc())
        .field("cpu_model", cpu)
        .field("rustc", run("rustc", &["--version"]))
}

/// `(steal, total)` jiffies of all CPUs from `/proc/stat`: the share
/// of time a hypervisor gave to other guests explains run-to-run noise.
pub fn cpu_jiffies() -> (u64, u64) {
    let text = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let fields: Vec<u64> = text
        .lines()
        .next()
        .unwrap_or("")
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    (fields.get(7).copied().unwrap_or(0), fields.iter().sum())
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// FNV-1a over every file path and content under `roots`, in sorted
/// order: names the measured source (the service's and the
/// benchmark's) where there is no git history to ask.
pub fn source_digest(roots: &[&Path]) -> String {
    fn walk(dir: &Path, files: &mut Vec<std::path::PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for e in entries.flatten() {
            let p = e.path();
            if p.is_dir() {
                walk(&p, files);
            } else {
                files.push(p);
            }
        }
    }
    let mut files = Vec::new();
    for root in roots {
        walk(root, &mut files);
    }
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for f in files {
        let bytes = std::fs::read(&f).unwrap_or_default();
        for b in f.to_string_lossy().bytes().chain(bytes) {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    format!("{h:016x}")
}

/// Per span name: total self time (duration minus the part its child
/// spans cover), in ms.
pub fn self_times(spans: &[crate::layers::Span]) -> BTreeMap<&'static str, f64> {
    let mut child_us = vec![0.0; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_us[p] += s.end_us - s.start_us;
        }
    }
    let mut out = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        *out.entry(s.name).or_insert(0.0) += (s.end_us - s.start_us - child_us[i]) / 1000.0;
    }
    out
}
