//! One report schema, one comparator and one driver for every regression
//! gate (DESIGN.md §13).
//!
//! Every gated bench — `core`, `ingest`, `shuffle`, `serve`, `obs` —
//! measures into the same [`Report`]: a flat list of
//! `{case, metric, value, gate}` [`Row`]s. A row's gates are set by the
//! bench code at measurement time; a baseline contributes values only,
//! never thresholds (rows read back from JSON carry no gates at all), so
//! editing a baseline file can move what a relative gate compares against
//! but can never loosen one. Checks that compare two numbers of the same
//! run (cache-on ≡ cache-off, aware vs hash makespan) are *derived rows*
//! whose value is the difference, gated against a fixed cap.
//!
//! The committed baselines live in one file, `BENCH_baseline.json`: a
//! JSON array holding one report section per bench. A `--json` report of
//! a bench is a valid section as it stands.

use crate::table::Table;
use crate::{path_flag, quick};
use serde::{DeError, Deserialize, Serialize, Value};
use std::fmt;
use std::io::{self, Write};
use std::path::Path;
use std::process::ExitCode;

/// One check a row's value must pass.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub enum Gate {
    /// `value ≥ x`.
    Floor(f64),
    /// `value ≤ x`.
    Cap(f64),
    /// `base·(1 − below) ≤ value ≤ base·(1 + above)` for the baseline's
    /// value `base`; `above = ∞` bounds one side only.
    Band { below: f64, above: f64 },
    /// `value == base`, checked only against a baseline measured in the
    /// same mode (quick and full runs measure different worlds).
    Exact,
}

impl fmt::Display for Gate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Gate::Floor(x) => write!(f, ">= {x}"),
            Gate::Cap(x) => write!(f, "<= {x}"),
            Gate::Band { below, above } if above.is_infinite() => {
                write!(f, ">= base -{:.0}%", below * 100.0)
            }
            Gate::Band { below, above } => {
                write!(f, "base -{:.0}%/+{:.0}%", below * 100.0, above * 100.0)
            }
            Gate::Exact => write!(f, "= base"),
        }
    }
}

/// One measured number.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Row {
    /// What was measured: a phase, a sweep point, a plane.
    pub case: String,
    /// Which quantity of it.
    pub metric: String,
    /// The measurement.
    pub value: f64,
    /// Checks the value must pass; empty = reported, not gated.
    pub gate: Vec<Gate>,
}

impl Row {
    /// An ungated row.
    pub fn new(case: impl Into<String>, metric: impl Into<String>, value: f64) -> Self {
        Row {
            case: case.into(),
            metric: metric.into(),
            value,
            gate: Vec::new(),
        }
    }

    /// The same row under `gate`.
    pub fn gated(mut self, gate: impl IntoIterator<Item = Gate>) -> Self {
        self.gate.extend(gate);
        self
    }
}

/// A row read back from JSON keeps its identity and value only: the
/// thresholds a gate enforces come from the code that measures.
impl Deserialize for Row {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        let field = |name| v.get(name).unwrap_or(&Value::Null);
        Ok(Row::new(
            String::from_value(field("case"))?,
            String::from_value(field("metric"))?,
            f64::from_value(field("value"))?,
        ))
    }
}

/// One bench's measurement (or one section of the baseline file).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Report {
    /// The bench that measured it: `core`, `ingest`, `shuffle`, `serve`
    /// or `obs`.
    pub bench: String,
    /// Whether the run used the shrunken `--quick` sweep.
    pub quick: bool,
    /// The measurement, in the order the bench took it.
    pub rows: Vec<Row>,
}

impl Report {
    /// `bench`'s report of `rows`.
    pub fn new(bench: &str, quick: bool, rows: Vec<Row>) -> Self {
        Report {
            bench: bench.to_string(),
            quick,
            rows,
        }
    }

    /// The value of `(case, metric)`, if measured.
    pub fn value(&self, case: &str, metric: &str) -> Option<f64> {
        self.rows
            .iter()
            .find(|r| r.case == case && r.metric == metric)
            .map(|r| r.value)
    }

    /// The human-readable table.
    pub fn render(&self) -> String {
        let mut t = Table::new(["case", "metric", "value", "gate"]);
        for r in &self.rows {
            let gates: Vec<String> = r.gate.iter().map(Gate::to_string).collect();
            t.row([
                r.case.clone(),
                r.metric.clone(),
                fmt_value(r.value),
                gates.join(", "),
            ]);
        }
        format!(
            "== {} bench{} ==\n{}",
            self.bench,
            if self.quick { " (quick)" } else { "" },
            t.render()
        )
    }
}

/// Integers print whole; everything else to four decimals.
fn fmt_value(x: f64) -> String {
    if x.fract() == 0.0 && x.abs() < 1e15 {
        format!("{x:.0}")
    } else {
        format!("{x:.4}")
    }
}

/// The comparator: every gate of every `current` row, plus every
/// `baseline` row the measurement no longer produces. Returns the
/// violations; empty = pass.
pub fn check(current: &Report, baseline: &Report) -> Vec<String> {
    let name = &current.bench;
    let same_mode = current.quick == baseline.quick;
    let mut violations = Vec::new();
    if !same_mode && current.rows.iter().any(|r| r.gate.contains(&Gate::Exact)) {
        violations.push(format!(
            "{name}: quick-mode mismatch: measurement quick={} vs baseline quick={} — run \
             the gate in the baseline's mode or regenerate the baseline",
            current.quick, baseline.quick
        ));
    }
    for b in &baseline.rows {
        if current.value(&b.case, &b.metric).is_none() {
            violations.push(format!(
                "{name} {} {}: in the baseline but not in the measurement",
                b.case, b.metric
            ));
        }
    }
    for row in &current.rows {
        let base = baseline.value(&row.case, &row.metric);
        for &gate in &row.gate {
            let x = row.value;
            let pass = match (gate, base) {
                (Gate::Floor(floor), _) => x >= floor,
                (Gate::Cap(cap), _) => x <= cap,
                (Gate::Exact, _) if !same_mode => true,
                (Gate::Band { below, above }, Some(b)) => {
                    x >= b * (1.0 - below) && x <= b * (1.0 + above)
                }
                (Gate::Exact, Some(b)) => x == b,
                (Gate::Band { .. } | Gate::Exact, None) => false,
            };
            if !pass {
                let base = match base {
                    Some(b) => format!("baseline {}", fmt_value(b)),
                    None => "no baseline row".to_string(),
                };
                violations.push(format!(
                    "{name} {} {} = {} fails {gate} ({base})",
                    row.case,
                    row.metric,
                    fmt_value(x)
                ));
            }
        }
    }
    violations
}

/// A gated bench as the driver runs it.
pub struct Bench {
    /// Report and baseline-section name.
    pub name: &'static str,
    /// Measure one report; the flag is `--quick`.
    pub measure: fn(bool) -> Report,
    /// Measurements the gate may take before it rules. Only `obs` takes
    /// more than one: its caps are wall-clock fractions that host noise
    /// can inflate but never hide, so a real regression fails every
    /// attempt while a noise spike rarely survives a re-measure.
    pub attempts: usize,
}

/// The `bench` section of the baseline file at `path`. A missing or
/// unreadable file keeps its I/O error kind; anything that is not a
/// baseline with a `bench` section is [`io::ErrorKind::InvalidData`].
pub fn load_baseline(path: &Path, bench: &str) -> io::Result<Report> {
    let at = |kind, msg: String| io::Error::new(kind, format!("{}: {msg}", path.display()));
    let raw = std::fs::read(path).map_err(|e| at(e.kind(), e.to_string()))?;
    let sections: Vec<Report> = serde_json::from_slice(&raw).map_err(|e| {
        at(
            io::ErrorKind::InvalidData,
            format!("not a bench baseline: {e}"),
        )
    })?;
    sections
        .into_iter()
        .find(|s| s.bench == bench)
        .ok_or_else(|| at(io::ErrorKind::InvalidData, format!("no `{bench}` section")))
}

/// Measure, print, write `json` and gate against `baseline`, re-measuring
/// up to `bench.attempts` times while the gate fails. Returns the final
/// measurement's violations.
pub fn run(
    bench: &Bench,
    quick: bool,
    json: Option<&Path>,
    baseline: Option<(&Path, &Report)>,
    out: &mut dyn Write,
) -> io::Result<Vec<String>> {
    let mut attempt = 1;
    let (report, violations) = loop {
        let report = (bench.measure)(quick);
        write!(out, "{}", report.render())?;
        let violations = baseline.map_or_else(Vec::new, |(_, b)| check(&report, b));
        if violations.is_empty() || attempt == bench.attempts {
            break (report, violations);
        }
        writeln!(
            out,
            "{} gate: attempt {attempt}/{} failed; re-measuring",
            bench.name, bench.attempts
        )?;
        for v in &violations {
            writeln!(out, "  - {v}")?;
        }
        attempt += 1;
    };
    if let Some(path) = json {
        std::fs::write(path, serde_json::to_vec_pretty(&report)?)?;
        writeln!(out, "wrote JSON report to {}", path.display())?;
    }
    if let Some((path, _)) = baseline {
        let verdict = if violations.is_empty() {
            "PASS"
        } else {
            "FAIL"
        };
        writeln!(
            out,
            "{} gate: {verdict} against {}",
            bench.name,
            path.display()
        )?;
        for v in &violations {
            writeln!(out, "  - {v}")?;
        }
    }
    Ok(violations)
}

/// The whole `main` of a gate binary:
/// `<bin> [--quick] [--json OUT.json] [--baseline BENCH_baseline.json]`.
/// The baseline is read before measuring, so a bad path fails at once.
pub fn main(bench: &Bench) -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut rest = args.iter();
    while let Some(a) = rest.next() {
        let ok = match a.as_str() {
            "--quick" => true,
            "--json" | "--baseline" => rest.next().is_some(),
            _ => false,
        };
        if !ok {
            eprintln!(
                "usage: {} [--quick] [--json OUT.json] [--baseline FILE]",
                bench.name
            );
            return ExitCode::FAILURE;
        }
    }
    let baseline_path = path_flag("--baseline");
    let loaded = baseline_path
        .as_deref()
        .map(|p| load_baseline(p, bench.name));
    let baseline = match loaded.transpose() {
        Ok(baseline) => baseline,
        Err(e) => {
            eprintln!("cannot load baseline: {e}");
            return ExitCode::FAILURE;
        }
    };
    let json = path_flag("--json");
    let base = baseline_path.as_deref().zip(baseline.as_ref());
    match run(bench, quick(), json.as_deref(), base, &mut io::stdout()) {
        Ok(v) if v.is_empty() => ExitCode::SUCCESS,
        Ok(_) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("{}: {e}", bench.name);
            ExitCode::FAILURE
        }
    }
}

/// A report read back from its JSON keeps every row's identity and value
/// and drops every gate.
#[cfg(test)]
pub(crate) fn assert_roundtrips(r: &Report) {
    let back: Report = serde_json::from_str(&serde_json::to_string(r).unwrap()).unwrap();
    assert_eq!((&back.bench, back.quick), (&r.bench, r.quick));
    assert_eq!(back.rows.len(), r.rows.len());
    for (a, b) in r.rows.iter().zip(&back.rows) {
        assert_eq!((&a.case, &a.metric, a.value), (&b.case, &b.metric, b.value));
        assert!(
            b.gate.is_empty(),
            "{} {} read back a gate",
            b.case,
            b.metric
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::OnceLock;
    use Gate::{Cap, Exact, Floor};

    /// One quick measurement of every gated bench, shared by the tests.
    fn measured() -> &'static [Report] {
        static REPORTS: OnceLock<Vec<Report>> = OnceLock::new();
        REPORTS.get_or_init(|| {
            [
                crate::core::BENCH,
                crate::ingest::BENCH,
                crate::shuffle::BENCH,
                crate::serve::BENCH,
                crate::obs::BENCH,
            ]
            .iter()
            .map(|b| (b.measure)(true))
            .collect()
        })
    }

    /// Every check the benches enforce, with its threshold: `(bench, case,
    /// metric, gates)`.
    fn expected() -> Vec<(&'static str, String, &'static str, Vec<Gate>)> {
        let band = |below, above| Gate::Band { below, above };
        let mut rows = vec![
            (
                "core",
                "build".into(),
                "speedup",
                vec![Floor(1.5), band(0.15, f64::INFINITY)],
            ),
            (
                "core",
                "query".into(),
                "speedup",
                vec![Floor(1.3), band(0.15, f64::INFINITY)],
            ),
            (
                "core",
                "planner".into(),
                "speedup",
                vec![Floor(1.3), band(0.15, f64::INFINITY)],
            ),
            (
                "ingest",
                "incremental".into(),
                "speedup",
                vec![Floor(3.0), band(0.20, f64::INFINITY)],
            ),
            (
                "shuffle",
                "s=1.2".into(),
                "bytes_reduction",
                vec![Floor(2.0), band(0.20, 0.20)],
            ),
            (
                "shuffle",
                "s=0.0".into(),
                "aware_minus_hash_makespan_secs",
                vec![Cap(0.0)],
            ),
            (
                "serve",
                "tenants=64".into(),
                "cache_speedup",
                vec![Floor(2.0)],
            ),
            (
                "obs",
                "metrics".into(),
                "overhead_fraction",
                vec![Cap(0.02)],
            ),
            ("obs", "trace".into(), "overhead_fraction", vec![Cap(0.05)]),
        ];
        for t in [1, 8, 64] {
            rows.push((
                "serve",
                format!("tenants={t}"),
                "cache_outcome_mismatches",
                vec![Cap(0.0)],
            ));
            for m in [
                "completed",
                "rejected",
                "shed",
                "sim_p50_latency_us",
                "sim_p99_latency_us",
                "cache_misses",
            ] {
                rows.push(("serve", format!("tenants={t} cache=on"), m, vec![Exact]));
            }
        }
        rows
    }

    /// `check` of a one-row measurement `x` under `gate` against a
    /// one-row baseline `base`, both in full mode.
    fn check_one(case: &str, metric: &str, gate: Gate, base: f64, x: f64) -> Vec<String> {
        let current = Report::new("t", false, vec![Row::new(case, metric, x).gated([gate])]);
        let baseline = Report::new("t", false, vec![Row::new(case, metric, base)]);
        check(&current, &baseline)
    }

    #[test]
    fn check_fires_just_past_every_gate_boundary() {
        let expected = expected();
        // The table is exactly what the benches emit: no gate missing,
        // none extra, every threshold as listed.
        for r in measured() {
            for row in r.rows.iter().filter(|row| !row.gate.is_empty()) {
                let listed = expected
                    .iter()
                    .find(|(b, c, m, _)| *b == r.bench && *c == row.case && *m == row.metric);
                assert_eq!(
                    listed.map(|e| &e.3),
                    Some(&row.gate),
                    "{} {} {}",
                    r.bench,
                    row.case,
                    row.metric
                );
            }
        }
        for (bench, case, metric, gates) in &expected {
            let report = measured().iter().find(|r| r.bench == *bench).unwrap();
            assert!(
                report.value(case, metric).is_some(),
                "{bench} no longer emits {case} {metric}"
            );
            for &gate in gates {
                let eps = |x: f64| 1e-9 * x.abs().max(1.0);
                // (baseline, value at the boundary, value just past it)
                let points = match gate {
                    Floor(f) => vec![(f, f, f - eps(f))],
                    Cap(c) => vec![(c, c, c + eps(c))],
                    Gate::Band { below, above } => {
                        let lo = 10.0 * (1.0 - below);
                        let mut p = vec![(10.0, lo, lo - eps(lo))];
                        if above.is_finite() {
                            let hi = 10.0 * (1.0 + above);
                            p.push((10.0, hi, hi + eps(hi)));
                        }
                        p
                    }
                    Exact => vec![(1234.0, 1234.0, 1235.0)],
                };
                for (base, boundary, past) in points {
                    let v = check_one(case, metric, gate, base, boundary);
                    assert!(
                        v.is_empty(),
                        "{bench} {case} {metric} {gate} at boundary: {v:?}"
                    );
                    let v = check_one(case, metric, gate, base, past);
                    assert_eq!(v.len(), 1, "{bench} {case} {metric} {gate} past: {v:?}");
                    assert!(v[0].contains(&gate.to_string()), "{v:?}");
                }
            }
        }
    }

    #[test]
    fn check_flags_mode_mismatches_and_missing_rows() {
        let row = |gate| Row::new("tenants=8 cache=on", "completed", 682.0).gated([gate]);
        let base = Report::new(
            "serve",
            false,
            vec![Row::new("tenants=8 cache=on", "completed", 682.0)],
        );

        // Exact rows compare only within one mode; a quick run against a
        // full baseline is one violation, whatever the values.
        let quick = Report::new("serve", true, vec![row(Exact)]);
        let v = check(&quick, &base);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].contains("quick-mode mismatch"), "{v:?}");
        // Bands and absolute gates still compare across modes.
        let band = Gate::Band {
            below: 0.2,
            above: 0.2,
        };
        assert!(check(&Report::new("serve", true, vec![row(band)]), &base).is_empty());

        // A relative gate without a baseline row fails...
        let v = check(
            &Report::new("serve", false, vec![row(band)]),
            &Report::new("serve", false, vec![]),
        );
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].contains("no baseline row"), "{v:?}");
        // ...and so does a baseline row the measurement dropped.
        let v = check(&Report::new("serve", false, vec![]), &base);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].contains("not in the measurement"), "{v:?}");
    }

    #[test]
    fn baseline_files_supply_values_never_gates() {
        let raw = r#"[{"bench": "core", "quick": false, "rows": [
            {"case": "build", "metric": "speedup", "value": 1.6, "gate": [{"Floor": 0.0}]}
        ]}]"#;
        let dir = std::env::temp_dir().join(format!("datanet-gate-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("base.json");
        std::fs::write(&path, raw).unwrap();
        let base = load_baseline(&path, "core").unwrap();
        assert_eq!(base.rows, vec![Row::new("build", "speedup", 1.6)]);
        let err = load_baseline(&path, "serve").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        std::fs::write(&path, "not json").unwrap();
        assert_eq!(
            load_baseline(&path, "core").unwrap_err().kind(),
            io::ErrorKind::InvalidData
        );
        let _ = std::fs::remove_dir_all(&dir);
        assert_eq!(
            load_baseline(&dir.join("absent.json"), "core")
                .unwrap_err()
                .kind(),
            io::ErrorKind::NotFound
        );
    }

    /// A renamed metric must fail here, not silently drop its check.
    #[test]
    fn committed_baseline_covers_every_relative_gate() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_baseline.json");
        for r in measured() {
            let base = load_baseline(&path, &r.bench).unwrap();
            for row in &r.rows {
                if row
                    .gate
                    .iter()
                    .any(|g| matches!(g, Gate::Band { .. } | Exact))
                {
                    assert!(
                        base.value(&row.case, &row.metric).is_some(),
                        "BENCH_baseline.json has no {} {} {}",
                        r.bench,
                        row.case,
                        row.metric
                    );
                }
            }
            for b in &base.rows {
                assert!(
                    r.value(&b.case, &b.metric).is_some(),
                    "stale baseline row {} {} {}",
                    r.bench,
                    b.case,
                    b.metric
                );
            }
        }
    }
}
