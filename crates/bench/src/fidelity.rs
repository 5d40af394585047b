//! The paper-fidelity regression gate.
//!
//! `fidelity.toml` (checked in at the repository root) freezes the key
//! numbers of every reproduced figure — each with the paper's value as an
//! anchor and the value this simulator produced when the baseline was
//! frozen — and the gate reruns the scaled experiment suite and fails when
//! any number drifts outside its tolerance. The simulator is analytic and
//! deterministic, so tolerances are tight: a failing gate means a model
//! change moved a result the paper pins down, and the failure names the
//! figure so the diff can be judged against `EXPERIMENTS.md`.
//!
//! The file is a small TOML subset parsed here by hand (no TOML crate in
//! the tree): one optional top-level `scale = <f64>`, then `[[check]]`
//! tables with `id`, `figure`, `metric`, `expect`, `tol_pct` and optional
//! `paper` / `abs` keys. Strings are double-quoted; `#` starts a comment.

use crate::figures::{self, Scale};
use pim_device::engine::EngineParams;

/// One frozen number: where to find it and how much it may move.
#[derive(Debug, Clone, PartialEq)]
pub struct FidelityCheck {
    /// Stable identifier, named in failure output.
    pub id: String,
    /// Figure selector: `fig17`, `fig18`, `fig21`, `fig22`, `fig23`,
    /// `table5`, `area`, `fabrication` or `cluster`.
    pub figure: String,
    /// Metric selector within the figure (see [`FigureCache::value`]).
    pub metric: String,
    /// The paper's published value (informational anchor; not gated).
    pub paper: Option<f64>,
    /// The frozen baseline value at the spec's scale.
    pub expect: f64,
    /// Allowed relative drift from `expect`, percent.
    pub tol_pct: f64,
    /// Optional absolute slack (useful near zero).
    pub abs: Option<f64>,
}

impl FidelityCheck {
    /// The absolute drift this check tolerates.
    pub fn allowed(&self) -> f64 {
        let rel = self.expect.abs() * self.tol_pct / 100.0;
        rel.max(self.abs.unwrap_or(0.0))
    }
}

/// A parsed `fidelity.toml`.
#[derive(Debug, Clone, PartialEq)]
pub struct FidelitySpec {
    /// Problem-size scale the expects were frozen at.
    pub scale: f64,
    /// The checks, in file order.
    pub checks: Vec<FidelityCheck>,
}

/// Drops a `#` comment, respecting double-quoted strings.
fn strip_comment(line: &str) -> &str {
    let mut in_str = false;
    for (i, c) in line.char_indices() {
        match c {
            '"' => in_str = !in_str,
            '#' if !in_str => return &line[..i],
            _ => {}
        }
    }
    line
}

#[derive(Debug, Default)]
struct PartialCheck {
    id: Option<String>,
    figure: Option<String>,
    metric: Option<String>,
    paper: Option<f64>,
    expect: Option<f64>,
    tol_pct: Option<f64>,
    abs: Option<f64>,
}

impl PartialCheck {
    fn finish(self, line: usize) -> Result<FidelityCheck, String> {
        let need = |f: Option<String>, name: &str| {
            f.ok_or_else(|| format!("check ending at line {line}: missing `{name}`"))
        };
        Ok(FidelityCheck {
            id: need(self.id, "id")?,
            figure: need(self.figure, "figure")?,
            metric: need(self.metric, "metric")?,
            paper: self.paper,
            expect: self
                .expect
                .ok_or_else(|| format!("check ending at line {line}: missing `expect`"))?,
            tol_pct: self
                .tol_pct
                .ok_or_else(|| format!("check ending at line {line}: missing `tol_pct`"))?,
            abs: self.abs,
        })
    }
}

impl FidelitySpec {
    /// Parses the TOML subset described in the module docs.
    ///
    /// # Errors
    ///
    /// Returns a message naming the offending line for anything outside the
    /// subset, malformed values, or checks missing required keys.
    pub fn parse(text: &str) -> Result<FidelitySpec, String> {
        let mut scale = None;
        let mut checks = Vec::new();
        let mut current: Option<PartialCheck> = None;
        for (i, raw) in text.lines().enumerate() {
            let n = i + 1;
            let line = strip_comment(raw).trim();
            if line.is_empty() {
                continue;
            }
            if line == "[[check]]" {
                if let Some(c) = current.take() {
                    checks.push(c.finish(n)?);
                }
                current = Some(PartialCheck::default());
                continue;
            }
            if line.starts_with('[') {
                return Err(format!("line {n}: only [[check]] tables are supported"));
            }
            let (key, value) = line
                .split_once('=')
                .ok_or_else(|| format!("line {n}: expected `key = value`"))?;
            let (key, value) = (key.trim(), value.trim());
            let string = |v: &str| -> Result<String, String> {
                v.strip_prefix('"')
                    .and_then(|s| s.strip_suffix('"'))
                    .map(str::to_string)
                    .ok_or_else(|| format!("line {n}: `{key}` must be a quoted string"))
            };
            let number = |v: &str| -> Result<f64, String> {
                v.parse::<f64>()
                    .map_err(|_| format!("line {n}: `{key}` must be a number"))
            };
            match (&mut current, key) {
                (None, "scale") => scale = Some(number(value)?),
                (None, _) => return Err(format!("line {n}: unknown top-level key `{key}`")),
                (Some(c), "id") => c.id = Some(string(value)?),
                (Some(c), "figure") => c.figure = Some(string(value)?),
                (Some(c), "metric") => c.metric = Some(string(value)?),
                (Some(c), "paper") => c.paper = Some(number(value)?),
                (Some(c), "expect") => c.expect = Some(number(value)?),
                (Some(c), "tol_pct") => c.tol_pct = Some(number(value)?),
                (Some(c), "abs") => c.abs = Some(number(value)?),
                (Some(_), _) => return Err(format!("line {n}: unknown check key `{key}`")),
            }
        }
        if let Some(c) = current.take() {
            checks.push(c.finish(text.lines().count())?);
        }
        if checks.is_empty() {
            return Err("no [[check]] tables found".into());
        }
        Ok(FidelitySpec {
            scale: scale.unwrap_or(0.1),
            checks,
        })
    }

    /// Renders the spec back to the TOML subset (stable formatting; used to
    /// freeze new expect values with `fidelity_gate --write-expect`).
    pub fn to_toml(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        out.push_str(
            "# Paper-fidelity regression baseline (see EXPERIMENTS.md).\n\
             # `expect` values are frozen from a release run at `scale`;\n\
             # `paper` values are the published numbers (informational).\n\
             # Regenerate expects: cargo run --release -p pim-bench --bin fidelity_gate -- --write-expect\n\n",
        );
        let _ = writeln!(out, "scale = {}", self.scale);
        for c in &self.checks {
            out.push_str("\n[[check]]\n");
            let _ = writeln!(out, "id = \"{}\"", c.id);
            let _ = writeln!(out, "figure = \"{}\"", c.figure);
            let _ = writeln!(out, "metric = \"{}\"", c.metric);
            if let Some(p) = c.paper {
                let _ = writeln!(out, "paper = {p}");
            }
            let _ = writeln!(out, "expect = {}", c.expect);
            let _ = writeln!(out, "tol_pct = {}", c.tol_pct);
            if let Some(a) = c.abs {
                let _ = writeln!(out, "abs = {a}");
            }
        }
        out
    }
}

/// Lazily regenerated figures at one scale (each figure runs at most once
/// no matter how many checks read from it).
#[derive(Debug)]
pub struct FigureCache {
    scale: Scale,
    engine: Option<EngineParams>,
    fig17: Option<figures::MetricTable>,
    fig18: Option<figures::MetricTable>,
    fig21: Option<Vec<(u32, f64)>>,
    fig22: Option<Vec<(&'static str, f64)>>,
    fig23: Option<Vec<figures::Fig23Row>>,
    table5: Option<Vec<figures::Table5Row>>,
    cluster: Option<Vec<(&'static str, f64)>>,
}

impl FigureCache {
    /// A cache for `scale`, optionally perturbing the StreamPIM engine.
    pub fn new(scale: f64, engine: Option<EngineParams>) -> Self {
        FigureCache {
            scale: Scale(scale),
            engine,
            fig17: None,
            fig18: None,
            fig21: None,
            fig22: None,
            fig23: None,
            table5: None,
            cluster: None,
        }
    }

    /// Resolves `figure`/`metric` to a value, regenerating the figure on
    /// first use. Metric grammar per figure:
    ///
    /// * `fig17` / `fig18` — `avg:<platform name>` (e.g. `avg:StPIM`);
    /// * `fig21` — the subarray count (`128`..`1024`), yielding the average
    ///   speedup over the 128-subarray baseline;
    /// * `fig22` — the optimization level (`base`/`distribute`/`unblock`);
    /// * `fig23` — `<model>:<platform>` (e.g. `MLP:StPIM`);
    /// * `table5` — `<segment>:time` or `<segment>:energy` (percent);
    /// * `area` — `bus_pct`, `proc_pct` or `transfer_pct`;
    /// * `fabrication` — the process node in nm, yielding pJ per gate;
    /// * `cluster` — `n1_time_ratio`, `n1_energy_ratio` or `n1_identical`
    ///   (single-device-equivalence metrics, frozen at exactly 1).
    ///
    /// # Errors
    ///
    /// Returns a message for unknown figures/metrics or pricing failures.
    pub fn value(&mut self, figure: &str, metric: &str) -> Result<f64, String> {
        let engine = self.engine;
        match figure {
            "fig17" | "fig18" => {
                let slot = if figure == "fig17" {
                    &mut self.fig17
                } else {
                    &mut self.fig18
                };
                if slot.is_none() {
                    let table = if figure == "fig17" {
                        figures::fig17(self.scale, engine.as_ref())
                    } else {
                        figures::fig18(self.scale, engine.as_ref())
                    }
                    .map_err(|e| format!("{figure}: {e}"))?;
                    *slot = Some(table);
                }
                let table = slot.as_ref().expect("just filled");
                let name = metric
                    .strip_prefix("avg:")
                    .ok_or_else(|| format!("{figure}: metric must be `avg:<platform>`"))?;
                table
                    .platforms
                    .iter()
                    .position(|p| p == name)
                    .map(|i| table.averages[i])
                    .ok_or_else(|| format!("{figure}: unknown platform `{name}`"))
            }
            "fig21" => {
                if self.fig21.is_none() {
                    self.fig21 = Some(
                        figures::fig21(self.scale, engine.as_ref())
                            .map_err(|e| format!("fig21: {e}"))?,
                    );
                }
                let count: u32 = metric.parse().map_err(|_| {
                    format!("fig21: metric must be a subarray count, got `{metric}`")
                })?;
                self.fig21
                    .as_ref()
                    .expect("just filled")
                    .iter()
                    .find(|(c, _)| *c == count)
                    .map(|(_, v)| *v)
                    .ok_or_else(|| format!("fig21: no entry for {count} subarrays"))
            }
            "fig22" => {
                if self.fig22.is_none() {
                    self.fig22 = Some(
                        figures::fig22(self.scale, engine.as_ref())
                            .map_err(|e| format!("fig22: {e}"))?,
                    );
                }
                self.fig22
                    .as_ref()
                    .expect("just filled")
                    .iter()
                    .find(|(name, _)| *name == metric)
                    .map(|(_, v)| *v)
                    .ok_or_else(|| format!("fig22: unknown level `{metric}`"))
            }
            "fig23" => {
                if self.fig23.is_none() {
                    self.fig23 =
                        Some(figures::fig23(engine.as_ref()).map_err(|e| format!("fig23: {e}"))?);
                }
                let (model, platform) = metric
                    .split_once(':')
                    .ok_or_else(|| "fig23: metric must be `<model>:<platform>`".to_string())?;
                self.fig23
                    .as_ref()
                    .expect("just filled")
                    .iter()
                    .find(|r| r.model == model && r.platform == platform)
                    .map(|r| r.speedup)
                    .ok_or_else(|| format!("fig23: no row for `{metric}`"))
            }
            "table5" => {
                if self.table5.is_none() {
                    self.table5 = Some(
                        figures::table5(self.scale, engine.as_ref())
                            .map_err(|e| format!("table5: {e}"))?,
                    );
                }
                let (seg, which) = metric
                    .split_once(':')
                    .ok_or_else(|| "table5: metric must be `<segment>:time|energy`".to_string())?;
                let seg: u32 = seg
                    .parse()
                    .map_err(|_| format!("table5: bad segment `{seg}`"))?;
                let row = self
                    .table5
                    .as_ref()
                    .expect("just filled")
                    .iter()
                    .find(|r| r.segment == seg)
                    .ok_or_else(|| format!("table5: no row for segment {seg}"))?;
                match which {
                    "time" => Ok(row.time_overhead_pct),
                    "energy" => Ok(row.energy_delta_pct),
                    other => Err(format!("table5: unknown column `{other}`")),
                }
            }
            "area" => {
                let a = figures::area();
                match metric {
                    "bus_pct" => Ok(a.bus_fraction() * 100.0),
                    "proc_pct" => Ok(a.processor_fraction() * 100.0),
                    "transfer_pct" => Ok(a.transfer_fraction_of_banks() * 100.0),
                    other => Err(format!("area: unknown metric `{other}`")),
                }
            }
            "cluster" => {
                if self.cluster.is_none() {
                    self.cluster = Some(
                        figures::cluster_equivalence_with(engine.as_ref())
                            .map_err(|e| format!("cluster: {e}"))?,
                    );
                }
                self.cluster
                    .as_ref()
                    .expect("just filled")
                    .iter()
                    .find(|(name, _)| *name == metric)
                    .map(|(_, v)| *v)
                    .ok_or_else(|| format!("cluster: unknown metric `{metric}`"))
            }
            "fabrication" => {
                let nm: u32 = metric
                    .parse()
                    .map_err(|_| "fabrication: metric must be a node in nm".to_string())?;
                figures::fabrication()
                    .iter()
                    .find(|(n, _)| *n == nm)
                    .map(|(_, pj)| *pj)
                    .ok_or_else(|| format!("fabrication: no entry for {nm} nm"))
            }
            other => Err(format!("unknown figure `{other}`")),
        }
    }
}

/// One evaluated check.
#[derive(Debug, Clone, PartialEq)]
pub struct CheckResult {
    /// The check that produced this result.
    pub check: FidelityCheck,
    /// The regenerated value.
    pub actual: f64,
    /// Whether `actual` is within tolerance of the frozen expect.
    pub pass: bool,
}

impl CheckResult {
    /// Signed relative drift from the frozen expect, percent.
    pub fn drift_pct(&self) -> f64 {
        if self.actual == self.check.expect {
            0.0
        } else if self.check.expect == 0.0 {
            f64::INFINITY * (self.actual - self.check.expect).signum()
        } else {
            (self.actual - self.check.expect) / self.check.expect.abs() * 100.0
        }
    }
}

/// The gate's verdict over a whole spec.
#[derive(Debug, Clone, PartialEq)]
pub struct FidelityOutcome {
    /// Per-check results, in spec order.
    pub results: Vec<CheckResult>,
}

impl FidelityOutcome {
    /// Whether every check passed.
    pub fn passed(&self) -> bool {
        self.results.iter().all(|r| r.pass)
    }

    /// The failing checks.
    pub fn failures(&self) -> Vec<&CheckResult> {
        self.results.iter().filter(|r| !r.pass).collect()
    }

    /// A fixed-width report table.
    pub fn render(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<26} {:<12} {:<16} {:>10} {:>12} {:>12} {:>9}  status",
            "check", "figure", "metric", "paper", "expect", "actual", "drift"
        );
        for r in &self.results {
            let paper = r
                .check
                .paper
                .map_or_else(|| "-".to_string(), |p| format!("{p:.4}"));
            let _ = writeln!(
                out,
                "{:<26} {:<12} {:<16} {:>10} {:>12.4} {:>12.4} {:>8.2}%  {}",
                r.check.id,
                r.check.figure,
                r.check.metric,
                paper,
                r.check.expect,
                r.actual,
                r.drift_pct(),
                if r.pass { "ok" } else { "FAIL" },
            );
        }
        out
    }
}

/// Reruns every check of `spec`, optionally under a perturbed StreamPIM
/// engine (that is how the gate's own failure path is exercised).
///
/// # Errors
///
/// Returns a message for unresolvable figures/metrics or pricing failures.
pub fn evaluate(
    spec: &FidelitySpec,
    engine: Option<EngineParams>,
) -> Result<FidelityOutcome, String> {
    let mut cache = FigureCache::new(spec.scale, engine);
    let mut results = Vec::with_capacity(spec.checks.len());
    for check in &spec.checks {
        let actual = cache.value(&check.figure, &check.metric)?;
        let pass = (actual - check.expect).abs() <= check.allowed();
        results.push(CheckResult {
            check: check.clone(),
            actual,
            pass,
        });
    }
    Ok(FidelityOutcome { results })
}

/// Applies one `field=value` override to StreamPIM engine parameters (the
/// gate's `--perturb` grammar); field names match [`EngineParams`].
///
/// # Errors
///
/// Returns a message for unknown fields or unparsable values.
pub fn perturb_engine(mut base: EngineParams, spec: &str) -> Result<EngineParams, String> {
    let (field, value) = spec
        .split_once('=')
        .ok_or_else(|| format!("perturbation `{spec}` must be field=value"))?;
    let float = || {
        value
            .parse::<f64>()
            .map_err(|_| format!("`{value}` is not a number"))
    };
    let int = || {
        value
            .parse::<u64>()
            .map_err(|_| format!("`{value}` is not an integer"))
    };
    match field {
        "dist_serialization" => base.dist_serialization = float()?,
        "electrical_beats_per_row" => base.electrical_beats_per_row = int()?,
        "mat_shifts_per_row" => base.mat_shifts_per_row = int()?,
        "operand_buses" => base.operand_buses = int()?,
        "controller_ns_per_vpc" => base.controller_ns_per_vpc = float()?,
        "bus_fill_exposure" => base.bus_fill_exposure = float()?,
        other => return Err(format!("unknown engine parameter `{other}`")),
    }
    base.validate()?;
    Ok(base)
}

#[cfg(test)]
mod tests {
    use super::*;

    const SPEC: &str = r#"
# comment
scale = 0.25

[[check]]
id = "area-bus"            # trailing comment
figure = "area"
metric = "bus_pct"
paper = 1.8
expect = 1.49
tol_pct = 1.0

[[check]]
id = "fab-32nm"
figure = "fabrication"
metric = "32"
expect = 0.0008
tol_pct = 5.0
abs = 0.0001
"#;

    #[test]
    fn parses_the_subset() {
        let spec = FidelitySpec::parse(SPEC).unwrap();
        assert_eq!(spec.scale, 0.25);
        assert_eq!(spec.checks.len(), 2);
        assert_eq!(spec.checks[0].id, "area-bus");
        assert_eq!(spec.checks[0].paper, Some(1.8));
        assert_eq!(spec.checks[1].abs, Some(0.0001));
        assert!(spec.checks[1].allowed() >= 0.0001);
    }

    #[test]
    fn roundtrips_through_to_toml() {
        let spec = FidelitySpec::parse(SPEC).unwrap();
        let again = FidelitySpec::parse(&spec.to_toml()).unwrap();
        assert_eq!(spec, again);
    }

    #[test]
    fn rejects_malformed_input() {
        assert!(FidelitySpec::parse("scale = x").is_err());
        assert!(FidelitySpec::parse("[[check]]\nid = \"a\"").is_err());
        assert!(FidelitySpec::parse("junk line").is_err());
        assert!(FidelitySpec::parse("").is_err());
        assert!(FidelitySpec::parse("[table]\n").is_err());
    }

    #[test]
    fn closed_form_checks_evaluate_and_gate() {
        let spec = FidelitySpec::parse(SPEC).unwrap();
        let outcome = evaluate(&spec, None).unwrap();
        assert!(outcome.results[1].pass, "fabrication fit is exact");
        assert!(outcome.render().contains("area-bus"));
    }

    #[test]
    fn drift_outside_tolerance_fails_and_names_the_check() {
        let mut spec = FidelitySpec::parse(SPEC).unwrap();
        spec.checks[0].expect *= 2.0; // guaranteed > 1% off
        let outcome = evaluate(&spec, None).unwrap();
        assert!(!outcome.passed());
        assert_eq!(outcome.failures()[0].check.id, "area-bus");
    }

    #[test]
    fn cluster_equivalence_holds_with_zero_tolerance() {
        let spec = FidelitySpec::parse(
            "[[check]]\nid = \"c-time\"\nfigure = \"cluster\"\nmetric = \"n1_time_ratio\"\n\
             expect = 1\ntol_pct = 0\n\
             [[check]]\nid = \"c-ident\"\nfigure = \"cluster\"\nmetric = \"n1_identical\"\n\
             expect = 1\ntol_pct = 0\n",
        )
        .unwrap();
        let outcome = evaluate(&spec, None).unwrap();
        assert!(outcome.passed(), "{}", outcome.render());
        // The equivalence is a code-path property, so it must also hold
        // under engine perturbation (both sides move together).
        let perturbed =
            perturb_engine(EngineParams::default(), "controller_ns_per_vpc=50").unwrap();
        let outcome = evaluate(&spec, Some(perturbed)).unwrap();
        assert!(outcome.passed(), "{}", outcome.render());
    }

    #[test]
    fn perturbation_grammar() {
        let base = EngineParams::default();
        let p = perturb_engine(base, "controller_ns_per_vpc=50").unwrap();
        assert_eq!(p.controller_ns_per_vpc, 50.0);
        assert!(perturb_engine(base, "nope=1").is_err());
        assert!(
            perturb_engine(base, "operand_buses=0").is_err(),
            "validated"
        );
        assert!(perturb_engine(base, "controller_ns_per_vpc").is_err());
    }
}
