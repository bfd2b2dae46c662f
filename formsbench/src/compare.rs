//! `compare`: judges run sets of two commits, metric by metric and
//! workload by workload, by the benchmark's acceptance rule.
//!
//! A run set is a directory with one subdirectory per workload, each
//! holding one file per run: the benchmark's standard output (only its
//! last JSON line is read). The i-th runs of the two sets, by file name,
//! form the i-th pair, so the runs should be made alternating.
//!
//! - **gain**: the change wins at least 9 of every 10 pairs (ties count
//!   for neither) and the medians differ, in the better direction, by more
//!   than the parent's interquartile spread.
//! - **unresolved**: no gain, and the parent's spread, as a share of its
//!   median, exceeds the metric's bound.
//! - **regression**: the change's median is worse than the parent's by
//!   more than the bound.
//! - **unchanged**: none of these.
//!
//! Per-layer metrics have no bound: they are reported as a gain, a loss
//! (the gain rule with the sides swapped) or `no claim`.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;

use forms_serve::json::{self, JsonValue};

use crate::stats::{median, quartiles};
use crate::workload::Workload;

/// Share of pairs the winner must take.
const WIN_SHARE: f64 = 0.9;

/// How a metric is judged.
#[derive(Clone, Debug, PartialEq)]
pub struct MetricSpec {
    /// Metric name.
    pub name: String,
    /// Unit, for display.
    pub unit: String,
    /// Whether smaller values are better.
    pub lower_is_better: bool,
    /// Allowed worsening as a share of the parent median (end-to-end
    /// metrics only).
    pub bound: Option<f64>,
}

/// The outcome for one metric × workload pair.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// The change is better by the win rule.
    Gain,
    /// The change is worse by the win rule (per-layer metrics).
    Loss,
    /// Worse than the parent by more than the bound.
    Regression,
    /// The parent's spread exceeds the bound.
    Unresolved,
    /// Within the bound.
    Unchanged,
    /// A per-layer metric that neither side wins.
    NoClaim,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Self::Gain => "gain",
            Self::Loss => "loss",
            Self::Regression => "REGRESSION",
            Self::Unresolved => "unresolved",
            Self::Unchanged => "unchanged",
            Self::NoClaim => "no claim",
        }
    }
}

/// The numbers behind a verdict.
#[derive(Clone, Debug, PartialEq)]
pub struct Judgement {
    /// Parent quartiles `[q1, median, q3]`.
    pub parent: [f64; 3],
    /// Change quartiles `[q1, median, q3]`.
    pub change: [f64; 3],
    /// Pairs the change won.
    pub wins: usize,
    /// Pairs the parent won.
    pub losses: usize,
    /// Pairs compared.
    pub pairs: usize,
    /// The verdict.
    pub verdict: Verdict,
}

/// Applies the rule to paired runs of one metric.
///
/// # Panics
///
/// Panics if either side is empty.
pub fn judge(parent: &[f64], change: &[f64], spec: &MetricSpec) -> Judgement {
    let pairs = parent.len().min(change.len());
    let better = |a: f64, b: f64| {
        if spec.lower_is_better {
            a < b
        } else {
            a > b
        }
    };
    let wins = (0..pairs).filter(|&i| better(change[i], parent[i])).count();
    let losses = (0..pairs).filter(|&i| better(parent[i], change[i])).count();
    let (p, c) = (quartiles(parent), quartiles(change));
    let (pm, cm) = (median(parent), median(change));
    let spread = p[2] - p[0];
    let needed = (WIN_SHARE * pairs as f64).ceil() as usize;
    let decisive = (cm - pm).abs() > spread;
    let verdict = if pairs > 0 && wins >= needed && decisive && better(cm, pm) {
        Verdict::Gain
    } else if let Some(bound) = spec.bound {
        let base = pm.abs();
        let all_better = parent
            .iter()
            .all(|&pv| change.iter().all(|&cv| better(cv, pv)));
        let worse_by = if spec.lower_is_better {
            cm - pm
        } else {
            pm - cm
        };
        if spread > bound * base && !all_better {
            Verdict::Unresolved
        } else if worse_by > bound * base {
            Verdict::Regression
        } else {
            Verdict::Unchanged
        }
    } else if pairs > 0 && losses >= needed && decisive && better(pm, cm) {
        Verdict::Loss
    } else {
        Verdict::NoClaim
    };
    Judgement {
        parent: p,
        change: c,
        wins,
        losses,
        pairs,
        verdict,
    }
}

/// Reads the metric table of `BENCHMARK.json`.
///
/// # Errors
///
/// A message when the file cannot be read or lacks the metric lists.
pub fn read_specs(path: &Path) -> Result<Vec<MetricSpec>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let doc = json::parse(&text)?;
    let mut specs = Vec::new();
    for list in ["end_to_end", "per_layer"] {
        let items = doc
            .get(list)
            .and_then(JsonValue::as_array)
            .ok_or_else(|| format!("{}: no `{list}` list", path.display()))?;
        for item in items {
            let field = |k| item.get(k).and_then(JsonValue::as_str).map(str::to_string);
            specs.push(MetricSpec {
                name: field("name").ok_or("metric without a name")?,
                unit: field("unit").unwrap_or_default(),
                lower_is_better: field("better").as_deref() == Some("lower"),
                bound: item.get("bound").and_then(JsonValue::as_f64),
            });
        }
    }
    Ok(specs)
}

/// The metric values of every run of one workload in a run set, in file
/// name order.
fn read_runs(dir: &Path) -> Result<Vec<BTreeMap<String, f64>>, String> {
    let mut files: Vec<_> = std::fs::read_dir(dir)
        .map_err(|e| format!("{}: {e}", dir.display()))?
        .filter_map(Result::ok)
        .map(|e| e.path())
        .filter(|p| p.is_file())
        .collect();
    files.sort();
    let mut runs = Vec::new();
    for file in files {
        let text =
            std::fs::read_to_string(&file).map_err(|e| format!("{}: {e}", file.display()))?;
        let Some(line) = text.lines().rev().find(|l| l.trim_start().starts_with('{')) else {
            continue;
        };
        let doc = json::parse(line).map_err(|e| format!("{}: {e}", file.display()))?;
        let mut values = BTreeMap::new();
        if let Some(JsonValue::Object(metrics)) = doc.get("metrics") {
            for (name, m) in metrics {
                if let Some(v) = m.get("value").and_then(JsonValue::as_f64) {
                    values.insert(name.clone(), v);
                }
            }
        }
        runs.push(values);
    }
    Ok(runs)
}

/// Compares two run sets and renders the report. Returns the report and
/// whether any end-to-end metric regressed.
///
/// # Errors
///
/// A message when a run set cannot be read.
pub fn compare(
    parent: &Path,
    change: &Path,
    specs: &[MetricSpec],
) -> Result<(String, bool), String> {
    let mut out = String::new();
    let mut regressed = false;
    for w in Workload::ALL {
        let (pdir, cdir) = (parent.join(w.name()), change.join(w.name()));
        if !pdir.is_dir() || !cdir.is_dir() {
            continue;
        }
        let (pruns, cruns) = (read_runs(&pdir)?, read_runs(&cdir)?);
        let mut counts: BTreeMap<&str, usize> = BTreeMap::new();
        let mut rows = String::new();
        for spec in specs {
            let values = |runs: &[BTreeMap<String, f64>]| -> Vec<f64> {
                runs.iter()
                    .filter_map(|r| r.get(&spec.name).copied())
                    .collect()
            };
            let (pv, cv) = (values(&pruns), values(&cruns));
            if pv.is_empty() || cv.is_empty() {
                continue;
            }
            let j = judge(&pv, &cv, spec);
            regressed |= j.verdict == Verdict::Regression;
            *counts.entry(j.verdict.label()).or_default() += 1;
            let ratio = if j.parent[1] == 0.0 {
                "n/a".to_string()
            } else {
                format!("{:.3}x", j.change[1] / j.parent[1])
            };
            let _ = writeln!(
                rows,
                "  {:<34} parent {:.4} [{:.4}, {:.4}] {} -> change {:.4} [{:.4}, {:.4}]  \
                 ratio {ratio} of parent median {:.4} {}  wins {}/{}  {}",
                spec.name,
                j.parent[1],
                j.parent[0],
                j.parent[2],
                spec.unit,
                j.change[1],
                j.change[0],
                j.change[2],
                j.parent[1],
                spec.unit,
                j.wins,
                j.pairs,
                j.verdict.label(),
            );
        }
        let summary: Vec<String> = counts.iter().map(|(k, n)| format!("{n} {k}")).collect();
        let _ = writeln!(
            out,
            "{:<12} {} parent runs, {} change runs: {}",
            w.name(),
            pruns.len(),
            cruns.len(),
            summary.join(", ")
        );
        out.push_str(&rows);
    }
    Ok((out, regressed))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn latency(bound: Option<f64>) -> MetricSpec {
        MetricSpec {
            name: "light.p50_ms".into(),
            unit: "ms".into(),
            lower_is_better: true,
            bound,
        }
    }

    const PARENT: [f64; 10] = [10.0, 10.2, 9.9, 10.1, 10.0, 10.3, 9.8, 10.1, 10.0, 10.2];

    #[test]
    fn a_clear_win_is_a_gain() {
        let change: Vec<f64> = PARENT.iter().map(|v| v * 0.8).collect();
        let j = judge(&PARENT, &change, &latency(Some(0.1)));
        assert_eq!((j.verdict, j.wins, j.pairs), (Verdict::Gain, 10, 10));
    }

    #[test]
    fn winning_eight_of_ten_pairs_is_not_a_gain() {
        let mut change: Vec<f64> = PARENT.iter().map(|v| v * 0.8).collect();
        change[0] = 11.0;
        change[1] = 11.0;
        let j = judge(&PARENT, &change, &latency(Some(0.1)));
        assert_eq!(j.wins, 8);
        assert_eq!(j.verdict, Verdict::Unchanged);
    }

    #[test]
    fn a_loss_beyond_the_bound_is_a_regression() {
        let change: Vec<f64> = PARENT.iter().map(|v| v * 1.2).collect();
        let j = judge(&PARENT, &change, &latency(Some(0.1)));
        assert_eq!(j.verdict, Verdict::Regression);
        let small: Vec<f64> = PARENT.iter().map(|v| v * 1.05).collect();
        assert_eq!(
            judge(&PARENT, &small, &latency(Some(0.1))).verdict,
            Verdict::Unchanged
        );
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved() {
        let noisy = [5.0, 15.0, 8.0, 12.0, 6.0, 14.0, 10.0, 9.0, 11.0, 13.0];
        let change: Vec<f64> = noisy.iter().map(|v| v * 1.3).collect();
        assert_eq!(
            judge(&noisy, &change, &latency(Some(0.1))).verdict,
            Verdict::Unresolved
        );
        // Unless every change run beats every parent run.
        let far: Vec<f64> = noisy.iter().map(|_| 1.0).collect();
        assert_eq!(
            judge(&noisy, &far, &latency(Some(0.1))).verdict,
            Verdict::Gain
        );
    }

    #[test]
    fn per_layer_metrics_report_gain_loss_or_no_claim() {
        let worse: Vec<f64> = PARENT.iter().map(|v| v * 1.5).collect();
        assert_eq!(
            judge(&PARENT, &worse, &latency(None)).verdict,
            Verdict::Loss
        );
        assert_eq!(
            judge(&PARENT, &PARENT, &latency(None)).verdict,
            Verdict::NoClaim
        );
        let higher = MetricSpec {
            lower_is_better: false,
            ..latency(None)
        };
        assert_eq!(judge(&PARENT, &worse, &higher).verdict, Verdict::Gain);
    }
}
