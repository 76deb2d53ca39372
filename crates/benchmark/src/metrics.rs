//! Metric tables, sample statistics, and the JSON the benchmark prints.
//!
//! The two tables below are the benchmark's contract: a unit test checks
//! that they name exactly the metrics `BENCHMARK.json` lists, with the
//! same units and directions.

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// The word `BENCHMARK.json` uses.
    #[must_use]
    pub fn word(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One metric's name, unit and direction, plus its regression bound (a
/// share of the parent's median) for end-to-end metrics.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetricDef {
    /// Name as printed.
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
    /// How far the metric may worsen before a change is a regression.
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: None,
    }
}

use Better::{Higher, Lower};

/// What a user of the system sees, printed by every untraced run.
pub const END_TO_END: &[MetricDef] = &[
    e2e("setup_s", "s", Lower, 0.25),
    e2e("sessions_per_s", "sessions/s", Higher, 0.25),
    e2e("job_p50_ms", "ms", Lower, 0.25),
    e2e("job_p95_ms", "ms", Lower, 0.25),
    e2e("steps_per_delivered_bit", "instants/bit", Lower, 0.05),
    e2e("delivered_ppm", "ppm", Higher, 0.03),
    e2e("peak_rss_mb", "MiB", Lower, 0.2),
];

/// Where the time goes, printed by every traced run. A layer that is not
/// on a workload's path reads 0 with 0 samples.
pub const PER_LAYER: &[MetricDef] = &[
    layer("fleet.pool.speedup", "x", Higher),
    layer("fleet.pool.busy_frac", "fraction", Higher),
    layer("fleet.pool.overhead_us_per_session", "us", Lower),
    layer("fleet.session.p50_us", "us", Lower),
    layer("fleet.session.p99_us", "us", Lower),
    layer("fleet.session.max_ms", "ms", Lower),
    layer("fleet.session.share.sync2", "fraction", Lower),
    layer("fleet.session.share.async2", "fraction", Lower),
    layer("fleet.session.share.sync-swarm-routed", "fraction", Lower),
    layer("fleet.session.share.sync-swarm-lex", "fraction", Lower),
    layer("fleet.session.share.sync-swarm-sec", "fraction", Lower),
    layer("fleet.session.share.async-swarm", "fraction", Lower),
    layer("fleet.session.share.flood", "fraction", Lower),
    layer("fleet.session.share.election", "fraction", Lower),
    layer("fleet.session.share.agreement", "fraction", Lower),
    layer("fleet.session.undelivered_share", "fraction", Lower),
    layer("fleet.session.setup_us", "us", Lower),
    layer("scheduler.build_us", "us", Lower),
    layer("core.preprocess.t0_us", "us", Lower),
    layer("core.naming.label_us", "us", Lower),
    layer("core.on_activate_ns.sync2", "ns", Lower),
    layer("core.on_activate_ns.async2", "ns", Lower),
    layer("core.on_activate_ns.sync-swarm-routed", "ns", Lower),
    layer("core.on_activate_ns.sync-swarm-lex", "ns", Lower),
    layer("core.on_activate_ns.sync-swarm-sec", "ns", Lower),
    layer("core.on_activate_ns.async-swarm", "ns", Lower),
    layer("robots.engine.self_ns_per_step", "ns", Lower),
    layer("robots.engine.activations_per_step", "count", Lower),
    layer("robots.engine.steps_per_s", "1/s", Higher),
    layer("robots.engine.moves_per_delivered_bit", "moves/bit", Lower),
    layer("fleet.trace_codec.ns_per_event", "ns", Lower),
    layer("fleet.trace_codec.bytes_per_step", "B", Lower),
    layer("coding.fec.corrected_per_kbit", "count/kbit", Lower),
    layer("coding.fec.rejected_per_kbit", "count/kbit", Lower),
    layer("coding.corrupt_per_kbit", "count/kbit", Lower),
    layer("algo.rounds_per_session", "count", Lower),
    layer("algo.session_p50_us", "us", Lower),
    layer("algo.activations_to_decision", "count", Lower),
    layer("algo.bits_per_decision", "bits", Lower),
    layer("gateway.submit_us.p50", "us", Lower),
    layer("gateway.submit_us.p95", "us", Lower),
    layer("gateway.wait_ms.p50", "ms", Lower),
    layer("gateway.wait_ms.p95", "ms", Lower),
    layer("gateway.direct_ms.p50", "ms", Lower),
    layer("gateway.direct_ms.p95", "ms", Lower),
    layer("gateway.overhead_ms.p50", "ms", Lower),
    layer("gateway.overhead_ms.p95", "ms", Lower),
    layer("gateway.queue_wait_ms_mean", "ms", Lower),
    layer("gateway.server_e2e_ms_mean", "ms", Lower),
    layer("gateway.delivery_ms", "ms", Lower),
    layer("gateway.frames_per_job", "count", Lower),
    layer("gateway.wire.done_bytes", "B", Lower),
    layer("trace.overhead", "x", Lower),
    layer("trace.span_cost_ns", "ns", Lower),
];

/// The nearest-rank `p`-th percentile (`0 < p <= 100`) of `samples`, or
/// 0 for no samples.
#[must_use]
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let Some(last) = sorted.len().checked_sub(1) else {
        return 0.0;
    };
    // Nearest rank: the smallest sample with at least p% at or below it.
    // Multiplying first keeps whole percentiles of whole counts exact.
    let rank = (p * sorted.len() as f64 / 100.0).ceil() as usize;
    sorted[rank.saturating_sub(1).min(last)]
}

/// The median (nearest rank).
#[must_use]
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0)
}

/// The highest whole percentile whose nearest-rank value still has at
/// least `tail` samples above it — the highest percentile `n` samples
/// can resolve. `None` when `n <= tail`.
#[must_use]
pub fn resolvable_percentile(n: usize, tail: usize) -> Option<u32> {
    (1..100u32).rev().find(|&p| {
        let rank = (u64::from(p) * n as u64).div_ceil(100);
        rank >= 1 && (n as u64).saturating_sub(rank) >= tail as u64
    })
}

/// `num / den`, or 0 when the denominator is 0 (a layer that did no work).
#[must_use]
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// One measured value: the number reported, how many samples it rests
/// on, and — for metrics measured once per repetition — each
/// repetition's value.
#[derive(Debug, Clone, PartialEq)]
pub struct Value {
    /// The reported number.
    pub value: f64,
    /// Samples behind it (sessions, jobs, spans or repetitions).
    pub samples: u64,
    /// Per-repetition values, for min/median/max.
    pub per_run: Vec<f64>,
}

impl Value {
    /// A value with no per-repetition breakdown.
    #[must_use]
    pub fn single(value: f64, samples: usize) -> Self {
        Self {
            value,
            samples: samples as u64,
            per_run: Vec::new(),
        }
    }

    /// `value`, summarising one measurement per repetition.
    #[must_use]
    pub fn of_runs(value: f64, per_run: Vec<f64>, samples: usize) -> Self {
        Self {
            value,
            samples: samples as u64,
            per_run,
        }
    }
}

/// Values for one table of metrics, printed in table order.
#[derive(Debug, Clone)]
pub struct Ledger {
    defs: &'static [MetricDef],
    values: Vec<Option<Value>>,
}

impl Ledger {
    /// An empty ledger over `defs`.
    #[must_use]
    pub fn new(defs: &'static [MetricDef]) -> Self {
        Self {
            defs,
            values: vec![None; defs.len()],
        }
    }

    /// Records `name`.
    ///
    /// # Panics
    ///
    /// Panics on a name the table does not list — a bug in this crate.
    pub fn set(&mut self, name: &str, value: Value) {
        let at = self
            .defs
            .iter()
            .position(|d| d.name == name)
            .unwrap_or_else(|| panic!("metric {name} is not in the table"));
        self.values[at] = Some(value);
    }

    /// The value recorded for `name`, if any.
    #[must_use]
    pub fn lookup(&self, name: &str) -> Option<&Value> {
        let at = self.defs.iter().position(|d| d.name == name)?;
        self.values[at].as_ref()
    }

    fn entries(&self) -> impl Iterator<Item = (&MetricDef, Value)> {
        self.defs
            .iter()
            .zip(&self.values)
            .map(|(d, v)| (d, v.clone().unwrap_or_else(|| Value::single(0.0, 0))))
    }

    /// `{"name":{"value":…,"unit":…},…}` — the result line's metrics.
    #[must_use]
    pub fn result_json(&self) -> String {
        let items: Vec<String> = self
            .entries()
            .map(|(d, v)| {
                format!(
                    "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
                    d.name,
                    num(v.value),
                    d.unit
                )
            })
            .collect();
        format!("{{{}}}", items.join(","))
    }

    /// The detail line's metrics: value, unit, sample count, and the
    /// per-repetition min/median/max where there is one.
    #[must_use]
    pub fn detail_json(&self) -> String {
        let items: Vec<String> = self
            .entries()
            .map(|(d, v)| {
                let spread = if v.per_run.is_empty() {
                    String::new()
                } else {
                    let lo = v.per_run.iter().copied().fold(f64::INFINITY, f64::min);
                    let hi = v.per_run.iter().copied().fold(f64::NEG_INFINITY, f64::max);
                    format!(
                        ",\"runs\":{},\"min\":{},\"median\":{},\"max\":{}",
                        v.per_run.len(),
                        num(lo),
                        num(median(&v.per_run)),
                        num(hi)
                    )
                };
                format!(
                    "\"{}\":{{\"value\":{},\"unit\":\"{}\",\"samples\":{}{spread}}}",
                    d.name,
                    num(v.value),
                    d.unit,
                    v.samples
                )
            })
            .collect();
        format!("{{{}}}", items.join(","))
    }
}

/// A JSON number with every digit Rust's shortest round-trip rendering
/// keeps; non-finite values (which no metric should produce) become 0.
#[must_use]
pub fn num(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "0".into()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&xs, 50.0), 5.0);
        assert_eq!(percentile(&xs, 95.0), 10.0);
        assert_eq!(percentile(&xs, 10.0), 1.0);
        assert_eq!(percentile(&xs, 11.0), 2.0);
        assert_eq!(percentile(&xs, 100.0), 10.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
        assert_eq!(percentile(&[7.0], 95.0), 7.0);
        // Unsorted input and negative values (signed overheads).
        assert_eq!(median(&[3.0, -1.0, 2.0]), 2.0);
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&hundred, 99.0), 99.0);
    }

    #[test]
    fn highest_resolvable_percentile_keeps_ten_samples_beyond() {
        // 500 samples: p98 sits at rank 490 with 10 above; p99 has 5.
        assert_eq!(resolvable_percentile(500, 10), Some(98));
        // 200 samples: p95 at rank 190 leaves exactly 10.
        assert_eq!(resolvable_percentile(200, 10), Some(95));
        assert_eq!(resolvable_percentile(11, 10), Some(9));
        assert_eq!(resolvable_percentile(10, 10), None);
        assert_eq!(resolvable_percentile(0, 10), None);
        for n in [11, 37, 200, 500, 1_000] {
            let p = resolvable_percentile(n, 10).unwrap();
            let xs: Vec<f64> = (0..n).map(|i| i as f64).collect();
            let at = percentile(&xs, f64::from(p));
            assert!(xs.iter().filter(|&&x| x > at).count() >= 10, "n={n} p={p}");
            let next = percentile(&xs, f64::from(p + 1));
            assert!(xs.iter().filter(|&&x| x > next).count() < 10, "n={n} p={p}");
        }
    }

    #[test]
    fn ratio_of_nothing_is_zero() {
        assert_eq!(ratio(5.0, 0.0), 0.0);
        assert_eq!(ratio(6.0, 3.0), 2.0);
    }

    #[test]
    fn ledger_prints_every_metric_in_table_order() {
        let mut ledger = Ledger::new(END_TO_END);
        assert!(ledger.lookup("setup_s").is_none());
        ledger.set("setup_s", Value::of_runs(0.2, vec![0.3, 0.1, 0.2], 3));
        ledger.set("peak_rss_mb", Value::single(12.5, 1));
        assert_eq!(ledger.lookup("setup_s").unwrap().value, 0.2);
        let result = ledger.result_json();
        assert!(result.starts_with("{\"setup_s\":{\"value\":0.2,\"unit\":\"s\"},"));
        assert!(result.contains("\"peak_rss_mb\":{\"value\":12.5,\"unit\":\"MiB\"}"));
        let detail = ledger.detail_json();
        assert!(detail.contains(
            "\"setup_s\":{\"value\":0.2,\"unit\":\"s\",\"samples\":3,\"runs\":3,\"min\":0.1,\"median\":0.2,\"max\":0.3}"
        ));
        assert!(detail.contains("\"job_p50_ms\":{\"value\":0,\"unit\":\"ms\",\"samples\":0}"));
    }

    #[test]
    #[should_panic(expected = "not in the table")]
    fn unknown_metric_names_are_bugs() {
        Ledger::new(PER_LAYER).set("fleet.pool.nope", Value::single(1.0, 1));
    }

    #[test]
    fn numbers_keep_their_digits() {
        assert_eq!(num(1.203_456_789_012_3), "1.2034567890123");
        assert_eq!(num(1634.0), "1634");
        assert_eq!(num(-0.25), "-0.25");
        assert_eq!(num(f64::NAN), "0");
    }

    #[test]
    fn names_are_unique_and_well_formed() {
        let all: Vec<&MetricDef> = END_TO_END.iter().chain(PER_LAYER).collect();
        for (i, d) in all.iter().enumerate() {
            assert!(
                all[..i].iter().all(|e| e.name != d.name),
                "{} twice",
                d.name
            );
            assert!(d.name.len() <= 64 && d.unit.len() <= 16);
            assert!(d.name.starts_with(|c: char| c.is_ascii_alphanumeric()));
            assert!(d
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(d
                .unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        assert!(END_TO_END
            .iter()
            .all(|d| d.bound.is_some_and(|b| b <= 0.25)));
        assert!(PER_LAYER.iter().all(|d| d.bound.is_none()));
        assert!(PER_LAYER.len() <= 128);
    }
}
