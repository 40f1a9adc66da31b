//! Metric schema and the run report.
//!
//! The two schemas mirror `BENCHMARK.json`: a `--trace 0` run reports
//! exactly [`END_TO_END`], a `--trace 1` run exactly [`PER_LAYER`], on
//! every workload. A layer a workload never reaches reads 0.

use std::collections::BTreeMap;

use crate::replica::Counts;

/// End-to-end metrics: name, unit.
pub const END_TO_END: &[(&str, &str)] = &[
    ("ns_per_day", "ns/day"),
    ("step_ms_p50", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics of the traced run: name, unit.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("pairsearch.ms_per_build", "ms"),
    ("pairsearch.ms_per_step", "ms"),
    ("pairsearch.cluster_pairs", "count"),
    ("lowering.ms_per_call", "ms"),
    ("lowering.calls_per_step", "count"),
    ("lowering.entries", "count"),
    ("lowering.bytes_computed", "bytes"),
    ("pack.ms_per_call", "ms"),
    ("pack.bytes_computed", "bytes"),
    ("kernel.ms_per_call", "ms"),
    ("kernel.pairs_within_cutoff", "count"),
    ("kernel.masked_pairs", "count"),
    ("kernel.useful_ratio", "ratio"),
    ("kernel.scaling_eff", "ratio"),
    ("kernel.bytes_computed", "bytes"),
    ("pme.ms_per_step", "ms"),
    ("update.ms_per_step", "ms"),
    ("constraints.ms_per_step", "ms"),
    ("constraints.iterations", "count"),
    ("io.ms_per_frame", "ms"),
    ("io.bytes_per_frame", "bytes"),
    ("engine.new_ms", "ms"),
    ("engine.step_ms_mean", "ms"),
    ("engine.residual_ms", "ms"),
    ("serve.engine_s", "s"),
    ("store.s", "s"),
    ("scheduler.s", "s"),
    ("recovery.s", "s"),
    ("store.generations", "count"),
    ("store.bytes", "bytes"),
    ("scheduler.dispatches", "count"),
    ("scheduler.useful_dispatch_ratio", "ratio"),
    ("recovery.resumes", "count"),
    ("recovery.rollbacks", "count"),
    ("recovery.readmissions", "count"),
    ("chaos.worker_kills", "count"),
    ("trace.overhead_pct", "%"),
];

/// The serve layers, which read 0 on the MD workloads.
pub const SERVE_LAYERS: &[&str] = &[
    "serve.engine_s",
    "store.s",
    "scheduler.s",
    "recovery.s",
    "store.generations",
    "store.bytes",
    "scheduler.dispatches",
    "scheduler.useful_dispatch_ratio",
    "recovery.resumes",
    "recovery.rollbacks",
    "recovery.readmissions",
    "chaos.worker_kills",
];

/// One named measurement.
#[derive(Debug)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Value as measured.
    pub value: f64,
    /// Unit.
    pub unit: String,
}

/// Everything a successful run prints.
#[derive(Debug)]
pub struct Report {
    schema: &'static [(&'static str, &'static str)],
    values: BTreeMap<&'static str, f64>,
    /// Metrics printed for people but not part of the schema.
    pub info: Vec<Metric>,
    /// Free-form lines (working set, sums, check results).
    pub notes: Vec<String>,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations failed.
    pub failed: u64,
}

impl Report {
    /// Empty report over `schema`.
    pub fn new(schema: &'static [(&'static str, &'static str)]) -> Self {
        Self {
            schema,
            values: BTreeMap::new(),
            info: Vec::new(),
            notes: Vec::new(),
            attempted: 0,
            failed: 0,
        }
    }

    /// Set schema metric `name`.
    pub fn set(&mut self, name: &str, value: f64) {
        let (key, _) = self
            .schema
            .iter()
            .find(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("{name} is not in the schema"));
        self.values.insert(key, value);
    }

    /// Add a human-only metric.
    pub fn info(&mut self, name: &str, value: f64, unit: &str) {
        self.info.push(Metric {
            name: name.into(),
            value,
            unit: unit.into(),
        });
    }

    /// The schema metrics in schema order; panics if one was never set.
    pub fn metrics(&self) -> Vec<Metric> {
        self.schema
            .iter()
            .map(|(name, unit)| Metric {
                name: name.to_string(),
                value: *self
                    .values
                    .get(name)
                    .unwrap_or_else(|| panic!("metric {name} was never set")),
                unit: unit.to_string(),
            })
            .collect()
    }

    /// The result object the last line of a run carries.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics()
            .iter()
            .map(|m| {
                assert!(m.value.is_finite(), "{} is not finite", m.name);
                format!(
                    "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                    m.name, m.value, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }

    /// Human-readable lines: `metric: <name> <value> <unit>` for every
    /// schema and info metric, then the notes.
    pub fn human(&self) -> String {
        let mut out = String::new();
        for m in self.metrics().iter().chain(&self.info) {
            out += &format!("metric: {:<34} {:>16.6} {}\n", m.name, m.value, m.unit);
        }
        for n in &self.notes {
            out += &format!("# {n}\n");
        }
        out
    }
}

/// Span totals per layer name: call count and total ms.
pub type Totals = BTreeMap<&'static str, (u64, f64)>;

/// What a traced replica measured over one window of whole steps.
pub struct LayerTimes<'a> {
    /// Span totals over every step of the window: the call counts.
    pub all: &'a Totals,
    /// Span totals over the calm steps of the window: the times.
    pub calm: &'a Totals,
    /// Steps behind `calm`.
    pub calm_steps: u64,
    /// Work counts over every step of the window.
    pub counts: &'a Counts,
}

/// Fill the MD-layer metrics from a replica's spans and counts.
///
/// Times per call and per step come from the calm steps, call counts
/// and work counts from every step. I/O is the exception: a frame is
/// written every 100 steps, so its time comes from every step.
/// `engine_step_ms` is the untraced engine's mean step over the same
/// window, and `traced_step_ms` the replica's; the per-step layer times
/// plus `engine.residual_ms` add up to the former. `engine_new_ms` is
/// the `Engine::new` time and `scaling_eff` the kernel's 1-thread over
/// `nproc`-thread speed-up divided by `nproc`.
pub fn set_md_layers(
    r: &mut Report,
    l: &LayerTimes,
    engine_step_ms: f64,
    traced_step_ms: f64,
    engine_new_ms: f64,
    scaling_eff: f64,
) {
    let calls = |n: &str| l.all.get(n).map_or(0, |t| t.0);
    // Calm time of layer `n`: total ms and calls.
    let time = |n: &str| l.calm.get(n).copied().unwrap_or((0, 0.0));
    let per = |total: f64, n: u64| if n == 0 { 0.0 } else { total / n as f64 };
    let c = l.counts;
    let (steps, calm_steps) = (c.steps, l.calm_steps);
    let per_call = |n: &str| {
        let (k, ms) = time(n);
        per(ms, k)
    };
    let per_step = |n: &str| per(time(n).1, calm_steps);
    let (builds, low_calls, kern_calls) = (calls("pairsearch"), calls("lowering"), calls("kernel"));
    let (pack_calls, cons_calls) = (calls("pack"), calls("constraints"));
    let (frames, io_ms) = l.all.get("io").copied().unwrap_or((0, 0.0));

    r.set("pairsearch.ms_per_build", per_call("pairsearch"));
    r.set("pairsearch.ms_per_step", per_step("pairsearch"));
    r.set(
        "pairsearch.cluster_pairs",
        per(c.cluster_pairs as f64, builds),
    );
    r.set("lowering.ms_per_call", per_call("lowering"));
    r.set("lowering.calls_per_step", per(low_calls as f64, steps));
    r.set(
        "lowering.entries",
        per(c.lowering_entries as f64, low_calls),
    );
    r.set(
        "lowering.bytes_computed",
        per(c.lowering_bytes as f64, low_calls),
    );
    r.set("pack.ms_per_call", per_call("pack"));
    r.set("pack.bytes_computed", per(c.pack_bytes as f64, pack_calls));
    r.set("kernel.ms_per_call", per_call("kernel"));
    r.set(
        "kernel.pairs_within_cutoff",
        per(c.pairs_within_cutoff as f64, kern_calls),
    );
    r.set(
        "kernel.masked_pairs",
        per(c.masked_pairs as f64, kern_calls),
    );
    r.set(
        "kernel.useful_ratio",
        c.pairs_within_cutoff as f64 / c.masked_pairs.max(1) as f64,
    );
    r.set("kernel.scaling_eff", scaling_eff);
    r.set(
        "kernel.bytes_computed",
        per(c.kernel_bytes as f64, kern_calls),
    );
    r.set("pme.ms_per_step", per_step("pme"));
    r.set(
        "update.ms_per_step",
        per_step("update") + per_step("berendsen"),
    );
    r.set("constraints.ms_per_step", per_step("constraints"));
    r.set(
        "constraints.iterations",
        per(c.constraint_iterations as f64, cons_calls),
    );
    r.set("io.ms_per_frame", per(io_ms, frames));
    r.set("io.bytes_per_frame", per(c.frame_bytes as f64, frames));
    r.set("engine.new_ms", engine_new_ms);
    r.set("engine.step_ms_mean", engine_step_ms);

    let layers_per_step = [
        "pairsearch",
        "lowering",
        "pack",
        "kernel",
        "pme",
        "update",
        "berendsen",
        "constraints",
    ]
    .iter()
    .map(|n| per_step(n))
    .sum::<f64>()
        + per(io_ms, steps);
    let residual = engine_step_ms - layers_per_step;
    r.set("engine.residual_ms", residual);
    r.set(
        "trace.overhead_pct",
        100.0 * (traced_step_ms - engine_step_ms) / engine_step_ms,
    );
    r.notes.push(format!(
        "step budget: layers {layers_per_step:.4} ms + residual {residual:.4} ms = engine mean step {engine_step_ms:.4} ms \
         (traced replica step {traced_step_ms:.4} ms; {steps} steps, {calm_steps} calm)"
    ));
}
