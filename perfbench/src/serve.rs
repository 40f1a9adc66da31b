//! The serving workload: `swserve::Service` under the standard chaos
//! plan, fed an open-loop arrival schedule generated here.

use std::collections::BTreeMap;
use std::fs;
use std::ops::Range;
use std::path::Path;
use std::time::Instant;

use swfault::FaultPlan;
use swgmx::engine::{Engine, EngineConfig};
use swgmx::recovery::FaultTolerantRunner;
use swserve::loadgen::{self, LoadPlan};
use swserve::service::{JobPhase, JobRecord, Service, ServiceConfig, ServiceStats};
use swserve::{mix64, trajectory_checksum, JobSpec};

use crate::host::StealClock;
use crate::md;
use crate::replica::{Counts, Replica};
use crate::report::{self, LayerTimes, Report};
use crate::stats::{self, DT_PS};
use crate::trace::Recorder;
use crate::{host, Inject};

/// One serving workload.
#[derive(Debug, Clone, Copy)]
pub struct ServeSpec {
    /// Jobs submitted per run.
    pub n_jobs: usize,
    /// Virtual workers.
    pub n_workers: usize,
    /// Host seconds of one served run and its set-ups on the reference
    /// host. It turns `--seconds` into a fixed number of served runs.
    pub run_s: f64,
}

impl ServeSpec {
    /// Served runs for a run of `seconds`: as [`crate::md::MdSpec::cycles`],
    /// a function of the workload and `--seconds` alone, so every build
    /// serves the same jobs as often.
    pub fn runs(&self, seconds: f64) -> usize {
        ((seconds / self.run_s).round() as usize).max(MIN_RUNS)
    }
}

/// `Service::new` plus every submission, repeated before each served
/// run; `setup_s` is the median of all of them.
const SETUP_REPS: usize = 25;
/// The `loadgen` seed of the job mix: the repository's chaos fixture.
/// The run's own seed draws the arrivals and the chaos plan. With only
/// 240 jobs, a mix drawn per seed moves the per-step cost by 40%
/// (its median falls in a different box size), which would drown any
/// change to the program.
const MIX_SEED: u64 = 11;
/// Fewest served runs per measurement, whatever `--seconds` says.
const MIN_RUNS: usize = 2;
/// Checkpoint cadence and quantum the service uses (`ServiceConfig::new`).
const QUANTUM_STEPS: u64 = 10;
/// Jobs per steal sample of the plain-`Engine` replay: about 0.3 s.
const REPLAY_CHUNK: usize = 20;

/// The job mix, and the arrival times and chaos seed of one run.
struct Load {
    plan: LoadPlan,
    seed: u64,
    specs: Vec<JobSpec>,
    arrivals_ns: Vec<u64>,
}

impl Load {
    fn new(spec: ServeSpec, seed: u64) -> Self {
        let plan = LoadPlan::standard(MIX_SEED, spec.n_jobs, spec.n_workers);
        let specs = (0..spec.n_jobs)
            .map(|i| loadgen::spec_for(&plan, i))
            .collect();
        // Open loop: uniform gaps in [1, 2 × mean] virtual ns, the same
        // schedule `loadgen` draws, fixed before the service runs.
        let mut t = 0u64;
        let arrivals_ns = (0..spec.n_jobs)
            .map(|i| {
                t += mix64(seed ^ 0xA5A5_0000 ^ ((i as u64) << 16))
                    % (2 * plan.mean_interarrival_ns)
                    + 1;
                t
            })
            .collect();
        Self {
            plan,
            seed,
            specs,
            arrivals_ns,
        }
    }

    /// A service with every job submitted (the serve set-up).
    fn service(&self, root: &Path) -> Result<Service, String> {
        let mut cfg = ServiceConfig::new(self.plan.n_workers, root);
        // As in `loadgen`: quotas and capacity so generous that every
        // submission is admitted; loss can only come from faults.
        cfg.admission.queue_capacity = self.plan.n_jobs.max(16);
        cfg.admission.default_quota = self.plan.n_jobs.max(16);
        let mut svc = Service::new(cfg).map_err(|e| format!("Service::new: {e}"))?;
        for (spec, &at) in self.specs.iter().zip(&self.arrivals_ns) {
            svc.submit_at(at, *spec);
        }
        Ok(svc)
    }
}

/// The system a worker builds for `spec` (as `swserve::service` does).
fn system_for(spec: &JobSpec) -> mdsim::System {
    mdsim::water::water_box(spec.n_mol, 300.0, spec.seed)
}

/// The engine a worker builds for `spec` over `sys`.
fn engine_for(spec: &JobSpec, sys: mdsim::System) -> Engine {
    Engine::new(
        sys,
        EngineConfig {
            backend: spec.backend,
            nstxout: 0,
            ..EngineConfig::paper(spec.version)
        },
    )
}

/// Plain-`Engine` replay of the job mix: the checksum each job must
/// deliver, and the host cost of the physics alone.
struct Reference {
    checksums: BTreeMap<u64, u64>,
    configs: Vec<EngineConfig>,
    step_s: Vec<f64>,
    /// Each chunk of [`REPLAY_CHUNK`] jobs: its range of `step_s` and
    /// its steal share.
    chunks: Vec<(Range<usize>, f64)>,
    new_s: Vec<f64>,
    wall_s: f64,
}

/// Step times of every chunk of the job mix, each from whichever of
/// two replays stole less of it: the whole mix, as calm as it ran.
fn calmer_step_s(a: &Reference, b: &Reference) -> Vec<f64> {
    a.chunks
        .iter()
        .zip(&b.chunks)
        .flat_map(|(ca, cb)| {
            let (r, c) = if cb.1 < ca.1 { (b, cb) } else { (a, ca) };
            &r.step_s[c.0.clone()]
        })
        .copied()
        .collect()
}

fn reference(load: &Load) -> Reference {
    let mut r = Reference {
        checksums: BTreeMap::new(),
        configs: Vec::new(),
        step_s: Vec::new(),
        chunks: Vec::new(),
        new_s: Vec::new(),
        wall_s: 0.0,
    };
    let start = Instant::now();
    for chunk in load.specs.chunks(REPLAY_CHUNK) {
        let first = r.step_s.len();
        let steal = StealClock::now();
        for spec in chunk {
            let sys = system_for(spec);
            let t = Instant::now();
            let mut e = engine_for(spec, sys);
            r.new_s.push(t.elapsed().as_secs_f64());
            for _ in 0..spec.steps {
                let t = Instant::now();
                std::hint::black_box(e.step());
                r.step_s.push(t.elapsed().as_secs_f64());
            }
            r.checksums.insert(spec.seed, trajectory_checksum(&e.sys));
            r.configs.push(*e.config());
        }
        r.chunks.push((first..r.step_s.len(), steal.share_since()));
    }
    r.wall_s = start.elapsed().as_secs_f64();
    r
}

/// One served run and what it left behind.
struct Served {
    wall_s: f64,
    stats: ServiceStats,
    jobs: Vec<JobRecord>,
    store_generations: u64,
    store_bytes: u64,
}

/// Files and bytes under `dir`, and how many are store generations.
fn walk(dir: &Path) -> (u64, u64) {
    let (mut gens, mut bytes) = (0, 0);
    let Ok(entries) = fs::read_dir(dir) else {
        return (0, 0);
    };
    for e in entries.flatten() {
        let p = e.path();
        if p.is_dir() {
            let (g, b) = walk(&p);
            gens += g;
            bytes += b;
        } else {
            bytes += e.metadata().map_or(0, |m| m.len());
            let name = e.file_name();
            let name = name.to_string_lossy();
            if name.starts_with("gen-") && name.ends_with(".swst") {
                gens += 1;
            }
        }
    }
    (gens, bytes)
}

fn serve_once(load: &Load, chaos: bool, root: &Path) -> Result<Served, String> {
    let _ = fs::remove_dir_all(root);
    let plan = if chaos {
        loadgen::chaos_plan(load.seed)
    } else {
        FaultPlan::with_seed(load.seed)
    };
    let scope = swfault::install(plan);
    let start = Instant::now();
    let ran = load.service(root).and_then(|mut svc| {
        svc.run_to_completion()
            .map_err(|e| format!("service run: {e}"))?;
        Ok(svc)
    });
    let wall_s = start.elapsed().as_secs_f64();
    scope.finish();
    let svc = ran?;
    let (store_generations, store_bytes) = walk(root);
    let _ = fs::remove_dir_all(root);
    Ok(Served {
        wall_s,
        stats: svc.stats().clone(),
        jobs: svc.jobs().values().cloned().collect(),
        store_generations,
        store_bytes,
    })
}

/// What a served run delivered, judged against the reference.
struct Delivery {
    submitted: u64,
    delivered: u64,
    failed: u64,
    steps_delivered: u64,
    /// Submit-to-deliver virtual ns, ascending; failed jobs are missing.
    latencies_ns: Vec<f64>,
}

fn judge(run: &Served, reference: &Reference, inject: Inject) -> Result<Delivery, String> {
    let s = &run.stats;
    let mut d = Delivery {
        submitted: s.submitted,
        delivered: 0,
        failed: 0,
        steps_delivered: 0,
        latencies_ns: Vec::new(),
    };
    let mut mismatched = Vec::new();
    let mut flip = inject == Inject::FlipChecksum;
    for job in &run.jobs {
        if let JobPhase::Done(o) = job.phase {
            let mut checksum = o.checksum;
            if std::mem::take(&mut flip) {
                checksum ^= 1;
            }
            if reference.checksums.get(&job.spec.seed) == Some(&checksum) {
                d.delivered += 1;
                d.steps_delivered += job.spec.steps;
                d.latencies_ns.push(o.latency_ns as f64);
            } else {
                mismatched.push(job.spec.seed);
            }
        }
    }
    d.latencies_ns.sort_by(f64::total_cmp);
    let lost = s
        .submitted
        .saturating_sub(s.completed + s.shed + s.rejected);
    d.failed = s.shed + s.rejected + lost + mismatched.len() as u64;
    if d.failed > 0 || d.delivered != s.submitted {
        return Err(format!(
            "{} of {} jobs not delivered intact: shed {}, rejected {}, lost {lost}, checksum mismatch {:?}",
            s.submitted - d.delivered,
            s.submitted,
            s.shed,
            s.rejected,
            mismatched
        ));
    }
    Ok(d)
}

/// The untraced run: end-to-end metrics.
pub fn run_e2e(
    spec: ServeSpec,
    seed: u64,
    seconds: f64,
    inject: Inject,
    work: &Path,
) -> Result<Report, String> {
    let load = Load::new(spec, seed);
    // A plain-Engine replay of the mix before the served runs and one
    // after them: the checksums every served job must deliver, and
    // the step times behind `step_ms_p50`.
    let reference = reference(&load);
    let root = work.join("store");

    // Rounds of set-ups and a served run.
    let mut setup = Vec::new();
    let (mut walls, mut steal) = (Vec::new(), Vec::new());
    let (mut attempted, mut failed) = (0, 0);
    let mut last = None;
    for _ in 0..spec.runs(seconds) {
        fs::create_dir_all(&root).map_err(|e| format!("{}: {e}", root.display()))?;
        for _ in 0..SETUP_REPS {
            let t = Instant::now();
            let svc = load.service(&root)?;
            setup.push(t.elapsed().as_secs_f64());
            drop(svc);
        }
        let stolen = StealClock::now();
        let run = serve_once(&load, true, &root)?;
        steal.push(stolen.share_since());
        let d = judge(&run, &reference, inject)?;
        attempted += d.submitted;
        failed += d.failed;
        walls.push(run.wall_s);
        last = Some((run, d));
    }
    let (run, d) = last.expect("at least MIN_RUNS served runs");

    let closing = self::reference(&load);
    if closing.checksums != reference.checksums {
        return Err("two plain-Engine replays of the job mix disagree".into());
    }

    // Every run delivers every job, so each calm run adds the same
    // steps and jobs.
    let calm = stats::calm(&steal);
    let calm_wall_s: f64 = calm.iter().map(|&i| walls[i]).sum();
    let mut r = Report::new(report::END_TO_END);
    // Totals over the calm served runs: delivered steps (or jobs) over
    // the summed wall time of those runs, set-ups left out.
    r.set(
        "ns_per_day",
        stats::ns_per_day(calm.len() as u64 * d.steps_delivered, DT_PS, calm_wall_s),
    );
    r.set(
        "step_ms_p50",
        1e3 * stats::median(&calmer_step_s(&reference, &closing)),
    );
    r.set("setup_s", stats::median(&setup));
    r.set("peak_rss_mb", host::peak_rss_mb());
    r.attempted = attempted;
    r.failed = failed;

    // Virtual-time service quality: a pure function of the seed, so the
    // last run stands for all of them.
    let threshold_ns = swscope::slo::SloConfig::default().latency_threshold_ns as f64;
    let within = d
        .latencies_ns
        .iter()
        .filter(|&&l| l <= threshold_ns)
        .count();
    r.info(
        "jobs_per_s",
        (calm.len() as u64 * d.delivered) as f64 / calm_wall_s,
        "jobs/s",
    );
    r.info(
        "job_latency_p50_vms",
        1e-6 * stats::nearest_rank(&d.latencies_ns, 50.0),
        "vms",
    );
    r.info(
        "job_latency_p95_vms",
        1e-6 * stats::nearest_rank(&d.latencies_ns, 95.0),
        "vms",
    );
    r.info(
        "slo_attainment",
        within as f64 / d.submitted as f64,
        "ratio",
    );
    r.info(
        "jobs_failed_ratio",
        d.failed as f64 / d.submitted as f64,
        "ratio",
    );
    r.notes.push(format!(
        "{} served runs of {} jobs ({walls:.3?} s; steal {steal:.3?}; {} calm); plain-Engine replays {:.3} s and {:.3} s; p95 has {} of {} jobs beyond it; SLO threshold {} virtual ms",
        walls.len(),
        d.submitted,
        calm.len(),
        reference.wall_s,
        closing.wall_s,
        stats::beyond(&d.latencies_ns, 95.0),
        d.submitted,
        threshold_ns * 1e-6
    ));
    r.notes.push(format!(
        "checks: every job delivered with its plain-Engine checksum; chaos: {} kills, {} rollbacks, {} resumes",
        run.stats.worker_kills, run.stats.rollbacks, run.stats.resumes
    ));
    Ok(r)
}

/// The traced run: the same job mix replayed layer by layer.
pub fn run_traced(
    spec: ServeSpec,
    seed: u64,
    inject: Inject,
    work: &Path,
    spans_out: &Path,
) -> Result<Report, String> {
    let load = Load::new(spec, seed);
    let reference = reference(&load);

    // The engine layers: a traced replica of every job.
    let mut rec = Recorder::new();
    let mut counts = Counts::default();
    for (i, (spec, cfg)) in load.specs.iter().zip(&reference.configs).enumerate() {
        rec.run = i as u64;
        let mut rep = Replica::new(system_for(spec), *cfg);
        for step in 0..spec.steps {
            rep.step(&mut rec);
            if i == 0 && step == 0 && inject == Inject::PerturbReplica {
                rep.sys.pos[0].x = f32::from_bits(rep.sys.pos[0].x.to_bits() ^ 1);
            }
        }
        if reference.checksums[&spec.seed] != trajectory_checksum(&rep.sys) {
            return Err(format!("serve replica of job {i} diverged from Engine"));
        }
        counts.add(&rep.counts);
    }
    let biggest = load
        .specs
        .iter()
        .zip(&reference.configs)
        .max_by_key(|(s, _)| s.n_mol)
        .expect("a job mix is never empty");
    let scaling = md::scaling_eff_for(system_for(biggest.0), biggest.1);

    // The store: the durable runner in service-sized quanta, no faults.
    let root = work.join("durable");
    let _ = fs::remove_dir_all(&root);
    let scope = swfault::install(FaultPlan::with_seed(seed));
    let start = Instant::now();
    let durable: Result<(), String> = load.specs.iter().enumerate().try_for_each(|(i, spec)| {
        let dir = root.join(format!("job-{i:06}"));
        let mut runner = FaultTolerantRunner::new_durable(
            engine_for(spec, system_for(spec)),
            QUANTUM_STEPS as usize,
            &dir,
        )
        .map_err(|e| format!("new_durable: {e}"))?;
        let mut at = 0;
        while at < spec.steps {
            at = spec.steps.min(at + QUANTUM_STEPS);
            runner
                .run_until(at as usize)
                .map_err(|e| format!("run_until: {e}"))?;
        }
        if trajectory_checksum(&runner.engine().sys) != reference.checksums[&spec.seed] {
            return Err(format!("durable replay of job {i} diverged from Engine"));
        }
        Ok(())
    });
    let durable_s = start.elapsed().as_secs_f64();
    scope.finish();
    durable?;
    let _ = fs::remove_dir_all(&root);

    let root = work.join("store");
    let fault_free = serve_once(&load, false, &root)?;
    judge(&fault_free, &reference, inject)?;
    let chaos = serve_once(&load, true, &root)?;
    let d = judge(&chaos, &reference, inject)?;

    let engine_step_ms = 1e3 * reference.step_s.iter().sum::<f64>() / reference.step_s.len() as f64;
    let new_ms = 1e3 * stats::median(&reference.new_s);
    let mut r = Report::new(report::PER_LAYER);
    let totals = rec.totals_of(std::iter::once(0..rec.spans().len()));
    let (traced_steps, traced_ms) = totals.get("step").copied().unwrap_or((1, 0.0));
    report::set_md_layers(
        &mut r,
        &LayerTimes {
            all: &totals,
            calm: &totals,
            calm_steps: counts.steps,
            counts: &counts,
        },
        engine_step_ms,
        traced_ms / traced_steps as f64,
        new_ms,
        scaling,
    );
    let s = &chaos.stats;
    let dispatches: u64 = chaos.jobs.iter().map(|j| j.dispatches).sum();
    r.set("serve.engine_s", reference.wall_s);
    r.set("store.s", durable_s - reference.wall_s);
    r.set("scheduler.s", fault_free.wall_s - durable_s);
    r.set("recovery.s", chaos.wall_s - fault_free.wall_s);
    r.set("store.generations", chaos.store_generations as f64);
    r.set("store.bytes", chaos.store_bytes as f64);
    r.set("scheduler.dispatches", dispatches as f64);
    r.set(
        "scheduler.useful_dispatch_ratio",
        s.completed as f64 / dispatches.max(1) as f64,
    );
    r.set("recovery.resumes", s.resumes as f64);
    r.set("recovery.rollbacks", s.rollbacks as f64);
    r.set("recovery.readmissions", s.readmissions as f64);
    r.set("chaos.worker_kills", s.worker_kills as f64);
    r.attempted = d.submitted;
    r.notes.push(format!(
        "wall: plain engines {:.3} s, durable runners {durable_s:.3} s, fault-free service {:.3} s, chaos service {:.3} s",
        reference.wall_s, fault_free.wall_s, chaos.wall_s
    ));
    r.notes.push(format!(
        "checks: {} replicas, durable replays and served jobs bit-identical to plain engines",
        load.specs.len()
    ));
    md::write_spans(&rec, spans_out, &mut r)?;
    Ok(r)
}
