//! The MD workloads: a closed loop of `Engine::step` on one water box.

use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

use mdsim::constraints::ConstraintSet;
use mdsim::pairlist::{ListKind, PairList};
use mdsim::water::{theta_hoh, water_box, D_OH};
use mdsim::System;
use sw26010::CoreGroup;
use swgmx::backend::{KernelBackend, KernelInput, MeteredBackend, NativeBackend};
use swgmx::check::Variant;
use swgmx::cpelist::CpePairList;
use swgmx::engine::{Engine, EngineConfig, Version};
use swgmx::package::{PackageLayout, PackedSystem};
use swgmx::pairgen;
use swgmx::BackendSel;
use swserve::trajectory_checksum;

use crate::host::StealClock;
use crate::replica::{self, Counts, Replica};
use crate::report::{self, LayerTimes, Report};
use crate::stats::{self, DT_PS};
use crate::trace::Recorder;
use crate::{host, Inject};

/// One MD workload.
#[derive(Debug, Clone, Copy)]
pub struct MdSpec {
    /// Water molecules (3 particles each).
    pub n_mol: usize,
    /// PME grid points per axis (None = short-range only).
    pub pme_grid: Option<usize>,
    /// Host seconds of one `nstlist` cycle on the reference host. It
    /// turns `--seconds` into a fixed number of timed cycles.
    pub cycle_s: f64,
}

impl MdSpec {
    /// Timed `nstlist` cycles for a run of `seconds`. It depends on the
    /// workload and `--seconds` alone, never on how fast the steps run,
    /// so every build times the same steps of the same trajectory: the
    /// raw lattice cools and the step cost creeps up over a run, and a
    /// time-bounded loop would send a faster build into slower steps.
    pub fn cycles(&self, seconds: f64) -> usize {
        ((seconds / self.cycle_s).round() as usize).max(1)
    }
}

/// `Engine::new` plus the first step, repeated; `setup_s` is the median.
const SETUP_REPS: usize = 5;
/// Kernel calls per thread count when measuring scaling.
const SCALING_REPS: usize = 3;
/// Thermostat target, K.
const T_REF: f64 = 300.0;
/// Temperature band around `T_REF` that always passes, K.
const T_TOL: f64 = 30.0;
/// Temperature no healthy run reaches after its first steps, K.
const T_MAX: f64 = 5.0 * T_REF;
/// Largest relative constraint violation allowed after the timed loop.
const MAX_VIOLATION: f32 = 1e-3;
/// Largest relative energy difference between native and metered kernels.
const MAX_REL_DE: f64 = 1e-4;

/// The engine configuration every MD workload runs: the paper's
/// `Version::Other` rigid-water setup on the native backend.
pub fn config(spec: MdSpec) -> EngineConfig {
    let cfg = EngineConfig {
        backend: BackendSel::Native,
        pme_grid: spec.pme_grid,
        ..EngineConfig::paper(Version::Other)
    };
    assert_eq!(cfg.dt, DT_PS as f32, "ns_per_day assumes dt = {DT_PS} ps");
    cfg
}

/// The step-0 kernel input that the checks, the scaling measurement and
/// the working-set note run on.
struct Probe {
    psys: PackedSystem,
    cpelist: CpePairList,
    list: PairList,
    sys: System,
}

impl Probe {
    fn build(sys: System, cfg: &EngineConfig) -> Self {
        let list =
            pairgen::generate_pairlist(&sys, cfg.rlist, ListKind::Half, &CoreGroup::new(), 2).list;
        let psys = PackedSystem::build(&sys, list.clustering.clone(), PackageLayout::Transposed);
        let cpelist = CpePairList::build(&sys, &list);
        Self {
            psys,
            cpelist,
            list,
            sys,
        }
    }

    fn input<'a>(&'a self, cfg: &'a EngineConfig) -> KernelInput<'a> {
        KernelInput {
            psys: &self.psys,
            list: &self.cpelist,
            params: &cfg.params,
        }
    }

    /// Bytes of the state one step touches: particle arrays, packages,
    /// lowered list and pair list (computed from sizes).
    fn working_set_bytes(&self) -> u64 {
        (self.sys.n() * 36) as u64
            + replica::pack_bytes(&self.psys)
            + replica::lowering_bytes(&self.cpelist)
            + self.list.bytes() as u64
    }
}

/// Check before timing: the native and metered kernels agree on the
/// step-0 state.
fn check_kernels(probe: &Probe, cfg: &EngineConfig) -> Result<(), String> {
    let native = NativeBackend::new()
        .run(Variant::Rma, probe.input(cfg))
        .energies;
    let metered = MeteredBackend::new()
        .run(Variant::Rma, probe.input(cfg))
        .energies;
    if native.pairs_within_cutoff != metered.pairs_within_cutoff {
        return Err(format!(
            "native kernel saw {} pairs within cutoff, metered {}",
            native.pairs_within_cutoff, metered.pairs_within_cutoff
        ));
    }
    let rel = (native.total() - metered.total()).abs() / metered.total().abs();
    if rel.is_nan() || rel >= MAX_REL_DE {
        return Err(format!(
            "native and metered short-range energies differ by {rel:e} (limit {MAX_REL_DE:e})"
        ));
    }
    Ok(())
}

/// Temperature of a rigid-water system, K.
fn temperature(sys: &System) -> f64 {
    sys.temperature(sys.dof_rigid_water())
}

/// Check after timing: finite energies, rigid water still rigid, and
/// the thermostat holding or pulling the temperature toward `T_REF`.
///
/// `water_box` is a jittered lattice whose close contacts heat the
/// first steps to ~1000 K; Berendsen then cools it monotonically (420 K
/// by step 200 on 24K). So the check, from the end of the first
/// `nstlist` cycle on, is that the temperature ends
/// inside `T_REF ± T_TOL` or at least as close to it as it was when
/// timing began (`t_start`), and never above `T_MAX`.
fn check_state(engine: &Engine, t_start: f64) -> Result<String, String> {
    let e = engine.energies;
    if !(e.lj.is_finite() && e.coulomb.is_finite()) {
        return Err(format!(
            "non-finite energies: LJ {} Coulomb {}",
            e.lj, e.coulomb
        ));
    }
    let sys = &engine.sys;
    let t = temperature(sys);
    let toward = (t - T_REF).abs() <= (t_start - T_REF).abs().max(T_TOL);
    if !(t < T_MAX && toward) {
        return Err(format!(
            "temperature went from {t_start:.1} K to {t:.1} K: not toward {T_REF} K (or over {T_MAX} K)"
        ));
    }
    let v = ConstraintSet::rigid_water(sys, D_OH, theta_hoh()).max_violation(sys);
    if v.is_nan() || v >= MAX_VIOLATION {
        return Err(format!("constraint violation {v:e} over {MAX_VIOLATION:e}"));
    }
    Ok(format!(
        "checks: native = metered kernel at step 0; T {t_start:.1} K -> {t:.1} K by step {}, max constraint violation {v:.2e}, E {:.1} kJ/mol",
        engine.step_index(),
        e.total()
    ))
}

/// Kernel-only scaling: 1-thread time over `nproc`-thread time, divided
/// by `nproc`. `Engine` always sizes its pool to the host, so this is
/// measured on the kernel call alone.
fn scaling_eff(probe: &Probe, cfg: &EngineConfig) -> f64 {
    let n = host::nproc();
    let time = |b: &NativeBackend| {
        let ms: Vec<f64> = (0..SCALING_REPS)
            .map(|_| {
                let t = Instant::now();
                black_box(b.run(Variant::Rma, probe.input(cfg)));
                t.elapsed().as_secs_f64()
            })
            .collect();
        stats::median(&ms)
    };
    let t1 = time(&NativeBackend::with_threads(1));
    let tn = time(&NativeBackend::with_threads(n));
    t1 / (tn * n as f64)
}

/// [`scaling_eff`] on the step-0 state of `sys`.
pub fn scaling_eff_for(sys: System, cfg: &EngineConfig) -> f64 {
    scaling_eff(&Probe::build(sys, cfg), cfg)
}

fn working_set_note(probe: &Probe) -> String {
    let ws = probe.working_set_bytes();
    match host::cache_bytes(2) {
        Some(l2) => format!(
            "working set (computed): {:.1} MiB = {:.0} x L2 ({} KiB)",
            ws as f64 / 1048576.0,
            ws as f64 / l2 as f64,
            l2 / 1024
        ),
        None => format!(
            "working set (computed): {:.1} MiB; L2 unknown",
            ws as f64 / 1048576.0
        ),
    }
}

/// Whole `nstlist` cycles of an engine, timed step by step.
struct Timed {
    nstlist: usize,
    step_s: Vec<f64>,
    cycle_s: Vec<f64>,
    /// Steal share of each cycle.
    cycle_steal: Vec<f64>,
    wall_s: f64,
    /// Temperature when timing began, K.
    t_start: f64,
}

impl Timed {
    /// Wall times of the calm cycles ([`stats::calm`]).
    fn calm_cycles(&self) -> Vec<f64> {
        stats::calm(&self.cycle_steal)
            .into_iter()
            .map(|c| self.cycle_s[c])
            .collect()
    }

    /// Step times of the calm cycles.
    fn calm_steps(&self) -> Vec<f64> {
        stats::calm(&self.cycle_steal)
            .into_iter()
            .flat_map(|c| &self.step_s[c * self.nstlist..(c + 1) * self.nstlist])
            .copied()
            .collect()
    }

    /// Mean step that the `ns_per_day` of these cycles implies, ms.
    fn step_ms_mean(&self) -> f64 {
        1e3 * stats::median(&self.calm_cycles()) / self.nstlist as f64
    }

    fn note(&self) -> String {
        format!(
            "timed steps {}..{} ({} nstlist cycles, {} calm) in {:.3} s ({:.4} ns/day over all of them); cycles {:.3?} s, steal {:.3?}",
            self.nstlist,
            self.nstlist + self.step_s.len(),
            self.cycle_s.len(),
            self.calm_cycles().len(),
            self.wall_s,
            stats::ns_per_day(self.step_s.len() as u64, DT_PS, self.wall_s),
            self.cycle_s,
            self.cycle_steal
        )
    }
}

/// Step `engine` to the end of its first `nstlist` cycle (set-up and
/// warm-up), then time `cycles` whole cycles, so rebuild steps weigh
/// in at 1 in `nstlist`. The engine ends at step `(cycles + 1) × nstlist`.
fn time_cycles(engine: &mut Engine, cycles: usize) -> Timed {
    let nstlist = engine.config().nstlist;
    while engine.step_index() < nstlist {
        engine.step();
    }
    let t_start = temperature(&engine.sys);
    let (mut step_s, mut cycle_s, mut cycle_steal) = (Vec::new(), Vec::new(), Vec::new());
    let start = Instant::now();
    for _ in 0..cycles {
        let steal = StealClock::now();
        let cycle = Instant::now();
        for _ in 0..nstlist {
            let t = Instant::now();
            black_box(engine.step());
            step_s.push(t.elapsed().as_secs_f64());
        }
        cycle_s.push(cycle.elapsed().as_secs_f64());
        cycle_steal.push(steal.share_since());
    }
    Timed {
        nstlist,
        step_s,
        cycle_s,
        cycle_steal,
        wall_s: start.elapsed().as_secs_f64(),
        t_start,
    }
}

/// The untraced run: end-to-end metrics.
pub fn run_e2e(spec: MdSpec, seed: u64, seconds: f64) -> Result<Report, String> {
    let set_up = || {
        let steal = StealClock::now();
        let t = Instant::now();
        let mut e = Engine::new(water_box(spec.n_mol, T_REF, seed), config(spec));
        e.step();
        (e, (t.elapsed().as_secs_f64(), steal.share_since()))
    };
    // The timed engine is the first one built. Engines built and dropped
    // before it left the heap in a seed-dependent state that moved the
    // step time by up to 20%; the remaining set-ups run after timing.
    let (mut engine, first_setup) = set_up();
    let cfg = *engine.config();
    let (working_set, checked) = {
        let probe = Probe::build(water_box(spec.n_mol, T_REF, seed), &cfg);
        (working_set_note(&probe), check_kernels(&probe, &cfg))
    };
    checked?;

    let timed = time_cycles(&mut engine, spec.cycles(seconds));
    let checks = check_state(&engine, timed.t_start)?;
    drop(engine);
    let mut setup = vec![first_setup];
    setup.extend((1..SETUP_REPS).map(|_| set_up().1));

    let mut r = Report::new(report::END_TO_END);
    // The median calm cycle: a median also shrugs off the odd cycle
    // that other tenants slow without stealing CPU time.
    r.set(
        "ns_per_day",
        stats::ns_per_day(
            cfg.nstlist as u64,
            DT_PS,
            stats::median(&timed.calm_cycles()),
        ),
    );
    r.set("step_ms_p50", 1e3 * stats::median(&timed.calm_steps()));
    r.set("setup_s", stats::calm_median(&setup));
    r.set("peak_rss_mb", host::peak_rss_mb());
    r.attempted = timed.step_s.len() as u64;
    r.notes.push(working_set);
    r.notes
        .push(format!("{}; set-up {SETUP_REPS}x", timed.note()));
    r.notes.push(checks);
    Ok(r)
}

/// The traced run: per-layer metrics from a replica that must end
/// bit-identical to the untraced engine.
///
/// The engine pass times the same window as the untraced run, and
/// `engine.step_ms_mean` is the mean step that window's `ns_per_day`
/// implies: the median cycle over `nstlist`. The replica then runs
/// the same steps, and its layer times are taken over the same window.
pub fn run_traced(
    spec: MdSpec,
    seed: u64,
    seconds: f64,
    inject: Inject,
    spans_out: &Path,
) -> Result<Report, String> {
    let sys = water_box(spec.n_mol, T_REF, seed);
    let t = Instant::now();
    let mut engine = Engine::new(sys, config(spec));
    let new_ms = 1e3 * t.elapsed().as_secs_f64();
    let cfg = *engine.config();
    let probe = Probe::build(water_box(spec.n_mol, T_REF, seed), &cfg);
    check_kernels(&probe, &cfg)?;
    let scaling = scaling_eff(&probe, &cfg);

    let timed = time_cycles(&mut engine, spec.cycles(seconds));
    let engine_step_ms = timed.step_ms_mean();
    let checks = check_state(&engine, timed.t_start)?;
    let steps = engine.step_index();
    let want = trajectory_checksum(&engine.sys);
    drop(engine);

    // The traced replica: same system, same steps, same timed window.
    let mut rec = Recorder::new();
    let mut rep = Replica::new(water_box(spec.n_mol, T_REF, seed), cfg);
    for i in 0..cfg.nstlist {
        rep.step(&mut rec);
        if i == 0 && inject == Inject::PerturbReplica {
            rep.sys.pos[0].x = f32::from_bits(rep.sys.pos[0].x.to_bits() ^ 1);
        }
    }
    rep.counts = Counts::default();
    // Each timed cycle's span indices, wall time and steal share.
    let (mut ranges, mut cycle_s, mut cycle_steal) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..timed.cycle_s.len() {
        let first = rec.spans().len();
        let steal = StealClock::now();
        let cycle = Instant::now();
        for _ in 0..cfg.nstlist {
            rep.step(&mut rec);
        }
        cycle_s.push(cycle.elapsed().as_secs_f64());
        cycle_steal.push(steal.share_since());
        ranges.push(first..rec.spans().len());
    }
    if trajectory_checksum(&rep.sys) != want {
        return Err(format!(
            "MD replica diverged from Engine within {steps} steps"
        ));
    }
    let calm = stats::calm(&cycle_steal);
    let calm_cycle_s: Vec<f64> = calm.iter().map(|&c| cycle_s[c]).collect();

    let mut r = Report::new(report::PER_LAYER);
    report::set_md_layers(
        &mut r,
        &LayerTimes {
            all: &rec.totals_of(ranges.iter().cloned()),
            calm: &rec.totals_of(calm.iter().map(|&c| ranges[c].clone())),
            calm_steps: (calm.len() * cfg.nstlist) as u64,
            counts: &rep.counts,
        },
        engine_step_ms,
        1e3 * stats::median(&calm_cycle_s) / cfg.nstlist as f64,
        new_ms,
        scaling,
    );
    for name in report::SERVE_LAYERS {
        r.set(name, 0.0);
    }
    r.attempted = steps as u64;
    r.notes.push(working_set_note(&probe));
    r.notes.push(format!(
        "engine pass: {:.4} ns/day, the untraced run's window: {}",
        stats::ns_per_day(
            cfg.nstlist as u64,
            DT_PS,
            stats::median(&timed.calm_cycles())
        ),
        timed.note()
    ));
    r.notes.push(checks);
    r.notes.push(format!(
        "replica bit-identical to Engine after {steps} steps"
    ));
    write_spans(&rec, spans_out, &mut r)?;
    Ok(r)
}

/// Write the spans and note where.
pub fn write_spans(rec: &Recorder, path: &Path, r: &mut Report) -> Result<(), String> {
    rec.write_chrome(path)
        .map_err(|e| format!("writing spans to {}: {e}", path.display()))?;
    r.notes.push(format!(
        "{} spans written to {}",
        rec.spans().len(),
        path.display()
    ));
    Ok(())
}
