//! The traced replica of `Engine::step`.
//!
//! It calls the same public layer functions in the same order as
//! `swgmx::engine::Engine::step` does for `Version::Other` rigid water
//! — pair search every `nstlist`, pack, lowering, kernel, PME,
//! leapfrog, constraints, Berendsen, frame — and opens one span per
//! call. The run is only trusted when the replica ends bit-identical
//! to an `Engine` run of the same system and step count; until spans
//! live inside the program, whatever `Engine::step` does beyond these
//! calls shows up as `engine.residual_ms`.

use std::cell::Cell;
use std::io::{self, Write};
use std::rc::Rc;

use mdsim::constraints::ConstraintSet;
use mdsim::integrate;
use mdsim::pairlist::{ListKind, PairList};
use mdsim::pme::{Pme, PmeParams};
use mdsim::water::{theta_hoh, D_OH};
use mdsim::System;
use sw26010::CoreGroup;
use swgmx::backend::{AnyBackend, KernelBackend, KernelInput};
use swgmx::check::Variant;
use swgmx::cpelist::{CpePairList, LIST_ENTRY_BYTES};
use swgmx::engine::{EngineConfig, Version};
use swgmx::fastio::{self, BufferedWriter};
use swgmx::package::{PackageLayout, PackedSystem};
use swgmx::pairgen;

use crate::trace::Recorder;

/// A `Write` that keeps only the byte count (the frame sink).
struct ByteCount(Rc<Cell<u64>>);

impl Write for ByteCount {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.0.set(self.0.get() + buf.len() as u64);
        Ok(buf.len())
    }
    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// Work counts gathered at the layer boundaries, summed over calls.
#[derive(Debug, Default)]
pub struct Counts {
    /// Steps taken.
    pub steps: u64,
    /// Cluster pairs over every pair-search build.
    pub cluster_pairs: u64,
    /// Lowered list entries over every lowering call.
    pub lowering_entries: u64,
    /// Bytes the lowering wrote (entries × index+mask+shift, offsets).
    pub lowering_bytes: u64,
    /// Bytes the packing read (positions) and wrote (packages).
    pub pack_bytes: u64,
    /// Pairs inside the cutoff, over every kernel call.
    pub pairs_within_cutoff: u64,
    /// Mask bits set (pairs the kernel evaluates), over every call.
    pub masked_pairs: u64,
    /// Bytes the kernel streams: packages + list in, forces out.
    pub kernel_bytes: u64,
    /// SHAKE iterations over every constraint call.
    pub constraint_iterations: u64,
    /// Trajectory bytes formatted.
    pub frame_bytes: u64,
}

impl Counts {
    /// Add another replica's counts.
    pub fn add(&mut self, o: &Counts) {
        self.steps += o.steps;
        self.cluster_pairs += o.cluster_pairs;
        self.lowering_entries += o.lowering_entries;
        self.lowering_bytes += o.lowering_bytes;
        self.pack_bytes += o.pack_bytes;
        self.pairs_within_cutoff += o.pairs_within_cutoff;
        self.masked_pairs += o.masked_pairs;
        self.kernel_bytes += o.kernel_bytes;
        self.constraint_iterations += o.constraint_iterations;
        self.frame_bytes += o.frame_bytes;
    }
}

/// Mask bits set over a lowered list: the particle pairs the kernel
/// evaluates.
pub fn masked_pairs(list: &CpePairList) -> u64 {
    list.masks.iter().map(|m| m.count_ones() as u64).sum()
}

/// Bytes the lowering writes for `list`.
pub fn lowering_bytes(list: &CpePairList) -> u64 {
    (list.n_entries() * LIST_ENTRY_BYTES + list.offsets.len() * 4) as u64
}

/// Bytes the packing reads and writes for `psys`.
pub fn pack_bytes(psys: &PackedSystem) -> u64 {
    (psys.n_particles * 12 + psys.pos.len() * 4) as u64
}

/// Bytes one kernel call streams: packages and list in, forces out.
pub fn kernel_bytes(psys: &PackedSystem, list: &CpePairList) -> u64 {
    (psys.pos.len() * 4 + list.n_entries() * LIST_ENTRY_BYTES + psys.n_particles * 12) as u64
}

/// The PME mesh `Engine::new` builds for `config`.
pub fn pme_for(config: &EngineConfig) -> Option<Pme> {
    config.pme_grid.map(|k| {
        let beta = match config.params.coulomb {
            mdsim::Coulomb::EwaldShort { beta } => beta as f64,
            _ => 3.12,
        };
        Pme::new(PmeParams {
            beta,
            grid: [k.next_power_of_two(); 3],
        })
    })
}

/// A span-recording stand-in for `Engine` over the same system.
pub struct Replica {
    /// The live system.
    pub sys: System,
    config: EngineConfig,
    backend: AnyBackend,
    cg: CoreGroup,
    list: Option<PairList>,
    constraints: ConstraintSet,
    pme: Option<Pme>,
    step_idx: usize,
    frame_bytes: Rc<Cell<u64>>,
    traj: BufferedWriter<ByteCount>,
    /// Counts gathered so far.
    pub counts: Counts,
}

impl Replica {
    /// Replicate an engine over `sys` with `config`, which must be the
    /// engine's own (`Engine::config`, after its cutoff clamping).
    pub fn new(sys: System, config: EngineConfig) -> Self {
        assert_eq!(
            config.version,
            Version::Other,
            "replica covers Version::Other"
        );
        assert!(config.constraints, "replica covers rigid water");
        let constraints = ConstraintSet::rigid_water(&sys, D_OH, theta_hoh());
        let frame_bytes = Rc::new(Cell::new(0));
        Self {
            sys,
            backend: AnyBackend::of(config.backend),
            cg: CoreGroup::new(),
            list: None,
            constraints,
            pme: pme_for(&config),
            step_idx: 0,
            traj: BufferedWriter::with_capacity(ByteCount(frame_bytes.clone()), 1 << 20),
            frame_bytes,
            config,
            counts: Counts::default(),
        }
    }

    /// One step, one span per layer call, all under one `step` span.
    pub fn step(&mut self, rec: &mut Recorder) {
        let step = rec.open("step", None);
        let p = Some(step);
        let cfg = self.config;
        if self.step_idx.is_multiple_of(cfg.nstlist) || self.list.is_none() {
            let (sys, cg) = (&self.sys, &self.cg);
            let gen = rec.span("pairsearch", p, || {
                pairgen::generate_pairlist(sys, cfg.rlist, ListKind::Half, cg, 2)
            });
            self.counts.cluster_pairs += gen.list.n_pairs() as u64;
            self.list = Some(gen.list);
        }
        let list = self.list.as_ref().expect("pair list built above");
        let sys = &self.sys;
        let psys = rec.span("pack", p, || {
            PackedSystem::build(sys, list.clustering.clone(), PackageLayout::Transposed)
        });
        let cpelist = rec.span("lowering", p, || CpePairList::build(sys, list));
        let backend = &self.backend;
        let result = rec.span("kernel", p, || {
            backend.run(
                Variant::Rma,
                KernelInput {
                    psys: &psys,
                    list: &cpelist,
                    params: &cfg.params,
                },
            )
        });
        self.counts.pack_bytes += pack_bytes(&psys);
        self.counts.lowering_entries += cpelist.n_entries() as u64;
        self.counts.lowering_bytes += lowering_bytes(&cpelist);
        self.counts.masked_pairs += masked_pairs(&cpelist);
        self.counts.kernel_bytes += kernel_bytes(&psys, &cpelist);
        self.counts.pairs_within_cutoff += result.energies.pairs_within_cutoff;
        for (i, f) in result.forces.iter().enumerate() {
            self.sys.force[i] = *f;
        }
        if let Some(pme) = &self.pme {
            let sys = &mut self.sys;
            rec.span("pme", p, || pme.long_range(sys));
        }

        let sys = &mut self.sys;
        let old_pos = rec.span("update", p, || {
            let old_pos = sys.pos.clone();
            integrate::leapfrog_step(sys, cfg.dt);
            old_pos
        });
        let cs = &self.constraints;
        let iters = rec.span("constraints", p, || cs.apply(sys, &old_pos, cfg.dt));
        self.counts.constraint_iterations += iters.unwrap_or(cs.max_iter) as u64;
        if let Some(t_ref) = cfg.t_ref {
            rec.span("berendsen", p, || {
                let t_now = sys.temperature(sys.dof_rigid_water());
                integrate::berendsen_scale(sys, cfg.dt, 0.1, t_ref, t_now);
            });
        }
        if cfg.nstxout > 0 && self.step_idx.is_multiple_of(cfg.nstxout) {
            let traj = &mut self.traj;
            let before = self.frame_bytes.get();
            rec.span("io", p, || {
                fastio::write_frame(traj, &sys.pos).and_then(|()| traj.flush())
            })
            .expect("a byte counter cannot fail");
            self.counts.frame_bytes += self.frame_bytes.get() - before;
        }

        self.sys.clear_forces();
        self.step_idx += 1;
        self.counts.steps += 1;
        rec.close(step);
    }
}
