//! The engine lowers its pair list once per `nstlist` period and only
//! refreshes the shift vectors in between. These tests pin that the
//! cached lowering changes nothing: an [`Engine`] must stay
//! bit-identical to a reference loop that calls `CpePairList::build`
//! from scratch every step, on both backends, with and without the PME
//! mesh, and across a rollback that lands in the middle of a list
//! period.

use sw_gromacs::mdsim::constraints::ConstraintSet;
use sw_gromacs::mdsim::integrate;
use sw_gromacs::mdsim::nonbonded::NbEnergies;
use sw_gromacs::mdsim::pairlist::{ListKind, PairList};
use sw_gromacs::mdsim::pme::{Pme, PmeParams};
use sw_gromacs::mdsim::water::{theta_hoh, water_box_equilibrated, D_OH};
use sw_gromacs::mdsim::{Coulomb, System};
use sw_gromacs::sw26010::CoreGroup;
use sw_gromacs::swgmx::backend::{AnyBackend, KernelBackend, KernelInput};
use sw_gromacs::swgmx::check::Variant;
use sw_gromacs::swgmx::cpelist::CpePairList;
use sw_gromacs::swgmx::engine::{Engine, EngineConfig, Version};
use sw_gromacs::swgmx::package::{PackageLayout, PackedSystem};
use sw_gromacs::swgmx::{pairgen, BackendSel};

/// Three full list periods at the paper's `nstlist` of 10.
const STEPS: usize = 30;

/// `Engine::step` for `Version::Other` rigid water, except that the
/// pair list is lowered afresh on every step.
struct Reference {
    sys: System,
    config: EngineConfig,
    backend: AnyBackend,
    cg: CoreGroup,
    list: Option<PairList>,
    constraints: ConstraintSet,
    pme: Option<Pme>,
    step_idx: usize,
}

impl Reference {
    /// Mirror `engine`, which must not have stepped yet.
    fn of(engine: &Engine) -> Self {
        let config = *engine.config();
        let pme = config.pme_grid.map(|k| {
            let beta = match config.params.coulomb {
                Coulomb::EwaldShort { beta } => beta as f64,
                _ => 3.12,
            };
            Pme::new(PmeParams {
                beta,
                grid: [k.next_power_of_two(); 3],
            })
        });
        Self {
            sys: engine.sys.clone(),
            config,
            backend: AnyBackend::of(config.backend),
            cg: CoreGroup::new(),
            list: None,
            constraints: ConstraintSet::rigid_water(&engine.sys, D_OH, theta_hoh()),
            pme,
            step_idx: 0,
        }
    }

    /// Restore a snapshot taken at `step`; the list is searched afresh.
    fn resume_at(&mut self, sys: System, step: usize) {
        self.sys = sys;
        self.step_idx = step;
        self.list = None;
    }

    fn step(&mut self) -> NbEnergies {
        let cfg = self.config;
        if self.step_idx.is_multiple_of(cfg.nstlist) || self.list.is_none() {
            let gen = pairgen::generate_pairlist(&self.sys, cfg.rlist, ListKind::Half, &self.cg, 2);
            self.list = Some(gen.list);
        }
        let list = self.list.as_ref().unwrap();
        let psys = PackedSystem::build(
            &self.sys,
            list.clustering.clone(),
            PackageLayout::Transposed,
        );
        let cpelist = CpePairList::build(&self.sys, list);
        let result = self.backend.run(
            Variant::Rma,
            KernelInput {
                psys: &psys,
                list: &cpelist,
                params: &cfg.params,
            },
        );
        let mut energies = result.energies;
        self.sys.force.copy_from_slice(&result.forces);
        if let Some(pme) = &self.pme {
            energies.coulomb += pme.long_range(&mut self.sys);
        }
        let old_pos = self.sys.pos.clone();
        integrate::leapfrog_step(&mut self.sys, cfg.dt);
        self.constraints.apply(&mut self.sys, &old_pos, cfg.dt);
        if let Some(t_ref) = cfg.t_ref {
            let t_now = self.sys.temperature(self.sys.dof_rigid_water());
            integrate::berendsen_scale(&mut self.sys, cfg.dt, 0.1, t_ref, t_now);
        }
        self.sys.clear_forces();
        self.step_idx += 1;
        energies
    }
}

fn engine(backend: BackendSel, pme_grid: Option<usize>) -> Engine {
    let sys = water_box_equilibrated(216, 300.0, 5);
    let config = EngineConfig {
        backend,
        pme_grid,
        ..EngineConfig::paper(Version::Other)
    };
    Engine::new(sys, config)
}

fn assert_same_state(engine: &Engine, reference: &Reference, what: &str) {
    let bits = |v: &[sw_gromacs::mdsim::Vec3]| -> Vec<[u32; 3]> {
        v.iter()
            .map(|p| [p.x.to_bits(), p.y.to_bits(), p.z.to_bits()])
            .collect()
    };
    assert!(
        bits(&engine.sys.pos) == bits(&reference.sys.pos),
        "{what}: positions diverged"
    );
    assert!(
        bits(&engine.sys.vel) == bits(&reference.sys.vel),
        "{what}: velocities diverged"
    );
}

fn assert_same_energies(e: NbEnergies, r: NbEnergies, what: &str) {
    assert_eq!(e.lj.to_bits(), r.lj.to_bits(), "{what}: LJ energy");
    assert_eq!(
        e.coulomb.to_bits(),
        r.coulomb.to_bits(),
        "{what}: Coulomb energy"
    );
    assert_eq!(e.virial.to_bits(), r.virial.to_bits(), "{what}: virial");
    assert_eq!(
        e.pairs_within_cutoff, r.pairs_within_cutoff,
        "{what}: pairs"
    );
}

const CONFIGS: [(BackendSel, Option<usize>); 4] = [
    (BackendSel::Native, None),
    (BackendSel::Native, Some(16)),
    (BackendSel::Metered, None),
    (BackendSel::Metered, Some(16)),
];

#[test]
fn cached_lowering_matches_a_per_step_lowering_bit_for_bit() {
    for (backend, pme) in CONFIGS {
        let mut engine = engine(backend, pme);
        let mut reference = Reference::of(&engine);
        for step in 0..STEPS {
            let what = format!("{backend:?} pme {pme:?} step {step}");
            assert_same_energies(engine.step(), reference.step(), &what);
            assert_same_state(&engine, &reference, &what);
        }
    }
}

#[test]
fn rollback_mid_period_drops_the_cached_lowering() {
    // Snapshot at step 15, halfway through a list period, and roll back
    // to it from step 18. The engine must search and lower afresh from
    // the restored positions, as the reference does; reusing the list
    // and lowering cached at step 10 would change the forces.
    const SNAPSHOT: usize = 15;
    const ROLLBACK_FROM: usize = 18;
    for (backend, pme) in CONFIGS {
        let mut engine = engine(backend, pme);
        let mut reference = Reference::of(&engine);
        let mut snapshot = None;
        for step in 0..ROLLBACK_FROM {
            if step == SNAPSHOT {
                snapshot = Some(engine.sys.clone());
            }
            engine.step();
            reference.step();
        }
        let snapshot = snapshot.unwrap();
        engine.sys = snapshot.clone();
        engine.resume_at(SNAPSHOT);
        reference.resume_at(snapshot, SNAPSHOT);
        for step in SNAPSHOT..STEPS {
            let what = format!("{backend:?} pme {pme:?} step {step} after rollback");
            assert_same_energies(engine.step(), reference.step(), &what);
            assert_same_state(&engine, &reference, &what);
        }
    }
}
