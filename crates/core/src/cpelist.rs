//! The pair list in the form the CPE kernels consume: CSR cluster
//! neighbors plus a 16-bit interaction mask and a periodic shift vector
//! per cluster pair.
//!
//! Masks fold three conditions the scalar reference checks per particle
//! pair — filler slots, intramolecular exclusions, and self-pair
//! deduplication — into one bit test (bit `ai*4 + bj`), which is also how
//! the real GROMACS nbnxn kernels handle exclusions. Shift vectors bake
//! the minimum-image convention into the list so the inner kernel is
//! branch-free: `d = pos_a - (pos_b + shift)`.
//!
//! The two halves of a lowering live for different spans. The CSR
//! (`offsets`, `neighbors`) and the masks depend only on the
//! [`PairList`] and the exclusions, so they live as long as the list —
//! one `nstlist` period. The shifts depend on the current cluster
//! centers: the image they select cannot change between rebuilds, but
//! their f32 value is `c_i - min_image(c_i, c_j) - c_j`, whose rounding
//! follows the centers' low bits every step. The bit-exact replay
//! contract (an engine and a reference that lowers from scratch every
//! step agree bit for bit) therefore needs the shifts recomputed each
//! step, which [`CpePairList::refresh_shifts`] does in place.

use mdsim::cluster::{CLUSTER_SIZE, FILLER};
use mdsim::pairlist::{ListKind, PairList};
use mdsim::system::System;

/// Bytes of list data streamed per neighbor entry (index + mask + shift).
pub const LIST_ENTRY_BYTES: usize = 4 + 2 + 12;

/// A kernel-ready cluster pair list.
#[derive(Debug, Clone)]
pub struct CpePairList {
    /// CSR offsets per outer cluster.
    pub offsets: Vec<u32>,
    /// Inner cluster per entry.
    pub neighbors: Vec<u32>,
    /// Interaction mask per entry: bit `ai*4+bj` set = compute the pair.
    pub masks: Vec<u16>,
    /// Periodic shift (added to inner-cluster positions) per entry.
    pub shifts: Vec<[f32; 3]>,
    /// Half or full convention (inherited from the source list).
    pub kind: ListKind,
    /// Build radius.
    pub rlist: f32,
}

impl CpePairList {
    /// Lower a geometric [`PairList`] into kernel form: masks from
    /// `sys`'s exclusions, then shifts via [`Self::refresh_shifts`].
    pub fn build(sys: &System, list: &PairList) -> Self {
        let mut masks = Vec::with_capacity(list.n_pairs());
        for ci in 0..list.n_clusters() {
            let mi = list.clustering.members(ci);
            for &cj in list.neighbors_of(ci) {
                let cj = cj as usize;
                let mj = list.clustering.members(cj);
                let same = cj == ci;
                let mut mask = 0u16;
                for (ai, &a) in mi.iter().enumerate() {
                    if a == FILLER {
                        continue;
                    }
                    for (bj, &b) in mj.iter().enumerate() {
                        if b == FILLER || a == b {
                            continue;
                        }
                        if list.kind == ListKind::Half && same && bj <= ai {
                            continue;
                        }
                        if sys.is_excluded(a as usize, b as usize) {
                            continue;
                        }
                        mask |= 1 << (ai * CLUSTER_SIZE + bj);
                    }
                }
                masks.push(mask);
            }
        }
        let mut cpe = Self {
            offsets: list.offsets.clone(),
            neighbors: list.neighbors.clone(),
            masks,
            shifts: Vec::with_capacity(list.n_pairs()),
            kind: list.kind,
            rlist: list.rlist,
        };
        cpe.refresh_shifts(sys, list);
        cpe
    }

    /// Recompute every entry's shift from `sys`'s current positions,
    /// reusing the `shifts` buffer. `list` must be the list this
    /// lowering was built from; masks and CSR are left as they are.
    pub fn refresh_shifts(&mut self, sys: &System, list: &PairList) {
        debug_assert_eq!(self.neighbors, list.neighbors, "lowered from another list");
        let centers: Vec<mdsim::Vec3> = (0..list.n_clusters())
            .map(|c| list.clustering.center(&sys.pbc, &sys.pos, c))
            .collect();
        self.shifts.clear();
        for ci in 0..list.n_clusters() {
            for &cj in list.neighbors_of(ci) {
                // Translate cj's center to its minimum image relative to
                // ci's center.
                let cj = cj as usize;
                let d = sys.pbc.min_image(centers[ci], centers[cj]);
                let imaged = centers[ci] - d; // cj center seen from ci
                let s = imaged - centers[cj];
                self.shifts.push([s.x, s.y, s.z]);
            }
        }
    }

    /// Number of outer clusters.
    pub fn n_clusters(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Entry index range of outer cluster `ci`.
    #[inline]
    pub fn entries_of(&self, ci: usize) -> std::ops::Range<usize> {
        self.offsets[ci] as usize..self.offsets[ci + 1] as usize
    }

    /// Total entries.
    pub fn n_entries(&self) -> usize {
        self.neighbors.len()
    }

    /// Bytes of list data streamed for cluster `ci` (index+mask+shift).
    pub fn stream_bytes(&self, ci: usize) -> usize {
        self.entries_of(ci).len() * LIST_ENTRY_BYTES
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mdsim::water::water_box;

    fn setup() -> (System, PairList, CpePairList) {
        // rlist + 2 x cluster radius must stay under half the box edge
        // for the per-cluster shifts to be exact minimum images.
        let sys = water_box(600, 300.0, 51);
        let list = PairList::build(&sys, 0.6, ListKind::Half);
        let cpe = CpePairList::build(&sys, &list);
        (sys, list, cpe)
    }

    #[test]
    fn mask_bits_match_reference_conditions() {
        let (sys, list, cpe) = setup();
        let mut entry = 0;
        for ci in 0..list.n_clusters() {
            let mi = list.clustering.members(ci);
            for &cj in list.neighbors_of(ci) {
                let cj = cj as usize;
                let mj = list.clustering.members(cj);
                let mask = cpe.masks[entry];
                for (ai, &a) in mi.iter().enumerate() {
                    for (bj, &b) in mj.iter().enumerate() {
                        let bit = mask >> (ai * 4 + bj) & 1 == 1;
                        let expect = a != FILLER
                            && b != FILLER
                            && a != b
                            && !(ci == cj && bj <= ai)
                            && !sys.is_excluded(a as usize, b as usize);
                        assert_eq!(bit, expect, "entry {entry} ai={ai} bj={bj}");
                    }
                }
                entry += 1;
            }
        }
    }

    #[test]
    fn each_interacting_pair_counted_once_in_half_list() {
        let (_, _, cpe) = setup();
        // Popcount over all masks = number of particle pairs the kernel
        // will evaluate; each unordered pair exactly once.
        let mut seen = std::collections::HashSet::new();
        let mut entry = 0;
        for ci in 0..cpe.n_clusters() {
            for e in cpe.entries_of(ci) {
                let cj = cpe.neighbors[e] as usize;
                let mask = cpe.masks[entry];
                for bitpos in 0..16 {
                    if mask >> bitpos & 1 == 1 {
                        let (ai, bj) = (bitpos / 4, bitpos % 4);
                        let a = ci * 4 + ai;
                        let b = cj * 4 + bj;
                        let key = (a.min(b), a.max(b));
                        assert!(seen.insert(key), "pair {key:?} duplicated");
                    }
                }
                entry += 1;
            }
        }
        assert!(!seen.is_empty());
    }

    #[test]
    fn shifts_realize_minimum_image() {
        use crate::package::{PackageLayout, PackedSystem};
        let (sys, list, cpe) = setup();
        let psys = PackedSystem::build(&sys, list.clustering.clone(), PackageLayout::Interleaved);
        let mut entry = 0;
        let mut checked = 0u32;
        for ci in 0..list.n_clusters() {
            for &cj in list.neighbors_of(ci) {
                let cj = cj as usize;
                let s = cpe.shifts[entry];
                let mask = cpe.masks[entry];
                for ai in 0..4 {
                    for bj in 0..4 {
                        if mask >> (ai * 4 + bj) & 1 == 0 {
                            continue;
                        }
                        let (xa, ya, za, ..) = psys.read_particle(psys.package(ci), ai);
                        let (xb, yb, zb, ..) = psys.read_particle(psys.package(cj), bj);
                        let d_kernel =
                            mdsim::vec3(xa - (xb + s[0]), ya - (yb + s[1]), za - (zb + s[2]))
                                .norm();
                        let a = list.clustering.members(ci)[ai] as usize;
                        let b = list.clustering.members(cj)[bj] as usize;
                        let d_ref = sys.pbc.min_image(sys.pos[a], sys.pos[b]).norm();
                        // Exact minimum image within the list radius.
                        if d_ref < 0.6 {
                            assert!(
                                (d_kernel - d_ref).abs() < 1e-4,
                                "entry {entry} ({ai},{bj}): {d_kernel} vs {d_ref}"
                            );
                            checked += 1;
                        }
                    }
                }
                entry += 1;
            }
        }
        assert!(checked > 1000, "only {checked} pairs checked");
    }

    fn shift_bits(cpe: &CpePairList) -> Vec<[u32; 3]> {
        cpe.shifts.iter().map(|s| s.map(f32::to_bits)).collect()
    }

    #[test]
    fn refreshed_shifts_match_a_fresh_lowering_bit_for_bit() {
        use rand::{Rng, SeedableRng};
        let (mut sys, list, mut cpe) = setup();
        let before = shift_bits(&cpe);
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        for p in &mut sys.pos {
            *p += mdsim::vec3(
                rng.gen_range(-0.01..0.01),
                rng.gen_range(-0.01..0.01),
                rng.gen_range(-0.01..0.01),
            );
        }
        cpe.refresh_shifts(&sys, &list);
        let fresh = CpePairList::build(&sys, &list);
        assert_eq!(cpe.offsets, fresh.offsets);
        assert_eq!(cpe.neighbors, fresh.neighbors);
        assert_eq!(cpe.masks, fresh.masks);
        assert_eq!(shift_bits(&cpe), shift_bits(&fresh));
        // The move is too small to change any image, yet it moves the
        // shifts' low bits: a refresh that kept the old shifts would fail.
        assert_ne!(shift_bits(&cpe), before);
    }

    #[test]
    fn refresh_shifts_reuses_the_shift_buffer() {
        let (sys, list, mut cpe) = setup();
        let (ptr, cap) = (cpe.shifts.as_ptr(), cpe.shifts.capacity());
        cpe.refresh_shifts(&sys, &list);
        assert_eq!(cpe.shifts.as_ptr(), ptr);
        assert_eq!(cpe.shifts.capacity(), cap);
        assert_eq!(cpe.shifts.len(), cpe.n_entries());
    }

    #[test]
    fn stream_bytes_counts_entries() {
        let (_, _, cpe) = setup();
        let total: usize = (0..cpe.n_clusters()).map(|c| cpe.stream_bytes(c)).sum();
        assert_eq!(total, cpe.n_entries() * LIST_ENTRY_BYTES);
    }
}
