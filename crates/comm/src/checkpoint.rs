//! Checkpoint/restart for the distributed time loop.
//!
//! Every `K` steps each rank snapshots its window of sub-grids into a
//! checkpoint directory using the `MSCGRID1` format from
//! [`msc_exec::io`]. A checkpoint of step `s` is a set of per-rank,
//! per-window-slot grid files plus one completion **marker** per rank;
//! step `s` is restartable only when all `n_ranks` markers exist, so a
//! rank that dies mid-write can never produce a half checkpoint that a
//! restart would trust. Grid files are written to a temporary name and
//! atomically renamed before the marker appears.
//!
//! Layout inside the directory:
//!
//! ```text
//! ckpt_s<step>_r<rank>_w<slot>.grid   one MSCGRID1 file per window slot
//! ckpt_s<step>_r<rank>.ok            marker: this rank's step-s files are complete
//! ```
//!
//! The marker's text is `<slots> <layout>`: how many slot files there are
//! and what they hold ([`RingLayout`]: `states`, or the newest state and
//! kernel `images`). The grid files carry no tag of their own — which slot
//! plays which role follows from the step and the layout — so a run
//! refuses to read a generation written under the other layout. A marker
//! from before the word existed reads as `states`.

use msc_core::error::{MscError, Result};
use msc_exec::grid::{Grid, Scalar};
use msc_exec::{io, RingLayout};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// Complete checkpoint generations [`CheckpointStore::gc`] retains on
/// disk after each snapshot.
pub const CHECKPOINT_KEEP: usize = 2;

/// A directory of step-stamped grid snapshots shared by all ranks of a
/// world (they write disjoint files, so no locking is needed).
#[derive(Debug, Clone)]
pub struct CheckpointStore {
    dir: PathBuf,
    n_ranks: usize,
    /// What the windows of the run using this store hold, if it is a run:
    /// a store opened only to look at a directory has no say.
    layout: Option<RingLayout>,
}

impl CheckpointStore {
    /// Open (creating if needed) a checkpoint directory for a world of
    /// `n_ranks` ranks.
    pub fn new(dir: &Path, n_ranks: usize) -> Result<CheckpointStore> {
        std::fs::create_dir_all(dir).map_err(|e| {
            MscError::InvalidConfig(format!(
                "cannot create checkpoint dir {}: {e}",
                dir.display()
            ))
        })?;
        Ok(CheckpointStore {
            dir: dir.to_path_buf(),
            n_ranks,
            layout: None,
        })
    }

    /// The store of a run whose time loops keep windows of `layout`: its
    /// markers say so, and it loads no generation written under the other
    /// layout.
    pub fn holding(mut self, layout: RingLayout) -> CheckpointStore {
        self.layout = Some(layout);
        self
    }

    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn grid_path(&self, step: u64, rank: usize, slot: usize) -> PathBuf {
        self.dir.join(format!("ckpt_s{step}_r{rank}_w{slot}.grid"))
    }

    fn marker_path(&self, step: u64, rank: usize) -> PathBuf {
        self.dir.join(format!("ckpt_s{step}_r{rank}.ok"))
    }

    /// Snapshot one rank's window of grids for step `step` (the number
    /// of fully completed timesteps). Returns the bytes written. The
    /// marker is written last, after every grid file is in place.
    pub fn save_rank<'g, T: Scalar>(
        &self,
        step: u64,
        rank: usize,
        window: impl IntoIterator<Item = &'g Grid<T>>,
    ) -> Result<u64> {
        let mut bytes = 0u64;
        let mut slots = 0;
        for (slot, grid) in window.into_iter().enumerate() {
            slots += 1;
            let final_path = self.grid_path(step, rank, slot);
            let tmp_path = final_path.with_extension("grid.tmp");
            io::save(grid, &tmp_path)?;
            // An unreadable just-written file is an IO failure, not a
            // zero-byte checkpoint: swallowing it here used to silently
            // falsify the CheckpointBytes counter.
            bytes += std::fs::metadata(&tmp_path)
                .map(|m| m.len())
                .map_err(|e| {
                    MscError::InvalidConfig(format!(
                        "cannot stat checkpoint {}: {e}",
                        tmp_path.display()
                    ))
                })?;
            std::fs::rename(&tmp_path, &final_path).map_err(|e| {
                MscError::InvalidConfig(format!(
                    "cannot publish checkpoint {}: {e}",
                    final_path.display()
                ))
            })?;
        }
        let marker = match self.layout {
            Some(layout) => format!("{slots} {}\n", layout.name()),
            None => format!("{slots}\n"),
        };
        std::fs::write(self.marker_path(step, rank), marker)
            .map_err(|e| MscError::InvalidConfig(format!("cannot write checkpoint marker: {e}")))?;
        Ok(bytes)
    }

    /// Load one rank's window back from the checkpoint of step `step`. A
    /// run's store ([`CheckpointStore::holding`]) refuses a generation
    /// whose marker names the other layout: its slots would be read in the
    /// wrong roles.
    pub fn load_rank<T: Scalar>(
        &self,
        step: u64,
        rank: usize,
        n_slots: usize,
    ) -> Result<Vec<Grid<T>>> {
        if let Some(layout) = self.layout {
            let marker = self.marker_path(step, rank);
            let text = std::fs::read_to_string(&marker).map_err(|e| {
                MscError::InvalidConfig(format!("cannot read {}: {e}", marker.display()))
            })?;
            let saved = text.split_whitespace().nth(1).unwrap_or("states");
            if saved != layout.name() {
                return Err(MscError::InvalidConfig(format!(
                    "checkpoint {} holds window {saved}, this run's time loop keeps {}: resume \
                     under the staging that wrote it or clear the directory",
                    marker.display(),
                    layout.name()
                )));
            }
        }
        (0..n_slots)
            .map(|slot| io::load(&self.grid_path(step, rank, slot)))
            .collect()
    }

    /// The most recent step for which *every* rank's marker exists —
    /// the step a restart may resume from. `None` if no complete
    /// checkpoint has been taken yet.
    pub fn latest_complete(&self) -> Option<u64> {
        self.complete_steps().last().copied()
    }

    /// Every step for which all `n_ranks` markers exist, ascending.
    fn complete_steps(&self) -> Vec<u64> {
        let mut ranks_seen: BTreeMap<u64, usize> = BTreeMap::new();
        for entry in std::fs::read_dir(&self.dir).into_iter().flatten().flatten() {
            let name = entry.file_name();
            let Some(name) = name.to_str() else { continue };
            let Some(rest) = name.strip_prefix("ckpt_s") else { continue };
            let Some(rest) = rest.strip_suffix(".ok") else { continue };
            let Some((step_str, _)) = rest.split_once("_r") else { continue };
            if let Ok(step) = step_str.parse::<u64>() {
                *ranks_seen.entry(step).or_insert(0) += 1;
            }
        }
        ranks_seen
            .into_iter()
            .filter(|&(_, n)| n >= self.n_ranks)
            .map(|(step, _)| step)
            .collect()
    }

    /// Garbage-collect old generations: keep the newest
    /// [`CHECKPOINT_KEEP`] complete checkpoints and delete everything
    /// older — complete generations past the retention window, abandoned
    /// incomplete generations, and half-written `.grid.tmp` leftovers from
    /// crashed writers. Safe to call concurrently from every rank
    /// (deleting an already-deleted file is not an error), and never
    /// touches generations newer than the newest complete one, which may
    /// still be mid-write. Returns the number of files removed.
    pub fn gc(&self) -> usize {
        let complete = self.complete_steps();
        let Some(&newest) = complete.last() else {
            return 0;
        };
        let cutoff = complete[complete.len().saturating_sub(CHECKPOINT_KEEP)];
        let Ok(entries) = std::fs::read_dir(&self.dir) else {
            return 0;
        };
        let mut removed = 0usize;
        for entry in entries.flatten() {
            let name = entry.file_name();
            let Some(name) = name.to_str() else { continue };
            let Some(rest) = name.strip_prefix("ckpt_s") else { continue };
            let step: u64 = match rest
                .split(|c: char| !c.is_ascii_digit())
                .next()
                .and_then(|s| s.parse().ok())
            {
                Some(s) => s,
                None => continue,
            };
            let is_tmp = name.ends_with(".grid.tmp");
            // A tmp file at or below the newest complete generation is a
            // crashed writer's leftover: every published file of those
            // generations was atomically renamed away from its tmp name.
            let prune = if is_tmp { step <= newest } else { step < cutoff };
            if prune && std::fs::remove_file(entry.path()).is_ok() {
                removed += 1;
            }
        }
        removed
    }

    /// Delete every checkpoint file in the store (used by tests and by
    /// drivers that finished cleanly and no longer need restart data).
    pub fn clear(&self) -> Result<()> {
        if let Ok(entries) = std::fs::read_dir(&self.dir) {
            for entry in entries.flatten() {
                if let Some(name) = entry.file_name().to_str() {
                    if name.starts_with("ckpt_s") {
                        let _ = std::fs::remove_file(entry.path());
                    }
                }
            }
        }
        Ok(())
    }
}

/// Diskless buddy checkpointing: each rank's in-memory store of window
/// snapshots, kept beside the disk [`CheckpointStore`]. `own` holds this
/// rank's cloned ring per generation (its rollback state after a peer
/// dies); `held` holds the serialized ring its *predecessor* replicated
/// to it over the reliable channel layer (the content of the same
/// `MSCGRID1` window snapshot the disk store writes, as a flat lattice
/// payload — shape is implied by the decomposition, which gives every
/// rank an identical sub-extent). When the predecessor dies, the held
/// payload is pushed to the adopting spare; disk remains the fallback
/// when the buddy copy is lost too.
#[derive(Debug)]
pub struct BuddySnapshots<T> {
    own: BTreeMap<u64, Vec<Grid<T>>>,
    held: BTreeMap<u64, Vec<T>>,
    keep: usize,
}

impl<T: Scalar> BuddySnapshots<T> {
    /// A store retaining the newest `keep` generations of each kind.
    pub fn new(keep: usize) -> BuddySnapshots<T> {
        BuddySnapshots {
            own: BTreeMap::new(),
            held: BTreeMap::new(),
            keep: keep.max(1),
        }
    }

    /// Snapshot this rank's own ring for generation `gen`.
    pub fn store_own<'g>(&mut self, gen: u64, window: impl IntoIterator<Item = &'g Grid<T>>)
    where
        T: 'g,
    {
        self.own.insert(gen, window.into_iter().cloned().collect());
        while self.own.len() > self.keep {
            self.own.pop_first();
        }
    }

    /// This rank's own ring at `gen`, if still retained.
    pub fn own(&self, gen: u64) -> Option<&[Grid<T>]> {
        self.own.get(&gen).map(Vec::as_slice)
    }

    /// Store the predecessor's serialized ring for generation `gen`.
    pub fn store_held(&mut self, gen: u64, payload: Vec<T>) {
        self.held.insert(gen, payload);
        while self.held.len() > self.keep {
            self.held.pop_first();
        }
    }

    /// The predecessor's serialized ring at `gen`, if still retained.
    pub fn held(&self, gen: u64) -> Option<&[T]> {
        self.held.get(&gen).map(Vec::as_slice)
    }
}

/// Flatten a window ring into one wire payload: the slots' padded
/// lattices, concatenated in slot order. Every rank of a [`msc_core::halo::CartDecomp`]
/// has the same sub-extent and halo, so the receiver can reconstruct
/// the ring from the payload plus its own local shape.
pub(crate) fn ring_to_wire<'g, T: Scalar>(
    window: impl IntoIterator<Item = &'g Grid<T>>,
) -> Vec<T> {
    let window: Vec<&Grid<T>> = window.into_iter().collect();
    let mut out = Vec::with_capacity(window.iter().map(|g| g.as_slice().len()).sum());
    for grid in window {
        out.extend_from_slice(grid.as_slice());
    }
    out
}

/// Rebuild a window ring from a [`ring_to_wire`] payload.
pub(crate) fn wire_to_ring<T: Scalar>(
    payload: &[T],
    shape: &[usize],
    halo: &[usize],
    slots: usize,
) -> Result<Vec<Grid<T>>> {
    let blank = Grid::<T>::zeros(shape, halo);
    let len = blank.as_slice().len();
    if payload.len() != slots * len {
        return Err(MscError::InvalidConfig(format!(
            "buddy snapshot payload of {} elems is not {slots} slots of {len} each",
            payload.len()
        )));
    }
    let filled = |chunk: &[T]| {
        let mut grid = blank.clone();
        grid.as_mut_slice().copy_from_slice(chunk);
        grid
    };
    Ok(payload.chunks_exact(len).map(filled).collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_store(name: &str, n_ranks: usize) -> CheckpointStore {
        let dir = std::env::temp_dir().join(format!("msc_ckpt_{name}"));
        let store = CheckpointStore::new(&dir, n_ranks).unwrap();
        store.clear().unwrap();
        store
    }

    #[test]
    fn roundtrip_one_rank() {
        let store = tmp_store("roundtrip", 1);
        let window: Vec<Grid<f64>> = vec![
            Grid::random(&[6, 6], &[1, 1], 1),
            Grid::random(&[6, 6], &[1, 1], 2),
        ];
        let bytes = store.save_rank(10, 0, &window).unwrap();
        assert!(bytes > 0);
        assert_eq!(store.latest_complete(), Some(10));
        let back: Vec<Grid<f64>> = store.load_rank(10, 0, 2).unwrap();
        assert_eq!(back, window);
        store.clear().unwrap();
    }

    #[test]
    fn a_runs_store_reads_only_the_layout_it_holds() {
        let store = tmp_store("layout", 1);
        let window: Vec<Grid<f64>> = vec![Grid::random(&[4, 4], &[1, 1], 3); 3];
        let marker = store.dir().join("ckpt_s2_r0.ok");
        // A store opened to look at a directory writes no word and reads
        // anything; a marker without the word (every one written before
        // windows could hold images) says states.
        store.save_rank(2, 0, &window).unwrap();
        assert_eq!(std::fs::read_to_string(&marker).unwrap(), "3\n");
        let states = store.clone().holding(RingLayout::States);
        let images = store.clone().holding(RingLayout::Images);
        assert_eq!(states.load_rank::<f64>(2, 0, 3).unwrap(), window);
        let err = images.load_rank::<f64>(2, 0, 3).unwrap_err().to_string();
        assert!(
            err.contains("window states") && err.contains("keeps images"),
            "{err}"
        );
        // A run's store names its layout, beside the same slot files.
        images.save_rank(2, 0, &window).unwrap();
        assert_eq!(std::fs::read_to_string(&marker).unwrap(), "3 images\n");
        assert_eq!(images.load_rank::<f64>(2, 0, 3).unwrap(), window);
        assert_eq!(store.load_rank::<f64>(2, 0, 3).unwrap(), window);
        let err = states.load_rank::<f64>(2, 0, 3).unwrap_err().to_string();
        assert!(
            err.contains("window images") && err.contains("keeps states"),
            "{err}"
        );
        // No marker, no say: the generation is not complete.
        assert!(states.load_rank::<f64>(4, 0, 3).is_err());
        store.clear().unwrap();
    }

    #[test]
    fn incomplete_checkpoint_is_invisible() {
        // Two ranks expected, only one wrote: the step must not be
        // offered for restart.
        let store = tmp_store("incomplete", 2);
        let window: Vec<Grid<f64>> = vec![Grid::random(&[4, 4], &[1, 1], 3)];
        store.save_rank(5, 0, &window).unwrap();
        assert_eq!(store.latest_complete(), None);
        store.save_rank(5, 1, &window).unwrap();
        assert_eq!(store.latest_complete(), Some(5));
        store.clear().unwrap();
    }

    #[test]
    fn latest_wins_over_older() {
        let store = tmp_store("latest", 1);
        let window: Vec<Grid<f32>> = vec![Grid::random(&[4], &[1], 9)];
        store.save_rank(4, 0, &window).unwrap();
        store.save_rank(8, 0, &window).unwrap();
        assert_eq!(store.latest_complete(), Some(8));
        store.clear().unwrap();
        assert_eq!(store.latest_complete(), None);
    }

    #[test]
    fn gc_keeps_newest_k_and_sweeps_partials() {
        let store = tmp_store("gc", 2);
        let window: Vec<Grid<f64>> = vec![Grid::random(&[4, 4], &[1, 1], 7)];
        for step in [2u64, 4, 6, 8] {
            store.save_rank(step, 0, &window).unwrap();
            store.save_rank(step, 1, &window).unwrap();
        }
        // An abandoned incomplete generation (one rank only) below the
        // newest complete step, plus a half-written tmp file from a
        // crashed writer.
        store.save_rank(5, 0, &window).unwrap();
        let stale_tmp = store.dir().join("ckpt_s3_r1_w0.grid.tmp");
        std::fs::write(&stale_tmp, b"partial").unwrap();
        // An in-progress generation newer than anything complete must
        // survive, tmp files included.
        store.save_rank(10, 0, &window).unwrap();
        let live_tmp = store.dir().join("ckpt_s10_r1_w0.grid.tmp");
        std::fs::write(&live_tmp, b"mid-write").unwrap();

        let removed = store.gc();
        assert!(removed > 0, "expected files to be pruned");
        // Newest two complete generations retained, older ones gone.
        assert_eq!(store.latest_complete(), Some(8));
        assert!(store.load_rank::<f64>(6, 0, 1).is_ok());
        assert!(store.load_rank::<f64>(4, 0, 1).is_err());
        assert!(store.load_rank::<f64>(2, 0, 1).is_err());
        // Incomplete gen 5 and the stale tmp are swept; in-progress gen
        // 10 (markers and tmp alike) is untouched.
        assert!(store.load_rank::<f64>(5, 0, 1).is_err());
        assert!(!stale_tmp.exists(), "stale tmp file must be swept");
        assert!(live_tmp.exists(), "in-progress tmp file must survive");
        assert!(store.load_rank::<f64>(10, 0, 1).is_ok());
        store.clear().unwrap();
    }

    #[test]
    fn gc_without_complete_generation_is_a_no_op() {
        let store = tmp_store("gc_empty", 2);
        let window: Vec<Grid<f64>> = vec![Grid::random(&[4, 4], &[1, 1], 1)];
        store.save_rank(3, 0, &window).unwrap();
        assert_eq!(store.gc(), 0);
        assert!(store.load_rank::<f64>(3, 0, 1).is_ok());
        store.clear().unwrap();
    }

    #[test]
    fn save_rank_reports_true_byte_count() {
        let store = tmp_store("bytes", 1);
        let window: Vec<Grid<f64>> = vec![Grid::random(&[6, 6], &[1, 1], 11)];
        let bytes = store.save_rank(1, 0, &window).unwrap();
        let on_disk = std::fs::metadata(store.dir().join("ckpt_s1_r0_w0.grid"))
            .unwrap()
            .len();
        assert_eq!(bytes, on_disk);
        store.clear().unwrap();
    }

    #[test]
    fn buddy_ring_survives_wire_roundtrip_bit_exactly() {
        let window: Vec<Grid<f64>> = vec![
            Grid::random(&[5, 7], &[2, 1], 21),
            Grid::random(&[5, 7], &[2, 1], 22),
        ];
        let wire = ring_to_wire(&window);
        let back = wire_to_ring::<f64>(&wire, &[5, 7], &[2, 1], 2).unwrap();
        assert_eq!(back, window);
        // Truncated and oversized payloads are rejected, not mis-split.
        assert!(wire_to_ring::<f64>(&wire[..wire.len() - 1], &[5, 7], &[2, 1], 2).is_err());
        assert!(wire_to_ring::<f64>(&wire, &[5, 7], &[2, 1], 3).is_err());
    }

    #[test]
    fn buddy_store_prunes_to_keep_window() {
        let mut snaps = BuddySnapshots::<f64>::new(2);
        let ring: Vec<Grid<f64>> = vec![Grid::random(&[4], &[1], 5)];
        for gen in [2u64, 4, 6] {
            snaps.store_own(gen, &ring);
            snaps.store_held(gen, ring_to_wire(&ring));
        }
        assert!(snaps.own(2).is_none(), "oldest own gen must be pruned");
        assert!(snaps.held(2).is_none(), "oldest held gen must be pruned");
        assert!(snaps.own(4).is_some() && snaps.own(6).is_some());
        assert_eq!(snaps.held(6).unwrap(), ring_to_wire(&ring).as_slice());
    }
}
